import copy
import functools
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prostochastic.monoid as monoid_module
from prostochastic import (BooleanMatrix, IdempotenceError, Letter, MarkovMonoid,
                           MonoidElement, Omega, ProbabilisticAutomaton, Product,
                           StochasticMatrix, boolean_interpretation, boolean_product,
                           boolean_projection, build_reduction, counterexample_automaton,
                           find_value1_witness, format_expression, format_monoid,
                           is_idempotent, markov_monoid, parse_expression, stabilize)
from conftest import (absorbing_automaton, brute_force_word_closure, coin_automaton,
                      funnel_automaton, is_value1_witness, permutation_automaton,
                      random_nine_state_automaton, random_quarter_automaton,
                      random_stochastic, reference_saturate, single_state_automaton,
                      symmetric_group_automaton, transition_monoid, wide_constant_automaton,
                      wide_midrun_automaton, wide_omega_automaton)

UPPER = BooleanMatrix(((1, 1), (0, 1)))
SWAP = BooleanMatrix(((0, 1), (1, 0)))


def numeric_support_of_power_limit(entries, epsilon=1e-6):
    """Independent oracle: support of M^(10!) computed with plain numpy."""
    power = np.linalg.matrix_power(np.asarray(entries, dtype=float), 3628800)
    return BooleanMatrix(tuple(tuple(1 if v > epsilon else 0 for v in row) for row in power))


def shuffled_saturation(automaton, rng):
    """Independent fixpoint recomputation with randomized processing order."""
    matrices = {boolean_projection(automaton.transition(a)) for a in automaton.alphabet}
    changed = True
    while changed:
        changed = False
        pool = list(matrices)
        rng.shuffle(pool)
        for left in pool:
            for right in pool:
                product = boolean_product(left, right)
                if product not in matrices:
                    matrices.add(product)
                    changed = True
        for matrix in list(matrices):
            if is_idempotent(matrix):
                stabilized = stabilize(matrix)
                if stabilized not in matrices:
                    matrices.add(stabilized)
                    changed = True
    return frozenset(matrices)


class TestBooleanProjection:
    def test_positive_entries(self):
        assert boolean_projection(StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])) == UPPER

    def test_identity(self):
        assert boolean_projection(StochasticMatrix.identity(3)) == BooleanMatrix.identity(3)

    def test_parameter_independence(self):
        for x in (0.1, 0.5, 0.999):
            m = StochasticMatrix([[x, 1.0 - x], [1.0, 0.0]])
            assert boolean_projection(m) == BooleanMatrix(((1, 1), (1, 0)))


class TestBooleanProduct:
    def test_identity_neutral(self):
        assert boolean_product(UPPER, BooleanMatrix.identity(2)) == UPPER

    def test_upper_triangular_is_idempotent(self):
        assert boolean_product(UPPER, UPPER) == UPPER

    def test_swap_squares_to_identity(self):
        assert boolean_product(SWAP, SWAP) == BooleanMatrix.identity(2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            boolean_product(UPPER, BooleanMatrix.identity(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            boolean_product(BooleanMatrix.identity(70), BooleanMatrix.identity(71))


class TestIdempotence:
    def test_identity(self):
        assert is_idempotent(BooleanMatrix.identity(4))

    def test_upper(self):
        assert is_idempotent(UPPER)

    def test_swap_is_not(self):
        assert not is_idempotent(SWAP)


class TestStabilize:
    def test_identity_fixpoint(self):
        assert stabilize(BooleanMatrix.identity(3)) == BooleanMatrix.identity(3)

    def test_all_ones_fixpoint(self):
        ones = BooleanMatrix(((1, 1), (1, 1)))
        assert stabilize(ones) == ones

    def test_transient_state_loses_its_column(self):
        # Numeric oracle: the power limit of [[1/2, 1/2], [0, 1]] drains all
        # mass into the absorbing state.
        expected = numeric_support_of_power_limit([[0.5, 0.5], [0.0, 1.0]])
        assert expected == BooleanMatrix(((0, 1), (0, 1)))
        assert stabilize(UPPER) == expected

    def test_rejects_non_idempotent(self):
        with pytest.raises(IdempotenceError):
            stabilize(SWAP)

    def test_matches_numeric_power_limit_on_random_supports(self, rng):
        found = 0
        while found < 60:
            m = random_stochastic(rng, int(rng.integers(2, 5)))
            support = boolean_projection(m)
            if not is_idempotent(support):
                continue
            found += 1
            assert stabilize(support) == numeric_support_of_power_limit(m.entries)


def reference_product(left, right):
    d = len(left)
    return [[int(any(left[s][k] and right[k][t] for k in range(d))) for t in range(d)]
            for s in range(d)]


def reference_stabilize(matrix):
    d = len(matrix)
    recurrent = [all(not matrix[t][s] or matrix[s][t] for s in range(d)) for t in range(d)]
    return [[int(matrix[s][t] and recurrent[t]) for t in range(d)] for s in range(d)]


def reference_closure(matrix):
    """Reflexive-transitive closure (Warshall), which is always idempotent."""
    d = len(matrix)
    closure = [[int(matrix[s][t] or s == t) for t in range(d)] for s in range(d)]
    for k in range(d):
        for s in range(d):
            if closure[s][k]:
                closure[s] = [a or b for a, b in zip(closure[s], closure[k])]
    return closure


def as_rows(dense):
    return tuple(tuple(row) for row in dense)


# d = 70 rows do not fit a 64-bit word.
DIMS = list(range(1, 10)) + [70]


@st.composite
def dense_pairs(draw, dims=st.sampled_from(DIMS)):
    """Two supports of stochastic matrices of one dimension: each row ANDs
    one to three random masks, so densities of 1/2, 1/4 and 1/8 all occur,
    and then sets one bit, so no row is empty."""
    d = draw(dims)

    def dense():
        rows = []
        for _ in range(d):
            mask = (1 << d) - 1
            for _ in range(draw(st.integers(1, 3))):
                mask &= draw(st.integers(0, (1 << d) - 1))
            mask |= 1 << draw(st.integers(0, d - 1))
            rows.append([mask >> t & 1 for t in range(d)])
        return rows

    return dense(), dense()


def cycle(d):
    """s -> s + 1 mod d: a product with it on the left permutes the rows of
    the right operand, so a dropped row shows."""
    return [[int(t == (s + 1) % d) for t in range(d)] for s in range(d)]


def path(d):
    """s -> s + 1 and d - 1 -> d - 1: its closure is idempotent and only the
    last column survives stabilization."""
    return [[int(t == min(s + 1, d - 1)) for t in range(d)] for s in range(d)]


def sparse(d, seed):
    rng = random.Random(seed)
    return [[int(rng.random() < 0.05 or t == s) for t in range(d)] for s in range(d)]


class TestKernelAgainstDenseReference:
    """The bitmask kernel against triple loops over row lists."""

    @settings(deadline=None)
    @given(dense_pairs())
    @example((cycle(70), sparse(70, 1)))
    def test_product(self, pair):
        left, right = pair
        product = boolean_product(BooleanMatrix(left), BooleanMatrix(right))
        assert product.rows == as_rows(reference_product(left, right))
        assert product == BooleanMatrix(reference_product(left, right))

    @settings(deadline=None)
    @given(dense_pairs(st.integers(1, 70)))
    @example((cycle(70), sparse(70, 1)))
    def test_product_through_row_table(self, pair):
        # Saturation's right product: the key of the left operand, the ids
        # of its rows, translated through the right operand's table, with
        # `bytes` keys and, on 9 states or more, with the tuple keys past
        # 256 distinct rows.
        left, right = pair
        expected = BooleanMatrix(reference_product(left, right)).masks
        forms = [(bytes, bytes.translate, bytearray(256))]
        if len(left) > 8:
            forms.append((tuple, monoid_module._wide_product, {}))
        for pack, times, table in forms:
            ids = monoid_module._RowIds()
            key = pack(map(ids.__getitem__, BooleanMatrix(left).masks))
            ids.fill(range(len(ids.rows)), [(BooleanMatrix(right).masks, table)])
            assert tuple(map(ids.rows.__getitem__, times(key, table))) == expected

    @settings(deadline=None)
    @given(dense_pairs(st.integers(1, 70)))
    @example((cycle(70), sparse(70, 1)))
    def test_row_table_holds_only_the_masks_asked_for(self, pair):
        # Filling the ids of the left operand's rows names those rows, then
        # the new rows of the product, and leaves the other entries 0.
        left, right = pair
        ids, table = monoid_module._RowIds(), bytearray(256)
        asked = BooleanMatrix(left).masks
        bytes(map(ids.__getitem__, asked))
        distinct = len(ids.rows)
        ids.fill(range(distinct), [(BooleanMatrix(right).masks, table)])
        assert ids.rows[:distinct] == list(dict.fromkeys(asked))
        assert set(ids.rows) == set(asked) | set(BooleanMatrix(reference_product(left, right)).masks)
        assert not any(table[distinct:])

    def test_row_ids_stop_at_the_limit(self):
        # Id 256 does not fit a `bytes` key: asking for it raises, and
        # hands out nothing, until the limit is lifted.
        ids = monoid_module._RowIds()
        assert bytes(map(ids.__getitem__, range(256))) == bytes(range(256))
        with pytest.raises(monoid_module._RowIdsFull):
            ids[256]
        assert len(ids) == len(ids.rows) == 256
        ids.limit = None
        assert (ids[256], ids[300], ids[256]) == (256, 257, 256)
        assert ids.rows[256:] == [256, 300]

    @settings(deadline=None)
    @given(dense_pairs())
    @example((path(70), None))
    def test_idempotence_and_stabilization(self, pair):
        dense, _ = pair
        for candidate in (dense, reference_closure(dense)):
            matrix = BooleanMatrix(candidate)
            idempotent = reference_product(candidate, candidate) == candidate
            assert is_idempotent(matrix) == idempotent
            if not idempotent:
                with pytest.raises(IdempotenceError):
                    stabilize(matrix)
                continue
            stable = reference_stabilize(candidate)
            assert stabilize(matrix).rows == as_rows(stable)
            # A stabilization is itself idempotent, often with cleared columns.
            assert stabilize(BooleanMatrix(stable)).rows == as_rows(reference_stabilize(stable))

    @settings(deadline=None)
    @given(dense_pairs())
    @example((cycle(70), sparse(70, 1)))
    def test_fused_idempotence_and_stabilization(self, pair):
        # Saturation's one-pass helper: the stabilized masks, or None for a
        # non-idempotent matrix.
        for dense in pair:
            for candidate in (dense, reference_closure(dense)):
                matrix = BooleanMatrix(candidate)
                fused = monoid_module._stabilized(matrix.masks)
                if not is_idempotent(matrix):
                    assert fused is None
                    continue
                assert fused == stabilize(matrix).masks
                assert fused == BooleanMatrix(reference_stabilize(candidate)).masks

    @settings(deadline=None)
    @given(dense_pairs(st.sampled_from([*range(1, 10), 70])))
    @example((cycle(70), None))
    def test_idempotent_power(self, pair):
        # The least idempotent power by repeated dense products, then its
        # stabilization.
        dense, _ = pair
        exponent, power = 1, dense
        while reference_product(power, power) != power:
            exponent, power = exponent + 1, reference_product(power, dense)
        expected = (exponent, BooleanMatrix(reference_stabilize(power)).masks)
        assert monoid_module.idempotent_power(BooleanMatrix(dense)) == expected

    def test_idempotent_power_of_a_cycle_is_its_length(self):
        exponent, stable = monoid_module.idempotent_power(BooleanMatrix(cycle(70)))
        assert exponent == 70
        assert stable == BooleanMatrix.identity(70).masks

    def test_state_sharing_its_row_with_a_recurrent_state_is_transient(self):
        # Row 1 is {2} and row 2 is {2}: state 1 has the row of its only
        # successor, yet it is not in its own row, so its column is cleared.
        matrix = [[1, 1, 1], [0, 0, 1], [0, 0, 1]]
        assert is_idempotent(BooleanMatrix(matrix))
        expected = numeric_support_of_power_limit([[1 / 3, 1 / 3, 1 / 3], [0, 0, 1], [0, 0, 1]])
        assert expected.rows == as_rows(reference_stabilize(matrix)) == ((0, 0, 1),) * 3
        assert monoid_module._stabilized(BooleanMatrix(matrix).masks) == expected.masks

    def test_every_matrix_up_to_dimension_4(self):
        # All 66,066 boolean matrices of dimension 1 to 4, empty rows
        # included: 2,496 of them are idempotent.
        idempotents = 0
        for d in range(1, 5):
            row_mask = (1 << d) - 1
            for code in range(1 << d * d):
                masks = tuple(code >> d * s & row_mask for s in range(d))
                dense = [[mask >> t & 1 for t in range(d)] for mask in masks]
                expected = None
                if reference_product(dense, dense) == dense:
                    idempotents += 1
                    expected = BooleanMatrix(reference_stabilize(dense)).masks
                assert monoid_module._stabilized(masks) == expected, masks
        assert idempotents == 2496

    def test_state_with_an_empty_row_keeps_its_column(self):
        # No stochastic support has an empty row, but a BooleanMatrix may:
        # such a state reaches nothing, so nothing fails to reach it back.
        matrix = [[1, 1], [0, 0]]
        assert monoid_module._stabilized(BooleanMatrix(matrix).masks) == \
            BooleanMatrix(reference_stabilize(matrix)).masks == BooleanMatrix([[0, 1], [0, 0]]).masks


class TestTransitionMonoid:
    def test_order_two_permutation(self, permutation):
        elements = transition_monoid(permutation)
        assert set(elements) == {SWAP, BooleanMatrix.identity(2)}
        assert len(elements) == 2

    def test_single_state(self):
        assert transition_monoid(single_state_automaton()) == (BooleanMatrix(((1,),)),)

    def test_counterexample_matches_brute_force(self):
        automaton = counterexample_automaton(0.9)
        assert set(transition_monoid(automaton)) == brute_force_word_closure(automaton)

    def test_random_automata_match_brute_force(self, rng):
        for _ in range(25):
            automaton = random_quarter_automaton(rng, int(rng.integers(1, 4)))
            assert set(transition_monoid(automaton)) == brute_force_word_closure(automaton)


class TestMarkovMonoid:
    def test_single_state(self):
        monoid = markov_monoid(single_state_automaton())
        assert len(monoid) == 1
        element = monoid.elements[0]
        assert element.matrix == BooleanMatrix(((1,),))
        assert element.witness == Letter("a")

    def test_permutation_letters_stabilize_to_themselves(self, permutation):
        monoid = markov_monoid(permutation)
        assert monoid.matrices() == set(transition_monoid(permutation))
        for element in monoid:
            if is_idempotent(element.matrix):
                assert stabilize(element.matrix) == element.matrix

    def test_counterexample_contains_iterated_supports(self):
        automaton = counterexample_automaton(0.9)
        monoid = markov_monoid(automaton)
        generators = monoid.generators
        for text in ("b a^w", "(b a^w)^w"):
            expr = parse_expression(text, automaton.alphabet)
            assert boolean_interpretation(expr, generators) in monoid.matrices()

    def test_witness_provenance(self, rng):
        automata = [counterexample_automaton(0.5), funnel_automaton(),
                    absorbing_automaton(), permutation_automaton()]
        automata += [random_quarter_automaton(rng, int(rng.integers(1, 4))) for _ in range(10)]
        for automaton in automata:
            monoid = markov_monoid(automaton)
            for element in monoid:
                assert boolean_interpretation(element.witness, monoid.generators) == \
                    element.matrix, format_expression(element.witness)

    def test_transition_monoid_is_contained(self, rng):
        for _ in range(10):
            automaton = random_quarter_automaton(rng, int(rng.integers(1, 4)))
            assert set(transition_monoid(automaton)) <= markov_monoid(automaton).matrices()

    def test_saturation_is_order_independent(self, rng):
        import random
        automata = [counterexample_automaton(0.9), funnel_automaton()]
        automata += [random_quarter_automaton(rng, 3) for _ in range(5)]
        shuffler = random.Random(7)
        for automaton in automata:
            expected = markov_monoid(automaton).matrices()
            for _ in range(3):
                assert shuffled_saturation(automaton, shuffler) == expected

    def test_stabilization_is_a_retraction_on_computed_monoids(self, rng):
        automata = [counterexample_automaton(0.9), funnel_automaton()]
        automata += [random_quarter_automaton(rng, 3) for _ in range(5)]
        for automaton in automata:
            for element in markov_monoid(automaton):
                if is_idempotent(element.matrix):
                    once = stabilize(element.matrix)
                    assert is_idempotent(once)
                    assert stabilize(once) == once

    def test_closure_under_product_and_stabilization(self, rng):
        automata = [counterexample_automaton(0.5), funnel_automaton()]
        automata += [random_quarter_automaton(rng, 3) for _ in range(3)]
        for automaton in automata:
            matrices = markov_monoid(automaton).matrices()
            generators = markov_monoid(automaton).generators
            assert set(generators.values()) <= matrices
            for left in matrices:
                for right in matrices:
                    assert boolean_product(left, right) in matrices
                if is_idempotent(left):
                    assert stabilize(left) in matrices

    def test_element_counts_add_up(self):
        monoid = markov_monoid(counterexample_automaton(0.9))
        letters = sum(isinstance(element.witness, Letter) for element in monoid)
        assert letters == 2

    def test_element_indexes_like_a_sequence(self):
        monoid = markov_monoid(counterexample_automaton(0.9))
        assert len(monoid) == 18
        for index in (0, 5, 17, -1, -5, -18):
            assert monoid.element(index) == monoid.elements[index]
        for index in (18, -19):
            with pytest.raises(IndexError):
                monoid.element(index)

    def test_element_repr_shows_the_witness_text(self):
        monoid = markov_monoid(counterexample_automaton(0.9))
        element = monoid.element(-1)
        assert repr(element) == \
            f"MonoidElement(matrix={element.matrix!r}, witness='a b a b a^w')"
        assert repr(MonoidElement(UPPER, Letter("a"))) == \
            "MonoidElement(matrix=BooleanMatrix(rows=((1, 1), (0, 1))), witness='a')"


class TestValue1Witness:
    def test_single_accepting_state(self):
        automaton = single_state_automaton(accepting=True)
        element = find_value1_witness(markov_monoid(automaton), automaton)
        assert element is not None
        assert element.matrix == BooleanMatrix(((1,),))

    def test_single_rejecting_state(self):
        automaton = single_state_automaton(accepting=False)
        assert find_value1_witness(markov_monoid(automaton), automaton) is None

    def test_counterexample_answers_no(self):
        automaton = counterexample_automaton(0.9)
        assert find_value1_witness(markov_monoid(automaton), automaton) is None

    def test_absorbing_witness_is_the_iterated_letter(self, absorbing):
        element = find_value1_witness(markov_monoid(absorbing), absorbing)
        assert element is not None
        assert element.witness == Omega(Letter("a"))
        assert is_value1_witness(element.matrix, absorbing)

    def test_funnel_witness(self, funnel):
        element = find_value1_witness(markov_monoid(funnel), funnel)
        assert element is not None
        assert is_value1_witness(element.matrix, funnel)
        assert boolean_interpretation(element.witness, markov_monoid(funnel).generators) == \
            element.matrix

    def test_permutation_witness_is_a_product(self, permutation):
        element = find_value1_witness(markov_monoid(permutation), permutation)
        assert element is not None
        assert element.witness == Product(Letter("a"), Letter("a"))


class TestMonoidDump:
    def test_line_format(self, absorbing):
        lines = format_monoid(markov_monoid(absorbing)).splitlines()
        assert lines[0] == "1101 a"
        assert lines[1] == "0101 a^w"

    def test_deep_shared_witnesses(self):
        # One letter permuting cycles of lengths 4, 25 and 11: element k is
        # a^k, so its witness extends element k - 1's and nests 1,100 deep,
        # past the interpreter's default recursion limit.
        monoid = markov_monoid(cycles_automaton(4, 25, 11))
        lines = format_monoid(monoid).splitlines()
        assert len(lines) == len(monoid) == 1100
        for k, line in enumerate(lines, 1):
            assert line.split(" ", 1)[1] == " ".join(["a"] * k)
        witness = monoid.elements[-1].witness
        assert lines[-1] == f"{monoid.elements[-1].matrix.bitstring()} {format_expression(witness)}"

    def test_answers_and_text_leave_the_elements_unbuilt(self, funnel):
        monoid = markov_monoid(funnel)
        element = find_value1_witness(monoid, funnel)
        format_monoid(monoid)
        assert "elements" not in vars(monoid)
        assert element == next(e for e in monoid.elements if is_value1_witness(e.matrix, funnel))

    def test_same_text_as_formatting_each_witness(self):
        monoid = markov_monoid(build_reduction(coin_automaton(0.7)).automaton)
        assert format_monoid(monoid) == "\n".join(
            f"{element.matrix.bitstring()} {format_expression(element.witness)}"
            for element in monoid)


def cycles_automaton(*lengths):
    """One letter permuting disjoint cycles of the given lengths; its
    transition monoid is cyclic of order lcm(lengths)."""
    successor, start = [], 0
    for length in lengths:
        successor += [start + (k + 1) % length for k in range(length)]
        start += length
    rows = [[float(t == successor[s]) for t in range(start)] for s in range(start)]
    return ProbabilisticAutomaton(tuple(f"s{s}" for s in range(start)), ("a",), {"a": rows},
                                  (1.0,) + (0.0,) * (start - 1), (False,) * (start - 1) + (True,))


def deterministic_pair_automaton():
    """a moves s0 to the final state s1, which it keeps."""
    return ProbabilisticAutomaton(("s0", "s1"), ("a",), {"a": [[0.0, 1.0], [0.0, 1.0]]},
                                  (1.0, 0.0), (False, True))


# Reductions of small base automata and the size of their Markov monoids.
REDUCTIONS = {
    "accepting state": (lambda: single_state_automaton(accepting=True), 14),
    "rejecting state": (lambda: single_state_automaton(accepting=False), 14),
    "deterministic pair": (deterministic_pair_automaton, 310),
    "coin 0.7": (lambda: coin_automaton(0.7), 268),
}


def counted_work(monkeypatch):
    """Count the row products (`_or_rows` calls: one per row id and
    generator) and the idempotence tests that saturation makes (each a call
    of the helper that also stabilizes)."""
    counts = {"row products": 0, "idempotence tests": 0}
    product, test = monoid_module._or_rows, monoid_module._stabilized

    def counting_product(mask, rows):
        counts["row products"] += 1
        return product(mask, rows)

    def counting_test(masks):
        counts["idempotence tests"] += 1
        return test(masks)

    monkeypatch.setattr(monoid_module, "_or_rows", counting_product)
    monkeypatch.setattr(monoid_module, "_stabilized", counting_test)
    return counts


def distinct_rows(masks):
    return len({row for element in masks for row in element})


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
class TestReductionMonoids:
    def test_element_count_and_witnesses(self, name):
        make_base, size = REDUCTIONS[name]
        monoid = markov_monoid(build_reduction(make_base()).automaton)
        assert len(monoid) == size
        for element in monoid:
            assert boolean_interpretation(element.witness, monoid.generators) == \
                element.matrix, format_expression(element.witness)

    def test_witness_text_renders_each_witness(self, name):
        monoid = markov_monoid(build_reduction(REDUCTIONS[name][0]()).automaton)
        texts = [format_expression(element.witness) for element in monoid]
        assert [monoid.witness_text(k) for k in range(len(monoid))] == texts
        assert monoid.witness_text(-1) == texts[-1]
        assert format_monoid(monoid).splitlines() == [
            f"{element.matrix.bitstring()} {text}" for element, text in zip(monoid, texts)]
        with pytest.raises(IndexError):
            monoid.witness_text(len(monoid))

    def test_each_element_meets_each_generator_once(self, name, monkeypatch):
        # One idempotence test per element, which also stabilizes it, and
        # one row product per row id and generator: each table entry is
        # computed once, and every id names a row of some element.
        # G is the letter supports plus the new stabilizations.
        automaton = build_reduction(REDUCTIONS[name][0]()).automaton
        counts = counted_work(monkeypatch)
        monoid = markov_monoid(automaton)
        generators = sum(isinstance(element.witness, (Letter, Omega)) for element in monoid)
        assert len(monoid.rows) == distinct_rows(monoid.masks)
        assert counts == {"row products": len(monoid.rows) * generators,
                          "idempotence tests": len(monoid)}

    def test_transition_monoid_meets_each_letter_once(self, name, monkeypatch):
        automaton = build_reduction(REDUCTIONS[name][0]()).automaton
        counts = counted_work(monkeypatch)
        elements = transition_monoid(automaton)
        rows = distinct_rows(element.masks for element in elements)
        assert counts == {"row products": rows * len(automaton.alphabet),
                          "idempotence tests": 0}


def sparse_random_automaton(rng, states=(2, 6)):
    """2-6 states (or as many as `states` bounds), 1-3 letters; each row,
    and the initial distribution, puts equal weight on 1 or 2 states; each
    state is final with probability 0.4."""
    n, letters = rng.randint(*states), ("a", "b", "c")[:rng.randint(1, 3)]

    def spread():
        support = rng.sample(range(n), rng.choice((1, 2)))
        return [1.0 / len(support) if t in support else 0.0 for t in range(n)]

    transitions = {letter: [spread() for _ in range(n)] for letter in letters}
    return ProbabilisticAutomaton(tuple(f"s{s}" for s in range(n)), letters, transitions,
                                  spread(), [rng.random() < 0.4 for _ in range(n)])


def stopped_and_full(automaton):
    is_witness = monoid_module._value1_test(automaton)
    return (markov_monoid(automaton, stop=is_witness), markov_monoid(automaton),
            is_witness)


class TestStopAtFirstWitness:
    def test_stopped_table_is_a_prefix_ending_at_the_witness(self):
        # Of the 100 random ones, 53 have two initial states.  The first
        # witness comes before the last element in 42 of the 55 YES
        # answers, and is a stabilization in 4 of those.
        seeded = random.Random(7)
        automata = [funnel_automaton(), absorbing_automaton(), permutation_automaton()]
        automata += [sparse_random_automaton(seeded) for _ in range(100)]
        answers = set()
        for automaton in automata:
            stopped, full, is_witness = stopped_and_full(automaton)
            initial = automaton.initial_support()
            for masks in full.masks:
                assert is_witness(masks) == all(automaton.final[t] for s in initial
                                                for t in range(automaton.dim) if masks[s] >> t & 1)
            size = len(stopped)
            assert stopped.masks == full.masks[:size]
            assert stopped.origins == full.origins[:size]
            witness = find_value1_witness(stopped, automaton)
            expected = find_value1_witness(full, automaton)
            answers.add(expected is not None)
            if expected is None:
                assert witness is None and size == len(full)
            else:
                assert is_witness(stopped.masks[-1])
                assert full.masks.index(expected.matrix.masks) == size - 1
                assert witness.matrix == expected.matrix
                assert format_expression(witness.witness) == format_expression(expected.witness)
        assert answers == {True, False}

    def test_symmetric_group_stops_at_its_first_letter(self):
        automaton = symmetric_group_automaton(8)
        stopped, full, is_witness = stopped_and_full(automaton)
        assert len(full) == 40320   # 8!
        assert len(stopped) == 1
        assert find_value1_witness(stopped, automaton).witness == Letter("a")

    @pytest.mark.parametrize("name,size", [("accepting state", 12),
                                           ("deterministic pair", 141)])
    def test_reduction_stops_at_its_witness(self, name, size):
        automaton = build_reduction(REDUCTIONS[name][0]()).automaton
        stopped, full, is_witness = stopped_and_full(automaton)
        assert (len(stopped), len(full)) == (size, REDUCTIONS[name][1])
        assert find_value1_witness(stopped, automaton) == \
            find_value1_witness(full, automaton)

    @pytest.mark.parametrize("make", [
        lambda: counterexample_automaton(0.9),
        lambda: build_reduction(single_state_automaton(accepting=False)).automaton,
        lambda: build_reduction(coin_automaton(0.7)).automaton,
    ], ids=["counterexample", "rejecting state reduction", "coin 0.7 reduction"])
    def test_no_answer_saturates_fully(self, make):
        automaton = make()
        stopped, full, is_witness = stopped_and_full(automaton)
        assert find_value1_witness(full, automaton) is None
        assert (stopped.masks, stopped.origins) == (full.masks, full.origins)


def matches_reference(automaton, make_stop=lambda: None):
    """`markov_monoid(automaton)` with the stop `make_stop()`, after
    checking it against `reference_saturate` with another `make_stop()`."""
    expected = reference_saturate(monoid_module.letter_supports(automaton), True, make_stop())
    monoid = markov_monoid(automaton, stop=make_stop())
    assert (monoid.masks, monoid.origins) == expected
    return monoid


def capped(size):
    """A stop that accepts the `size`-th element it is called on."""
    calls = itertools.count(1)
    return lambda masks: next(calls) == size


class TestAgainstReferenceKernel:
    """Saturation on row-id keys finds the elements of the tuple kernel it
    replaced, in the same order, with the same origins, and calls `stop`
    on the same masks."""

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_reductions(self, name):
        automaton = build_reduction(REDUCTIONS[name][0]()).automaton
        assert len(matches_reference(automaton)) == REDUCTIONS[name][1]
        value1 = monoid_module._value1_test(automaton)
        matches_reference(automaton, lambda: value1)

    def test_random_nine_state(self):
        monoid = matches_reference(random_nine_state_automaton(2))
        assert len(monoid) == 11168
        assert sum(origin[0] is Omega for origin in monoid.origins) == 15

    def test_seeded_sparse_automata(self):
        # Without the value-1 stop, a monoid past 1,500 elements is
        # compared on its first 1,500.
        seeded, sizes = random.Random(23), []
        for _ in range(300):
            automaton = sparse_random_automaton(seeded, states=(2, 9))
            value1 = monoid_module._value1_test(automaton)
            matches_reference(automaton, lambda: value1)
            size = len(matches_reference(automaton, lambda: capped(1500)))
            if size < 1500:
                matches_reference(automaton)
            sizes.append(size)
        assert min(sizes) < 10 and max(sizes) == 1500

    # The 257th row is met: among the letters; while the tables are filled
    # for the next element to process; in a stabilization; and while a
    # stabilization's table is filled.
    @pytest.mark.parametrize("make", [wide_constant_automaton, wide_midrun_automaton,
                                      wide_omega_automaton,
                                      functools.partial(wide_omega_automaton, True)],
                             ids=["letters", "fill", "stabilization", "stabilization-table"])
    def test_wide_rows(self, make):
        automaton = make()
        monoid = matches_reference(automaton)
        assert len(monoid.rows) > 256
        assert all(type(key) is tuple for key in monoid.keys)
        value1 = monoid_module._value1_test(automaton)
        matches_reference(automaton, lambda: value1)
        # The keys turn from `bytes` into tuples mid-run, and the step
        # that ran out of ids runs again; still each element is tested once.
        size, calls = len(monoid) - 2, []

        def recording(masks):
            calls.append(masks)
            return len(calls) == size

        stopped = markov_monoid(automaton, stop=recording)
        assert stopped.masks == monoid.masks[:size]
        assert calls == list(monoid.masks[:size])

    def test_wide_constant_maps_are_the_letters(self):
        monoid = markov_monoid(wide_constant_automaton())
        assert len(monoid) == 260 and len(monoid.rows) == 260
        assert monoid.origins == tuple((Letter, f"c{k}") for k in range(260))
        assert all(stabilize(element.matrix) == element.matrix for element in monoid)


class TestRecords:
    """`MonoidElement` is a read-only value compared by its fields;
    `MarkovMonoid` is a read-only table compared by identity, whose
    `elements` are built once.  Both pickle."""

    def test_element_equality_and_hash(self):
        a, b = Letter("a"), Letter("b")
        element = MonoidElement(UPPER, a)
        assert element == MonoidElement(BooleanMatrix(((1, 1), (0, 1))), Letter("a"))
        assert hash(element) == hash(MonoidElement(UPPER, a))
        assert element != MonoidElement(UPPER, b)
        assert element != MonoidElement(SWAP, a)
        assert element != (UPPER, a)
        assert len({element, MonoidElement(UPPER, a), MonoidElement(SWAP, a)}) == 2

    @pytest.mark.parametrize("field", ["matrix", "witness"])
    def test_element_fields_are_read_only(self, field):
        element = MonoidElement(UPPER, Letter("a"))
        with pytest.raises(AttributeError):
            setattr(element, field, None)
        with pytest.raises(AttributeError):
            delattr(element, field)
        assert (element.matrix, element.witness) == (UPPER, Letter("a"))

    @pytest.mark.parametrize("field", ["keys", "rows", "masks", "origins", "generators"])
    def test_monoid_fields_are_read_only(self, field):
        monoid = markov_monoid(counterexample_automaton(0.9))
        before = getattr(monoid, field)
        with pytest.raises(AttributeError):
            setattr(monoid, field, None)
        with pytest.raises(AttributeError):
            delattr(monoid, field)
        assert getattr(monoid, field) is before

    def test_monoid_compares_and_hashes_by_identity(self):
        automaton = counterexample_automaton(0.9)
        first, second = markov_monoid(automaton), markov_monoid(automaton)
        assert (first.masks, first.origins) == (second.masks, second.origins)
        assert first == first and first != second
        assert hash(first) == object.__hash__(first)
        assert len({first, second, first}) == 2

    def test_element_pickle_round_trip(self):
        import pickle
        element = markov_monoid(counterexample_automaton(0.9)).elements[-1]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(element, protocol))
            assert copy == element and hash(copy) == hash(element)
            assert copy.witness is element.witness

    def test_monoid_pickle_round_trip(self):
        import pickle
        monoid = markov_monoid(counterexample_automaton(0.9))
        for built in (False, True):
            if built:
                monoid.elements
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(monoid, protocol))
                assert type(copy) is MarkovMonoid and copy != monoid
                assert (copy.masks, copy.origins, copy.generators) == \
                    (monoid.masks, monoid.origins, monoid.generators)
                assert copy.elements == monoid.elements
                assert format_monoid(copy) == format_monoid(monoid)

    def test_elements_are_built_once(self):
        monoid = markov_monoid(counterexample_automaton(0.9))
        assert monoid.elements is monoid.elements
        assert list(monoid) == list(monoid.elements)


class TestElementsAreNodes:
    """A `MonoidElement` is a hash-consed node: an element with an equal
    matrix and the same witness is that element, and a copy or an unpickled
    element whose original is alive is that original."""

    def test_equal_fields_give_one_element(self):
        a = Letter("a")
        element = MonoidElement(UPPER, a)
        assert element is MonoidElement(BooleanMatrix(UPPER.rows), a)
        assert element is not MonoidElement(UPPER, Letter("b"))
        assert element is not MonoidElement(SWAP, a)

    def test_element_and_elements_agree_by_identity(self):
        monoid = markov_monoid(counterexample_automaton(0.9))
        assert all(monoid.element(k) is element for k, element in enumerate(monoid.elements))

    def test_copy_and_pickle_give_the_same_element(self):
        element = markov_monoid(counterexample_automaton(0.9)).elements[-1]
        assert copy.copy(element) is element
        assert copy.deepcopy(element) is element
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(element, protocol)) is element

    def test_fields_are_positional(self):
        with pytest.raises(TypeError):
            MonoidElement(matrix=UPPER, witness=Letter("a"))
