import numpy as np
import pytest

import prostochastic.monoid as monoid_module
from prostochastic import (BooleanMatrix, IdempotenceError, Letter, Omega,
                           ProbabilisticAutomaton, Product, StochasticMatrix,
                           boolean_interpretation, boolean_product,
                           boolean_projection, build_reduction,
                           counterexample_automaton, find_value1_witness,
                           format_expression, format_monoid, is_idempotent,
                           is_value1_witness, markov_monoid, parse_expression,
                           stabilize, transition_monoid)
from conftest import (absorbing_automaton, brute_force_word_closure,
                      coin_automaton, funnel_automaton, permutation_automaton,
                      random_quarter_automaton, random_stochastic,
                      single_state_automaton)

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
        letters = len(monoid) - monoid.product_count - monoid.stabilization_count
        assert letters == 2


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


def counted_products(monkeypatch):
    """Count every boolean product the saturation makes, including those
    inside idempotence tests and stabilizations."""
    calls = []
    original = monoid_module.boolean_product

    def counting(left, right):
        calls.append(None)
        return original(left, right)

    monkeypatch.setattr(monoid_module, "boolean_product", counting)
    return calls


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
class TestReductionMonoids:
    def test_element_count_and_witnesses(self, name):
        make_base, size = REDUCTIONS[name]
        monoid = markov_monoid(build_reduction(make_base()).automaton)
        assert len(monoid) == size
        for element in monoid:
            assert boolean_interpretation(element.witness, monoid.generators) == \
                element.matrix, format_expression(element.witness)

    def test_each_element_meets_each_generator_once(self, name, monkeypatch):
        # Products <= |M| * (|G| + 2): one per element and generator, plus at
        # most two inside the idempotence test and stabilization of each
        # element.  G is the letters plus the new stabilizations.
        automaton = build_reduction(REDUCTIONS[name][0]()).automaton
        calls = counted_products(monkeypatch)
        monoid = markov_monoid(automaton)
        generators = len(automaton.alphabet) + monoid.stabilization_count
        assert len(calls) <= len(monoid) * (generators + 2)

    def test_transition_monoid_meets_each_letter_once(self, name, monkeypatch):
        automaton = build_reduction(REDUCTIONS[name][0]()).automaton
        calls = counted_products(monkeypatch)
        elements = transition_monoid(automaton)
        assert len(calls) <= len(elements) * len(automaton.alphabet)
