import copy
import json
import pickle
import random
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from prostochastic import (AutomatonFormatError, BooleanMatrix, Concat, Literal, Power,
                           ProbabilisticAutomaton, StochasticMatrix, acceptance_probability,
                           automaton_from_json, automaton_to_json, boolean_product,
                           counterexample_automaton, schedule_acceptance_probability,
                           schedule_matrix)
from conftest import (absorbing_automaton, expand_schedule, funnel_automaton,
                      identity_started_word_matrix, random_quarter_automaton, random_stochastic)

ABSORBING = [[0.5, 0.5], [0.0, 1.0]]


class TestStochasticMatrix:
    def test_identity_product_is_neutral(self):
        m = StochasticMatrix(ABSORBING)
        i = StochasticMatrix.identity(2)
        assert np.allclose((i @ m).entries, m.entries)
        assert np.allclose((m @ i).entries, m.entries)

    def test_hand_product(self):
        m = StochasticMatrix(ABSORBING)
        assert np.allclose((m @ m).entries, [[0.25, 0.75], [0.0, 1.0]])

    def test_product_rows_stay_stochastic(self, rng):
        for _ in range(50):
            m = random_stochastic(rng, int(rng.integers(2, 6)))
            n = random_stochastic(rng, m.dim)
            sums = (m @ n).entries.sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            StochasticMatrix(ABSORBING) @ StochasticMatrix.identity(3)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="row 1"):
            StochasticMatrix([[1.0, 0.0], [0.3, 0.3]])
        with pytest.raises(ValueError, match="negative"):
            StochasticMatrix([[1.5, -0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="square"):
            StochasticMatrix([[1.0, 0.0]])

    def test_row_sum_message_prints_a_plain_float(self):
        with pytest.raises(ValueError) as info:
            StochasticMatrix([[1.0, 0.0], [0.3, 0.3]])
        assert str(info.value) == "row 1 sums to 0.6, expected 1"

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"nan at \(0, 0\)"):
            StochasticMatrix([[float("nan"), 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("entries", [
        [["0.5", "0.5"], ["1", "0"]],
        [[True, False], [False, True]],
        [[10**400, 0], [0, 1]],
        [[1 + 0j, 0], [0, 1]],
        [[None, 1.0], [0.0, 1.0]],
    ])
    def test_rejects_non_numeric_entries(self, entries):
        with pytest.raises(ValueError, match="matrix entries must be integers or floats"):
            StochasticMatrix(entries)

    @pytest.mark.parametrize("entries,message", [
        ([[2, -1], [0, 1]], "entry -1.0 at (0, 1) is negative or NaN"),
        ([[0.5, 0.5], [-1, 2]], "entry -1.0 at (1, 0) is negative or NaN"),
        ([[0.5, float("inf")], [0, 1]], "entry inf at (0, 1) is infinite"),
        ([[10**400, 0], [0, 1]], "matrix entries must be integers or floats, "
                                 "got an integer beyond float range"),
        ([[10**308, 10**308], [0, 1]], "row 0 sums to inf, expected 1"),
    ])
    def test_entry_messages(self, entries, message):
        with pytest.raises(ValueError) as caught:
            StochasticMatrix(entries)
        assert str(caught.value) == message

    @pytest.mark.parametrize("entries", [
        [{0: 1, 1: 0}, [0, 1]], [(x for x in (0.5, 0.5)), [0, 1]], [b"\x01\x00", b"\x00\x01"],
        ["ab", "cd"], [1.0, 0.0], 1.0,
    ], ids=["mapping-row", "iterator-row", "bytes-rows", "string-rows", "vector", "number"])
    def test_rows_must_be_lists_or_tuples(self, entries):
        with pytest.raises(ValueError, match="^expected a non-empty square matrix$"):
            StochasticMatrix(entries)

    @pytest.mark.parametrize("entries", [
        [(0.5, 0.5), (0, 1)], np.array([[0.5, 0.5], [0, 1]]),
        [np.array([0.5, 0.5]), np.array([0, 1])], [[np.float64(0.5), 0.5], [np.int64(0), 1]],
    ], ids=["tuples", "ndarray", "ndarray-rows", "numpy-numbers"])
    def test_sequences_and_numpy_values_read_as_python_rows(self, entries):
        matrix = StochasticMatrix(entries)
        assert matrix.rows == ((0.5, 0.5), (0.0, 1.0))
        assert all(type(v) is float for row in matrix.rows for v in row)

    def test_entries_are_immutable(self):
        m = StochasticMatrix(ABSORBING)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.0


def random_boolean(rng, d):
    return BooleanMatrix(tuple(tuple(int(rng.random() < 0.3) for _ in range(d))
                               for _ in range(d)))


class TestBooleanMatrix:
    def samples(self):
        rng = random.Random(5)
        built = [random_boolean(rng, d) for d in (1, 2, 3, 7, 9, 64, 65, 70)]
        # Kernel results come from the trusted constructor.
        return built + [boolean_product(m, m) for m in built]

    def test_rows_round_trip_with_equal_hashes(self):
        for m in self.samples():
            again = BooleanMatrix(m.rows)
            assert again == m
            assert hash(again) == hash(m)
            assert again.dim == m.dim == len(m.rows)

    def test_bitstring_and_str_are_row_major(self):
        for m in self.samples():
            assert m.bitstring() == "".join(str(v) for row in m.rows for v in row)
            assert str(m).splitlines() == ["".join(str(v) for v in row) for row in m.rows]
        assert BooleanMatrix(((1, 1), (0, 1))).bitstring() == "1101"

    def test_distinct_matrices_differ(self):
        upper = BooleanMatrix(((1, 1), (0, 1)))
        assert upper != BooleanMatrix(((1, 0), (1, 1)))
        assert upper != BooleanMatrix.identity(2)
        assert upper != upper.rows

    def test_immutable(self):
        m = BooleanMatrix.identity(3)
        for name in ("masks", "dim", "rows", "extra"):
            with pytest.raises(AttributeError):
                setattr(m, name, 1)
        with pytest.raises(AttributeError):
            del m.masks
        assert m == BooleanMatrix.identity(3)

    def test_copy_and_pickle(self):
        for m in self.samples():
            assert copy.deepcopy(m) == m
            assert pickle.loads(pickle.dumps(m)) == m

    @pytest.mark.parametrize("rows", [
        ((0, 2), (1, 0)),
        ((0, -1), (1, 0)),
        ((1, 0),),
        ((1, 0), (1,)),
        (),
        ((0.7, 0), (0, 1)),
        (("1", 0), (0, 1)),
        ({0: 5, 1: 7}, (0, 1)),
    ])
    def test_constructor_rejects_bad_rows(self, rows):
        with pytest.raises(ValueError):
            BooleanMatrix(rows)

    def test_booleans_and_float_zero_and_one_pass(self):
        expected = BooleanMatrix(((1, 0), (0, 1)))
        assert BooleanMatrix(((True, False), (0.0, 1.0))) == expected
        assert BooleanMatrix(np.eye(2, dtype=bool)) == expected


class TestMatrixPower:
    def test_zeroth_power_is_identity(self):
        m = StochasticMatrix(ABSORBING)
        assert np.allclose(m.power(0).entries, np.eye(2))

    def test_first_power_is_self(self):
        m = StochasticMatrix(ABSORBING)
        assert np.allclose(m.power(1).entries, m.entries)

    def test_geometric_absorption_closed_form(self):
        # Entry (0, 1) of the absorbing matrix to the k-th power is 1 - 2^-k.
        m = StochasticMatrix(ABSORBING)
        for k in range(1, 11):
            assert m.power(k).entries[0, 1] == pytest.approx(1.0 - 2.0 ** -k, abs=1e-12)

    def test_exponent_additivity(self, rng):
        for _ in range(30):
            m = random_stochastic(rng, 3)
            a, b = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            combined = m.power(a + b).entries
            split = (m.power(a) @ m.power(b)).entries
            assert np.all(np.abs(combined - split) <= 1e-9)

    def test_big_integer_exponent(self):
        m = StochasticMatrix(ABSORBING)
        result = m.power(10 ** 40)
        assert np.allclose(result.entries, [[0.0, 1.0], [0.0, 1.0]])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            StochasticMatrix.identity(2).power(-1)

    def test_shared_chain_bit_identical_to_a_fresh_chain(self, rng):
        shuffler = random.Random(8)
        for dim in range(1, 10):
            for _ in range(4):
                m = random_stochastic(rng, dim)
                exponents = [1, 2, 3, 7, 8, 720, int(rng.integers(1, 2 ** 40)), 3 * 2 ** 30 + 5,
                             shuffler.getrandbits(395), 2 ** 395 - 1, 2 ** 395]
                shuffler.shuffle(exponents)
                squares = []    # one chain for every exponent, called in shuffled order
                for e in exponents:
                    expected = m.power(e).entries.tobytes()
                    assert m.power(e, squares).entries.tobytes() == expected, (dim, e)

    def test_accurate_against_a_decimal_oracle(self, rng):
        shuffler = random.Random(5)
        exponents = [1, 2, 3, 7, 8, 720, 3 * 2 ** 30 + 5, 2 ** 395 - 1, 2 ** 395]
        for dim in range(1, 6):
            for _ in range(2):
                m = random_stochastic(rng, dim)
                oracle = DecimalChain(m.rows)
                for e in exponents + [shuffler.getrandbits(40), shuffler.getrandbits(395)]:
                    error = np.abs(m.power(e).entries - oracle.power(e)).max()
                    assert error <= 1e-14, (dim, e, error)
        # The 3-cycle s -> s + 1: its squares alternate between P^2 and P,
        # so its chain never closes and its powers stay exact permutations.
        cycle = StochasticMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        oracle, squares = DecimalChain(cycle.rows), []
        for e in exponents + [shuffler.getrandbits(395)]:
            result = cycle.power(e, squares).entries
            assert np.array_equal(result, oracle.power(e)), e
            assert np.array_equal(result, np.linalg.matrix_power(cycle.entries, e % 3)), e
        assert len(squares) == 396
        assert all(a is not b for a, b in zip(squares, squares[1:]))


class DecimalChain:
    """Powers of a stochastic matrix in 60-digit decimal arithmetic, by
    squaring, each square divided by its row sums."""

    CONTEXT = Context(prec=60)

    def __init__(self, rows):
        self.squares = [[[Decimal(v) for v in row] for row in rows]]

    def product(self, left, right):
        with localcontext(self.CONTEXT):
            return [[sum(a * b for a, b in zip(row, column)) for column in zip(*right)]
                    for row in left]

    def power(self, exponent):
        result, i = None, 0
        while exponent:
            if i == len(self.squares):
                square = self.product(self.squares[-1], self.squares[-1])
                with localcontext(self.CONTEXT):
                    self.squares.append([[v / sum(row) for v in row] for row in square])
            if exponent & 1:
                square = self.squares[i]
                result = square if result is None else self.product(result, square)
            exponent >>= 1
            i += 1
        return np.array([[float(v) for v in row] for row in result])


class TestAutomaton:
    def test_single_state_accepts_everything(self):
        a = ProbabilisticAutomaton(("s",), ("a",), {"a": [[1.0]]}, (1.0,), (True,))
        for word in ("", "a", "aaaa"):
            assert acceptance_probability(a, word) == 1.0

    def test_empty_word_scores_initial_against_final(self, funnel):
        expected = float(funnel.initial @ np.array([1.0 if f else 0.0 for f in funnel.final]))
        assert acceptance_probability(funnel, "") == expected

    def test_funnel_closed_form(self, funnel):
        # b a^k is accepted with probability 1 - 2^-k.
        for k in range(0, 8):
            word = "b" + "a" * k
            assert acceptance_probability(funnel, word) == pytest.approx(1.0 - 2.0 ** -k)

    def test_unknown_letter(self, funnel):
        with pytest.raises(ValueError, match="unknown letter"):
            acceptance_probability(funnel, "c")

    @staticmethod
    def random_words(rng, alphabet, count, lengths):
        return [tuple(rng.choice(alphabet, size=int(rng.integers(*lengths))).tolist())
                for _ in range(count)]

    def test_word_matrix_equals_the_identity_started_product(self, rng):
        automata = [random_quarter_automaton(rng, int(rng.integers(1, 6))) for _ in range(20)]
        automata += [funnel_automaton(), counterexample_automaton(0.7)]
        automata += [automaton_from_json(automaton_to_json(a)) for a in automata[-2:]]
        for automaton in automata:
            for word in self.random_words(rng, automaton.alphabet, 12, (1, 8)):
                expected = identity_started_word_matrix(automaton, word).entries
                assert automaton.word_matrix(word).entries.tobytes() == expected.tobytes()

    def test_word_matrix_keeps_the_product_bits_of_negative_zeros(self, rng):
        # The identity product turns each -0.0 into 0.0, also in a column of
        # -0.0 alone; every word, one-letter words too, matches it bit for bit.
        automaton = ProbabilisticAutomaton(
            ("s0", "s1", "s2"), ("a", "b"),
            {"a": [[-0.0, 0.5, 0.5], [0.0, 1.0, -0.0], [0.25, -0.0, 0.75]],
             "b": [[1.0, -0.0, 0.0], [0.5, -0.0, 0.5], [0.5, -0.0, 0.5]]},
            (1.0, 0.0, 0.0), (False, True, False))
        assert np.signbit(automaton.transition("b").entries[:, 1]).all()
        words = [("a",), ("b",)] + self.random_words(rng, automaton.alphabet, 40, (2, 8))
        for word in words:
            expected = identity_started_word_matrix(automaton, word).entries
            assert automaton.word_matrix(word).entries.tobytes() == expected.tobytes()

    def test_powers_of_a_negative_zero_letter_follow_the_identity_started_chain(self):
        # `a` is a fixed point of normalized squaring once its -0.0 is 0.0, so
        # the squaring chain of the identity product closes at its first
        # square; a chain started from the raw letter would close one square
        # later, and its odd powers differ in the last bits.
        p, q = 0.3309786816025536, 0.6690213183974463
        automaton = ProbabilisticAutomaton(
            ("s0", "s1", "s2"), ("a",), {"a": [[p, q, -0.0], [p, q, 0.0], [p, q, 0.0]]},
            (1.0, 0.0, 0.0), (False, True, False))
        start = identity_started_word_matrix(automaton, ("a",))
        for exponent in range(1, 10):
            expected = start.power(exponent).entries
            matrix = schedule_matrix(automaton, Power(Literal(("a",)), exponent))
            assert matrix.entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("word", ["", (), []])
    def test_empty_word_matrix_is_the_identity(self, funnel, word):
        assert funnel.word_matrix(word).entries.tobytes() == np.eye(3).tobytes()

    def test_initial_vector_must_be_stochastic(self):
        with pytest.raises(ValueError, match="initial"):
            ProbabilisticAutomaton(("s", "t"), ("a",), {"a": np.eye(2)}, (0.6, 0.6), (True, True))

    def test_initial_vector_rejects_nan(self):
        with pytest.raises(ValueError, match="initial"):
            ProbabilisticAutomaton(("s", "t"), ("a",), {"a": np.eye(2)},
                                   (float("nan"), 1.0), (True, True))

    @pytest.mark.parametrize("initial", [("1", "0"), (True, False), (10**400, 0)])
    def test_initial_vector_rejects_non_numbers(self, initial):
        with pytest.raises(ValueError, match="initial vector must be integers or floats"):
            ProbabilisticAutomaton(("s", "t"), ("a",), {"a": np.eye(2)}, initial, (True, True))

    @pytest.mark.parametrize("initial,message", [
        (["1", "0"], "initial vector must be integers or floats, got str"),
        ([True, False], "initial vector must be integers or floats, got bool"),
        ([10**400, 0], "initial vector must be integers or floats, "
                       "got an integer beyond float range"),
        ([float("nan"), 1.0], "initial vector has a negative or NaN entry"),
        ([1.5, -0.5], "initial vector has a negative or NaN entry"),
        ([1.0], "initial vector must have length 2"),
        ([1.0, 0.0, 0.0], "initial vector must have length 2"),
        ([0.6, 0.6], "initial vector sums to 1.2, expected 1"),
    ], ids=["strings", "booleans", "huge-integer", "nan", "negative", "short", "long",
            "bad-sum"])
    def test_list_and_ndarray_initial_get_identical_errors(self, initial, message):
        errors = []
        for value in (initial, tuple(initial), np.array(initial)):
            with pytest.raises(ValueError) as caught:
                ProbabilisticAutomaton(("s", "t"), ("a",), {"a": np.eye(2)}, value, (True, True))
            errors.append(str(caught.value))
        assert errors == [message] * 3

    @pytest.mark.parametrize("initial,message", [
        ([2, -1], "initial vector has a negative or NaN entry"),
        ([float("-inf"), 1], "initial vector has an infinite entry"),
        ([3, 0], "initial vector sums to 3.0, expected 1"),
        ([10**308, 10**308], "initial vector sums to inf, expected 1"),
    ])
    def test_integer_and_infinite_initial_entries(self, initial, message):
        with pytest.raises(ValueError) as caught:
            ProbabilisticAutomaton(("s", "t"), ("a",), {"a": np.eye(2)}, initial, (True, True))
        assert str(caught.value) == message

    @pytest.mark.parametrize("initial", [
        [0, 1], (0.0, 1.0), np.array([0, 1]), np.array([0.0, 1.0]),
        np.array([0.0, 1.0], dtype=np.float32), [np.int64(0), np.float64(1.0)],
    ])
    def test_initial_accepts_ints_floats_and_numpy_numbers(self, initial):
        automaton = ProbabilisticAutomaton(("s", "t"), ("a",), {"a": np.eye(2)}, initial,
                                           (False, True))
        assert automaton.initial.dtype == float
        assert automaton.initial.tolist() == [0.0, 1.0]
        assert automaton.initial_support() == (1,)
        with pytest.raises(ValueError):
            automaton.initial[0] = 1.0

    @pytest.mark.parametrize("final,message", [
        (("false", "false"), "final vector must be booleans, got str"),
        ((1, 0), "final vector must be booleans, got int"),
        ((None, True), "final vector must be booleans, got NoneType"),
    ])
    def test_final_vector_must_be_booleans(self, final, message):
        with pytest.raises(ValueError) as caught:
            ProbabilisticAutomaton(("s", "t"), ("a",), {"a": [[1, 0], [0, 1]]}, (1, 0), final)
        assert str(caught.value) == message

    @pytest.mark.parametrize("final", [
        (False, True), np.array([False, True]), [np.bool_(False), np.bool_(True)],
    ])
    def test_final_vector_accepts_python_and_numpy_booleans(self, final):
        automaton = ProbabilisticAutomaton(("s", "t"), ("a",), {"a": [[1, 0], [0, 1]]},
                                           (1, 0), final)
        assert automaton.final == (False, True)
        assert all(type(v) is bool for v in automaton.final)

    def test_transitions_required_for_every_letter(self):
        with pytest.raises(ValueError, match="missing transition"):
            ProbabilisticAutomaton(("s",), ("a", "b"), {"a": [[1.0]]}, (1.0,), (True,))

    def test_strictness(self, funnel):
        assert funnel.is_strict
        coin = ProbabilisticAutomaton(
            ("q", "h", "t"), ("a",),
            {"a": [[0.0, 0.9, 0.1], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            (1.0, 0.0, 0.0), (False, True, False))
        assert not coin.is_strict

    @pytest.mark.parametrize("name", ["states", "alphabet", "final", "initial", "extra"])
    def test_fields_are_read_only(self, name):
        automaton = funnel_automaton()
        before = getattr(automaton, name, None)
        for change in (lambda: setattr(automaton, name, None), lambda: delattr(automaton, name)):
            with pytest.raises(AttributeError, match=f"immutable; cannot change '{name}'"):
                change()
        assert getattr(automaton, name, None) is before

    def test_initial_is_one_read_only_array(self):
        automaton = funnel_automaton()
        initial = automaton.initial
        assert automaton.initial is initial
        assert not initial.flags.writeable
        with pytest.raises(ValueError):
            initial[0] = 0.5

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_copies_keep_every_array_read_only(self, protocol):
        # The arrays are built before copying: the cached `initial` and
        # `_final_vector`, a letter's checked rows turned into entries, and
        # a product that holds only its ndarray.
        automaton = counterexample_automaton(0.9)
        letter = automaton.transition("a")
        product = letter @ automaton.transition("b")
        arrays = (letter.entries, automaton.initial, automaton._final_vector)
        assert not any(array.flags.writeable for array in arrays)
        assert copy.deepcopy(automaton) is automaton
        assert copy.deepcopy(product) is product
        loaded, loaded_product = pickle.loads(pickle.dumps((automaton, product), protocol))
        for array, built in [(loaded.transition("a").entries, letter.entries),
                             (loaded.initial, automaton.initial),
                             (loaded._final_vector, automaton._final_vector),
                             (loaded_product.entries, product.entries)]:
            assert not array.flags.writeable
            assert np.array_equal(array, built)
        assert loaded.transition("a").rows == letter.rows

    def test_reserved_characters_rejected_in_letters(self):
        with pytest.raises(ValueError, match="invalid letter"):
            ProbabilisticAutomaton(("s",), ("a^",), {"a^": [[1.0]]}, (1.0,), (True,))


class TestWordSchedules:
    def test_lengths(self):
        s = Power(Concat(Literal(("b",)), Power(Literal(("a",)), 7)), 10 ** 30)
        assert s.length == 8 * 10 ** 30

    def test_power_exponent_must_be_positive(self):
        with pytest.raises(ValueError):
            Power(Literal(("a",)), 0)

    def test_expand_matches_length(self):
        s = Concat(Power(Literal(("a", "b")), 3), Literal(("a",)))
        word = expand_schedule(s)
        assert word == ("a", "b") * 3 + ("a",)
        assert len(word) == s.length

    def test_expand_guard(self):
        with pytest.raises(ValueError, match="limit"):
            expand_schedule(Power(Literal(("a",)), 10 ** 9))

    def test_literal_schedule_matches_plain_evaluation(self, funnel):
        word = ("b", "a", "a")
        assert schedule_acceptance_probability(funnel, Literal(word)) == \
            acceptance_probability(funnel, word)

    def test_power_one_is_plain_word(self, funnel):
        word = ("b", "a")
        assert schedule_acceptance_probability(funnel, Power(Literal(word), 1)) == \
            acceptance_probability(funnel, word)

    def test_structured_evaluation_agrees_with_flat(self, rng):
        # Consistency between big-exponent powering and literal expansion,
        # on every schedule small enough to expand.
        automaton = funnel_automaton()
        for _ in range(25):
            k = int(rng.integers(1, 12))
            reps = int(rng.integers(1, 40))
            schedule = Power(Concat(Literal(("b",)), Power(Literal(("a",)), k)), reps)
            assert schedule.length <= 10 ** 4
            flat = expand_schedule(schedule)
            assert schedule_acceptance_probability(automaton, schedule) == pytest.approx(
                acceptance_probability(automaton, flat), abs=1e-12)

    def test_counterexample_flat_cross_check(self):
        from prostochastic import counterexample_automaton
        automaton = counterexample_automaton(0.9)
        repeated_pair = Power(Literal(("b", "a")), 4)
        assert schedule_acceptance_probability(automaton, repeated_pair) == pytest.approx(
            acceptance_probability(automaton, "babababa"), abs=1e-12)
        schedule = Power(Concat(Literal(("b",)), Power(Literal(("a",)), 4)), 4)
        flat = expand_schedule(schedule)
        assert flat == tuple("baaaa" * 4)
        assert schedule_acceptance_probability(automaton, schedule) == pytest.approx(
            acceptance_probability(automaton, flat), abs=1e-12)


class TestFileFormat:
    def test_round_trip(self, funnel):
        text = automaton_to_json(funnel)
        loaded = automaton_from_json(text)
        assert loaded.states == funnel.states
        assert loaded.alphabet == funnel.alphabet
        assert loaded.final == funnel.final
        assert np.allclose(loaded.initial, funnel.initial)
        for letter in funnel.alphabet:
            assert np.allclose(loaded.transition(letter).entries,
                               funnel.transition(letter).entries)

    def test_bad_row_sum_names_the_row(self):
        text = automaton_to_json(absorbing_automaton()).replace("0.5", "0.4", 1)
        with pytest.raises(AutomatonFormatError, match=r"row 0 \('s0'\)"):
            automaton_from_json(text)

    def test_flat_row_major_transitions_accepted(self):
        text = """{
            "states": ["s0", "s1"], "alphabet": ["a"],
            "initial": [1, 0], "final": [false, true],
            "transitions": {"a": [0.5, 0.5, 0, 1]}
        }"""
        loaded = automaton_from_json(text)
        assert np.allclose(loaded.transition("a").entries, ABSORBING)

    def test_missing_field(self):
        with pytest.raises(AutomatonFormatError, match="missing field 'final'"):
            automaton_from_json('{"states": ["s"], "alphabet": ["a"], '
                                '"initial": [1], "transitions": {"a": [[1]]}}')

    def test_strict_flag_must_match(self, funnel):
        text = automaton_to_json(funnel).replace('"strict": true', '"strict": false')
        with pytest.raises(AutomatonFormatError, match="strict"):
            automaton_from_json(text)

    def test_unknown_keys_ignored(self, funnel):
        text = automaton_to_json(funnel, state_map={"s0": "p0"})
        loaded = automaton_from_json(text)
        assert loaded.states == funnel.states

    @pytest.mark.parametrize("field,value,message", [
        ("alphabet", [["a"]], "`alphabet` entries must be strings"),
        ("initial", ["1", False], "`initial` entries must be numbers"),
        ("initial", [float("nan"), 1.0], "`initial` entries must be numbers"),
    ])
    def test_malformed_fields_rejected(self, field, value, message):
        payload = json.loads(automaton_to_json(absorbing_automaton()))
        payload[field] = value
        with pytest.raises(AutomatonFormatError, match=message):
            automaton_from_json(json.dumps(payload))

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "1" + "0" * 400],
                             ids=["nan", "infinity", "huge-integer"])
    def test_non_finite_transition_entry_is_not_a_number(self, entry):
        text = automaton_to_json(absorbing_automaton()).replace("0.5", entry, 1)
        with pytest.raises(AutomatonFormatError, match=r"row 0 \('s0'\): entries must be numbers"):
            automaton_from_json(text)

    # Every entry json.loads can return that is not a finite number in float
    # range, then a negative one, each at the first and the last position
    # of `initial` and of a transition row; NaN is skipped or not by min and
    # max depending on where it stands.
    ENTRY_TEXTS = {"true": "true", "string": '"0.5"', "null": "null", "nan": "NaN",
                   "infinity": "Infinity", "minus-infinity": "-Infinity",
                   "overflowing-float": "1e400", "huge-integer": "1" + "0" * 400}
    TEMPLATE = ('{"states": ["s0", "s1"], "alphabet": ["a"], "initial": [%s], '
                '"final": [false, true], "transitions": {"a": [[%s], [0, 1]]}}')

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("entry", list(ENTRY_TEXTS) + ["negative"])
    @pytest.mark.parametrize("field", ["initial", "row"])
    def test_entry_messages(self, field, entry, position):
        text = self.ENTRY_TEXTS.get(entry, "-0.5")
        vector = ["0.5", "0.5"]
        vector[position] = text
        payload = self.TEMPLATE % ((", ".join(vector), "0.5, 0.5") if field == "initial"
                                   else ("0.5, 0.5", ", ".join(vector)))
        message = {
            ("initial", False): "`initial` entries must be numbers",
            ("initial", True): "initial vector has a negative or NaN entry",
            ("row", False): "letter 'a', row 0 ('s0'): entries must be numbers",
            ("row", True): "letter 'a', row 0 ('s0'): negative entry",
        }[field, entry == "negative"]
        with pytest.raises(AutomatonFormatError) as caught:
            automaton_from_json(payload)
        assert str(caught.value) == message

    @pytest.mark.parametrize("initial,row,message", [
        ("2, -1", "0.5, 0.5", "initial vector has a negative or NaN entry"),
        ("1, 1", "0.5, 0.5", "initial vector sums to 2.0, expected 1"),
        ("1, 0", "2, -1", "letter 'a', row 0 ('s0'): negative entry"),
        ("1, 0", "1, 1", "letter 'a', row 0 ('s0'): sums to 2, expected 1"),
        # Each integer is in float range, their sum is not.
        (f"{10**308}, {10**308}", "0.5, 0.5", "initial vector sums to inf, expected 1"),
        ("1, 0", f"{10**308}, {10**308}",
         f"letter 'a', row 0 ('s0'): sums to {2 * 10**308}, expected 1"),
    ], ids=["initial-negative", "initial-sum", "row-negative", "row-sum",
            "initial-sum-past-float-range", "row-sum-past-float-range"])
    def test_integer_entry_messages(self, initial, row, message):
        with pytest.raises(AutomatonFormatError) as caught:
            automaton_from_json(self.TEMPLATE % (initial, row))
        assert str(caught.value) == message

    # One policy: a file is rejected exactly when the constructor rejects the
    # same values, for every entry above and for negative, off-sum and valid
    # ones, in `initial` and in a transition row.
    POLICY_TEXTS = {**ENTRY_TEXTS, "negative": "-0.5", "negative-integer": "-1",
                    "off-sum": "0.25", "outside-tolerance": "0.50000001", "valid": "0.5",
                    "inside-tolerance": "0.5000000001"}

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("entry", list(POLICY_TEXTS))
    @pytest.mark.parametrize("field", ["initial", "row"])
    def test_loader_and_constructors_share_one_policy(self, field, entry, position):
        vector = ["0.5", "0.5"]
        vector[position] = self.POLICY_TEXTS[entry]
        values = json.loads("[%s]" % ", ".join(vector))
        payload = self.TEMPLATE % ((", ".join(vector), "0.5, 0.5") if field == "initial"
                                   else ("0.5, 0.5", ", ".join(vector)))

        def rejects(build, *args):
            try:
                build(*args)
            except ValueError:
                return True
            return False

        rejected = rejects(automaton_from_json, payload)
        if field == "initial":
            assert rejected == rejects(ProbabilisticAutomaton, ("s0", "s1"), ("a",),
                                       {"a": [[0.5, 0.5], [0, 1]]}, values, (False, True))
        else:
            assert rejected == rejects(StochasticMatrix, [values, [0, 1]])
        assert rejected == (entry not in ("valid", "inside-tolerance"))

    def test_not_json(self):
        with pytest.raises(AutomatonFormatError, match="JSON"):
            automaton_from_json("not json at all")

    def test_nesting_too_deep_is_not_json(self):
        with pytest.raises(AutomatonFormatError, match="^not valid JSON: "):
            automaton_from_json("[" * 100000 + "]" * 100000)

    # Files that break two facts at once, as changes to TEMPLATE's fields,
    # and the one message each gives: the first in the loader's order (JSON
    # shapes, `initial` holds numbers, each row's entries, the names,
    # `initial`'s sign and sum, `strict`).
    TWO_FAULTS = {
        "duplicate-states-initial-sum": (
            {"states": ["s", "s"], "initial": [1, 1]}, "states must be non-empty and unique"),
        "reserved-token-negative-initial": (
            {"alphabet": ["a("], "initial": [1.5, -0.5],
             "transitions": {"a(": [[0.5, 0.5], [0, 1]]}}, "invalid letter token 'a('"),
        "duplicate-letters-negative-initial": (
            {"alphabet": ["a", "a"], "initial": [2, -1]}, "alphabet must be non-empty and unique"),
        "whitespace-token-initial-sum": (
            {"alphabet": ["a b"], "initial": [1, 1], "transitions": {"a b": [[0.5, 0.5], [0, 1]]}},
            "invalid letter token 'a b'"),
        "reserved-token-duplicate-states": (
            {"states": ["s", "s"], "alphabet": ["a^"],
             "transitions": {"a^": [[0.5, 0.5], [0, 1]]}}, "states must be non-empty and unique"),
        "negative-initial-row-sum": (
            {"initial": [1.5, -0.5], "transitions": {"a": [[0.4, 0.5], [0, 1]]}},
            "letter 'a', row 0 ('s0'): sums to 0.9, expected 1"),
        "nan-initial-integer-final": (
            {"initial": [float("nan"), 1], "final": [0, 1]}, "`initial` entries must be numbers"),
        "initial-sum-integer-final": (
            {"initial": [1, 1], "final": [0, 1]}, "`final` entries must be booleans"),
        "row-sum-then-row-type": (
            {"transitions": {"a": [[0.4, 0.5], ["x", 1]]}},
            "letter 'a', row 0 ('s0'): sums to 0.9, expected 1"),
        "duplicate-states-second-letter-row": (
            {"states": ["s", "s"], "alphabet": ["a", "b"],
             "transitions": {"a": [[0.5, 0.5], [0, 1]], "b": [[0.5, 0.6], [0, 1]]}},
            "letter 'b', row 0 ('s'): sums to 1.1, expected 1"),
        "integer-states-row-sum": (
            {"states": [1, "1"], "transitions": {"a": [[0.4, 0.5], [0, 1]]}},
            "letter 'a', row 0 (1): sums to 0.9, expected 1"),
        "negative-initial-strict-mismatch": (
            {"initial": [2, -1], "strict": False}, "initial vector has a negative or NaN entry"),
    }

    @pytest.mark.parametrize("name", list(TWO_FAULTS))
    def test_two_faults_give_the_first_message(self, name):
        changes, message = self.TWO_FAULTS[name]
        payload = {**json.loads(self.TEMPLATE % ("1, 0", "0.5, 0.5")), **changes}
        with pytest.raises(AutomatonFormatError) as caught:
            automaton_from_json(json.dumps(payload))
        assert str(caught.value) == message

    @staticmethod
    def files():
        """The JSON texts of the four reductions and of seeded random
        automata with integer and float entries, flat and nested rows."""
        from prostochastic import build_reduction
        from conftest import coin_automaton, single_state_automaton
        pair = ProbabilisticAutomaton(("s0", "s1"), ("a",), {"a": [[0, 1], [0, 1]]},
                                      (1, 0), (False, True))
        texts = [automaton_to_json(build_reduction(base).automaton)
                 for base in (single_state_automaton(True), single_state_automaton(False),
                              pair, coin_automaton(0.7))]
        rng = random.Random(2611)
        for _ in range(80):
            n = rng.randint(1, 5)
            letters = ["a", "b", "check"][:rng.randint(1, 3)]

            def row():
                support = rng.sample(range(n), rng.choice((1, 2)) if n > 1 else 1)
                weights = [rng.choice((1, 0.5, 0.25, 0.1)) for _ in support]
                return [weights[support.index(t)] / sum(weights) if t in support else 0
                        for t in range(n)]

            transitions = {x: [row() for _ in range(n)] for x in letters}
            payload = {"states": [f"q{k}" for k in range(n)], "alphabet": letters,
                       "initial": row(), "final": [rng.random() < 0.4 for _ in range(n)],
                       "transitions": {x: rows if rng.random() < 0.8 else sum(rows, [])
                                       for x, rows in transitions.items()}}
            texts.append(json.dumps(payload))
        return texts

    def test_loader_builds_what_the_constructors_build(self):
        strict = set()
        for text in self.files():
            payload = json.loads(text)
            loaded = automaton_from_json(text)
            dim = len(payload["states"])
            rows = {x: m if isinstance(m[0], list) else [m[i * dim:(i + 1) * dim]
                                                           for i in range(dim)]
                    for x, m in payload["transitions"].items()}
            built = ProbabilisticAutomaton(payload["states"], payload["alphabet"], rows,
                                           payload["initial"], payload["final"])
            for name in ("states", "alphabet", "final", "_initial", "is_strict"):
                assert getattr(loaded, name) == getattr(built, name), name
            for letter in built.alphabet:
                assert loaded.transition(letter).rows == built.transition(letter).rows
                assert all(type(v) is float for row in loaded.transition(letter).rows
                           for v in row)
            assert all(type(v) is float for v in loaded._initial)
            strict.add(loaded.is_strict)
        assert strict == {True, False}

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_loaded_arrays_are_read_only_and_pickle_without_caches(self, protocol):
        loaded = automaton_from_json(automaton_to_json(funnel_automaton()))
        letter = loaded.transition("a")
        arrays = (letter.entries, loaded.initial, loaded._final_vector)
        assert not any(array.flags.writeable for array in arrays)
        copied = pickle.loads(pickle.dumps(loaded, protocol))
        assert "initial" not in vars(copied) and "_final_vector" not in vars(copied)
        assert copied.transition("a")._entries is None
        for array, built in [(copied.transition("a").entries, letter.entries),
                             (copied.initial, loaded.initial),
                             (copied._final_vector, loaded._final_vector)]:
            assert not array.flags.writeable
            assert np.array_equal(array, built)


class TestRowReaders:
    """`is_strict` and `boolean_projection` read a matrix's rows in pure
    Python; the numpy definitions are the reference."""

    @staticmethod
    def automata():
        from prostochastic import build_reduction
        from conftest import coin_automaton
        built = [build_reduction(coin_automaton(x)).automaton for x in (0.5, 0.7, 0.8, 1.0)]
        rng = np.random.default_rng(1919)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            grain = int(rng.choice((1, 2, 3, 4, 10)))
            transitions = {letter: rng.multinomial(grain, np.full(n, 1.0 / n), size=n) / grain
                           for letter in ("a", "b")}
            initial = np.zeros(n)
            initial[rng.integers(n)] = 1.0
            built.append(ProbabilisticAutomaton([f"s{i}" for i in range(n)], ("a", "b"),
                                                transitions, initial, [True] * n))
        # Each as built and as loaded, holding the checked rows, and with
        # its letters as products, holding ndarrays.
        as_products = [ProbabilisticAutomaton(
            a.states, a.alphabet,
            {x: StochasticMatrix.identity(a.dim) @ a.transition(x) for x in a.alphabet},
            a.initial, a.final) for a in built]
        return built + [automaton_from_json(automaton_to_json(a)) for a in built] + as_products

    def test_is_strict_matches_numpy(self):
        verdicts = []
        for automaton in self.automata():
            expected = all(bool(np.all((e == 0.0) | (e == 0.5) | (e == 1.0)))
                           for e in (automaton.transition(a).entries for a in automaton.alphabet))
            assert automaton.is_strict == expected
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)

    def test_boolean_projection_matches_numpy(self):
        from prostochastic import boolean_projection
        for automaton in self.automata():
            for letter in automaton.alphabet:
                matrix = automaton.transition(letter)
                expected = BooleanMatrix((matrix.entries > 0.0).astype(int).tolist())
                assert boolean_projection(matrix) == expected

    def test_loaded_rows_are_floats(self):
        text = ('{"states": ["s0", "s1"], "alphabet": ["a"], "initial": [1, 0], '
                '"final": [false, true], "transitions": {"a": [[0, 1], [0.5, 0.5]]}}')
        automaton = automaton_from_json(text)
        matrix = automaton.transition("a")
        assert matrix.rows == ((0.0, 1.0), (0.5, 0.5))
        assert all(type(v) is float for row in matrix.rows for v in row)
        assert matrix.entries.tolist() == [list(row) for row in matrix.rows]
        assert repr(matrix) == "StochasticMatrix([[0.0, 1.0], [0.5, 0.5]])"
        assert automaton.initial.tolist() == [1.0, 0.0]
