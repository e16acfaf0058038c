import numpy as np
import pytest

from prostochastic import (AutomatonFormatError, Concat, Literal, Power,
                           ProbabilisticAutomaton, StochasticMatrix,
                           acceptance_probability, automaton_from_json,
                           automaton_to_json, expand_schedule, matrix_norm,
                           schedule_acceptance_probability)
from conftest import absorbing_automaton, funnel_automaton, random_stochastic

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

    def test_entries_are_immutable(self):
        m = StochasticMatrix(ABSORBING)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.0


class TestMatrixNorm:
    def test_identity(self):
        assert matrix_norm(StochasticMatrix.identity(3)) == 1.0

    def test_every_stochastic_matrix_has_norm_one(self, rng):
        for _ in range(100):
            m = random_stochastic(rng, int(rng.integers(1, 6)))
            assert abs(matrix_norm(m) - 1.0) <= 1e-12

    def test_dominant_row(self):
        assert matrix_norm(np.array([[2.0, 0.0], [0.0, 1.0]])) == 2.0

    def test_submultiplicative(self, rng):
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            assert matrix_norm(a @ b) <= matrix_norm(a) * matrix_norm(b) + 1e-12


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

    def test_initial_vector_must_be_stochastic(self):
        with pytest.raises(ValueError, match="initial"):
            ProbabilisticAutomaton(("s", "t"), ("a",), {"a": np.eye(2)}, (0.6, 0.6), (True, True))

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

    def test_not_json(self):
        with pytest.raises(AutomatonFormatError, match="JSON"):
            automaton_from_json("not json at all")
