import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prostochastic import (Concat, Literal, Power, PreconditionError, ProbabilisticAutomaton,
                           automaton_from_json, automaton_to_json, build_reduction,
                           counterexample_automaton, round_acceptance, round_schedule,
                           StochasticMatrix, schedule_acceptance_probability, schedule_matrix,
                           verify_reduction)
from prostochastic.numerics import polynomial_exponent, superpolynomial_exponent
from prostochastic.reduction import CHECK, END
from conftest import (coin_automaton, direct_round_sum, funnel_automaton, power_nodes,
                      render_text_per_sample, round_probability_by_matrix, round_word,
                      single_state_automaton, squaring_chain_lengths)


class TestCounterexampleAutomaton:
    def test_branch_probabilities_closed_form(self):
        for x in (0.3, 0.5, 0.9):
            automaton = counterexample_automaton(x)
            for n in range(0, 9):
                prefix = schedule_matrix(
                    automaton, Concat(Literal(("b",)), Power(Literal(("a",)), n))
                    if n else Literal(("b",)))
                assert prefix.entries[0, 1] == pytest.approx(0.5 * x ** n, abs=1e-12)
                assert prefix.entries[0, 2] == pytest.approx(0.5 * (1.0 - x) ** n, abs=1e-12)

    def test_shape(self):
        automaton = counterexample_automaton(0.9)
        assert automaton.states == ("p0", "qL", "qR", "acc", "rej")
        assert automaton.alphabet == ("a", "b")
        assert automaton.initial_support() == (0,)
        assert automaton.final == (False, False, False, True, False)

    def test_strict_only_at_one_half(self):
        assert counterexample_automaton(0.5).is_strict
        assert not counterexample_automaton(0.9).is_strict

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            counterexample_automaton(x)


class TestBuildReduction:
    def test_state_count(self):
        for automaton, expected in [(single_state_automaton(), 5),
                                    (coin_automaton(0.8), 9),
                                    (funnel_automaton(), 9)]:
            built = build_reduction(automaton)
            assert built.automaton.dim == expected == 2 * automaton.dim + 3

    def test_unique_initial_and_final(self):
        built = build_reduction(coin_automaton(0.8)).automaton
        assert built.initial_support() == (0,)
        assert sum(built.final) == 1
        assert built.final[built.states.index("qF")]

    def test_check_splits_evenly(self):
        built = build_reduction(coin_automaton(0.8)).automaton
        row = built.transition("check").entries[0]
        left = built.states.index("q0:L")
        right = built.states.index("q0:R")
        assert row[left] == 0.5 and row[right] == 0.5
        assert row.sum() == 1.0

    def test_end_routes_by_finality_and_side(self):
        automaton = coin_automaton(0.8)
        built = build_reduction(automaton).automaton
        end = built.transition("end").entries
        s = built.states.index
        # final L-states restart the left copy; final R-states leave for p0
        assert end[s("heads:L"), s("q0:L")] == 1.0
        assert end[s("heads:R"), s("p0")] == 1.0
        # non-final states do the opposite
        assert end[s("tails:L"), s("p0")] == 1.0
        assert end[s("tails:R"), s("q0:R")] == 1.0

    def test_round_prefix_probability_closed_form(self):
        x = 0.8
        built = build_reduction(coin_automaton(x))
        b = built.automaton
        left = b.states.index("q0:L")
        right = b.states.index("q0:R")
        for k in range(1, 9):
            prefix = schedule_matrix(
                b, Concat(Literal(("check",)), Power(Literal(("a", "end")), k)))
            assert prefix.entries[0, left] == pytest.approx(0.5 * x ** k, abs=1e-12)
            assert prefix.entries[0, right] == pytest.approx(0.5 * (1 - x) ** k, abs=1e-12)

    def test_state_map_tags(self):
        built = build_reduction(coin_automaton(0.8))
        assert built.state_map["p0"] == "p0"
        assert built.state_map["qF"] == "qF"
        assert built.state_map["bot"] == "bot"
        assert built.state_map["heads:L"] == ("heads", "L")
        assert len(built.state_map) == built.automaton.dim

    def test_output_round_trips_through_the_file_format(self):
        built = build_reduction(funnel_automaton())
        text = automaton_to_json(built.automaton, state_map=built.state_map)
        loaded = automaton_from_json(text)
        assert loaded.states == built.automaton.states
        for letter in loaded.alphabet:
            assert np.allclose(loaded.transition(letter).entries,
                               built.automaton.transition(letter).entries)

    def test_letters_copied_unchanged_and_sinks_loop(self, rng):
        for _ in range(12):
            d = int(rng.integers(1, 6))
            q0 = int(rng.integers(d))
            transitions = {}
            for letter in ("a", "b"):
                raw = rng.random((d, d)) * (rng.random((d, d)) < 0.6) + 0.05 * np.eye(d)
                raw[np.arange(d) != q0, q0] = 0.0
                transitions[letter] = raw / raw.sum(axis=1, keepdims=True)
            automaton = ProbabilisticAutomaton(
                [f"s{q}" for q in range(d)], ("a", "b"), transitions,
                np.eye(d)[q0], [bool(v) for v in rng.random(d) < 0.5])
            built = build_reduction(automaton).automaton
            index = built.states.index
            p0, qf, bot = index("p0"), index("qF"), index("bot")
            for side in ("L", "R"):
                copy = [index(f"s{q}:{side}") for q in range(d)]
                for letter in automaton.alphabet:
                    block = built.transition(letter).entries[np.ix_(copy, copy)]
                    assert np.array_equal(block, automaton.transition(letter).entries)
            for letter in built.alphabet:
                entries = built.transition(letter).entries
                # Built without a check, and still passes the checked constructor.
                assert StochasticMatrix(entries).rows == built.transition(letter).rows
                assert entries[qf, qf] == entries[bot, bot] == 1.0
                assert entries[p0, p0] == (0.0 if letter == CHECK else 1.0)
            split = np.zeros(built.dim)
            split[[index(f"s{q0}:L"), index(f"s{q0}:R")]] = 0.5
            assert np.array_equal(built.transition(CHECK).entries[p0], split)

    def test_requires_unit_initial_vector(self):
        automaton = ProbabilisticAutomaton(
            ("s", "t"), ("a",), {"a": [[0.0, 1.0], [0.0, 1.0]]},
            (0.5, 0.5), (False, True))
        with pytest.raises(PreconditionError, match="unit vector"):
            build_reduction(automaton)

    def test_rejects_ingoing_transitions_to_the_initial_state(self):
        automaton = ProbabilisticAutomaton(
            ("s", "t"), ("a",), {"a": [[0.0, 1.0], [1.0, 0.0]]},
            (1.0, 0.0), (False, True))
        with pytest.raises(PreconditionError, match="into the initial state"):
            build_reduction(automaton)

    def test_self_loop_on_the_initial_state_is_allowed(self):
        assert build_reduction(single_state_automaton()).automaton.dim == 5

    def test_rejects_reserved_letters(self):
        automaton = ProbabilisticAutomaton(
            ("s",), ("check",), {"check": [[1.0]]}, (1.0,), (True,))
        with pytest.raises(PreconditionError, match="reserved"):
            build_reduction(automaton)


class TestRoundAcceptance:
    def test_single_round_yields_zero(self):
        assert round_acceptance(0.3, 0.1, 1) == 0.0

    def test_symmetric_case(self):
        for p in (0.05, 0.2, 0.5):
            for rounds in (1, 2, 7, 40):
                assert round_acceptance(p, p, rounds) == pytest.approx(
                    0.5 * (1.0 - (1.0 - 2.0 * p) ** (rounds - 1)), abs=1e-12)

    def test_direct_summation_example(self):
        assert round_acceptance(0.4, 0.1, 10) == pytest.approx(
            direct_round_sum(0.4, 0.1, 10), abs=1e-12)

    @given(p=st.floats(1e-6, 0.5), q=st.floats(1e-6, 0.5), rounds=st.integers(1, 300))
    @settings(max_examples=300)
    def test_closed_form_equals_direct_sum(self, p, q, rounds):
        assert round_acceptance(p, q, rounds) == pytest.approx(
            direct_round_sum(p, q, rounds), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="positive"):
            round_acceptance(0.0, 0.1, 5)
        with pytest.raises(ValueError):
            round_acceptance(0.6, 0.6, 5)
        with pytest.raises(ValueError):
            round_acceptance(0.1, 0.1, 0)

    def test_astronomical_round_counts_underflow_cleanly(self):
        assert round_acceptance(0.3, 0.1, 10 ** 400) == pytest.approx(0.75)

    @pytest.mark.parametrize("p_win,p_lose,rounds,expected", [
        (0.3, 0.1, 1, "0x0.0p+0"),
        (0.3, 0.1, 2, "0x1.3333333333333p-2"),
        (0.3, 0.1, 2 ** 1019, "0x1.7ffffffffffffp-1"),
        (0.3, 0.1, 2 ** 1021, "0x1.7ffffffffffffp-1"),
        (0.3, 0.1, 2 ** 5000, "0x1.7ffffffffffffp-1"),
        (0.1, 1e-07, 2, "0x1.999999999999dp-4"),
        (0.1, 1e-07, 2 ** 1019, "0x1.ffffde7212f19p-1"),
        (0.1, 1e-07, 2 ** 1021, "0x1.ffffde7212f19p-1"),
        (1e-17, 0.0, 2 ** 1019, "0x0.0p+0"),
        (1e-17, 0.0, 2 ** 1021, "0x1.0000000000000p+0"),
        # p_win + p_lose = 1
        (0.25, 0.75, 1, "0x0.0p+0"),
        (0.25, 0.75, 2, "0x1.0000000000000p-2"),
        (0.25, 0.75, 7, "0x1.0000000000000p-2"),
        # p_win + p_lose = 1 + 5e-13, inside the tolerance
        (0.5, 0.5 + 5e-13, 1, "0x0.0p+0"),
        (0.5, 0.5 + 5e-13, 2, "0x1.fffffffffee68p-2"),
        (0.5, 0.5 + 5e-13, 9, "0x1.fffffffffee68p-2"),
        # 0.6 ** 36 is normal, 0.6 ** 1396 subnormal, 0.6 ** 1999 underflows
        (0.3, 0.1, 37, "0x1.7fffffbd8cc14p-1"),
        (0.3, 0.1, 1397, "0x1.7ffffffffffffp-1"),
        (0.3, 0.1, 2000, "0x1.7ffffffffffffp-1"),
        (1e-3, 1e-3, 400000, "0x1.0000000000000p-1"),
    ])
    def test_exact_bits(self, p_win, p_lose, rounds, expected):
        assert round_acceptance(p_win, p_lose, rounds).hex() == expected


class TestRoundSchedule:
    def test_matches_exponent_functions(self):
        for n in range(1, 9):
            for word_length in (1, 4):
                k, rounds = round_schedule(n, word_length)
                assert k == polynomial_exponent(n * (word_length + 1))
                assert rounds == superpolynomial_exponent(n * (1 + k * (word_length + 1)))


class TestVerifyReduction:
    def test_winning_word_climbs_to_one(self):
        report = verify_reduction(coin_automaton(0.8), ("a",), n_max=6)
        values = [s.value for s in report.samples]
        # Frozen against direct matrix powering of the hand-built reduction.
        assert values[0] == pytest.approx(0.941176470588235, abs=1e-9)
        assert values[2] == pytest.approx(0.999755918965096, abs=1e-9)
        first_above = next(i for i, v in enumerate(values, start=1) if v > 0.99)
        assert first_above == 3
        assert all(v > 0.99 for v in values[2:])

    def test_losing_word_stays_at_most_one_half(self):
        report = verify_reduction(coin_automaton(0.4), ("a",), n_max=6)
        assert all(s.value <= 0.5 + 1e-9 for s in report.samples)

    @pytest.mark.parametrize("word", [("a",), ("a", "a")])
    def test_sample_lengths_count_the_letters_read(self, word):
        # Each of the rounds reads check, then k times the word and end.
        report = verify_reduction(coin_automaton(0.7), word, n_max=6)
        for n, sample in enumerate(report.samples, start=1):
            k, rounds = round_schedule(n, len(word))
            assert sample.length == rounds * (1 + k * (len(word) + 1))

    def test_matrix_and_formula_paths_agree(self):
        report = verify_reduction(funnel_automaton(), ("b", "a", "a", "a"), n_max=5)
        for sample in report.samples:
            assert sample.discrepancy <= 1e-9

    def test_coin_grid_matches_the_round_formula_to_rounding(self):
        # Factorial round counts run to 30!: unnormalized squaring drifted 3.9e-10.
        worst = max(sample.discrepancy
                    for x in (0.2, 0.45, 0.55, 0.7, 0.8)
                    for word in (("a",), ("a", "a"))
                    for sample in verify_reduction(coin_automaton(x), word, n_max=30).samples)
        assert worst <= 1e-15

    def test_agreement_on_explicit_round_grid(self, rng):
        # Two independent evaluation paths across k, N up to 10^3.
        from prostochastic import acceptance_probability
        for automaton, word in [(coin_automaton(0.8), ("a",)),
                                (funnel_automaton(), ("b", "a", "a", "a"))]:
            x = acceptance_probability(automaton, word)
            built = build_reduction(automaton)
            pairs = {(1, 1), (1, 1000), (1000, 1), (1000, 1000)}
            while len(pairs) < 20:
                pairs.add((int(rng.integers(1, 1001)), int(rng.integers(1, 1001))))
            for k, rounds in sorted(pairs):
                by_matrix = round_probability_by_matrix(built, word, k, rounds)
                by_formula = round_acceptance(0.5 * x ** k, 0.5 * (1 - x) ** k, rounds)
                assert abs(by_matrix - by_formula) <= 1e-9, (k, rounds)


class TestVerifySweepMemo:
    """One `verify_reduction` sweep evaluates each distinct schedule node once."""

    WORD = ("a",)
    N_MAX = 30

    def round_schedules(self):
        # (check (w end)^k)^rounds at n = 1..N_MAX.
        for n in range(1, self.N_MAX + 1):
            k, rounds = round_schedule(n, len(self.WORD))
            yield n, Power(Concat(Literal((CHECK,)), Power(Literal(self.WORD + (END,)), k)),
                           rounds)

    def test_one_power_call_per_distinct_power_node(self, power_exponents):
        verify_reduction(coin_automaton(0.7), self.WORD, n_max=self.N_MAX)
        distinct = set().union(*(power_nodes(schedule) for _, schedule in self.round_schedules()))
        assert sorted(power_exponents) == sorted(node.exponent for node in distinct)

    def test_one_squaring_chain_per_distinct_base(self, matrix_squarings):
        verify_reduction(coin_automaton(0.7), self.WORD, n_max=self.N_MAX)
        full = squaring_chain_lengths(schedule for _, schedule in self.round_schedules())
        assert (matrix_squarings.squarings, full) == (56, 197)

    def test_one_evaluation_per_distinct_schedule(self, sweep_evaluations):
        verify_reduction(coin_automaton(0.7), self.WORD, n_max=self.N_MAX)
        pairs = [round_schedule(n, len(self.WORD)) for n in range(1, self.N_MAX + 1)]
        distinct = {schedule for _, schedule in self.round_schedules()}
        assert sweep_evaluations == list(dict.fromkeys(pairs))
        assert len(sweep_evaluations) == len(distinct) == 7

    def test_one_build_per_distinct_schedule(self, schedule_builds):
        report = verify_reduction(coin_automaton(0.7), self.WORD, n_max=self.N_MAX)
        assert schedule_builds == []   # the sweep evaluates the plan, not schedules
        pairs = {round_schedule(n, len(self.WORD)) for n in range(1, self.N_MAX + 1)}
        assert len(pairs) == 7
        schedules = dict(self.round_schedules())
        assert [sample.length for sample in report.samples] == [
            schedules[n].length for n in range(1, self.N_MAX + 1)]
        assert schedule_builds   # building the round words is seen

    def test_one_reference_per_distinct_pair(self, monkeypatch):
        from prostochastic import reduction
        calls = []
        original = reduction.round_acceptance

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(reduction, "round_acceptance", counting)
        report = verify_reduction(coin_automaton(0.7), self.WORD, n_max=self.N_MAX)
        assert len(calls) == 7
        # The samples of one pair hold one reference and one value object.
        samples = report.samples
        for previous, sample in zip(samples, samples[1:]):
            if round_schedule(previous.n, 1) == round_schedule(sample.n, 1):
                assert sample.reference is previous.reference
                assert sample.value is previous.value

    @pytest.mark.parametrize("x", [0.4, 0.7])
    def test_samples_equal_single_schedule_values(self, x):
        automaton = coin_automaton(x)
        built = build_reduction(automaton).automaton
        report = verify_reduction(automaton, self.WORD, n_max=self.N_MAX)
        for sample, (n, schedule) in zip(report.samples, self.round_schedules()):
            assert sample.n == n
            assert sample.value == schedule_acceptance_probability(built, schedule)


class TestVerifyAgainstRoundWords:
    """`verify_reduction` sweeps the expression check (w end)^w: its exponent
    tuples are the round parameters, and its samples have the bits of a
    memo-free evaluation of each round word."""

    @staticmethod
    def signed_zero_automaton():
        # Every zero is -0.0, the initial state's column among them.
        return ProbabilisticAutomaton(
            ("s0", "s1", "s2"), ("a", "b"),
            {"a": [[-0.0, 0.6, 0.4], [-0.0, 0.5, 0.5], [-0.0, -0.0, 1.0]],
             "b": [[-0.0, 0.3, 0.7], [-0.0, 1.0, -0.0], [-0.0, 0.25, 0.75]]},
            (1.0, -0.0, -0.0), (False, True, False))

    def test_round_expression_exponents_are_the_round_schedule(self, monkeypatch):
        from prostochastic import numerics, reduction
        swept = []
        original = reduction.sweep

        def capturing(automaton, expr, mode, n_max, reference=None):
            swept.append((expr, mode))
            return original(automaton, expr, mode, n_max, reference)

        monkeypatch.setattr(reduction, "sweep", capturing)
        for word in (("a",), ("a", "b"), ("b", "a", "b"), ("a", "b", "b", "a")):
            verify_reduction(self.signed_zero_automaton(), word, n_max=3)
            (expr, mode), = swept
            swept.clear()
            plan = numerics._plan(expr)
            for n in range(1, 401):
                assert numerics._exponents(plan, n, mode) == round_schedule(n, len(word))

    @pytest.mark.parametrize("word", [("a",), ("b", "a"), ("a", "b", "b")])
    def test_samples_equal_memo_free_round_words(self, word):
        from prostochastic import acceptance_probability
        automaton = self.signed_zero_automaton()
        built = build_reduction(automaton).automaton
        assert np.signbit(built.transition("a").entries).any()
        x = acceptance_probability(automaton, word)
        report = verify_reduction(automaton, word, n_max=30)
        for sample in report.samples:
            k, rounds = round_schedule(sample.n, len(word))
            schedule = round_word(word, k, rounds)
            reference = round_acceptance(0.5 * x ** k, 0.5 * (1.0 - x) ** k, rounds)
            assert (sample.value.hex(), sample.length, sample.reference.hex()) == (
                schedule_acceptance_probability(built, schedule).hex(), schedule.length,
                reference.hex())
        assert report.render_text() == render_text_per_sample(report)


class TestPipelineInvariants:
    def test_winning_trajectories_eventually_monotone_and_high(self):
        # Composed pipeline for words accepted clearly above one half.
        from prostochastic import acceptance_probability
        cases = [(coin_automaton(0.8), ("a",)),
                 (funnel_automaton(), ("b", "a", "a", "a"))]
        for automaton, word in cases:
            assert acceptance_probability(automaton, word) > 0.5 + 0.05
            values = [s.value for s in verify_reduction(automaton, word, n_max=8).samples]
            assert max(values) > 0.99
            tail = values[2:]
            assert all(a <= b + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_sub_half_automata_never_beat_one_half(self):
        # If no enumerated word beats 1/2 on A, no schedule sample does on B.
        from itertools import product as iter_product
        from prostochastic import ProbabilisticAutomaton, acceptance_probability
        two_coin = ProbabilisticAutomaton(
            ("q0", "h", "t"), ("a", "b"),
            {"a": [[0.0, 0.4, 0.6], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
             "b": [[0.0, 0.3, 0.7], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            (1.0, 0.0, 0.0), (False, True, False))
        for automaton in (coin_automaton(0.4), two_coin):
            best = max(
                acceptance_probability(automaton, word)
                for length in range(0, 9)
                for word in iter_product(automaton.alphabet, repeat=length))
            assert best <= 0.5
            for word in (automaton.alphabet[:1], automaton.alphabet[-1:]):
                report = verify_reduction(automaton, word, n_max=5)
                assert all(s.value <= 0.5 + 1e-9 for s in report.samples)
