import math
import random
import sys
import threading

import numpy as np
import pytest

from prostochastic import (Concat, IdempotenceError, Literal, Power, ProbabilisticAutomaton,
                           SamplePoint, StochasticMatrix, boolean_interpretation,
                           boolean_projection, counterexample_automaton, estimate_limit,
                           is_idempotent, limit_matrix, limit_projection, markov_monoid,
                           numeric_interpretation, parse_expression, polynomial_exponent,
                           realize_polynomial, realize_superpolynomial,
                           schedule_acceptance_probability, stabilize,
                           superpolynomial_exponent)
from prostochastic.numerics import ConvergenceReport, RateFit, build_report
from prostochastic import numerics
from conftest import (absorbing_automaton, expand_schedule, exponents_by_postorder,
                      funnel_automaton, power_nodes, random_expression, random_quarter_automaton,
                      random_stochastic, render_text_per_sample, single_state_automaton,
                      squaring_chain_lengths)

ABSORBING = StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])
FACTORIALS = [math.factorial(k) for k in range(1, 480)]   # past 2^3481


def factorial_floor(n):
    """Reference for `polynomial_exponent`: the largest k! <= n, by a plain
    loop over `math.factorial`."""
    assert FACTORIALS[-1] > n
    floor = 1
    for factorial in FACTORIALS:
        if factorial > n:
            return floor
        floor = factorial


@pytest.fixture
def fresh_factorials(monkeypatch):
    """`polynomial_exponent` starts from the table it has at import."""
    monkeypatch.setattr(numerics, "_factorials", (1,))


class TestExponentSchedules:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (5, 2), (6, 6), (23, 6), (24, 24), (119, 24), (120, 120),
    ])
    def test_polynomial_values(self, n, expected):
        assert polynomial_exponent(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (4, 6)])
    def test_superpolynomial_values(self, n, expected):
        assert superpolynomial_exponent(n) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            polynomial_exponent(0)
        with pytest.raises(ValueError):
            superpolynomial_exponent(0)

    def test_polynomial_matches_factorial_loop_up_to_5000(self, fresh_factorials):
        for n in range(1, 5001):
            assert polynomial_exponent(n) == factorial_floor(n), n

    def test_polynomial_matches_factorial_loop_around_factorials(self, fresh_factorials):
        for k in range(1, 451):
            for n in (FACTORIALS[k - 1] - 1, FACTORIALS[k - 1], FACTORIALS[k - 1] + 1):
                if n >= 1:
                    assert polynomial_exponent(n) == factorial_floor(n), (k, n)

    def test_polynomial_matches_factorial_loop_out_of_order(self, fresh_factorials):
        # The table grows by jumps and is then searched below its end.
        powers = [2 ** e for e in range(3482)]
        random.Random(0).shuffle(powers)
        for n in powers:
            assert polynomial_exponent(n) == factorial_floor(n), n.bit_length()

    def test_polynomial_threads_growing_one_table(self, fresh_factorials):
        # Four threads on a fresh table, switching every microsecond, each
        # asking for large arguments in its own order.
        arguments = [[2 ** e + t for e in range(1, 3482, 37)] for t in range(4)]
        for t, ns in enumerate(arguments):
            random.Random(t).shuffle(ns)
        results = [None] * len(arguments)
        start = threading.Barrier(len(arguments))

        def ask(t):
            start.wait(timeout=10)
            results[t] = [polynomial_exponent(n) for n in arguments[t]]

        threads = [threading.Thread(target=ask, args=(t,)) for t in range(len(arguments))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[factorial_floor(n) for n in ns] for ns in arguments]
        assert numerics._factorials == tuple(FACTORIALS[:len(numerics._factorials)])

    def test_polynomial_bounded_by_argument(self):
        for n in range(1, 2000):
            assert polynomial_exponent(n) <= n

    def test_superpolynomial_dominates_polynomial(self):
        for n in range(1, 2000):
            assert superpolynomial_exponent(n) >= polynomial_exponent(n)

    @pytest.mark.parametrize("schedule", [polynomial_exponent, superpolynomial_exponent])
    def test_factorial_like_divisibility(self, schedule):
        # For every divisor there is a point past which it always divides
        # the scheduled exponent; with arguments up to 10^4 the suffix is
        # comfortably long even for p = 7 (which f_P first locks in at 7!).
        values = [schedule(n) for n in range(1, 10 ** 4 + 1)]
        for p in range(2, 8):
            last_bad = max((i for i, v in enumerate(values) if v % p), default=-1)
            assert last_bad < len(values) - 1000, p


class TestLimitMatrix:
    def test_identity_fixpoint(self):
        result = limit_matrix(StochasticMatrix.identity(3))
        assert np.allclose(result.entries, np.eye(3))

    def test_absorbing_limit(self):
        result = limit_matrix(ABSORBING)
        assert np.allclose(result.entries, [[0.0, 1.0], [0.0, 1.0]], atol=1e-10)

    def test_periodic_matrix_converges_on_factorials(self):
        swap = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
        result = limit_matrix(swap)
        assert np.allclose(result.entries, np.eye(2))

    def test_limit_is_idempotent(self, rng):
        for _ in range(30):
            m = random_stochastic(rng, int(rng.integers(2, 5)))
            limit = limit_matrix(m)
            assert np.all(np.abs((limit @ limit).entries - limit.entries) <= 1e-8)

    def test_support_agrees_with_stabilization(self, rng):
        found = 0
        while found < 60:
            m = random_stochastic(rng, int(rng.integers(2, 5)))
            support = boolean_projection(m)
            if not is_idempotent(support):
                continue
            found += 1
            assert limit_projection(limit_matrix(m)) == stabilize(support)

    def test_limit_absorbs_further_factorial_powers(self, rng):
        # L is a fixed point of multiplication by large factorial powers of M.
        for _ in range(10):
            m = random_stochastic(rng, 3)
            limit = limit_matrix(m)
            residual = (limit @ m.power(polynomial_exponent(5040))).entries
            assert np.abs(limit.entries - residual).sum(axis=1).max() <= 1e-8

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(3, 15)])
    def test_slow_leak_is_exact(self, eps):
        # Successive factorial powers of this matrix differ by less than any
        # fixed tolerance long before the mass has left state 0.
        limit = limit_matrix(StochasticMatrix([[1.0 - eps, eps], [0.0, 1.0]]))
        assert limit_projection(limit).bitstring() == "0101"
        assert np.all(np.abs(limit.entries.sum(axis=1) - 1.0) <= 1e-15)

    def test_badly_scaled_rows_keep_exact_values_and_zeros(self):
        # State 2 leaks 1e-7 per step into class {0} and can never reach
        # class {1}; state 3 reaches both.  A pivoting solve mixes the two
        # rows and leaves about 1e-11 in entry (2, 1).
        m = StochasticMatrix([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                              [1e-7, 0.0, 1.0 - 1e-7, 0.0], [0.01, 0.98999, 1e-5, 0.0]])
        limit = limit_matrix(m)
        assert limit_projection(limit).bitstring() == "1000" "0100" "1000" "1100"
        expected = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0, 0.0], [0.01001, 0.98999, 0.0, 0.0]]
        assert np.all(np.abs(limit.entries - expected) <= 1e-15)

    @pytest.mark.parametrize("rows,expected", [
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], np.eye(3)),
        # Period two, with classes {0, 2} and {1} in the square.
        ([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]], [[0.5, 0, 0.5], [0, 1, 0], [0.5, 0, 0.5]]),
    ], ids=["three-cycle", "period-two-chain"])
    def test_periodic_limit_is_exact(self, rows, expected):
        assert np.array_equal(limit_matrix(StochasticMatrix(rows)).entries, expected)

    def test_limit_commutes_with_and_absorbs_the_matrix(self, rng):
        found = 0
        while found < 60:
            m = random_stochastic(rng, int(rng.integers(2, 6)))
            if not is_idempotent(boolean_projection(m)):
                continue
            found += 1
            limit = limit_matrix(m)
            assert np.all(np.abs((limit @ m).entries - limit.entries) <= 1e-14)
            assert np.all(np.abs((m @ limit).entries - limit.entries) <= 1e-14)


class TestNumericInterpretation:
    def test_letter(self, absorbing):
        result = numeric_interpretation(parse_expression("a", ("a",)), absorbing)
        assert np.allclose(result.entries, ABSORBING.entries)

    def test_iterated_letter(self, absorbing):
        result = numeric_interpretation(parse_expression("a^w", ("a",)), absorbing)
        assert np.allclose(result.entries, [[0.0, 1.0], [0.0, 1.0]], atol=1e-10)

    def test_ill_typed_expression_raises_before_evaluation(self, permutation):
        with pytest.raises(IdempotenceError):
            numeric_interpretation(parse_expression("a^w", ("a",)), permutation)

    def test_support_matches_boolean_interpretation(self, rng):
        # The executable form of the support characterization, on random
        # automata and iterated product expressions.
        checked = 0
        for _ in range(40):
            automaton = random_quarter_automaton(rng, int(rng.integers(2, 5)))
            generators = {a: boolean_projection(automaton.transition(a))
                          for a in automaton.alphabet}
            for text in ("a", "a b", "a^w", "(a b)^w", "(a^w b)^w"):
                expr = parse_expression(text, automaton.alphabet)
                try:
                    expected = boolean_interpretation(expr, generators)
                except IdempotenceError:
                    continue
                checked += 1
                assert limit_projection(numeric_interpretation(expr, automaton)) == expected
        assert checked >= 40

    @pytest.mark.parametrize("text,support", [
        ("b a^1000", "011011001"),
        ("(b a^1100)^w", "001001001"),
    ])
    def test_long_words_keep_the_boolean_support(self, text, support):
        funnel = funnel_automaton()
        result = numeric_interpretation(parse_expression(text, funnel.alphabet), funnel)
        assert limit_projection(result).bitstring() == support

    def test_underflow_that_clears_a_boolean_entry_raises(self):
        # 0.5^1100 is below the smallest double, so the chance of still
        # being in the coin-flipping state after b a^1100 reads as 0.
        funnel = funnel_automaton()
        with pytest.raises(ValueError, match="numeric support 001001001 differs from "
                                             "the boolean interpretation 011011001"):
            numeric_interpretation(parse_expression("b a^1100", funnel.alphabet), funnel)


class TestMonoidElementsAreLimitSupports:
    """The paper's characterization: every element of the Markov monoid is
    the support of the limit of its witness expression."""

    SLOW = 1e-12

    def automaton(self, rng, n_states):
        # Two random letters plus a slow leak from state 0 into state 1.
        base = random_quarter_automaton(rng, n_states)
        slow = np.eye(n_states)
        slow[0, :2] = (1.0 - self.SLOW, self.SLOW)
        transitions = {a: base.transition(a) for a in base.alphabet}
        transitions["c"] = slow
        return ProbabilisticAutomaton(base.states, ("a", "b", "c"), transitions,
                                      base.initial, base.final)

    def test_every_element_is_its_witness_limit_support(self, rng):
        checked = 0
        for index in range(24):
            automaton = self.automaton(rng, 2 + index % 3)
            for element in markov_monoid(automaton):
                numeric = numeric_interpretation(element.witness, automaton)
                assert limit_projection(numeric) == element.matrix, element.witness
                assert np.all(np.abs(numeric.entries.sum(axis=1) - 1.0) <= 1e-12)
                checked += 1
        assert checked >= 300


class TestRealization:
    def test_omega_realizes_to_polynomial_power(self):
        expr = parse_expression("a^w", ("a",))
        assert realize_polynomial(expr, 3) == Power(Literal(("a",)), 2)

    def test_nested_realization(self):
        expr = parse_expression("(b a^w)^w", ("a", "b"))
        inner = Concat(Literal(("b",)), Power(Literal(("a",)), 1))
        assert realize_polynomial(expr, 1) == Power(inner, 2)

    def test_letters_stay_literal(self):
        expr = parse_expression("b a", ("a", "b"))
        schedule = realize_polynomial(expr, 17)
        assert expand_schedule(schedule) == ("b", "a")

    def test_superpolynomial_wraps_polynomial(self):
        expr = parse_expression("a", ("a",))
        assert realize_superpolynomial(expr, 2) == Power(Literal(("a",)), 2)

    def test_superpolynomial_length_formula(self):
        expr = parse_expression("b a^w", ("a", "b"))
        n = 7
        inner = realize_polynomial(expr, n)
        schedule = realize_superpolynomial(expr, n)
        assert schedule == Power(inner, superpolynomial_exponent(n * inner.length))
        assert schedule.length == inner.length * superpolynomial_exponent(n * inner.length)

    def test_rejects_non_positive_index(self):
        with pytest.raises(ValueError):
            realize_polynomial(parse_expression("a", ("a",)), 0)


class TestExponentPlan:
    """`_plan` walks an expression once; `_exponents` reads each n's
    exponents off the plan in integers alone."""

    @staticmethod
    def omega_height(expr):
        from prostochastic import Omega
        from prostochastic.expressions import postorder
        heights = {}
        for node in postorder(expr):
            below = max((heights[child] for child in node._children), default=0)
            heights[node] = below + isinstance(node, Omega)
        return heights[expr]

    def expressions(self):
        rng = np.random.default_rng(2718)
        exprs = [random_expression(rng, ("a", "b"), int(rng.integers(0, 4)),
                                   int(rng.integers(1, 8)))
                 for _ in range(40)]
        exprs += [parse_expression(text, ("a", "b"))
                  for text in ("b a^w", "(b a^w)^w", "a^w^w^w", "((b a^w)^w a)^w b",
                               "(a^w a^w)^w", "a b a b")]
        assert {self.omega_height(expr) for expr in exprs} == {0, 1, 2, 3}
        return exprs

    @pytest.mark.parametrize("mode", ["polynomial", "superpolynomial"])
    def test_plan_matches_a_postorder_walk_per_n(self, mode):
        for expr in self.expressions():
            plan = numerics._plan(expr)
            for n in (*range(1, 41), *range(41, 400, 9), 400):
                assert numerics._exponents(plan, n, mode) == exponents_by_postorder(expr, n, mode)

    def test_one_plan_per_sweep_and_per_build(self, monkeypatch, schedule_builds):
        plans = []
        original = numerics._plan

        def counting(expr):
            plans.append(expr)
            return original(expr)

        monkeypatch.setattr(numerics, "_plan", counting)
        automaton = counterexample_automaton(0.7)
        expr = parse_expression("b a^w", automaton.alphabet)
        estimate_limit(automaton, expr, "polynomial", 40)
        assert len(plans) == 1 and schedule_builds == []


class TestConcat:
    def test_concat_denotes_concatenation(self):
        left = Literal(("a", "b"))
        right = Literal(("c",))
        assert expand_schedule(Concat(left, right)) == ("a", "b", "c")

    def test_empty_literal_is_neutral(self, funnel):
        schedule = Literal(("b", "a", "a"))
        padded = Concat(schedule, Literal(()))
        assert schedule_acceptance_probability(funnel, padded) == \
            schedule_acceptance_probability(funnel, schedule)

    def test_concatenated_realizations_keep_the_exponential_envelope(self, funnel):
        # Concatenating two polynomial realizations samples a sequence that
        # still decays geometrically in the word length.
        from prostochastic import SamplePoint
        from prostochastic.numerics import build_report
        prefix = parse_expression("b", funnel.alphabet)
        tail = parse_expression("a^w", funnel.alphabet)
        samples = []
        for n in range(1, 25):
            schedule = Concat(realize_polynomial(prefix, n),
                              realize_polynomial(tail, n))
            samples.append(SamplePoint(n, schedule.length,
                                       schedule_acceptance_probability(funnel, schedule)))
        report = build_report(samples)
        assert report.rate_fit is not None
        assert report.rate_fit.decay_base == pytest.approx(2.0, rel=1e-3)


class TestEstimateLimit:
    def test_superpolynomial_climbs_to_one_on_the_counterexample(self):
        automaton = counterexample_automaton(0.9)
        expr = parse_expression("b a^w", automaton.alphabet)
        report = estimate_limit(automaton, expr, "superpolynomial", 8)
        values = [s.value for s in report.samples]
        assert all(earlier <= later + 1e-12 for earlier, later in zip(values, values[1:]))
        assert values[-1] > 0.999
        assert report.extrapolated_limit > 0.999

    def test_polynomial_stays_below_one_on_the_counterexample(self):
        automaton = counterexample_automaton(0.9)
        expr = parse_expression("b a^w", automaton.alphabet)
        report = estimate_limit(automaton, expr, "polynomial", 8)
        assert report.extrapolated_limit < 0.5

    def test_single_state_is_constant_one(self):
        automaton = single_state_automaton(accepting=True)
        expr = parse_expression("a^w", ("a",))
        for mode in ("polynomial", "superpolynomial"):
            report = estimate_limit(automaton, expr, mode, 5)
            assert all(s.value == 1.0 for s in report.samples)
            assert report.extrapolated_limit == 1.0

    def test_absorbing_rate_fit_detects_geometric_decay(self, absorbing):
        expr = parse_expression("a^w", ("a",))
        report = estimate_limit(absorbing, expr, "polynomial", 24)
        assert report.rate_fit is not None
        assert report.rate_fit.decay_base == pytest.approx(2.0, rel=1e-3)

    def test_mode_and_index_validation(self, absorbing):
        expr = parse_expression("a", ("a",))
        with pytest.raises(ValueError, match="mode"):
            estimate_limit(absorbing, expr, "glacial", 5)
        with pytest.raises(ValueError, match="n_max"):
            estimate_limit(absorbing, expr, "polynomial", 2)


class TestSweepMemo:
    """One `estimate_limit` sweep evaluates each distinct sub-realization once."""

    def test_one_power_call_per_distinct_power_node(self, power_exponents):
        automaton = counterexample_automaton(0.9)
        expr = parse_expression("(b a^w)^w", automaton.alphabet)
        estimate_limit(automaton, expr, "superpolynomial", 40)
        distinct = set().union(*(power_nodes(realize_superpolynomial(expr, n))
                                 for n in range(1, 41)))
        assert sorted(power_exponents) == sorted(node.exponent for node in distinct)

    def test_one_squaring_chain_per_distinct_base(self, matrix_squarings):
        automaton = counterexample_automaton(0.9)
        expr = parse_expression("(b a^w)^w", automaton.alphabet)
        estimate_limit(automaton, expr, "superpolynomial", 40)
        full = squaring_chain_lengths(realize_superpolynomial(expr, n) for n in range(1, 41))
        assert (matrix_squarings.squarings, full) == (62, 1112)

    def test_one_evaluation_per_distinct_schedule(self, sweep_evaluations):
        automaton = counterexample_automaton(0.9)
        expr = parse_expression("(b a^w)^w", automaton.alphabet)
        estimate_limit(automaton, expr, "superpolynomial", 40)
        tuples = [exponents_by_postorder(expr, n, "superpolynomial") for n in range(1, 41)]
        distinct = {realize_superpolynomial(expr, n) for n in range(1, 41)}
        assert sweep_evaluations == list(dict.fromkeys(tuples))
        assert len(sweep_evaluations) == len(distinct) == 11

    @pytest.mark.parametrize("text,mode,builds", [("(b a^w)^w", "superpolynomial", 11),
                                                  ("(b a^w)^w", "polynomial", 6),
                                                  ("b a^w", "superpolynomial", 7),
                                                  ("b a^w", "polynomial", 4)])
    def test_one_build_per_distinct_schedule(self, schedule_builds, text, mode, builds):
        automaton = counterexample_automaton(0.7)
        expr = parse_expression(text, automaton.alphabet)
        estimate_limit(automaton, expr, mode, 40)
        assert schedule_builds == []   # the sweep evaluates the plan, not schedules
        realize = realize_polynomial if mode == "polynomial" else realize_superpolynomial
        assert len({realize(expr, n) for n in range(1, 41)}) == builds
        assert schedule_builds   # building them is seen

    @pytest.mark.parametrize("mode,realize", [("polynomial", realize_polynomial),
                                              ("superpolynomial", realize_superpolynomial)])
    @pytest.mark.parametrize("text", ["b a^w", "(b a^w)^w", "(b a^w)^w b"])
    @pytest.mark.parametrize("n_max", [40, 400])
    def test_sample_lengths_are_exact(self, mode, realize, text, n_max):
        automaton = counterexample_automaton(0.7)
        expr = parse_expression(text, automaton.alphabet)
        report = estimate_limit(automaton, expr, mode, n_max)
        assert [sample.n for sample in report.samples] == list(range(1, n_max + 1))
        for sample in report.samples:
            assert sample.length == realize(expr, sample.n).length

    @pytest.mark.parametrize("mode,realize", [("polynomial", realize_polynomial),
                                              ("superpolynomial", realize_superpolynomial)])
    @pytest.mark.parametrize("text", ["b a^w", "(b a^w)^w"])
    def test_samples_equal_single_schedule_values(self, mode, realize, text):
        automaton = counterexample_automaton(0.9)
        expr = parse_expression(text, automaton.alphabet)
        report = estimate_limit(automaton, expr, mode, 40)
        for sample in report.samples:
            assert sample.value == schedule_acceptance_probability(automaton,
                                                                   realize(expr, sample.n))


class TestSweepAgainstSchedules:
    """Every sample of a sweep has the bits and the length of one memo-free
    evaluation of its realization's schedule."""

    @staticmethod
    def corpus():
        # Random 2-5-state automata whose zero entries (initial vector
        # included) are a random mix of 0.0 and -0.0, three expressions each.
        rng = np.random.default_rng(9090)
        cases = []
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            transitions = {}
            for letter in ("a", "b"):
                rows = np.array(random_stochastic(rng, dim).entries)
                rows[(rows == 0.0) & (rng.random((dim, dim)) < 0.5)] = -0.0
                transitions[letter] = rows
            initial = np.where(rng.random(dim) < 0.5, -0.0, 0.0)
            initial[rng.integers(dim)] = 1.0
            final = [bool(v) for v in rng.random(dim) < 0.5]
            automaton = ProbabilisticAutomaton([f"s{i}" for i in range(dim)], ("a", "b"),
                                               transitions, initial, final)
            for _ in range(3):
                expr = random_expression(rng, ("a", "b"), int(rng.integers(0, 3)),
                                         int(rng.integers(1, 7)))
                cases.append((automaton, expr))
        assert any(np.signbit(automaton.transition("a").entries).any() for automaton, _ in cases)
        return cases

    @pytest.mark.parametrize("mode,realize", [("polynomial", realize_polynomial),
                                              ("superpolynomial", realize_superpolynomial)])
    def test_samples_equal_memo_free_schedule_values(self, mode, realize):
        for automaton, expr in self.corpus():
            report = estimate_limit(automaton, expr, mode, 16)
            for sample in report.samples:
                schedule = realize(expr, sample.n)
                assert (sample.value.hex(), sample.length) == (
                    schedule_acceptance_probability(automaton, schedule).hex(), schedule.length)
            assert report.render_text() == render_text_per_sample(report)


class TestReports:
    def test_samples_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_report([SamplePoint(1, 1, 0.5), SamplePoint(1, 2, 0.6)])

    def test_extrapolation_contracts_geometric_tails(self):
        # 1 - 2^-n has increments halving, so the tail fit lands on 1.
        samples = [SamplePoint(n, n, 1.0 - 2.0 ** -n) for n in range(1, 8)]
        report = build_report(samples)
        assert report.extrapolated_limit == pytest.approx(1.0, abs=1e-12)

    def test_extrapolation_falls_back_to_last_sample(self):
        samples = [SamplePoint(n, n, v) for n, v in enumerate([0.3, 0.9, 0.4], start=1)]
        assert build_report(samples).extrapolated_limit == 0.4

    def test_render_text_layout(self, absorbing):
        expr = parse_expression("a^w", ("a",))
        text = estimate_limit(absorbing, expr, "polynomial", 4).render_text()
        lines = text.splitlines()
        assert lines[0].split("\t") == ["n", "length", "probability", "error"]
        assert len(lines) == 4 + 3
        assert lines[-2].startswith("extrapolated limit: ")
        assert lines[-1].startswith("rate fit: ")

    def test_discrepancy(self):
        point = SamplePoint(1, 10, 0.5, reference=0.25)
        assert point.discrepancy == 0.25
        assert SamplePoint(1, 10, 0.5).discrepancy is None

    def test_references_on_some_samples_only_are_rejected(self):
        samples = [SamplePoint(1, 1, 0.5, 0.4), SamplePoint(2, 2, 0.6), SamplePoint(3, 3, 0.7)]
        with pytest.raises(ValueError, match="reference"):
            build_report(samples)
        with pytest.raises(ValueError, match="reference"):
            build_report([SamplePoint(1, 1, 0.5), SamplePoint(2, 2, 0.6, 0.6)])

    def test_sweep_takes_one_reference_per_exponent_tuple(self, absorbing):
        # Acceptance of a^k is 1 - 2^-k exactly: every discrepancy is 0.
        calls = []

        def reference(exponents):
            calls.append(exponents)
            return 1.0 - 0.5 ** exponents[0]

        report = numerics.sweep(absorbing, parse_expression("a^w", ("a",)), "polynomial", 8,
                                reference)
        assert calls == [(1,), (2,), (6,)]
        assert [sample.discrepancy for sample in report.samples] == [0.0] * 8
        assert len({id(sample.reference) for sample in report.samples}) == 3

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_sweep_rejects_an_empty_range(self, absorbing, n_max):
        with pytest.raises(ValueError, match=r"^n_max must be >= 1$"):
            numerics.sweep(absorbing, parse_expression("a", ("a",)), "polynomial", n_max)

    def test_sweep_rejects_an_unknown_mode(self):
        expr = parse_expression("b a^w", ("a", "b"))
        with pytest.raises(ValueError, match=r"^mode must be one of "):
            numerics.sweep(counterexample_automaton(0.7), expr, "bogus", 3)

    def test_trusted_samples_equal_checked_ones(self):
        sample = SamplePoint._wrap(3, 2 ** 400, 0.5, None)
        assert sample == SamplePoint(3, 2 ** 400, 0.5)
        assert hash(sample) == hash(SamplePoint(3, 2 ** 400, 0.5))
        with pytest.raises(AttributeError):
            sample.value = 0.25

    @staticmethod
    def seeded_reports():
        rng = random.Random(1729)
        # Equal values as distinct objects, and the same objects repeated.
        pool = [float("0.5"), float("0.5"), -0.0, 0.0, math.nan, 1.0, 1e-300, 0.1 + 0.2,
                1.0 - 2.0 ** -52, float("nan")]
        lengths = [1, 2, 2 ** 400 + 1, 2 ** 400 - 1, 3 ** 250]
        reports = []
        for _ in range(60):
            count = rng.randint(1, 30)
            with_reference = rng.random() < 0.5
            samples, n = [], 0
            for _ in range(count):
                n += rng.randint(1, 3)
                if samples and rng.random() < 0.6:   # repeat the previous sample's objects
                    previous = samples[-1]
                    length, value, reference = previous.length, previous.value, previous.reference
                    if rng.random() < 0.2:   # equal fields, other objects; 0.0 for -0.0
                        length = int(str(length))
                        value = -value if value == 0.0 else float(repr(value))
                        if reference is not None:
                            reference = -reference if reference == 0.0 else float(repr(reference))
                else:
                    length, value = rng.choice(lengths), rng.choice(pool)
                    reference = rng.choice(pool) if with_reference else None
                samples.append(SamplePoint(n, length, value, reference))
            limit = rng.choice(pool)
            fit = rng.choice([None, RateFit(0.0, 2.0), RateFit(-1.5, 1.0000001)])
            reports.append(ConvergenceReport(tuple(samples), limit, fit))
        return reports

    def test_render_text_equals_the_per_sample_renderer(self):
        reports = self.seeded_reports()
        automaton = counterexample_automaton(0.9)
        for text in ("b a^w", "(b a^w)^w"):
            for mode in ("polynomial", "superpolynomial"):
                reports.append(estimate_limit(automaton, parse_expression(text, ("a", "b")),
                                              mode, 40))
        from prostochastic import verify_reduction
        from conftest import coin_automaton
        reports.append(verify_reduction(coin_automaton(0.7), ("a",), n_max=30))
        for report in reports:
            assert report.render_text() == render_text_per_sample(report)

    def test_runs_of_one_schedule_share_their_objects(self):
        automaton = counterexample_automaton(0.9)
        report = estimate_limit(automaton, parse_expression("b a^w", ("a", "b")), "polynomial", 40)
        runs = 1
        for previous, sample in zip(report.samples, report.samples[1:]):
            if sample.length == previous.length:
                assert sample.length is previous.length and sample.value is previous.value
            else:
                runs += 1
        assert runs == 4


class TestCharacterization:
    """Cross-module invariants tying the monoid answer to numeric limits."""

    def corpus(self, rng):
        from prostochastic import counterexample_automaton
        from conftest import (coin_automaton, permutation_automaton,
                              single_state_automaton)
        automata = [counterexample_automaton(0.9), counterexample_automaton(0.5),
                    absorbing_automaton(), funnel_automaton(), coin_automaton(0.8),
                    permutation_automaton(), single_state_automaton(True),
                    single_state_automaton(False)]
        automata += [random_quarter_automaton(rng, int(rng.integers(1, 4)))
                     for _ in range(10)]
        return automata

    def numerically_witnesses_value_one(self, element, automaton):
        support = limit_projection(numeric_interpretation(element.witness, automaton))
        return all(automaton.final[t]
                   for s in automaton.initial_support()
                   for t in range(support.dim) if support.rows[s][t])

    def test_witness_soundness(self, rng):
        # Whenever the algorithm answers YES, the witness expression's numeric
        # support reproduces its matrix and its polynomial realization is
        # accepted with probability arbitrarily close to 1.
        from prostochastic import find_value1_witness, markov_monoid
        answered_yes = 0
        for automaton in self.corpus(rng):
            monoid = markov_monoid(automaton)
            element = find_value1_witness(monoid, automaton)
            if element is None:
                continue
            answered_yes += 1
            numeric_support = limit_projection(numeric_interpretation(element.witness, automaton))
            assert numeric_support == element.matrix
            report = estimate_limit(automaton, element.witness, "polynomial", 60)
            assert max(s.value for s in report.samples) >= 1.0 - 1e-3
        assert answered_yes >= 3

    def test_yes_iff_some_element_numerically_qualifies(self, rng):
        from prostochastic import find_value1_witness, markov_monoid
        for automaton in self.corpus(rng):
            monoid = markov_monoid(automaton)
            found = find_value1_witness(monoid, automaton)
            qualifying = [element for element in monoid
                          if self.numerically_witnesses_value_one(element, automaton)]
            assert (found is not None) == bool(qualifying), automaton.states


def test_extrapolation_is_clamped_to_the_unit_interval():
    samples = [SamplePoint(n, n, v) for n, v in enumerate([0.5, 0.96, 0.999], start=1)]
    report = build_report(samples)
    assert report.extrapolated_limit == 1.0
