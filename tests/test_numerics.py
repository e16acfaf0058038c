import numpy as np
import pytest

from prostochastic import (Concat, IdempotenceError, Literal,
                           NonConvergenceError, Power, SamplePoint,
                           StochasticMatrix, boolean_interpretation,
                           boolean_projection, counterexample_automaton,
                           estimate_limit,
                           expand_schedule, is_idempotent, limit_matrix,
                           limit_projection, numeric_interpretation,
                           parse_expression, polynomial_exponent,
                           realize_polynomial, realize_superpolynomial,
                           schedule_acceptance_probability, stabilize,
                           superpolynomial_exponent)
from prostochastic.numerics import build_report
from conftest import (absorbing_automaton, funnel_automaton,
                      random_quarter_automaton, random_stochastic,
                      single_state_automaton)

ABSORBING = StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])


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
        from prostochastic import matrix_norm
        for _ in range(10):
            m = random_stochastic(rng, 3)
            limit = limit_matrix(m)
            residual = (limit @ m.power(polynomial_exponent(5040))).entries
            assert matrix_norm(limit.entries - residual) <= 1e-8

    def test_non_convergence_reports_distance(self):
        with pytest.raises(NonConvergenceError) as excinfo:
            limit_matrix(ABSORBING, tolerance=1e-300, max_steps=5)
        assert excinfo.value.last_distance > 0.0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            limit_matrix(ABSORBING, tolerance=0.0)


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
