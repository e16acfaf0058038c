"""Acceptance gate.

Each test runs one criterion at its stated tolerance and time budget and
prints exactly one pass/fail line (visible with `pytest -s` or on failure).
Expected constants marked "pinned" were computed beforehand with
independent plain-numpy oracles.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from prostochastic import (Concat, IdempotenceError, Letter, Literal, Omega, Power, Product,
                           acceptance_probability, boolean_interpretation, boolean_projection,
                           build_reduction, counterexample_automaton, estimate_limit,
                           find_value1_witness, is_idempotent, limit_matrix, limit_projection,
                           markov_monoid, numeric_interpretation, polynomial_exponent,
                           round_acceptance, schedule_acceptance_probability, stabilize,
                           superpolynomial_exponent, verify_reduction)
from conftest import (absorbing_automaton, brute_force_word_closure, coin_automaton,
                      direct_round_sum, expression_depth, funnel_automaton,
                      random_quarter_automaton, random_stochastic, round_probability_by_matrix,
                      transition_monoid)

# Values pinned by the pre-build oracles.
SUPERPOLYNOMIAL_THRESHOLD_K = 4      # first k with Pr((ba^k)^(2^k)) > 0.99
PR_AT_K4 = 0.997280148962794
PR_AT_K8 = 0.999999976769427
POLYNOMIAL_PLATEAU = 0.821673904895232   # max over k <= 30 of Pr((ba^k)^k)
REDUCTION_THRESHOLD_INDEX = 3        # first schedule index above 0.99 at x = 0.8


@pytest.fixture
def criterion(capsys):
    """One pass/fail line per criterion, printed past pytest's capture."""
    @contextmanager
    def run(number, summary, budget_seconds):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] criterion {number:2d} FAIL  {summary}")
            raise
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, \
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        with capsys.disabled():
            print(f"[acceptance] criterion {number:2d} PASS  {summary}  ({elapsed:.2f}s)")
    return run


def repeated_branch_word(k, repetitions):
    """Schedule for (b a^k)^repetitions on the counterexample alphabet."""
    return Power(Concat(Literal(("b",)), Power(Literal(("a",)), k)), repetitions)


def expressions_up_to_depth(letters, max_depth):
    by_depth = {1: [Letter(token) for token in letters]}
    for depth in range(2, max_depth + 1):
        shallower = [e for d in range(1, depth) for e in by_depth[d]]
        exact = [
            Product(left, right)
            for left in shallower
            for right in shallower
            if max(expression_depth(left), expression_depth(right)) == depth - 1
        ]
        exact.extend(Omega(e) for e in by_depth[depth - 1])
        by_depth[depth] = exact
    return [e for exprs in by_depth.values() for e in exprs]


def test_criterion_01_superpolynomial_counterexample_limit(criterion):
    with criterion(1, "Pr((ba^k)^(2^k)) with x=0.9 climbs monotonically above 0.99", 1.0):
        automaton = counterexample_automaton(0.9)
        values = {k: schedule_acceptance_probability(automaton, repeated_branch_word(k, 2 ** k))
                  for k in range(1, 11)}
        assert all(values[k] < values[k + 1] for k in range(2, 10))
        first_above = next(k for k in sorted(values) if values[k] > 0.99)
        assert first_above == SUPERPOLYNOMIAL_THRESHOLD_K
        assert first_above <= 8 and values[8] > 0.99
        assert values[4] == pytest.approx(PR_AT_K4, abs=1e-12)
        assert values[8] == pytest.approx(PR_AT_K8, abs=1e-12)


def test_criterion_02_polynomial_counterexample_cap(criterion):
    with criterion(2, "Pr((ba^k)^k) with x=0.9 plateaus strictly below 1", 1.0):
        automaton = counterexample_automaton(0.9)
        values = [schedule_acceptance_probability(automaton, repeated_branch_word(k, k))
                  for k in range(1, 31)]
        top = max(values)
        assert top == pytest.approx(POLYNOMIAL_PLATEAU, abs=1e-3)
        assert all(v <= POLYNOMIAL_PLATEAU + 1e-12 for v in values)
        assert POLYNOMIAL_PLATEAU < 1.0


def test_criterion_03_monoid_answers_no_on_counterexample(criterion):
    with criterion(3, "Markov Monoid algorithm answers NO for x in {0.3, 0.5, 0.9}", 1.0):
        matrix_sets = []
        for x in (0.3, 0.5, 0.9):
            automaton = counterexample_automaton(x)
            monoid = markov_monoid(automaton)
            assert find_value1_witness(monoid, automaton) is None, x
            matrix_sets.append(monoid.matrices())
        # only boolean structure enters, so the answer is x-independent
        assert matrix_sets[0] == matrix_sets[1] == matrix_sets[2]


def test_criterion_04_support_characterization(criterion):
    with criterion(4, "numeric and boolean interpretations have equal support "
                      "on 200 random automata", 60.0):
        rng = np.random.default_rng(401)
        inventories = {
            ("a",): expressions_up_to_depth(("a",), 3),
            ("a", "b"): expressions_up_to_depth(("a", "b"), 3),
        }
        checked = 0
        for index in range(200):
            letters = ("a",) if index % 4 == 0 else ("a", "b")
            automaton = random_quarter_automaton(rng, int(rng.integers(1, 5)), letters)
            generators = {token: boolean_projection(automaton.transition(token))
                          for token in letters}
            for expr in inventories[letters]:
                try:
                    expected = boolean_interpretation(expr, generators)
                except IdempotenceError:
                    continue
                checked += 1
                actual = limit_projection(numeric_interpretation(expr, automaton))
                assert actual == expected, (automaton.states, expr)
        assert checked >= 2000


def test_criterion_05_stabilization_limit_agreement(criterion):
    with criterion(5, "support of the power limit equals stabilization on 500 "
                      "idempotent-support matrices", 30.0):
        rng = np.random.default_rng(405)
        found = attempts = 0
        while found < 500:
            attempts += 1
            assert attempts < 200000, "rejection sampling stalled"
            matrix = random_stochastic(rng, int(rng.integers(2, 5)),
                                       density=float(rng.uniform(0.3, 1.0)))
            support = boolean_projection(matrix)
            if not is_idempotent(support):
                continue
            found += 1
            limit = limit_matrix(matrix)
            assert limit_projection(limit) == stabilize(support), matrix.entries


def test_criterion_06_round_formula_identity(criterion):
    with criterion(6, "closed round formula matches direct summation and "
                      "matrix evaluation", 10.0):
        rng = np.random.default_rng(406)
        for _ in range(1000):
            p = float(rng.uniform(1e-4, 0.5))
            q = float(rng.uniform(1e-4, 0.5))
            rounds = int(rng.integers(1, 400))
            assert abs(round_acceptance(p, q, rounds)
                       - direct_round_sum(p, q, rounds)) <= 1e-12
        for automaton, word in [(coin_automaton(0.8), ("a",)),
                                (coin_automaton(0.4), ("a",))]:
            x = acceptance_probability(automaton, word)
            built = build_reduction(automaton)
            pairs = {(1, 1), (1, 100), (100, 1), (100, 100)}
            while len(pairs) < 25:
                pairs.add((int(rng.integers(1, 101)), int(rng.integers(1, 101))))
            for k, rounds in sorted(pairs):
                by_matrix = round_probability_by_matrix(built, word, k, rounds)
                by_formula = round_acceptance(0.5 * x ** k, 0.5 * (1 - x) ** k, rounds)
                assert abs(by_matrix - by_formula) <= 1e-9, (k, rounds)


def test_criterion_07_reduction_trajectories(criterion):
    with criterion(7, "reduction trajectory passes 0.99 at the pinned index for "
                      "x=0.8 and stays under 1/2 for x=0.4", 5.0):
        report = verify_reduction(coin_automaton(0.8), ("a",), n_max=6)
        values = [s.value for s in report.samples]
        first_above = next(n for n, v in enumerate(values, start=1) if v > 0.99)
        assert first_above == REDUCTION_THRESHOLD_INDEX
        assert first_above <= 6
        assert all(v > 0.99 for v in values[REDUCTION_THRESHOLD_INDEX - 1:])
        assert all(s.discrepancy <= 1e-9 for s in report.samples)

        report = verify_reduction(coin_automaton(0.4), ("a",), n_max=6)
        assert all(s.value <= 0.5 + 1e-9 for s in report.samples)


def test_criterion_08_transition_monoid_oracle(criterion):
    with criterion(8, "pairwise closure equals brute-force word enumeration on "
                      "100 random automata", 30.0):
        rng = np.random.default_rng(408)
        for _ in range(100):
            automaton = random_quarter_automaton(rng, int(rng.integers(1, 4)))
            assert set(transition_monoid(automaton)) == brute_force_word_closure(automaton)


def test_criterion_09_exponent_schedule_unit_suite(criterion):
    with criterion(9, "factorial exponent schedules: unit values and "
                      "divisibility up to p=7", 1.0):
        expected = {1: 1, 2: 2, 5: 2, 6: 6, 23: 6, 24: 24, 119: 24, 120: 120}
        for n, value in expected.items():
            assert polynomial_exponent(n) == value, n
        for schedule in (polynomial_exponent, superpolynomial_exponent):
            values = [schedule(n) for n in range(1, 10 ** 4 + 1)]
            for p in range(2, 8):
                last_bad = max((i for i, v in enumerate(values) if v % p), default=-1)
                assert last_bad < len(values) - 1000, (schedule.__name__, p)


def test_criterion_10_fast_sequence_envelope(criterion):
    with criterion(10, "polynomial realizations decay inside an exponential "
                       "envelope (base > 1) whenever above float noise", 60.0):
        rng = np.random.default_rng(410)
        corpus = [counterexample_automaton(0.9), absorbing_automaton(),
                  coin_automaton(0.8), funnel_automaton()]
        corpus += [random_quarter_automaton(rng, int(rng.integers(2, 4)))
                   for _ in range(20)]
        checked = skipped = 0
        for automaton in corpus:
            generators = {token: boolean_projection(automaton.transition(token))
                          for token in automaton.alphabet}
            for expr in expressions_up_to_depth(automaton.alphabet, 2):
                try:
                    boolean_interpretation(expr, generators)
                except IdempotenceError:
                    continue
                report = estimate_limit(automaton, expr, "polynomial", 24)
                informative = [s for s in report.samples
                               if abs(s.value - report.extrapolated_limit) > 1e-13]
                if len(informative) < 3 or len({s.length for s in informative}) < 2:
                    skipped += 1  # below noise or no length spread: skipped, not failed
                    continue
                checked += 1
                assert report.rate_fit is not None, (automaton.states, expr)
                assert report.rate_fit.decay_base > 1.0, (automaton.states, expr)
        assert checked >= 5, (checked, skipped)
