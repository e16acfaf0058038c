"""Convergence machinery: factorial exponent schedules, power limits of
stochastic matrices, numeric interpretation of omega-expressions, and
realization of expressions as evaluable word schedules.

Factorial exponents matter because they kill periodicity: for every p the
schedule is eventually divisible by p, so the matrix power sequence settles
onto a single limit instead of cycling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Concat, Literal, Power, ProbabilisticAutomaton,
                   StochasticMatrix, BooleanMatrix, WordSchedule, matrix_norm,
                   schedule_acceptance_probability)
from .expressions import Letter, Omega, OmegaExpression, Product
from .monoid import boolean_projection
from .omega import boolean_interpretation

PROJECTION_EPSILON = 1e-6
LIMIT_TOLERANCE = 1e-10
LIMIT_MAX_STEPS = 60
NOISE_FLOOR = 1e-13

MODES = ("polynomial", "superpolynomial")


class NonConvergenceError(RuntimeError):
    def __init__(self, message, last_distance: float):
        super().__init__(message)
        self.last_distance = last_distance


def polynomial_exponent(n: int) -> int:
    """Largest factorial <= n."""
    if n < 1:
        raise ValueError("argument must be >= 1")
    k, factorial = 1, 1
    while factorial * (k + 1) <= n:
        k += 1
        factorial *= k
    return factorial


def superpolynomial_exponent(n: int) -> int:
    """Largest factorial <= the super-polynomial threshold 2^(ceil(log2 n)^2).

    The threshold (an exact-integer stand-in for n^(log2 n)) grows faster
    than every polynomial but slower than every exponential, which is the
    only property the schedule needs.
    """
    if n < 1:
        raise ValueError("argument must be >= 1")
    ceil_log2 = (n - 1).bit_length()
    threshold = 1 << (ceil_log2 * ceil_log2)
    return polynomial_exponent(threshold)


def limit_matrix(matrix: StochasticMatrix,
                 tolerance: float = LIMIT_TOLERANCE,
                 max_steps: int = LIMIT_MAX_STEPS) -> StochasticMatrix:
    """Power limit of a stochastic matrix along factorial exponents.

    Iterates M^(k!) by raising the previous value to the k-th power and
    stops at the first k where successive factorial powers are closer than
    `tolerance` in max-row-sum norm.  Convergence is exponential in the
    exponent, so small k suffice for any spectral gap that is not
    degenerate at machine precision.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    current = matrix
    distance = math.inf
    for k in range(2, max_steps + 1):
        following = current.power(k)
        distance = matrix_norm(following.entries - current.entries)
        if distance < tolerance:
            return following
        current = following
    raise NonConvergenceError(
        f"no convergence within {max_steps} factorial steps "
        f"(last distance {distance:.3e})", distance)


def limit_projection(matrix: StochasticMatrix,
                     epsilon: float = PROJECTION_EPSILON) -> BooleanMatrix:
    """Support of a numerically computed limit.

    Unlike the exact projection used by the monoid algorithm, entries of an
    iterated limit may carry float dust, so positivity is tested against a
    threshold; true limit entries are either 0 or bounded well away from it.
    """
    return BooleanMatrix(tuple(
        tuple(1 if v > epsilon else 0 for v in row) for row in matrix.entries
    ))


def numeric_interpretation(expr: OmegaExpression,
                           automaton: ProbabilisticAutomaton,
                           tolerance: float = LIMIT_TOLERANCE,
                           max_steps: int = LIMIT_MAX_STEPS) -> StochasticMatrix:
    """Evaluate an expression to a stochastic matrix: letters map to their
    transition matrices, products to matrix products, omega to the power
    limit.  The support of the result equals the boolean interpretation.

    Raises IdempotenceError when some omega node is applied to a
    non-idempotent element (checked symbolically up front, so float noise
    can never change the answer).
    """
    generators = {letter: boolean_projection(automaton.transition(letter))
                  for letter in automaton.alphabet}
    boolean_interpretation(expr, generators)

    def evaluate(node):
        if isinstance(node, Letter):
            return automaton.transition(node.token)
        if isinstance(node, Product):
            return evaluate(node.left) @ evaluate(node.right)
        if isinstance(node, Omega):
            return limit_matrix(evaluate(node.child), tolerance, max_steps)
        raise TypeError(f"not an omega-expression: {node!r}")

    return evaluate(expr)


# ---------------------------------------------------------------------------
# Realization of expressions as word schedules.


def realize_polynomial(expr: OmegaExpression, n: int) -> WordSchedule:
    """n-th word of the polynomial realization of an expression.

    Letters stay literal, products concatenate, and omega raises the
    realized child to the largest factorial below n times its length.
    """
    if n < 1:
        raise ValueError("realization index must be >= 1")
    if isinstance(expr, Letter):
        return Literal((expr.token,))
    if isinstance(expr, Product):
        return Concat(realize_polynomial(expr.left, n), realize_polynomial(expr.right, n))
    if isinstance(expr, Omega):
        inner = realize_polynomial(expr.child, n)
        return Power(inner, polynomial_exponent(n * inner.length))
    raise TypeError(f"not an omega-expression: {expr!r}")


def realize_superpolynomial(expr: OmegaExpression, n: int) -> WordSchedule:
    """Polynomial realization raised to the super-polynomial exponent."""
    inner = realize_polynomial(expr, n)
    return Power(inner, superpolynomial_exponent(n * inner.length))


# ---------------------------------------------------------------------------
# Convergence reports.


@dataclass(frozen=True)
class SamplePoint:
    n: int
    length: int
    value: float
    reference: Optional[float] = None

    @property
    def discrepancy(self) -> Optional[float]:
        if self.reference is None:
            return None
        return abs(self.value - self.reference)


@dataclass(frozen=True)
class RateFit:
    degree: float
    decay_base: float


@dataclass(frozen=True)
class ConvergenceReport:
    samples: tuple
    extrapolated_limit: float
    rate_fit: Optional[RateFit]

    def errors(self) -> list:
        return [abs(s.value - self.extrapolated_limit) for s in self.samples]

    def iter_rows(self):
        for sample in self.samples:
            row = {
                "n": sample.n,
                "length": sample.length,
                "value": sample.value,
                "error": abs(sample.value - self.extrapolated_limit),
            }
            if sample.reference is not None:
                row["reference"] = sample.reference
                row["discrepancy"] = sample.discrepancy
            yield row

    def render_text(self) -> str:
        with_reference = any(s.reference is not None for s in self.samples)
        header = ["n", "length", "probability", "error"]
        if with_reference:
            header += ["reference", "discrepancy"]
        lines = ["\t".join(header)]
        for row in self.iter_rows():
            cells = [str(row["n"]), str(row["length"]),
                     f"{row['value']:.12g}", f"{row['error']:.12g}"]
            if with_reference:
                cells += [f"{row['reference']:.12g}", f"{row['discrepancy']:.12g}"]
            lines.append("\t".join(cells))
        lines.append(f"extrapolated limit: {self.extrapolated_limit:.12g}")
        if self.rate_fit is None:
            lines.append("rate fit: no exponential fit")
        else:
            lines.append(f"rate fit: degree {self.rate_fit.degree:.12g}, "
                         f"decay base {self.rate_fit.decay_base:.12g}")
        return "\n".join(lines)


def _extrapolate(values) -> float:
    # Geometric tail over the last three samples when they contract
    # monotonically; otherwise the last sample stands.
    last = values[-1]
    if len(values) >= 3:
        s1, s2, s3 = values[-3:]
        d1, d2 = s2 - s1, s3 - s2
        if d1 != 0.0 and d2 != 0.0 and (d1 > 0) == (d2 > 0) and abs(d2) < abs(d1):
            ratio = d2 / d1
            last = s3 + d2 * ratio / (1.0 - ratio)
    return min(max(last, 0.0), 1.0)


def _fit_rate(samples, extrapolated) -> Optional[RateFit]:
    # Fit log error ~ degree*log(length) - length*log(C); samples at or
    # below float noise carry no rate information and are dropped.
    points = []
    for sample in samples:
        error = abs(sample.value - extrapolated)
        if error <= NOISE_FLOOR:
            continue
        try:
            length = float(sample.length)
        except OverflowError:
            continue
        points.append((length, math.log(error)))
    if len(points) < 3:
        return None
    lengths = sorted({p[0] for p in points})
    if len(lengths) < 2:
        return None
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    if len(lengths) >= 4:
        design = np.column_stack([np.ones_like(xs), np.log(xs), xs])
    else:
        design = np.column_stack([np.ones_like(xs), xs])
    coefficients, *_ = np.linalg.lstsq(design, ys, rcond=None)
    slope = coefficients[-1]
    degree = float(coefficients[1]) if design.shape[1] == 3 else 0.0
    base = math.exp(-slope)
    if base <= 1.0:
        return None
    return RateFit(degree, base)


def build_report(samples) -> ConvergenceReport:
    samples = tuple(samples)
    if not samples:
        raise ValueError("cannot build a report from zero samples")
    if any(b.n <= a.n for a, b in zip(samples, samples[1:])):
        raise ValueError("samples must be indexed by strictly increasing n")
    extrapolated = _extrapolate([s.value for s in samples])
    return ConvergenceReport(samples, extrapolated, _fit_rate(samples, extrapolated))


def estimate_limit(automaton: ProbabilisticAutomaton,
                   expr: OmegaExpression,
                   mode: str,
                   n_max: int) -> ConvergenceReport:
    """Sample acceptance probabilities of the realized expression for
    n = 1..n_max and report the extrapolated limit and decay-rate fit."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    realize = realize_polynomial if mode == "polynomial" else realize_superpolynomial
    samples = []
    for n in range(1, n_max + 1):
        schedule = realize(expr, n)
        value = schedule_acceptance_probability(automaton, schedule)
        samples.append(SamplePoint(n, schedule.length, value))
    return build_report(samples)
