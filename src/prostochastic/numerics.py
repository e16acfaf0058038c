"""Convergence machinery: factorial exponent schedules, power limits of
stochastic matrices, numeric interpretation of omega-expressions, and
realization of expressions.  One plan per expression and mode describes a
realization: its power steps carry their exponent rules, the outer
super-polynomial power among them, and each n's exponents and word length
come from one integer pass over it.  Sweeps evaluate the plan's steps on
matrices; `realize_*` build word schedules from the same steps.

Factorial exponents matter because they kill periodicity: for every p the
schedule is eventually divisible by p, so the matrix power sequence settles
onto a single limit instead of cycling.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (MODES, Concat, Literal, Power, ProbabilisticAutomaton,
                   StochasticMatrix, BooleanMatrix, WordSchedule)
from .expressions import Letter, Omega, OmegaExpression, Product, postorder
from .monoid import boolean_projection, idempotent_power, letter_supports
from .omega import boolean_interpretation

NOISE_FLOOR = 1e-13

# 1!, 2!, 3!, ...  Grown on demand: a longer copy replaces it in one
# assignment, so a thread reading it always sees a correct prefix.
_factorials = (1,)


def polynomial_exponent(n: int) -> int:
    """Largest factorial <= n."""
    global _factorials
    if n < 1:
        raise ValueError("argument must be >= 1")
    table = _factorials
    if table[-1] <= n:
        grown = list(table)
        while grown[-1] <= n:
            grown.append(grown[-1] * (len(grown) + 1))
        _factorials = table = tuple(grown)
    return table[bisect.bisect_right(table, n) - 1]


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


def limit_matrix(matrix: StochasticMatrix) -> StochasticMatrix:
    """Power limit of a stochastic matrix along factorial exponents, in
    closed form.

    With e the least exponent whose support is idempotent, P = M^e has the
    same factorial limit (e divides k! for k >= e) and only aperiodic
    recurrent classes.  Each limit row sums, over the classes, the row's
    absorption probability into the class times the class's stationary
    distribution.  Transient columns are exact zeros.
    """
    exponent, stable = idempotent_power(boolean_projection(matrix))
    power = matrix.power(exponent).entries
    # A state is recurrent iff its stable row holds it; that row is then its class.
    classes = dict.fromkeys(mask for t, mask in enumerate(stable) if mask >> t & 1)
    members = np.array([[mask >> t & 1 for t in range(matrix.dim)] for mask in classes], bool)
    stationary = np.zeros(members.shape)
    for row, inside in zip(stationary, members):
        row[inside] = _stationary(power[inside][:, inside])
    indicator = members.T.astype(float)
    limit = indicator @ stationary
    transient = ~members.any(axis=0)
    rows = power[transient]
    limit[transient] = _absorption(np.hstack([rows[:, transient], rows @ indicator])) @ stationary
    return StochasticMatrix._wrap(limit)


def _stationary(block: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible stochastic matrix by
    Grassmann-Taksar-Heyman elimination: each pivot is the eliminated
    state's outgoing mass, so nothing is subtracted.  Overwrites `block`."""
    for k in range(len(block) - 1, 0, -1):
        block[:k, k] /= block[k, :k].sum()
        block[:k, :k] += np.outer(block[:k, k], block[k, :k])
    distribution = np.zeros(len(block))
    distribution[0] = 1.0
    for k in range(1, len(block)):
        distribution[k] = distribution[:k] @ block[:k, k]
    return distribution / distribution.sum()


def _absorption(augmented: np.ndarray) -> np.ndarray:
    """Solve (I - Q) X = R from the transient rows [Q R]: Q to transient
    states, R into each class.  Elimination without pivoting whose pivots
    are, as in GTH, the row's remaining outgoing mass: zeros stay exact and
    badly scaled rows lose no accuracy.  Overwrites `augmented`."""
    n = len(augmented)
    for k in range(n):
        augmented[k] /= augmented[k, k + 1:].sum()
        augmented[k + 1:, k + 1:] += np.outer(augmented[k + 1:, k], augmented[k, k + 1:])
    for k in range(n - 1, -1, -1):
        augmented[k, n:] += augmented[k, k + 1:n] @ augmented[k + 1:, n:]
    return augmented[:, n:]


def limit_projection(matrix: StochasticMatrix) -> BooleanMatrix:
    """Support of a limit computed by `limit_matrix`, whose zeros are exact."""
    return boolean_projection(matrix)


def numeric_interpretation(expr: OmegaExpression,
                           automaton: ProbabilisticAutomaton) -> StochasticMatrix:
    """Evaluate an expression to a stochastic matrix: letters map to their
    transition matrices, products to matrix products, omega to the power
    limit.  The support of the result equals the boolean interpretation.

    Raises IdempotenceError when some omega node is applied to a
    non-idempotent element (checked symbolically up front, so float noise
    can never change the answer), and ValueError when the supports differ:
    on a long word, entries below the smallest double underflow to 0.
    """
    support = boolean_interpretation(expr, letter_supports(automaton))
    values = {}
    for node in postorder(expr):
        if isinstance(node, Letter):
            values[node] = automaton.transition(node.token)
        elif isinstance(node, Product):
            values[node] = values[node.left] @ values[node.right]
        else:   # an omega: `boolean_interpretation` has rejected other nodes
            values[node] = limit_matrix(values[node.child])
    numeric = boolean_projection(values[expr])
    if numeric != support:
        raise ValueError(f"numeric support {numeric.bitstring()} differs from the boolean "
                         f"interpretation {support.bitstring()}: float underflow")
    return values[expr]


# ---------------------------------------------------------------------------
# Realization of expressions as word schedules.


def realize_polynomial(expr: OmegaExpression, n: int) -> WordSchedule:
    """n-th word of the polynomial realization of an expression.

    Letters stay literal, products concatenate, and omega raises the
    realized child to the largest factorial below n times its length.
    """
    return _schedule(plan := _plan(expr, "polynomial"), _exponents(plan, n)[0])


def realize_superpolynomial(expr: OmegaExpression, n: int) -> WordSchedule:
    """Polynomial realization raised to the super-polynomial exponent."""
    return _schedule(plan := _plan(expr, "superpolynomial"), _exponents(plan, n)[0])


def _plan(expr: OmegaExpression, mode: str) -> tuple:
    """The `mode` realization plan of an expression, from one post-order
    walk: one slot per distinct node, the root's last, the (slot, token)
    pair of each letter, and one step per product or power, in post-order,
    that fills its slot.  A letter's slot holds its length 1, the others
    None.  A step (slot, left, right, None) concatenates two slots; a step
    (slot, child, None, rule) raises its child to `rule(n * child length)`:
    `polynomial_exponent` for an omega, `superpolynomial_exponent` for the
    outer power of super-polynomial mode, the last step, into a new root
    slot."""
    slots, lengths, steps, letters = {}, [], [], []
    for node in postorder(expr):
        slot = slots[node] = len(lengths)
        lengths.append(1 if isinstance(node, Letter) else None)
        if isinstance(node, Letter):
            letters.append((slot, node.token))
        elif isinstance(node, Product):
            steps.append((slot, slots[node.left], slots[node.right], None))
        elif isinstance(node, Omega):
            steps.append((slot, slots[node.child], None, polynomial_exponent))
        else:
            raise TypeError(f"not an omega-expression: {node!r}")
    if mode == "superpolynomial":
        steps.append((len(lengths), len(lengths) - 1, None, superpolynomial_exponent))
        lengths.append(None)
    elif mode != "polynomial":
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return tuple(lengths), tuple(steps), tuple(letters)


def _exponents(plan: tuple, n: int) -> tuple:
    """The exponents of the n-th realization of a plan, one per power step,
    and its exact word length, from one pass over the steps in ints.
    Equal exponent tuples of one plan realize to the same schedule."""
    if n < 1:
        raise ValueError("realization index must be >= 1")
    lengths, steps, _ = plan
    lengths, exponents = list(lengths), []
    for slot, left, right, rule in steps:
        if rule is None:
            lengths[slot] = lengths[left] + lengths[right]
        else:
            exponent = rule(n * lengths[left])
            exponents.append(exponent)
            lengths[slot] = exponent * lengths[left]
    return tuple(exponents), lengths[-1]


def _schedule(plan: tuple, exponents: tuple) -> WordSchedule:
    """The schedule of a plan whose powers take `exponents`: a literal per
    letter, a concatenation or power per step."""
    lengths, steps, letters = plan
    schedules, exponents = [None] * len(lengths), iter(exponents)
    for slot, token in letters:
        schedules[slot] = Literal((token,))
    for slot, left, right, rule in steps:
        schedules[slot] = (Concat(schedules[left], schedules[right]) if rule is None
                           else Power(schedules[left], next(exponents)))
    return schedules[-1]


def _evaluate(automaton: ProbabilisticAutomaton, plan: tuple, exponents: tuple,
              memo: tuple) -> float:
    """The acceptance probability of the realization of a plan whose powers
    take `exponents`, run on the plan's steps without schedule nodes.
    `memo`, one per sweep, is (ids, matrices, chains): `ids` gives each
    sub-realization, under (its slot, its children's ids or its child's id
    and exponent), the index of its matrix in `matrices`, where a letter's
    id is its slot, and `chains` holds each powered base's squaring chain."""
    lengths, steps, _ = plan
    ids, matrices, chains = memo
    named, exponents = list(range(len(lengths))), iter(exponents)
    for slot, left, right, rule in steps:
        base = named[left]
        key = (slot, base, named[right] if rule is None else next(exponents))
        if key not in ids:
            ids[key] = len(matrices)
            matrices.append(matrices[base] @ matrices[key[2]] if rule is None
                            else matrices[base].power(key[2], chains.setdefault(base, [])))
        named[slot] = ids[key]
    value = float(automaton.initial @ matrices[named[-1]].entries @ automaton._final_vector)
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Convergence reports.


@dataclass(frozen=True)
class SamplePoint:
    n: int
    length: int
    value: float
    reference: Optional[float] = None

    @classmethod
    def _wrap(cls, n, length, value, reference) -> "SamplePoint":
        # Trusted constructor, for `sweep`: fills the fields in one update
        # instead of one frozen setattr each.
        sample = object.__new__(cls)
        sample.__dict__.update(n=n, length=length, value=value, reference=reference)
        return sample

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

    def render_text(self) -> str:
        with_reference = any(s.reference is not None for s in self.samples)
        header = ["n", "length", "probability", "error"]
        if with_reference:
            header += ["reference", "discrepancy"]
        lines = ["\t".join(header)]
        last = None
        for sample in self.samples:
            # A sample whose length, value and reference are the previous
            # sample's objects shares its cells after n.
            if (last is None or sample.length is not last.length
                    or sample.value is not last.value or sample.reference is not last.reference):
                cells = [str(sample.length), f"{sample.value:.12g}",
                         f"{abs(sample.value - self.extrapolated_limit):.12g}"]
                if with_reference:
                    cells += [f"{sample.reference:.12g}", f"{sample.discrepancy:.12g}"]
                row, last = "\t".join(cells), sample
            lines.append(f"{sample.n}\t{row}")
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
    if len({s.reference is None for s in samples}) > 1:
        raise ValueError("either every sample or none must carry a reference")
    extrapolated = _extrapolate([s.value for s in samples])
    return ConvergenceReport(samples, extrapolated, _fit_rate(samples, extrapolated))


def estimate_limit(automaton: ProbabilisticAutomaton,
                   expr: OmegaExpression,
                   mode: str,
                   n_max: int) -> ConvergenceReport:
    """Sample acceptance probabilities of the realized expression for
    n = 1..n_max and report the extrapolated limit and decay-rate fit."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    return sweep(automaton, expr, mode, n_max)


def sweep(automaton: ProbabilisticAutomaton, expr: OmegaExpression, mode: str, n_max: int,
          reference=None) -> ConvergenceReport:
    """Report the acceptance probabilities of the `mode` realizations of
    `expr` at n = 1..n_max, with `reference(exponents)` when given.  The
    expression is planned once; each n runs the plan's integer steps for
    its exponents and length, and each distinct exponent tuple is evaluated
    once, its length, value and reference objects serving every sample
    that repeats it."""
    plan = lengths, _, letters = _plan(expr, mode)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    matrices = [None] * len(lengths)
    for slot, token in letters:
        matrices[slot] = automaton.word_matrix((token,))
    memo, rows, samples = ({}, matrices, {}), {}, []
    for n in range(1, n_max + 1):
        exponents, length = _exponents(plan, n)
        row = rows.get(exponents)
        if row is None:
            row = rows[exponents] = (length, _evaluate(automaton, plan, exponents, memo),
                                     None if reference is None else reference(exponents))
        samples.append(SamplePoint._wrap(n, *row))
    return build_report(samples)
