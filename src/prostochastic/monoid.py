"""The Markov Monoid algorithm.

Everything here is exact boolean algebra: supports are projected from the
stochastic matrices once, and all further structure (products,
stabilization, saturation) is computed symbolically, never from floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .core import BooleanMatrix, ProbabilisticAutomaton, StochasticMatrix
from .expressions import Letter, Omega, OmegaExpression, Product, format_expression


class IdempotenceError(ValueError):
    """Omega iteration (and stabilization) applied to a non-idempotent element."""

    def __init__(self, message, expression: OmegaExpression | None = None):
        super().__init__(message)
        self.expression = expression


def boolean_projection(matrix: StochasticMatrix) -> BooleanMatrix:
    """Support of a stochastic matrix: 1 exactly where the entry is positive."""
    return BooleanMatrix(tuple(
        tuple(1 if v > 0.0 else 0 for v in row) for row in matrix.entries
    ))


def boolean_product(left: BooleanMatrix, right: BooleanMatrix) -> BooleanMatrix:
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    d = left.dim
    lrows, rrows = left.rows, right.rows
    return BooleanMatrix(tuple(
        tuple(
            1 if any(lrows[s][k] and rrows[k][t] for k in range(d)) else 0
            for t in range(d)
        )
        for s in range(d)
    ))


def is_idempotent(matrix: BooleanMatrix) -> bool:
    return boolean_product(matrix, matrix) == matrix


def stabilize(matrix: BooleanMatrix) -> BooleanMatrix:
    """Support of the power limit of any stochastic matrix with this support.

    A state t survives as a target iff it is recurrent: every state it can
    reach in one step (equivalently, at all, by idempotence) can reach it
    back.  Transient targets lose their mass in the limit, so their columns
    are cleared.
    """
    if not is_idempotent(matrix):
        raise IdempotenceError("stabilization is only defined on idempotent matrices")
    rows = matrix.rows
    d = matrix.dim
    recurrent = [
        all(not rows[t][s] or rows[s][t] for s in range(d))
        for t in range(d)
    ]
    return BooleanMatrix(tuple(
        tuple(1 if rows[s][t] and recurrent[t] else 0 for t in range(d))
        for s in range(d)
    ))


@dataclass(frozen=True)
class MonoidElement:
    """A boolean matrix together with one omega-expression denoting it."""

    matrix: BooleanMatrix
    witness: OmegaExpression


@dataclass(frozen=True, eq=False)
class MarkovMonoid:
    elements: tuple
    generators: Mapping[str, BooleanMatrix]
    product_count: int
    stabilization_count: int

    def matrices(self) -> frozenset:
        return frozenset(element.matrix for element in self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _saturate(automaton: ProbabilisticAutomaton, stabilizing: bool):
    """Right Cayley-graph closure of the letter supports (Froidure-Pin);
    returns the supports, the elements and the generators.

    Each element, in discovery order, is multiplied on the right by each
    generator exactly once.  The generators are the distinct letter supports
    plus, when `stabilizing`, each stabilization that is new when found,
    which is first multiplied once into the elements already processed.
    Every element is a generator or an element times a generator, so the
    result is closed under product.
    """
    supports = {letter: boolean_projection(automaton.transition(letter))
                for letter in automaton.alphabet}
    elements: list[MonoidElement] = []
    seen = set()

    def add(matrix, witness):
        if matrix in seen:
            return None
        seen.add(matrix)
        elements.append(MonoidElement(matrix, witness))
        return elements[-1]

    def multiply(left, right):
        add(boolean_product(left.matrix, right.matrix), Product(left.witness, right.witness))

    for letter, matrix in supports.items():
        add(matrix, Letter(letter))
    generators = list(elements)
    processed = 0
    while processed < len(elements):
        element = elements[processed]
        for generator in generators:
            multiply(element, generator)
        processed += 1
        if stabilizing and is_idempotent(element.matrix):
            stable = add(stabilize(element.matrix), Omega(element.witness))
            if stable is not None:
                for earlier in elements[:processed]:
                    multiply(earlier, stable)
                generators.append(stable)
    return supports, elements, generators


def transition_monoid(automaton: ProbabilisticAutomaton) -> tuple:
    """All supports reachable by finite words: the closure of the letter
    projections under boolean product, in discovery order (the letters,
    then each element times each letter)."""
    _, elements, _ = _saturate(automaton, stabilizing=False)
    return tuple(element.matrix for element in elements)


def markov_monoid(automaton: ProbabilisticAutomaton) -> MarkovMonoid:
    """Saturate the letter supports under product and stabilization of
    idempotents.

    The fixpoint set is order-independent; each matrix carries the first
    expression that produced it in discovery order: the letters in alphabet
    order, then each element in turn times each generator (the letters, then
    new stabilizations as found) and, if idempotent, its stabilization.
    """
    supports, elements, generators = _saturate(automaton, stabilizing=True)
    letters = len(set(supports.values()))
    return MarkovMonoid(tuple(elements), supports, len(elements) - len(generators),
                        len(generators) - letters)


def is_value1_witness(matrix: BooleanMatrix, automaton: ProbabilisticAutomaton) -> bool:
    """Every transition from an initially-supported state lands in a final state."""
    final = automaton.final
    return all(
        final[t]
        for s in automaton.initial_support()
        for t in range(matrix.dim)
        if matrix.rows[s][t]
    )


def find_value1_witness(monoid: MarkovMonoid,
                        automaton: ProbabilisticAutomaton) -> Optional[MonoidElement]:
    """First monoid element (in discovery order) that is a value-1 witness,
    or None; the algorithm answers YES exactly when one exists."""
    for element in monoid.elements:
        if is_value1_witness(element.matrix, automaton):
            return element
    return None


def format_monoid(monoid: MarkovMonoid) -> str:
    """One line per element: row-major bitstring, then the witness expression."""
    return "\n".join(
        f"{element.matrix.bitstring()} {format_expression(element.witness)}"
        for element in monoid.elements
    )
