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
    return BooleanMatrix._wrap(tuple(
        sum(1 << t for t, v in enumerate(row) if v > 0.0)
        for row in matrix.entries.tolist()
    ), matrix.dim)


def letter_supports(automaton: ProbabilisticAutomaton) -> dict:
    """Support of each letter's transition matrix, in alphabet order."""
    return {letter: boolean_projection(automaton.transition(letter))
            for letter in automaton.alphabet}


def boolean_product(left: BooleanMatrix, right: BooleanMatrix) -> BooleanMatrix:
    """Row s of the product is the OR of the right operand's rows k over the
    set bits k of the left operand's row s."""
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    rmasks = right.masks
    product = []
    for mask in left.masks:
        row = 0
        while mask:
            low = mask & -mask
            row |= rmasks[low.bit_length() - 1]
            mask ^= low
        product.append(row)
    return BooleanMatrix._wrap(tuple(product), left.dim)


def is_idempotent(matrix: BooleanMatrix) -> bool:
    return boolean_product(matrix, matrix) == matrix


def idempotent_power(matrix: BooleanMatrix) -> tuple:
    """Least e >= 1 such that matrix^e is idempotent, and that power.  The
    powers meet the one idempotent of their cycle before they repeat."""
    exponent, power = 1, matrix
    while not is_idempotent(power):
        exponent, power = exponent + 1, boolean_product(power, matrix)
    return exponent, power


def stabilize(matrix: BooleanMatrix) -> BooleanMatrix:
    """Support of the power limit of any stochastic matrix with this support.

    A state t survives as a target iff it is recurrent: every state it can
    reach in one step (equivalently, at all, by idempotence) can reach it
    back.  Transient targets lose their mass in the limit, so their columns
    are cleared.
    """
    if not is_idempotent(matrix):
        raise IdempotenceError("stabilization is only defined on idempotent matrices")
    return _clear_transient_columns(matrix)


def _clear_transient_columns(matrix: BooleanMatrix) -> BooleanMatrix:
    # `stabilize` without its idempotence test, for callers that have just
    # made it.
    masks = matrix.masks
    recurrent = 0
    for t, row in enumerate(masks):
        if all(masks[s] >> t & 1 for s in range(matrix.dim) if row >> s & 1):
            recurrent |= 1 << t
    return BooleanMatrix._wrap(tuple(mask & recurrent for mask in masks), matrix.dim)


@dataclass(frozen=True)
class MonoidElement:
    """A boolean matrix together with one omega-expression denoting it."""

    matrix: BooleanMatrix
    witness: OmegaExpression


@dataclass(frozen=True, eq=False)
class MarkovMonoid:
    elements: tuple
    generators: Mapping[str, BooleanMatrix]

    def matrices(self) -> frozenset:
        return frozenset(element.matrix for element in self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _saturate(supports: Mapping[str, BooleanMatrix], stabilizing: bool) -> list:
    """Right Cayley-graph closure of the letter supports (Froidure-Pin);
    returns the elements.

    Each element, in discovery order, is multiplied on the right by each
    generator exactly once.  The generators are the distinct letter supports
    plus, when `stabilizing`, each stabilization that is new when found,
    which is first multiplied once into the elements already processed.
    Every element is a generator or an element times a generator, so the
    result is closed under product.
    """
    elements: list[MonoidElement] = []
    seen = set()

    def add(matrix, witness):
        seen.add(matrix)
        elements.append(MonoidElement(matrix, witness))
        return elements[-1]

    def multiply(left, right):
        # Most products are duplicates; their witness is never built.
        matrix = boolean_product(left.matrix, right.matrix)
        if matrix not in seen:
            add(matrix, Product(left.witness, right.witness))

    for letter, matrix in supports.items():
        if matrix not in seen:
            add(matrix, Letter(letter))
    generators = list(elements)
    processed = 0
    while processed < len(elements):
        element = elements[processed]
        for generator in generators:
            multiply(element, generator)
        processed += 1
        if stabilizing and is_idempotent(element.matrix):
            matrix = _clear_transient_columns(element.matrix)
            if matrix not in seen:
                stable = add(matrix, Omega(element.witness))
                for earlier in elements[:processed]:
                    multiply(earlier, stable)
                generators.append(stable)
    return elements


def transition_monoid(automaton: ProbabilisticAutomaton) -> tuple:
    """All supports reachable by finite words: the closure of the letter
    projections under boolean product, in discovery order (the letters,
    then each element times each letter)."""
    return tuple(element.matrix
                 for element in _saturate(letter_supports(automaton), stabilizing=False))


def markov_monoid(automaton: ProbabilisticAutomaton) -> MarkovMonoid:
    """Saturate the letter supports under product and stabilization of
    idempotents.

    The fixpoint set is order-independent; each matrix carries the first
    expression that produced it in discovery order: the letters in alphabet
    order, then each element in turn times each generator (the letters, then
    new stabilizations as found) and, if idempotent, its stabilization.
    """
    supports = letter_supports(automaton)
    return MarkovMonoid(tuple(_saturate(supports, stabilizing=True)), supports)


def _value1_test(automaton: ProbabilisticAutomaton):
    # The initial support and the rejecting-state mask, computed once.
    initial = automaton.initial_support()
    rejecting = sum(1 << t for t, accepting in enumerate(automaton.final) if not accepting)
    return lambda matrix: not any(matrix.masks[s] & rejecting for s in initial)


def is_value1_witness(matrix: BooleanMatrix, automaton: ProbabilisticAutomaton) -> bool:
    """Every transition from an initially-supported state lands in a final state."""
    return _value1_test(automaton)(matrix)


def find_value1_witness(monoid: MarkovMonoid,
                        automaton: ProbabilisticAutomaton) -> Optional[MonoidElement]:
    """First monoid element (in discovery order) that is a value-1 witness,
    or None; the algorithm answers YES exactly when one exists."""
    is_witness = _value1_test(automaton)
    return next((element for element in monoid.elements if is_witness(element.matrix)), None)


def format_monoid(monoid: MarkovMonoid) -> str:
    """One line per element: row-major bitstring, then the witness expression."""
    # Witnesses share their subtrees (an element's witness is built from its
    # parent's), so each node is rendered once for all of them.
    texts = {}
    return "\n".join(
        f"{element.matrix.bitstring()} {format_expression(element.witness, texts)}"
        for element in monoid.elements
    )
