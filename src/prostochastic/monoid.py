"""The Markov Monoid algorithm.

Everything here is exact boolean algebra: supports are projected from the
stochastic matrices once, and all further structure (products,
stabilization, saturation) is computed symbolically, never from floats.
"""

from __future__ import annotations

import itertools
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


def _or_rows(mask: int, rows: tuple) -> int:
    """OR of `rows[k]` over the set bits k of `mask`: one row of a product
    whose right operand has the rows `rows`."""
    row = 0
    while mask:
        low = mask & -mask
        row |= rows[low.bit_length() - 1]
        mask ^= low
    return row


def boolean_product(left: BooleanMatrix, right: BooleanMatrix) -> BooleanMatrix:
    """Row s of the product is the OR of the right operand's rows k over the
    set bits k of the left operand's row s."""
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    rmasks = right.masks
    return BooleanMatrix._wrap(tuple(_or_rows(mask, rmasks) for mask in left.masks), left.dim)


class _Memo(dict):
    """A dict that fills a missing key with `function(key)` on first lookup
    and keeps it."""

    __slots__ = ("function",)

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


def _row_table(right: BooleanMatrix) -> _Memo:
    """Row mask -> that row of a product with `right` on the right, filled on
    first use: `tuple(map(table.__getitem__, left.masks))` is the product's
    masks, one lookup per row, and the OR runs once per distinct row."""
    rows = right.masks
    return _Memo(lambda mask: _or_rows(mask, rows))


def is_idempotent(matrix: BooleanMatrix) -> bool:
    """Squares row by row and stops at the first row that differs."""
    masks = matrix.masks
    return all(_or_rows(mask, masks) == mask for mask in masks)


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
    # made it.  State t is recurrent iff row t lies within column t.
    masks = matrix.masks
    columns = [0] * matrix.dim
    for s, mask in enumerate(masks):
        bit = 1 << s
        while mask:
            low = mask & -mask
            columns[low.bit_length() - 1] |= bit
            mask ^= low
    recurrent = 0
    for t, (row, column) in enumerate(zip(masks, columns)):
        if not row & ~column:
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
    seen = set()   # the elements' mask tuples
    dim = next(iter(supports.values())).dim

    def add(masks, witness):
        seen.add(masks)
        elements.append(MonoidElement(BooleanMatrix._wrap(masks, dim), witness))
        return elements[-1]

    def multiply(pairs):
        # Most products are duplicates; they build no matrix and no witness.
        for left, (generator, lookup) in pairs:
            masks = tuple(map(lookup, left.matrix.masks))
            if masks not in seen:
                add(masks, Product(left.witness, generator.witness))

    for letter, matrix in supports.items():
        if matrix.masks not in seen:
            add(matrix.masks, Letter(letter))
    # Each generator with the lookup of its row table.
    generators = [(element, _row_table(element.matrix).__getitem__) for element in elements]
    processed = 0
    while processed < len(elements):
        element = elements[processed]
        multiply(itertools.product((element,), generators))
        processed += 1
        if stabilizing and is_idempotent(element.matrix):
            matrix = _clear_transient_columns(element.matrix)
            if matrix.masks not in seen:
                stable = add(matrix.masks, Omega(element.witness))
                generator = (stable, _row_table(matrix).__getitem__)
                multiply(itertools.product(elements[:processed], (generator,)))
                generators.append(generator)
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
    # parent's), so each node is rendered once for all of them; likewise
    # each distinct row mask.  Bit t is column t, so a row reads as the
    # mask's binary digits in reverse.
    texts = {}
    width = f"0{monoid.elements[0].matrix.dim}b" if monoid.elements else ""
    rows = _Memo(lambda mask: format(mask, width)[::-1])
    return "\n".join(
        f"{''.join(map(rows.__getitem__, element.matrix.masks))} "
        f"{format_expression(element.witness, texts)}"
        for element in monoid.elements
    )
