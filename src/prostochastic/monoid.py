"""The Markov Monoid algorithm.

Everything here is exact boolean algebra: supports are projected from the
stochastic matrices once, and all further structure (products,
stabilization, saturation) is computed symbolically, never from floats.
"""

from __future__ import annotations

import functools
import operator

from .core import BooleanMatrix, ProbabilisticAutomaton, StochasticMatrix
from .expressions import Letter, Node, Omega, OmegaExpression, Product, format_expression

TYPE_CHECKING = False   # as `typing.TYPE_CHECKING`; typing itself is not imported
if TYPE_CHECKING:
    from collections.abc import Callable, Mapping


class IdempotenceError(ValueError):
    """Omega iteration (and stabilization) applied to a non-idempotent element."""

    def __init__(self, message, expression: OmegaExpression | None = None):
        super().__init__(message)
        self.expression = expression


def boolean_projection(matrix: StochasticMatrix) -> BooleanMatrix:
    """Support of a stochastic matrix: 1 exactly where the entry is positive."""
    return BooleanMatrix._wrap(tuple(
        sum(1 << t for t, v in enumerate(row) if v > 0.0)
        for row in matrix.rows
    ))


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
    return BooleanMatrix._wrap(tuple(_or_rows(mask, rmasks) for mask in left.masks))


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


def _row_table(rows: tuple) -> _Memo:
    """Row mask -> that row of a product whose right operand has the masks
    `rows`, filled on first use: `operator.itemgetter(*left_masks)(table)`
    is the product's masks, one lookup per row; each distinct row is ORed once."""
    return _Memo(lambda mask: _or_rows(mask, rows))


def is_idempotent(matrix: BooleanMatrix) -> bool:
    """True when the matrix equals its square (tested by `_stabilized`)."""
    return _stabilized(matrix.masks) is not None


def idempotent_power(matrix: BooleanMatrix) -> tuple:
    """Least e >= 1 such that matrix^e is idempotent, and the masks of that
    power's stabilization.  The powers meet the one idempotent of their
    cycle before they repeat."""
    exponent, power = 1, matrix.masks
    while (stable := _stabilized(power)) is None:
        exponent += 1
        power = tuple(_or_rows(mask, matrix.masks) for mask in power)
    return exponent, stable


def stabilize(matrix: BooleanMatrix) -> BooleanMatrix:
    """Support of the power limit of any stochastic matrix with this support.

    A state t survives as a target iff it is recurrent: every state it can
    reach in one step (equivalently, at all, by idempotence) can reach it
    back.  Transient targets lose their mass in the limit, so their columns
    are cleared.
    """
    masks = _stabilized(matrix.masks)
    if masks is None:
        raise IdempotenceError("stabilization is only defined on idempotent matrices")
    return BooleanMatrix._wrap(masks)


def _stabilized(masks: tuple) -> tuple | None:
    """The masks of `stabilize`, or None when the matrix is not idempotent:
    both tests in one walk over the set bits of the distinct rows.

    Row r squares to the OR of the rows of the states t in r.  In an
    idempotent each of those rows lies within r, so all of them equal r
    exactly when their AND is r.  State t is recurrent iff t is in row t
    and every state in row t has row t too; so when every state in row r
    has row r, the recurrent states among them are those in r (when r is
    empty, the states with the empty row: they reach nothing).
    """
    recurrent = targets = 0
    for row in set(masks):
        square, common, rest = 0, row, row
        while rest:
            t = rest.bit_length() - 1
            target = masks[t]
            square |= target
            common &= target
            rest ^= 1 << t
        if square != row:
            return None
        if common == row:
            recurrent |= row or sum(1 << s for s, mask in enumerate(masks) if not mask)
        targets |= row
    if not targets & ~recurrent:
        return masks
    return tuple(map(recurrent.__and__, masks))


class MonoidElement(Node):
    """A boolean matrix together with one omega-expression denoting it.  A
    node: one element with an equal matrix and the same witness is that
    element.  Its repr shows the witness as expression text."""

    __slots__ = _fields = ("matrix", "witness")

    def __repr__(self):
        return (f"MonoidElement(matrix={self.matrix!r}, "
                f"witness={format_expression(self.witness)!r})")


class MarkovMonoid:
    """The saturated monoid as an element table, in discovery order; a
    saturation given a `stop` test may hold only a prefix of it.

    Element k is `masks[k]`, its matrix's row masks, and `origins[k]`, how
    it was found: `(Letter, token)`, `(Product, left, right)` with the
    indices of its two factors, or `(Omega, child)`.  Every index in an
    origin is below k.  Matrices and witnesses are built on demand.  A
    monoid is read-only and equal only to itself.
    """

    __setattr__ = __delattr__ = Node.__setattr__   # raises AttributeError

    def __init__(self, masks: tuple, origins: tuple, generators: Mapping[str, BooleanMatrix]):
        # `elements`, once built, joins these in the instance dict.
        self.__dict__.update(masks=masks, origins=origins, generators=generators)

    @functools.cached_property
    def elements(self) -> tuple:
        """Every element with its witness."""
        witnesses = self._witnesses(range(len(self.origins))).values()
        return tuple(map(MonoidElement, self._matrices(), witnesses))

    def element(self, index: int) -> MonoidElement:
        """Element `index`, indexed as `elements` is, building only the
        witnesses that its own is built from."""
        index = range(len(self))[index]
        witness = self._witnesses(self._factors(index))[index]
        return MonoidElement(BooleanMatrix._wrap(self.masks[index]), witness)

    def witness_text(self, index: int) -> str:
        """`format_expression` of element `index`'s witness, built without nodes."""
        index = range(len(self))[index]
        return self._texts(self._factors(index))[index]

    def _factors(self, index: int) -> list:
        """`index` and the indices its witness is built from, ascending."""
        # Every factor's index is below its element's, so a descending scan
        # reaches each element before its factors.
        needed = {index}
        for k in range(index, -1, -1):
            if k in needed:
                kind, *factors = self.origins[k]
                if kind is not Letter:
                    needed.update(factors)
        return sorted(needed)

    def _witnesses(self, indices) -> dict:
        """Index -> witness, for ascending `indices` that hold the factors of
        each element they hold; each witness shares its factors' nodes."""
        witnesses = {}
        for k in indices:
            kind, *factors = self.origins[k]
            if kind is Letter:
                witnesses[k] = Letter(*factors)
            else:
                witnesses[k] = kind(*map(witnesses.__getitem__, factors))
        return witnesses

    def _texts(self, indices) -> dict:
        """Index -> witness text, for `indices` as `_witnesses` takes them.
        Each text is built from its factors' texts, as `format_expression`
        renders the witness: a product's right factor is a generator, never
        a product, so only an omega of a product needs parentheses."""
        origins, texts = self.origins, {}
        for k in indices:
            kind, *factors = origins[k]
            if kind is Letter:
                texts[k] = factors[0]
            elif kind is Product:
                texts[k] = f"{texts[factors[0]]} {texts[factors[1]]}"
            elif origins[factors[0]][0] is Product:
                texts[k] = f"({texts[factors[0]]})^w"
            else:
                texts[k] = f"{texts[factors[0]]}^w"
        return texts

    def _matrices(self):
        return map(BooleanMatrix._wrap, self.masks)

    def matrices(self) -> frozenset:
        return frozenset(self._matrices())

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.elements)


def _saturate(supports: Mapping[str, BooleanMatrix], stabilizing: bool,
              stop: Callable[[tuple], bool] | None = None) -> tuple:
    """Right Cayley-graph closure of the letter supports (Froidure-Pin);
    returns the element table: each element's masks and origin, as in
    `MarkovMonoid`.

    Each element, in discovery order, is multiplied on the right by each
    generator exactly once.  The generators are the distinct letter supports
    plus, when `stabilizing`, each stabilization that is new when found,
    which is first multiplied once into the elements already processed.
    Every element is a generator or an element times a generator, so the
    result is closed under product.

    `stop`, when given, is called once on each new element's masks; the
    first element it accepts ends the saturation, and the table returned
    ends with that element.  Discovery order does not depend on `stop`, so
    that table is a prefix of the full one.
    """
    table, origins = [], []
    seen = set()   # the elements' masks
    # Each new element is added inline: its masks to `seen` and `table`,
    # its origin to `origins`, and then `stop` may end the saturation.
    # Most products are duplicates; they add nothing.
    for letter, matrix in supports.items():
        masks = matrix.masks
        if masks not in seen:
            seen.add(masks)
            table.append(masks)
            origins.append((Letter, letter))
            if stop is not None and stop(masks):
                return tuple(table), tuple(origins)
    # Each generator's index with its row table.  Element `left` times the
    # generator with row table `rows` is `getter(*left)(rows)`: one C call
    # that looks up each row of `left` (`itemgetter` of one key returns the
    # bare item, so a one-state matrix's row goes in a tuple).
    generators = [(k, _row_table(table[k])) for k in range(len(table))]
    getter = (operator.itemgetter if table and len(table[0]) > 1
              else lambda mask: lambda rows: (rows[mask],))
    processed = 0
    while processed < len(table):
        left = table[processed]
        fetch = getter(*left)
        for generator, rows in generators:
            product = fetch(rows)
            if product not in seen:
                seen.add(product)
                table.append(product)
                origins.append((Product, processed, generator))
                if stop is not None and stop(product):
                    return tuple(table), tuple(origins)
        processed += 1
        if stabilizing and (stable := _stabilized(left)) is not None and stable not in seen:
            seen.add(stable)
            table.append(stable)
            origins.append((Omega, processed - 1))
            if stop is not None and stop(stable):
                return tuple(table), tuple(origins)
            # The new generator meets the elements already processed.
            generator, rows = len(table) - 1, _row_table(stable)
            for k in range(processed):
                product = getter(*table[k])(rows)
                if product not in seen:
                    seen.add(product)
                    table.append(product)
                    origins.append((Product, k, generator))
                    if stop is not None and stop(product):
                        return tuple(table), tuple(origins)
            generators.append((generator, rows))
    return tuple(table), tuple(origins)


def markov_monoid(automaton: ProbabilisticAutomaton,
                  stop: Callable[[tuple], bool] | None = None) -> MarkovMonoid:
    """Saturate the letter supports under product and stabilization of
    idempotents.

    The fixpoint set is order-independent; each matrix carries the first
    expression that produced it in discovery order: the letters in alphabet
    order, then each element in turn times each generator (the letters, then
    new stabilizations as found) and, if idempotent, its stabilization.

    With `stop`, a test on an element's masks, saturation ends at the first
    element that passes it: the result is then the prefix of the full
    monoid's table up to that element, which is its last.  When no element
    passes, the result is the full monoid.
    """
    supports = letter_supports(automaton)
    return MarkovMonoid(*_saturate(supports, stabilizing=True, stop=stop), supports)


def _value1_test(automaton: ProbabilisticAutomaton) -> Callable[[tuple], bool]:
    # The initial support and the rejecting-state mask, computed once; the
    # test takes a matrix's masks.  `analyze` runs it on each element it
    # saturates, so one initial state, the usual case, costs one lookup.
    initial = automaton.initial_support()
    rejecting = sum(1 << t for t, accepting in enumerate(automaton.final) if not accepting)
    if len(initial) == 1:
        state, = initial
        return lambda masks: not masks[state] & rejecting
    return lambda masks: not any(masks[s] & rejecting for s in initial)


def find_value1_witness(monoid: MarkovMonoid, automaton: ProbabilisticAutomaton
                        ) -> MonoidElement | None:
    """First monoid element (in discovery order) that is a value-1 witness,
    or None; the algorithm answers YES exactly when one exists.

    On a monoid saturated with `_value1_test(automaton)` as its `stop`, the
    answer is the same as on the full monoid: the first witness ends the prefix.
    """
    is_witness = _value1_test(automaton)
    index = next((k for k, masks in enumerate(monoid.masks) if is_witness(masks)), None)
    return None if index is None else monoid.element(index)


def format_monoid(monoid: MarkovMonoid) -> str:
    """One line per element: row-major bitstring, then the witness expression."""
    # Each distinct row mask is rendered once; bit t is column t, so a row
    # reads as the mask's binary digits in reverse.
    texts = monoid._texts(range(len(monoid))).values()
    width = f"0{len(monoid.masks[0])}b" if monoid.masks else ""
    rows = _Memo(lambda mask: format(mask, width)[::-1])
    return "\n".join(f"{''.join(map(rows.__getitem__, masks))} {text}"
                     for masks, text in zip(monoid.masks, texts))
