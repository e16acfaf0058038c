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

    Element k is `keys[k]`, the ids of its matrix's rows, and `origins[k]`,
    how it was found: `(Letter, token)`, `(Product, left, right)` with the
    indices of its two factors, or `(Omega, child)`.  Every index in an
    origin is below k.  `rows[id]` is the row mask of each id; a key is a
    `bytes` string, or, past 256 distinct rows, a tuple of ids.  `masks`,
    matrices and witnesses are built on demand.  A monoid is read-only and
    equal only to itself.
    """

    __setattr__ = __delattr__ = Node.__setattr__   # raises AttributeError

    def __init__(self, keys: tuple, rows: tuple, origins: tuple, generators: Mapping[str, BooleanMatrix]):
        # `masks` and `elements`, once built, join these in the instance dict.
        self.__dict__.update(keys=keys, rows=rows, origins=origins, generators=generators)

    @functools.cached_property
    def masks(self) -> tuple:
        """Each element's row masks."""
        rows = self.rows.__getitem__
        return tuple(tuple(map(rows, key)) for key in self.keys)

    def element_masks(self, index: int) -> tuple:
        """The row masks of element `index`, indexed as `masks` is."""
        return tuple(map(self.rows.__getitem__, self.keys[index]))

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
        return MonoidElement(BooleanMatrix._wrap(self.element_masks(index)), witness)

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
        return len(self.keys)

    def __iter__(self):
        return iter(self.elements)


class _RowIdsFull(Exception):
    """A saturation has more distinct rows than a `bytes` key has ids for."""


class _RowIds(dict):
    """Row mask -> id, for the distinct rows of one saturation in order of
    first appearance: a missing mask gets the next id, and `rows[id]` is
    that id's mask.  The id `limit` is not handed out: `_RowIdsFull` is
    raised instead (256, the ids a `bytes` key holds; None for no limit)."""

    __slots__ = ("rows", "limit")

    def __init__(self):
        self.rows = []
        self.limit = 256

    def __missing__(self, mask: int) -> int:
        ident = len(self.rows)
        if ident == self.limit:
            raise _RowIdsFull
        self[mask] = ident
        self.rows.append(mask)
        return ident

    def fill(self, idents: range, tables):
        """Set entry i of each `(masks, table)` in `tables` to the id of
        row i times the matrix with the row masks `masks`, for i in `idents`."""
        rows = self.rows
        for ident in idents:
            mask = rows[ident]
            for masks, table in tables:
                table[ident] = self[_or_rows(mask, masks)]


def _wide_product(key: tuple, table: dict) -> tuple:
    """`bytes.translate` for a key that is a tuple of ids.  Such a key
    holds 9 ids or more, as 8 states have at most 256 distinct rows, so
    `itemgetter` returns a tuple (of one item it would return the item)."""
    return operator.itemgetter(*key)(table)


def _widen(keys: list, tables: list, generators: list, filled: int) -> set:
    """Make the `bytes` keys tuples of ids and each table a dict of its
    entries below `filled`, in place; returns the keys as a set."""
    keys[:] = map(tuple, keys)
    tables[:] = [(masks, dict(zip(range(filled), table))) for masks, table in tables]
    generators[:] = [(k, table) for (k, _), (_, table) in zip(generators, tables)]
    return set(keys)


def _saturate(supports: Mapping[str, BooleanMatrix],
              step: Callable[[tuple], tuple | None] | None,
              stop: Callable[[tuple], bool] | None = None) -> tuple:
    """Right Cayley-graph closure of the letter supports (Froidure-Pin);
    returns the element table: each element's key, the row mask of each id
    in the keys and each element's origin, as in `MarkovMonoid`.

    Each element, in discovery order, is multiplied on the right by each
    generator exactly once.  The generators are the distinct letter
    supports plus, when `step` is given, each `step(masks)` of an element
    that is not None and new when found (`_stabilized` for the Markov
    monoid), which is first multiplied once into the elements already
    processed.  Every element is a generator or an element times a
    generator, so the result is closed under product.

    `stop`, when given, is called once on each new element's masks; the
    first element it accepts ends the saturation, and the table returned
    ends with that element.  Discovery order does not depend on `stop`, so
    that table is a prefix of the full one.
    """
    keys, origins = [], []
    rows = _enumerate(supports, step, stop, keys, origins)
    return tuple(keys), tuple(rows), tuple(origins)


def _enumerate(supports, step, stop, keys: list, origins: list) -> list:
    """The loop of `_saturate`: appends to `keys` and `origins`, and returns
    the row mask of each id.

    An element is its key, the ids of its rows (`_RowIds`) as a `bytes`
    string.  Each generator has a 256-byte table whose entry i is the id of
    row i times the generator, so an element times a generator is
    `key.translate(table)`, and a `bytes` key caches its hash for the
    `seen` test.  The entries of an id are filled for every table at once,
    in id order, before the first key that holds the id is multiplied: an
    entry not yet filled reads 0.

    Past 256 distinct rows the keys become tuples of ids and the tables
    dicts, in place (`_widen`), and the loop goes on from the element whose
    step ran out of ids.  Each step makes the ids it needs before it adds
    an element, so that element's step, run again, adds no element twice
    and calls `stop` on none twice.
    """
    ids = _RowIds()
    intern, row, fill = ids.__getitem__, ids.rows.__getitem__, ids.fill
    pack, times, new_table = bytes, bytes.translate, functools.partial(bytearray, 256)
    seen, stables = set(), set()  # the elements' keys; the stabilizations met
    tables, generators = [], []  # (masks, table) and (element index, table) per generator
    # With `stop`, the masks built for it are kept for `step`.
    kept = [] if stop is not None else None
    processed = filled = 0       # the tables hold the ids below `filled`
    # Each new element is added inline: its key to `seen` and `keys`, its
    # origin to `origins`, and then `stop` may end the saturation.  Most
    # products are duplicates; they add nothing.  After `_widen`, the
    # letters are read again: they are all in `seen`.
    while True:
        try:
            for letter, matrix in supports.items():
                masks = matrix.masks
                if (key := pack(map(intern, masks))) not in seen:
                    seen.add(key)
                    keys.append(key)
                    origins.append((Letter, letter))
                    table = new_table()
                    tables.append((masks, table))
                    generators.append((len(keys) - 1, table))
                    if stop is not None:
                        kept.append(masks)
                        if stop(masks):
                            return ids.rows
            while processed < len(keys):
                left = keys[processed]
                if (top := max(left)) >= filled:
                    fill(range(filled, top + 1), tables)
                    filled = top + 1
                for generator, table in generators:
                    product = times(left, table)
                    if product not in seen:
                        seen.add(product)
                        keys.append(product)
                        origins.append((Product, processed, generator))
                        if stop is not None:
                            kept.append(masks := tuple(map(row, product)))
                            if stop(masks):
                                return ids.rows
                if step is not None:
                    masks = kept[processed] if kept is not None else tuple(map(row, left))
                    stable = step(masks)
                    # Two stabilizations need no key: an idempotent's own
                    # masks (`step` returns them; their key is `left`), and
                    # one met before.  Of the idempotents of the 310- and
                    # 268-element reductions, 27 % and 23 % are the first
                    # kind and 64 % and 67 % the second.
                    if stable is not None and stable is not masks and stable not in stables:
                        stables.add(stable)
                        if (key := pack(map(intern, stable))) not in seen:
                            # The new generator meets `left` and the elements
                            # before it, whose ids are all below `filled`.
                            table = new_table()
                            fill(range(filled), ((stable, table),))
                            seen.add(key)
                            keys.append(key)
                            origins.append((Omega, processed))
                            if stop is not None:
                                kept.append(stable)
                                if stop(stable):
                                    return ids.rows
                            generator = len(keys) - 1
                            for k in range(processed + 1):
                                product = times(keys[k], table)
                                if product not in seen:
                                    seen.add(product)
                                    keys.append(product)
                                    origins.append((Product, k, generator))
                                    if stop is not None:
                                        kept.append(masks := tuple(map(row, product)))
                                        if stop(masks):
                                            return ids.rows
                            tables.append((stable, table))
                            generators.append((generator, table))
                processed += 1
            return ids.rows
        except _RowIdsFull:
            # `stables` may hold the stabilization whose key or table ran
            # out of ids: it is met again as new.
            stables.clear()
            ids.limit = None
            pack, times, new_table = tuple, _wide_product, dict
            seen = _widen(keys, tables, generators, filled)


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
    return MarkovMonoid(*_saturate(supports, _stabilized, stop), supports)


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
    # Each row is rendered once, and an element's line joins the texts of
    # its key's ids; bit t is column t, so a row reads as the mask's
    # binary digits in reverse.
    texts = monoid._texts(range(len(monoid))).values()
    width = f"0{len(monoid.keys[0])}b" if monoid.keys else ""
    rendered = [format(mask, width)[::-1] for mask in monoid.rows]
    return "\n".join(f"{''.join(map(rendered.__getitem__, key))} {text}"
                     for key, text in zip(monoid.keys, texts))
