"""Stochastic and boolean matrices, probabilistic automata, word schedules.

All values are immutable after construction.  Stochastic arithmetic is
double precision; exponents are arbitrary-precision integers because
realized schedules routinely involve factorials far beyond any fixed
width.

Importing this module, and building matrices and automata from Python
numbers or a file, does not import numpy.  They keep their checked rows and
initial vector as Python floats, which is all the boolean side (supports,
strictness, JSON output) reads; their ndarrays are built, and numpy
imported, on the first numeric use (`entries`, `@`, `power`, `initial`).
"""

from __future__ import annotations

import functools
import json
import operator
import sys

from .expressions import Node, postorder

TYPE_CHECKING = False   # as `typing.TYPE_CHECKING`; typing itself is not imported
if TYPE_CHECKING:
    from collections.abc import Iterable, Mapping

    import numpy as np

ROW_SUM_TOLERANCE = 1e-9
_NUMBER_TYPES = frozenset({int, float})
_FLOAT_MAX = sys.float_info.max
_NOT_A_NUMBER = frozenset({"type", "nan", "range"})   # `_entry_fault`'s faults of non-numbers
_STRICT_ENTRIES = frozenset({0.0, 0.5, 1.0})   # -0.0 is equal, and hashes equal, to 0.0
_RESERVED = frozenset("().^")   # characters no letter token may hold

# The exponent schedules that realize an omega-expression as a word schedule
# (`numerics.realize_polynomial` and `numerics.realize_superpolynomial`).
MODES = ("polynomial", "superpolynomial")


def _entry_fault(values) -> str | None:
    """The first entry rule that `values`, a non-empty row or vector, breaks:
    "type" (an entry is no int or float; booleans are not), "nan", "range"
    (infinities and integers beyond float range), "negative" or "sum" (the
    entries do not sum to 1 within ROW_SUM_TOLERANCE); None if it keeps all.
    Built-in passes only, no Python call per entry: NaN, the one value unequal
    to itself, is tested before min and max, which may skip it; ints and
    floats compare exactly, and are summed as floats (a total past range is inf)."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        return "type"
    if any(map(operator.ne, values, values)):
        return "nan"
    low, high = min(values), max(values)
    if not (-_FLOAT_MAX <= low and high <= _FLOAT_MAX):
        return "range"
    if low < 0:
        return "negative"
    if not abs(sum(values, 0.0) - 1.0) <= ROW_SUM_TOLERANCE:
        return "sum"
    return None


def _entry_at(fault: str, values, name: str) -> tuple:
    # For the constructors, once `values` has failed with `fault`: the
    # position and float value of the first entry at that fault.  An entry
    # that has no float value raises the type message instead.
    t, value = next((t, v) for t, v in enumerate(values) if _entry_fault((v,)) == fault)
    if fault == "type":
        raise ValueError(f"{name} must be integers or floats, got {type(value).__name__}")
    if fault == "range" and type(value) is int:
        raise ValueError(f"{name} must be integers or floats, got an integer beyond float range")
    return t, float(value)


def _check_initial(initial, fault: str | None, error=ValueError):
    # Raises `error` when `fault`, `_entry_fault(initial)`, is an entry fault.
    if fault == "sum":
        raise error(f"initial vector sums to {sum(initial, 0.0)!r}, expected 1")
    if fault:
        _entry_at(fault, initial, "initial vector")   # raises for a non-number
        problem = "an infinite" if fault == "range" else "a negative or NaN"
        raise error(f"initial vector has {problem} entry")


def _names(states, alphabet, error=ValueError) -> tuple:
    # `states` and `alphabet` as tuples of strings; raises `error` unless each is
    # non-empty and unique and no token is empty or holds whitespace or `_RESERVED`.
    states = tuple(map(str, states))
    if not states or len(set(states)) != len(states):
        raise error("states must be non-empty and unique")
    alphabet = tuple(map(str, alphabet))
    if not alphabet or len(set(alphabet)) != len(alphabet):
        raise error("alphabet must be non-empty and unique")
    for token in alphabet:
        if not token or not _RESERVED.isdisjoint(token) or any(map(str.isspace, token)):
            raise error(f"invalid letter token {token!r}")
    return states, alphabet


def _read_only_array(rows) -> np.ndarray:
    import numpy as np
    arr = np.array(rows, dtype=float)
    arr.flags.writeable = False
    return arr


def _python_value(value):
    # An ndarray or a numpy scalar as the Python list or number it holds.
    return value.tolist() if hasattr(value, "tolist") else value


def _square_rows(rows) -> list:
    # `rows`, a non-empty square list or tuple of lists or tuples, as a list
    # of row lists of Python values (ndarrays and numpy scalars read through
    # `tolist()`; a list of ints and floats is kept as is).  Raises otherwise.
    rows = _python_value(rows)
    rows = list(map(_python_value, rows)) if isinstance(rows, (list, tuple)) else []
    if not rows or not all(isinstance(row, (list, tuple)) and len(row) == len(rows) for row in rows):
        raise ValueError("expected a non-empty square matrix")
    return [row if type(row) is list and set(map(type, row)) <= _NUMBER_TYPES
            else list(map(_python_value, row)) for row in rows]


class AutomatonFormatError(ValueError):
    """Raised when an automaton file violates the format contract."""


class StochasticMatrix:
    """Square matrix with non-negative entries and unit row sums.

    A matrix built from entries holds the row tuples of floats it checked,
    and builds its read-only float ndarray on first numeric use; a product
    or power holds only the ndarray.
    """

    __slots__ = ("_rows", "_entries")

    def __init__(self, entries):
        rows = _square_rows(entries)
        for s, row in enumerate(rows):
            fault = _entry_fault(row)
            if fault == "sum":
                raise ValueError(f"row {s} sums to {sum(row, 0.0)!r}, expected 1")
            if fault:
                t, value = _entry_at(fault, row, "matrix entries")
                problem = "infinite" if fault == "range" else "negative or NaN"
                raise ValueError(f"entry {value!r} at ({s}, {t}) is {problem}")
        self._rows, self._entries = tuple(tuple(map(float, row)) for row in rows), None

    @classmethod
    def _wrap(cls, arr: np.ndarray | None, rows: tuple | None = None) -> "StochasticMatrix":
        # Trusted constructor, so no entry is checked: for float ndarrays that
        # are stochastic by construction (products and powers of stochastic
        # matrices, up to rounding, and the reduction's letters), or, with
        # `arr` None, for row tuples of floats that the loader has checked.
        matrix = object.__new__(cls)
        if arr is not None:
            arr.flags.writeable = False
        matrix._rows, matrix._entries = rows, arr
        return matrix

    @classmethod
    def identity(cls, dim: int) -> "StochasticMatrix":
        import numpy as np
        return cls._wrap(np.eye(dim))

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # Unpickled through `_wrap`, or from the rows alone, whose ndarray is
        # built on first use: either way the ndarray is read-only.
        if self._rows is None:
            return StochasticMatrix._wrap, (self._entries,)
        return StochasticMatrix, (self._rows,)

    @property
    def entries(self) -> np.ndarray:
        """The entries as a read-only float ndarray."""
        if self._entries is None:
            self._entries = _read_only_array(self._rows)
        return self._entries

    @property
    def rows(self) -> tuple:
        """Row tuples of floats."""
        if self._rows is None:
            return tuple(map(tuple, self._entries.tolist()))
        return self._rows

    @property
    def dim(self) -> int:
        return self._entries.shape[0] if self._rows is None else len(self._rows)

    def __matmul__(self, other: "StochasticMatrix") -> "StochasticMatrix":
        if not isinstance(other, StochasticMatrix):
            return NotImplemented
        left, right = self.entries, other.entries
        if len(left) != len(right):
            raise ValueError(f"dimension mismatch: {len(left)} vs {len(right)}")
        # ndarray.dot: the same BLAS product as `@`, with about half the call overhead at 5x5.
        return StochasticMatrix._wrap(left.dot(right))

    def power(self, exponent: int, squares: list | None = None) -> "StochasticMatrix":
        """Exponentiation by squaring; the exponent may be a big integer.

        `squares` holds this matrix's entries raised to 1, 2, 4, ... and is
        extended in place as far as the exponent needs, so callers that
        power one matrix repeatedly share the squarings.  An empty or
        absent list starts from this matrix.

        Each new square is divided by its row sums, so rounding does not
        double the row-sum error at every squaring.  When a new square
        equals its predecessor S bit for bit, every later square would be S
        again: the chain closes by appending S itself, and a power whose
        exponent reaches past S multiplies its low-bit product by S once.
        A periodic base never closes and keeps the full chain.
        """
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if squares is None:
            squares = []
        if not squares:
            squares.append(self.entries)
        # Start from the first power of two the exponent needs, not from I.
        result, e, i = None, int(exponent), 0
        while e:
            square = squares[i]
            if e > 1:
                if i + 1 == len(squares):
                    following = square.dot(square)
                    following /= following.sum(axis=1, keepdims=True)
                    squares.append(square if following.tobytes() == square.tobytes()
                                   else following)
                if squares[i + 1] is square:
                    e = 1   # the chain is closed at its fixed point
            if e & 1:
                result = square if result is None else result.dot(square)
            e >>= 1
            i += 1
        if result is None:
            return StochasticMatrix.identity(self.dim)
        return StochasticMatrix._wrap(result)

    def __repr__(self):
        return f"StochasticMatrix({list(map(list, self.rows))!r})"


class BooleanMatrix:
    """Square 0/1 matrix stored as one int bitmask per row: bit t of
    ``masks[s]`` is entry (s, t).  Immutable; equality and hashing use the
    masks.  Python ints have no width limit, so neither has the dimension.
    """

    __slots__ = ("masks",)
    __setattr__ = __delattr__ = Node.__setattr__   # raises AttributeError

    def __init__(self, rows):
        rows = _square_rows(rows)
        if any(v not in (0, 1) for row in rows for v in row):
            raise ValueError("entries must be 0 or 1")
        object.__setattr__(self, "masks", tuple(
            sum(1 << t for t, v in enumerate(row) if v) for row in rows))

    @classmethod
    def _wrap(cls, masks: tuple) -> "BooleanMatrix":
        # Trusted constructor for kernel results: `masks` is a non-empty
        # tuple of ints below 2**len(masks) and is not checked.
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "masks", masks)
        return matrix

    @classmethod
    def identity(cls, dim: int) -> "BooleanMatrix":
        return cls(tuple(tuple(1 if s == t else 0 for t in range(dim)) for s in range(dim)))

    def __reduce__(self):
        return BooleanMatrix, (self.rows,)

    def __eq__(self, other):
        if not isinstance(other, BooleanMatrix):
            return NotImplemented
        return self.masks == other.masks

    def __hash__(self):
        return hash(self.masks)

    @property
    def dim(self) -> int:
        return len(self.masks)

    @property
    def rows(self) -> tuple:
        """Row tuples of 0/1 entries, built on each access."""
        return tuple(tuple(mask >> t & 1 for t in range(self.dim)) for mask in self.masks)

    def _row_strings(self):
        # Bit t is column t, so the row reads as the mask's binary digits
        # in reverse.
        width = f"0{self.dim}b"
        return (format(mask, width)[::-1] for mask in self.masks)

    def bitstring(self) -> str:
        return "".join(self._row_strings())

    def __str__(self):
        return "\n".join(self._row_strings())

    def __repr__(self):
        return f"BooleanMatrix(rows={self.rows!r})"


class ProbabilisticAutomaton:
    """Finite states, one stochastic matrix per letter, initial distribution
    and final-state set.

    The alphabet is an ordered tuple of letter tokens; tokens may be longer
    than one character (the reduction construction uses ``check``/``end``)
    but must not contain whitespace or the expression metacharacters
    ``( ) . ^``.
    """

    __setattr__ = __delattr__ = Node.__setattr__   # raises AttributeError

    def __init__(self, states, alphabet, transitions, initial, final):
        states, alphabet = _names(states, alphabet)
        dim = len(states)
        table = {}
        for letter in alphabet:
            if letter not in transitions:
                raise ValueError(f"missing transition matrix for letter {letter!r}")
            matrix = transitions[letter]
            if not isinstance(matrix, StochasticMatrix):
                matrix = StochasticMatrix(matrix)
            if matrix.dim != dim:
                raise ValueError(f"transition matrix for {letter!r} has dim {matrix.dim}, expected {dim}")
            table[letter] = matrix

        initial = list(map(_python_value, _python_value(initial)))
        if len(initial) != dim:
            raise ValueError(f"initial vector must have length {dim}")
        _check_initial(initial, _entry_fault(initial))

        final = tuple(map(_python_value, _python_value(final)))
        if len(final) != dim:
            raise ValueError(f"final vector must have length {dim}")
        for v in final:
            if type(v) is not bool:
                raise ValueError(f"final vector must be booleans, got {type(v).__name__}")
        # `initial` and `_final_vector`, once built, join these in the instance dict.
        self.__dict__.update(states=states, alphabet=alphabet, final=final,
                             _transitions=table, _initial=tuple(map(float, initial)))

    @classmethod
    def _wrap(cls, states, alphabet, transitions, initial, final) -> "ProbabilisticAutomaton":
        # Trusted constructor for fields the loader has checked, of `__init__`'s types.
        automaton = object.__new__(cls)
        automaton.__dict__.update(states=states, alphabet=alphabet, final=final,
                                  _transitions=transitions, _initial=initial)
        return automaton

    def __deepcopy__(self, memo):
        return self

    def __getstate__(self):
        # Without the cached ndarrays: an unpickled automaton builds them,
        # read-only, on first use.
        return {name: value for name, value in self.__dict__.items()
                if name not in ("initial", "_final_vector")}

    @functools.cached_property
    def initial(self) -> np.ndarray:
        """The initial distribution as a read-only float ndarray."""
        return _read_only_array(self._initial)

    @functools.cached_property
    def _final_vector(self) -> np.ndarray:
        # The 0/1 indicator of the final states, as a read-only float ndarray.
        return _read_only_array([1.0 if v else 0.0 for v in self.final])

    @property
    def dim(self) -> int:
        return len(self.states)

    def transition(self, letter: str) -> StochasticMatrix:
        try:
            return self._transitions[letter]
        except KeyError:
            raise ValueError(f"unknown letter {letter!r}") from None

    def initial_support(self) -> tuple:
        """Indices of states carrying positive initial probability."""
        return tuple(s for s, mass in enumerate(self._initial) if mass > 0.0)

    def word_matrix(self, word: Iterable[str]) -> StochasticMatrix:
        """Product of the letter matrices; the empty word maps to identity."""
        word = tuple(word)
        if not word:
            return StochasticMatrix.identity(self.dim)
        # `identity @ A` is A with each -0.0 turned to 0.0, the bits that
        # adding 0.0 gives without the product.
        result = StochasticMatrix._wrap(self.transition(word[0]).entries + 0.0)
        for letter in word[1:]:
            result = result @ self.transition(letter)
        return result

    @property
    def is_strict(self) -> bool:
        """True when every transition entry lies in {0, 1/2, 1}."""
        return all(_STRICT_ENTRIES.issuperset(row)
                   for matrix in self._transitions.values() for row in matrix.rows)

    def __repr__(self):
        return (f"ProbabilisticAutomaton(states={self.states!r}, "
                f"alphabet={self.alphabet!r})")


def acceptance_probability(automaton: ProbabilisticAutomaton, word: Iterable[str]) -> float:
    """Probability that reading `word` from the initial distribution ends in
    a final state."""
    row = automaton.initial
    for letter in word:
        row = row @ automaton.transition(letter).entries
    value = float(row @ automaton._final_vector)
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Word schedules: factored representations of huge finite words.


class Literal(Node):
    __slots__ = _fields = ("word",)
    _measure = len

    def __new__(cls, word):
        return super().__new__(cls, tuple(map(str, word)))


class Concat(Node):
    __slots__ = _fields = ("left", "right")
    _arity = 2
    _measure = staticmethod(lambda left, right: left.length + right.length)


class Power(Node):
    __slots__ = _fields = ("child", "exponent")
    _arity = 1
    _measure = staticmethod(lambda child, exponent: child.length * exponent)

    def __new__(cls, child, exponent):
        if exponent < 1:
            raise ValueError("schedule exponent must be >= 1")
        return super().__new__(cls, child, int(exponent))


WordSchedule = (Literal, Concat, Power)   # the schedule node classes


def schedule_matrix(automaton: ProbabilisticAutomaton, schedule: WordSchedule,
                    memo: dict | None = None) -> StochasticMatrix:
    """Transition matrix of the denoted word, computed without expansion.

    `memo` maps schedule nodes to their matrices on this automaton.  Equal
    nodes are one node, so a sub-schedule that recurs, within one schedule or
    across calls given one dict, is walked and evaluated once.  The dict
    also keeps, under ``(Power, base node)``, the squaring chain of each
    powered base, so powers of one base share their squarings.
    """
    if memo is None:
        memo = {}
    for node in postorder(schedule, memo):
        if isinstance(node, Literal):
            matrix = automaton.word_matrix(node.word)
        elif isinstance(node, Concat):
            matrix = memo[node.left] @ memo[node.right]
        elif isinstance(node, Power):
            squares = memo.setdefault((Power, node.child), [])
            matrix = memo[node.child].power(node.exponent, squares)
        else:
            raise TypeError(f"not a word schedule: {node!r}")
        memo[node] = matrix
    return memo[schedule]


def schedule_acceptance_probability(automaton: ProbabilisticAutomaton,
                                    schedule: WordSchedule,
                                    memo: dict | None = None) -> float:
    matrix = schedule_matrix(automaton, schedule, memo)
    value = float(automaton.initial @ matrix.entries @ automaton._final_vector)
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# File format.
#
# A single JSON object with fields `states`, `alphabet`, `initial`, `final`
# and `transitions` (map letter -> list of rows, or a flat row-major list).
# An optional `strict` field records whether all entries lie in {0, 1/2, 1};
# unknown fields (such as the reduction's `state_map`) are ignored on load.


def automaton_to_json(automaton: ProbabilisticAutomaton, state_map: Mapping | None = None) -> str:
    payload = {
        "states": list(automaton.states),
        "alphabet": list(automaton.alphabet),
        "initial": list(automaton._initial),
        "final": list(automaton.final),
        "transitions": {
            letter: list(map(list, automaton.transition(letter).rows))
            for letter in automaton.alphabet
        },
        "strict": automaton.is_strict,
    }
    if state_map is not None:
        payload["state_map"] = {k: list(v) if isinstance(v, tuple) else v
                                for k, v in state_map.items()}
    return json.dumps(payload, indent=2) + "\n"


def _require(condition, message, *args):
    if not condition:
        raise AutomatonFormatError(message.format(*args))


def automaton_from_json(text: str) -> ProbabilisticAutomaton:
    # Each fact is checked once, in this order: JSON shapes, `initial` holds numbers,
    # each row's entries, `_names`, `initial`'s sign and sum, `strict`.
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # the latter: nesting too deep
        raise AutomatonFormatError(f"not valid JSON: {exc}") from exc
    _require(isinstance(payload, dict), "top-level value must be an object")
    for field in ("states", "alphabet", "initial", "final", "transitions"):
        _require(field in payload, "missing field {!r}", field)

    states = payload["states"]
    _require(isinstance(states, list) and states, "`states` must be a non-empty array")
    dim = len(states)
    alphabet = payload["alphabet"]
    _require(isinstance(alphabet, list) and alphabet, "`alphabet` must be a non-empty array")
    _require({str}.issuperset(map(type, alphabet)), "`alphabet` entries must be strings")

    initial = payload["initial"]
    _require(isinstance(initial, list) and len(initial) == dim,
             "`initial` must be an array of {} numbers", dim)
    initial_fault = _entry_fault(initial)
    _require(initial_fault not in _NOT_A_NUMBER, "`initial` entries must be numbers")
    final = payload["final"]
    _require(isinstance(final, list) and len(final) == dim,
             "`final` must be an array of {} booleans", dim)
    _require({bool}.issuperset(map(type, final)), "`final` entries must be booleans")

    transitions_raw = payload["transitions"]
    _require(isinstance(transitions_raw, dict), "`transitions` must be an object")
    transitions = {}
    for letter in alphabet:
        _require(letter in transitions_raw, "missing transitions for letter {!r}", letter)
        rows = transitions_raw[letter]
        _require(isinstance(rows, list), "transitions for {!r} must be an array", letter)
        if rows and not isinstance(rows[0], list):
            _require(len(rows) == dim * dim,
                     "flat transition array for {!r} must have {} entries", letter, dim * dim)
            rows = [rows[i * dim:(i + 1) * dim] for i in range(dim)]
        _require(len(rows) == dim and {list}.issuperset(map(type, rows))
                 and {dim} == set(map(len, rows)),
                 "transitions for {0!r} must form a {1}x{1} matrix", letter, dim)
        for i, fault in enumerate(map(_entry_fault, rows)):
            if fault:   # the sum of an integer row is exact, as `[1, 1]` sums to 2
                raise AutomatonFormatError(f"letter {letter!r}, row {i} ({states[i]!r}): " + (
                    "entries must be numbers" if fault in _NOT_A_NUMBER else
                    "negative entry" if fault == "negative" else
                    f"sums to {sum(rows[i])!r}, expected 1"))
        rows = tuple(tuple(map(float, row)) for row in rows)
        transitions[letter] = StochasticMatrix._wrap(None, rows)

    names = _names(states, alphabet, AutomatonFormatError)
    _check_initial(initial, initial_fault, AutomatonFormatError)
    automaton = ProbabilisticAutomaton._wrap(*names, transitions, tuple(map(float, initial)),
                                             tuple(final))

    if "strict" in payload:
        _require(isinstance(payload["strict"], bool), "`strict` must be a boolean")
        _require(payload["strict"] == automaton.is_strict,
                 "`strict` flag does not match the transition entries")
    return automaton


def load_automaton(path) -> ProbabilisticAutomaton:
    with open(path, "r", encoding="utf-8") as handle:
        return automaton_from_json(handle.read())
