"""Stochastic and boolean matrices, probabilistic automata, word schedules.

All values are immutable after construction.  Stochastic arithmetic is
double precision; exponents are arbitrary-precision integers because
realized schedules routinely involve factorials far beyond any fixed
width.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

ROW_SUM_TOLERANCE = 1e-9


class AutomatonFormatError(ValueError):
    """Raised when an automaton file violates the format contract."""


def matrix_norm(matrix) -> float:
    """Maximum absolute row sum.

    With this orientation every row-stochastic matrix has norm exactly 1,
    and the norm is submultiplicative.
    """
    if isinstance(matrix, StochasticMatrix):
        entries = matrix.entries
    else:
        entries = np.asarray(matrix, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("matrix norm is defined for square matrices")
    return float(np.abs(entries).sum(axis=1).max())


class StochasticMatrix:
    """Square matrix with non-negative entries and unit row sums."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"expected a non-empty square matrix, got shape {arr.shape}")
        if np.any(arr < 0.0):
            s, t = np.argwhere(arr < 0.0)[0]
            raise ValueError(f"negative entry {arr[s, t]!r} at ({s}, {t})")
        sums = arr.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE)[0]
        if bad.size:
            raise ValueError(f"row {bad[0]} sums to {sums[bad[0]]!r}, expected 1")
        arr.flags.writeable = False
        self._entries = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "StochasticMatrix":
        # Trusted constructor for arithmetic results (products and powers of
        # stochastic matrices stay stochastic up to rounding) and for rows
        # the file loader has already checked: the row-sum check is skipped.
        matrix = object.__new__(cls)
        arr = np.asarray(arr, dtype=float)
        arr.flags.writeable = False
        matrix._entries = arr
        return matrix

    @classmethod
    def identity(cls, dim: int) -> "StochasticMatrix":
        return cls._wrap(np.eye(dim))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def __matmul__(self, other: "StochasticMatrix") -> "StochasticMatrix":
        if not isinstance(other, StochasticMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return StochasticMatrix._wrap(self._entries @ other._entries)

    def power(self, exponent: int) -> "StochasticMatrix":
        """Exponentiation by squaring; the exponent may be a big integer."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = np.eye(self.dim)
        base = np.array(self._entries)
        e = int(exponent)
        while e:
            if e & 1:
                result = result @ base
            e >>= 1
            if e:
                base = base @ base
        return StochasticMatrix._wrap(result)

    def __repr__(self):
        return f"StochasticMatrix({self._entries.tolist()!r})"


@dataclass(frozen=True)
class BooleanMatrix:
    """Square 0/1 matrix stored as a tuple of row tuples."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("expected a non-empty square matrix")
        if any(v not in (0, 1) for row in rows for v in row):
            raise ValueError("entries must be 0 or 1")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, dim: int) -> "BooleanMatrix":
        return cls(tuple(tuple(1 if s == t else 0 for t in range(dim)) for s in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def bitstring(self) -> str:
        return "".join(str(v) for row in self.rows for v in row)

    def __str__(self):
        return "\n".join("".join(str(v) for v in row) for row in self.rows)


class ProbabilisticAutomaton:
    """Finite states, one stochastic matrix per letter, initial distribution
    and final-state set.

    The alphabet is an ordered tuple of letter tokens; tokens may be longer
    than one character (the reduction construction uses ``check``/``end``)
    but must not contain whitespace or the expression metacharacters
    ``( ) . ^``.
    """

    __slots__ = ("_states", "_alphabet", "_transitions", "_initial", "_final", "_final_vector")

    _RESERVED = set("().^")

    def __init__(self, states, alphabet, transitions, initial, final):
        states = tuple(str(s) for s in states)
        if not states or len(set(states)) != len(states):
            raise ValueError("states must be non-empty and unique")
        alphabet = tuple(str(a) for a in alphabet)
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must be non-empty and unique")
        for token in alphabet:
            if not token or any(c.isspace() or c in self._RESERVED for c in token):
                raise ValueError(f"invalid letter token {token!r}")
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

        initial = np.array(initial, dtype=float)
        if initial.shape != (dim,):
            raise ValueError(f"initial vector must have length {dim}")
        if np.any(initial < 0.0):
            raise ValueError("initial vector has a negative entry")
        if abs(initial.sum() - 1.0) > ROW_SUM_TOLERANCE:
            raise ValueError(f"initial vector sums to {initial.sum()!r}, expected 1")
        initial.flags.writeable = False

        final = tuple(bool(v) for v in final)
        if len(final) != dim:
            raise ValueError(f"final vector must have length {dim}")

        self._states = states
        self._alphabet = alphabet
        self._transitions = table
        self._initial = initial
        self._final = final
        final_vector = np.array([1.0 if v else 0.0 for v in final])
        final_vector.flags.writeable = False
        self._final_vector = final_vector

    @property
    def states(self) -> tuple:
        return self._states

    @property
    def alphabet(self) -> tuple:
        return self._alphabet

    @property
    def initial(self) -> np.ndarray:
        return self._initial

    @property
    def final(self) -> tuple:
        return self._final

    @property
    def dim(self) -> int:
        return len(self._states)

    def transition(self, letter: str) -> StochasticMatrix:
        try:
            return self._transitions[letter]
        except KeyError:
            raise ValueError(f"unknown letter {letter!r}") from None

    def initial_support(self) -> tuple:
        """Indices of states carrying positive initial probability."""
        return tuple(int(i) for i in np.nonzero(self._initial > 0.0)[0])

    def word_matrix(self, word: Iterable[str]) -> StochasticMatrix:
        """Product of the letter matrices; the empty word maps to identity."""
        result = StochasticMatrix.identity(self.dim)
        for letter in word:
            result = result @ self.transition(letter)
        return result

    @property
    def is_strict(self) -> bool:
        """True when every transition entry lies in {0, 1/2, 1}."""
        for matrix in self._transitions.values():
            entries = matrix.entries
            if not np.all((entries == 0.0) | (entries == 0.5) | (entries == 1.0)):
                return False
        return True

    def __repr__(self):
        return (f"ProbabilisticAutomaton(states={self._states!r}, "
                f"alphabet={self._alphabet!r})")


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


@dataclass(frozen=True)
class Literal:
    word: tuple

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(str(a) for a in self.word))

    @property
    def length(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class Concat:
    left: "WordSchedule"
    right: "WordSchedule"

    @property
    def length(self) -> int:
        return self.left.length + self.right.length


@dataclass(frozen=True)
class Power:
    child: "WordSchedule"
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("schedule exponent must be >= 1")
        object.__setattr__(self, "exponent", int(self.exponent))

    @property
    def length(self) -> int:
        return self.child.length * self.exponent


WordSchedule = Union[Literal, Concat, Power]


def expand_schedule(schedule: WordSchedule, limit: int = 10**6) -> tuple:
    """Flatten a schedule into the word it denotes.

    Guarded by `limit` because schedule lengths are routinely astronomical.
    """
    if schedule.length > limit:
        raise ValueError(f"schedule denotes a word of length {schedule.length}, limit is {limit}")
    if isinstance(schedule, Literal):
        return schedule.word
    if isinstance(schedule, Concat):
        return expand_schedule(schedule.left, limit) + expand_schedule(schedule.right, limit)
    if isinstance(schedule, Power):
        return expand_schedule(schedule.child, limit) * schedule.exponent
    raise TypeError(f"not a word schedule: {schedule!r}")


def schedule_matrix(automaton: ProbabilisticAutomaton, schedule: WordSchedule) -> StochasticMatrix:
    """Transition matrix of the denoted word, computed without expansion."""
    if isinstance(schedule, Literal):
        return automaton.word_matrix(schedule.word)
    if isinstance(schedule, Concat):
        return schedule_matrix(automaton, schedule.left) @ schedule_matrix(automaton, schedule.right)
    if isinstance(schedule, Power):
        return schedule_matrix(automaton, schedule.child).power(schedule.exponent)
    raise TypeError(f"not a word schedule: {schedule!r}")


def schedule_acceptance_probability(automaton: ProbabilisticAutomaton,
                                    schedule: WordSchedule) -> float:
    matrix = schedule_matrix(automaton, schedule)
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
        "initial": [float(v) for v in automaton.initial],
        "final": list(automaton.final),
        "transitions": {
            letter: [[float(v) for v in row] for row in automaton.transition(letter).entries]
            for letter in automaton.alphabet
        },
        "strict": automaton.is_strict,
    }
    if state_map is not None:
        payload["state_map"] = {k: list(v) if isinstance(v, tuple) else v
                                for k, v in state_map.items()}
    return json.dumps(payload, indent=2) + "\n"


def _require(condition, message):
    if not condition:
        raise AutomatonFormatError(message)


def automaton_from_json(text: str) -> ProbabilisticAutomaton:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AutomatonFormatError(f"not valid JSON: {exc}") from exc
    _require(isinstance(payload, dict), "top-level value must be an object")
    for field in ("states", "alphabet", "initial", "final", "transitions"):
        _require(field in payload, f"missing field {field!r}")

    states = payload["states"]
    _require(isinstance(states, list) and states, "`states` must be a non-empty array")
    dim = len(states)
    alphabet = payload["alphabet"]
    _require(isinstance(alphabet, list) and alphabet, "`alphabet` must be a non-empty array")

    initial = payload["initial"]
    _require(isinstance(initial, list) and len(initial) == dim,
             f"`initial` must be an array of {dim} numbers")
    final = payload["final"]
    _require(isinstance(final, list) and len(final) == dim,
             f"`final` must be an array of {dim} booleans")
    _require(all(isinstance(v, bool) for v in final), "`final` entries must be booleans")

    transitions_raw = payload["transitions"]
    _require(isinstance(transitions_raw, dict), "`transitions` must be an object")
    transitions = {}
    for letter in alphabet:
        _require(letter in transitions_raw, f"missing transitions for letter {letter!r}")
        rows = transitions_raw[letter]
        _require(isinstance(rows, list), f"transitions for {letter!r} must be an array")
        if rows and not isinstance(rows[0], list):
            _require(len(rows) == dim * dim,
                     f"flat transition array for {letter!r} must have {dim * dim} entries")
            rows = [rows[i * dim:(i + 1) * dim] for i in range(dim)]
        _require(len(rows) == dim and all(isinstance(r, list) and len(r) == dim for r in rows),
                 f"transitions for {letter!r} must form a {dim}x{dim} matrix")
        for i, row in enumerate(rows):
            _require(all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row),
                     f"letter {letter!r}, row {i} ({states[i]!r}): entries must be numbers")
            _require(all(v >= 0 for v in row),
                     f"letter {letter!r}, row {i} ({states[i]!r}): negative entry")
            total = sum(row)
            _require(abs(total - 1.0) <= ROW_SUM_TOLERANCE,
                     f"letter {letter!r}, row {i} ({states[i]!r}): sums to {total!r}, expected 1")
        transitions[letter] = StochasticMatrix._wrap(rows)

    try:
        automaton = ProbabilisticAutomaton(states, alphabet, transitions, initial, final)
    except (TypeError, ValueError) as exc:
        raise AutomatonFormatError(str(exc)) from exc

    if "strict" in payload:
        _require(isinstance(payload["strict"], bool), "`strict` must be a boolean")
        _require(payload["strict"] == automaton.is_strict,
                 "`strict` flag does not match the transition entries")
    return automaton


def load_automaton(path) -> ProbabilisticAutomaton:
    with open(path, "r", encoding="utf-8") as handle:
        return automaton_from_json(handle.read())


def save_automaton(automaton: ProbabilisticAutomaton, path, state_map: Mapping | None = None):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(automaton_to_json(automaton, state_map=state_map))
