"""Concrete syntax and boolean interpretation of omega-expressions.

Grammar:

    expr  :=  term (('.')? term)*        left-associative product
    term  :=  atom ('^w' | '^' INT)*     omega iteration / repetition sugar
    atom  :=  LETTER | '(' expr ')'

Letters are alphabet tokens (possibly multi-character, matched longest
first); juxtaposition and '.' both denote the product; whitespace is
ignored between tokens and after '^'.  INT is decimal digits from 1 to
MAX_REPEAT (10,000); `E^3` parses to `E E E`, so repairs like `(a^2)^w` parse.
"""

from __future__ import annotations

import functools
import re
from typing import Mapping, Sequence

from .core import BooleanMatrix
from .expressions import (Letter, Omega, OmegaExpression, Product,
                          format_expression, postorder, product_of)
from .monoid import IdempotenceError, boolean_product, idempotent_power, stabilize

MAX_REPEAT = 10_000


class ExpressionSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@functools.lru_cache(maxsize=64)
def _scanner(alphabet: tuple) -> re.Pattern:
    """The token pattern of an alphabet, compiled once per alphabet."""
    letters = "|".join(map(re.escape, sorted(set(alphabet), key=len, reverse=True))) or "(?!)"
    # Leading zeros stay outside `repeat`, so its length bounds the count.
    return re.compile(rf"(?P<space>\s+)|(?P<punct>[().])|\^\s*(?:(?P<omega>w)|0*(?P<repeat>\d+))?"
                      rf"|(?P<letter>{letters})|.")


def _tokenize(text: str, alphabet: Sequence[str]):
    tokens = []
    for match in _scanner(tuple(alphabet)).finditer(text):
        kind, value, position = match.lastgroup, match[0], match.start()
        if kind in ("punct", "letter"):
            tokens.append((value if kind == "punct" else kind, value, position))
        elif kind == "omega":
            tokens.append((kind, "^w", position))
        elif kind == "repeat":
            # More digits than MAX_REPEAT has exceed it; `int` is not asked
            # to read an unbounded run.
            if len(match[kind]) > len(str(MAX_REPEAT)):
                raise ExpressionSyntaxError(f"repetition count must be at most {MAX_REPEAT}", position)
            tokens.append((kind, int(match[kind]), position))
        elif kind is None:
            raise ExpressionSyntaxError(
                "expected 'w' or a repetition count after '^'" if value[0] == "^"
                else f"unknown letter at {text[position:position + 8]!r}", position)
    return tokens


def parse_expression(text: str, alphabet: Sequence[str]) -> OmegaExpression:
    # One pass.  `groups` holds the product read before each open '(', `product` the
    # one read since, and `term` the term that postfix operators extend, or None.
    tokens = _tokenize(text, alphabet)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", 0)
    groups, product, term = [], None, None
    for kind, value, position in tokens:
        if term is not None:
            if kind == "omega":
                term = Omega(term)
                continue
            if kind == "repeat":
                if value < 1:
                    raise ExpressionSyntaxError("repetition count must be >= 1", position)
                if value > MAX_REPEAT:
                    raise ExpressionSyntaxError(f"repetition count must be at most {MAX_REPEAT}", position)
                term = product_of([term] * value)
                continue
            product = term if product is None else Product(product, term)
            term = None
            if kind == ".":
                continue
            if kind == ")":
                if not groups:
                    raise ExpressionSyntaxError(f"unexpected {value!r}", position)
                product, term = groups.pop(), product
                continue
        if kind == "letter":
            term = Letter(value)
        elif kind == "(":
            groups.append(product)
            product = None
        else:
            raise ExpressionSyntaxError(f"expected a letter or '(', got {value!r}", position)
    if term is None:
        raise ExpressionSyntaxError("unexpected end of expression", len(text))
    if groups:
        raise ExpressionSyntaxError("expected ')'", len(text))
    return term if product is None else Product(product, term)


def parse_word(text: str, alphabet: Sequence[str]) -> tuple:
    """Tokenize a plain word (letters only, no operators)."""
    letters = []
    for kind, value, position in _tokenize(text, alphabet):
        if kind != "letter":
            raise ExpressionSyntaxError(f"words may only contain letters, got {value!r}", position)
        letters.append(value)
    return tuple(letters)


def boolean_interpretation(expr: OmegaExpression,
                           generators: Mapping[str, BooleanMatrix]) -> BooleanMatrix:
    """Evaluate an expression over letter supports: products multiply and
    omega stabilizes, which requires the iterated element to be idempotent."""
    values = {}
    for node in postorder(expr):
        if isinstance(node, Letter):
            try:
                values[node] = generators[node.token]
            except KeyError:
                raise ValueError(f"unknown letter {node.token!r}") from None
        elif isinstance(node, Product):
            values[node] = boolean_product(values[node.left], values[node.right])
        elif isinstance(node, Omega):
            try:
                values[node] = stabilize(values[node.child])
            except IdempotenceError:
                raise IdempotenceError(
                    f"omega applied to non-idempotent expression "
                    f"{format_expression(node.child)!r}",
                    expression=node.child) from None
        else:
            raise TypeError(f"not an omega-expression: {node!r}")
    return values[expr]


def idempotent_power_exponent(expr: OmegaExpression,
                              generators: Mapping[str, BooleanMatrix]) -> int:
    """Smallest e >= 1 such that the e-th boolean power of the expression's
    value is idempotent."""
    return idempotent_power(boolean_interpretation(expr, generators))[0]


def repair_suggestion(expr: OmegaExpression,
                      generators: Mapping[str, BooleanMatrix]) -> str:
    """Concrete syntax for the idempotent repair `(E^e)^w` of a failed
    omega child."""
    exponent = idempotent_power_exponent(expr, generators)
    inner = format_expression(expr)
    if isinstance(expr, Product):
        inner = f"({inner})"
    return f"({inner}^{exponent})^w"
