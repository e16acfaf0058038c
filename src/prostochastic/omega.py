"""Concrete syntax and boolean interpretation of omega-expressions.

Grammar:

    expr  :=  term (('.')? term)*        left-associative product
    term  :=  atom ('^w' | '^' INT)*     omega iteration / repetition sugar
    atom  :=  LETTER | '(' expr ')'

Letters are alphabet tokens (possibly multi-character, matched longest
first); juxtaposition and '.' both denote the product; whitespace is
ignored between tokens.  `E^3` is sugar that parses to `E E E`, so
repair suggestions like `(a^2)^w` are themselves valid input.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import BooleanMatrix
from .expressions import (Letter, Omega, OmegaExpression, Product,
                          format_expression, product_of)
from .monoid import IdempotenceError, boolean_product, idempotent_power, stabilize


class ExpressionSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str, alphabet: Sequence[str]):
    letters = sorted(set(alphabet), key=len, reverse=True)
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "().":
            tokens.append((c, c, i))
            i += 1
            continue
        if c == "^":
            j = i + 1
            while j < len(text) and text[j].isspace():
                j += 1
            if j < len(text) and text[j] == "w":
                tokens.append(("omega", "^w", i))
                i = j + 1
                continue
            if j < len(text) and text[j].isdigit():
                k = j
                while k < len(text) and text[k].isdigit():
                    k += 1
                tokens.append(("repeat", int(text[j:k]), i))
                i = k
                continue
            raise ExpressionSyntaxError("expected 'w' or a repetition count after '^'", i)
        for token in letters:
            if text.startswith(token, i):
                tokens.append(("letter", token, i))
                i += len(token)
                break
        else:
            raise ExpressionSyntaxError(f"unknown letter at {text[i:i + 8]!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        token = self.peek()
        self.pos += 1
        return token

    def expr(self) -> OmegaExpression:
        node = self.term()
        while True:
            ahead = self.peek()
            if ahead is None:
                return node
            kind = ahead[0]
            if kind == ".":
                self.next()
            elif kind not in ("letter", "("):
                return node
            node = Product(node, self.term())

    def term(self) -> OmegaExpression:
        node = self.atom()
        while True:
            ahead = self.peek()
            if ahead is None:
                return node
            if ahead[0] == "omega":
                self.next()
                node = Omega(node)
            elif ahead[0] == "repeat":
                _, count, position = self.next()
                if count < 1:
                    raise ExpressionSyntaxError("repetition count must be >= 1", position)
                node = product_of([node] * count)
            else:
                return node

    def atom(self) -> OmegaExpression:
        token = self.next()
        if token is None:
            raise ExpressionSyntaxError("unexpected end of expression", self.length)
        kind, value, position = token
        if kind == "letter":
            return Letter(value)
        if kind == "(":
            node = self.expr()
            closing = self.next()
            if closing is None or closing[0] != ")":
                raise ExpressionSyntaxError("expected ')'",
                                            self.length if closing is None else closing[2])
            return node
        raise ExpressionSyntaxError(f"expected a letter or '(', got {value!r}", position)


def parse_expression(text: str, alphabet: Sequence[str]) -> OmegaExpression:
    tokens = _tokenize(text, alphabet)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", 0)
    parser = _Parser(tokens, len(text))
    node = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ExpressionSyntaxError(f"unexpected {trailing[1]!r}", trailing[2])
    return node


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
    if isinstance(expr, Letter):
        try:
            return generators[expr.token]
        except KeyError:
            raise ValueError(f"unknown letter {expr.token!r}") from None
    if isinstance(expr, Product):
        return boolean_product(boolean_interpretation(expr.left, generators),
                               boolean_interpretation(expr.right, generators))
    if isinstance(expr, Omega):
        matrix = boolean_interpretation(expr.child, generators)
        try:
            return stabilize(matrix)
        except IdempotenceError:
            raise IdempotenceError(
                f"omega applied to non-idempotent expression "
                f"{format_expression(expr.child)!r}",
                expression=expr.child) from None
    raise TypeError(f"not an omega-expression: {expr!r}")


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
