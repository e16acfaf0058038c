"""Omega-expression syntax trees.

An expression is built from alphabet letters with two operators: binary
product (word concatenation) and the postfix omega iterator.  The trees are
immutable and hashable so they can key caches and dedup tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Letter:
    token: str


@dataclass(frozen=True)
class Product:
    left: "OmegaExpression"
    right: "OmegaExpression"


@dataclass(frozen=True)
class Omega:
    child: "OmegaExpression"


OmegaExpression = Union[Letter, Product, Omega]


def product_of(factors) -> OmegaExpression:
    """Left-associative product of one or more expressions."""
    factors = list(factors)
    if not factors:
        raise ValueError("product of zero expressions is undefined")
    expr = factors[0]
    for factor in factors[1:]:
        expr = Product(expr, factor)
    return expr


def expression_depth(expr: OmegaExpression) -> int:
    if isinstance(expr, Letter):
        return 1
    if isinstance(expr, Product):
        return 1 + max(expression_depth(expr.left), expression_depth(expr.right))
    if isinstance(expr, Omega):
        return 1 + expression_depth(expr.child)
    raise TypeError(f"not an omega-expression: {expr!r}")


def format_expression(expr: OmegaExpression, memo: dict | None = None) -> str:
    """Render an expression in the concrete syntax accepted by the parser.

    Products are space-separated and left-associative, so only a
    right-nested product needs parentheses; `^w` binds tighter than the
    product and stacks (``a^w^w``).

    The tree is walked with an explicit stack, so depth is not limited by
    recursion.  `memo` maps ``id(node)`` to its text; a caller formatting
    several expressions that share subtrees, all alive meanwhile, may pass
    one dict to all calls.
    """
    if memo is None:
        memo = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, Letter):
            memo[id(node)] = node.token
        elif isinstance(node, Product):
            left, right = memo.get(id(node.left)), memo.get(id(node.right))
            if left is None or right is None:
                stack += (node, node.right, node.left)   # again after its operands
            elif isinstance(node.right, Product):
                memo[id(node)] = f"{left} ({right})"
            else:
                memo[id(node)] = f"{left} {right}"
        elif isinstance(node, Omega):
            inner = memo.get(id(node.child))
            if inner is None:
                stack += (node, node.child)
            elif isinstance(node.child, Product):
                memo[id(node)] = f"({inner})^w"
            else:
                memo[id(node)] = f"{inner}^w"
        else:
            raise TypeError(f"not an omega-expression: {node!r}")
    return memo[id(expr)]
