"""Omega-expression syntax trees.

An expression is built from alphabet letters with two operators: binary
product (word concatenation) and the postfix omega iterator.  Expressions
and word schedules are trees of hash-consed `Node`s, walked by `postorder`.
"""

from __future__ import annotations

import functools
import threading
import weakref

_set = object.__setattr__
_live = {}   # (class, *fields) -> weak reference to the live node with those fields
_lock = threading.Lock()   # held from a lookup in `_live` that misses to the insertion
_gone = type(None)   # called in place of a missing weak reference: returns None
_PLACE = object()   # on `postorder`'s stack: the node below it is to be placed


class Node:
    """Immutable tree node, hash-consed (Filliâtre and Conchon, 2006): a node whose
    fields equal those of a live node (children by identity, others by value) is
    that node, so equality and hashing are identity.  Subclasses name their fields
    in `_fields`, the first `_arity` children; `_measure` computes a schedule's length.
    Expressions, word schedules and monoid elements (leaves holding a matrix
    and a witness) are nodes."""

    __slots__ = ("_children", "_order", "length", "__weakref__")
    _arity = 0
    _measure = None

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _live.get(key, _gone)()
        if node is None:
            with _lock:   # another thread may have built the node meanwhile
                node = _live.get(key, _gone)()
                if node is None:
                    node = object.__new__(cls)
                    for name, value in zip(cls._fields, fields):
                        _set(node, name, value)
                    _set(node, "_children", fields[:cls._arity])
                    if cls._measure is not None:
                        _set(node, "length", cls._measure(*fields))
                    # Nodes form no cycles: each drops its entry as its last reference goes.
                    _live[key] = weakref.ref(node, functools.partial(_live.pop, key))
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # A flat post-order table whose rows hold a node's class, its
        # children's row numbers and its other fields: pickling recurses on
        # no depth and writes a shared subtree once.
        nodes = postorder(self)
        row = {node: k for k, node in enumerate(nodes)}
        table = []
        for node in nodes:
            children = [row[child] for child in node._children]
            others = [getattr(node, name) for name in node._fields[node._arity:]]
            table.append((type(node), *children, *others))
        return _rebuild, (tuple(table),)


def _rebuild(table):
    # The root of a table written by `Node.__reduce__`, built bottom-up.
    nodes = []
    for cls, *fields in table:
        arity = cls._arity
        nodes.append(cls(*map(nodes.__getitem__, fields[:arity]), *fields[arity:]))
    return nodes[-1]


def postorder(root, done=()) -> list:
    """The distinct nodes under `root`, root included, each after its
    children (left to right), except those in `done` and under them.  A
    value that is not a `Node` is a leaf, for the caller to reject."""
    if not done and getattr(root, "_order", None) is not None:
        return [*root._order, root]
    order, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if node is _PLACE:
            order.append(stack.pop())
        elif node not in seen and node not in done:
            # Seen from expansion on: in a DAG no path leads back to it.
            seen.add(node)
            stack += (node, _PLACE)
            if isinstance(node, Node):
                stack += reversed(node._children)
    if not done and isinstance(root, Node):
        # Kept for later walks, without the root: a cycle would outlive its last reference.
        _set(root, "_order", tuple(order[:-1]))
    return order


class Letter(Node):
    __slots__ = _fields = ("token",)


class Product(Node):
    __slots__ = _fields = ("left", "right")
    _arity = 2


class Omega(Node):
    __slots__ = _fields = ("child",)
    _arity = 1


OmegaExpression = (Letter, Product, Omega)   # the expression node classes


def product_of(factors) -> OmegaExpression:
    """Left-associative product of one or more expressions."""
    factors = list(factors)
    if not factors:
        raise ValueError("product of zero expressions is undefined")
    expr = factors[0]
    for factor in factors[1:]:
        expr = Product(expr, factor)
    return expr


class _Text(str):
    """Punctuation on `format_expression`'s stack, unlike any child."""


_SPACE, _SPACE_OPEN, _OPEN, _CLOSE, _OMEGA, _CLOSE_OMEGA = map(
    _Text, (" ", " (", "(", ")", "^w", ")^w"))


def format_expression(expr: OmegaExpression) -> str:
    """Render an expression in the concrete syntax accepted by the parser.

    Products are space-separated and left-associative, so only a
    right-nested product needs parentheses; `^w` binds tighter than the
    product and stacks (``a^w^w``).

    One in-order pass over an explicit stack writes the text, so the cost
    is linear in the text at any depth.
    """
    parts, stack = [], [expr]
    while stack:
        node = stack.pop()
        if type(node) is _Text:
            parts.append(node)
        elif isinstance(node, Letter):
            parts.append(node.token)
        elif isinstance(node, Product):
            if isinstance(node.right, Product):
                stack += (_CLOSE, node.right, _SPACE_OPEN, node.left)
            else:
                stack += (node.right, _SPACE, node.left)
        elif isinstance(node, Omega):
            if isinstance(node.child, Product):
                stack += (_CLOSE_OMEGA, node.child, _OPEN)
            else:
                stack += (_OMEGA, node.child)
        else:
            raise TypeError(f"not an omega-expression: {node!r}")
    return "".join(parts)
