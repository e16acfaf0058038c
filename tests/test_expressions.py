"""Hash-consed nodes, the post-order walk, and trees deeper than the
interpreter's recursion limit through every walker."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from prostochastic import (Concat, Letter, Literal, Omega, Power, Product,
                           boolean_interpretation, boolean_product, format_expression,
                           letter_supports, numeric_interpretation, parse_expression,
                           product_of, realize_polynomial, schedule_matrix)
from prostochastic import expressions
from prostochastic.expressions import postorder
from conftest import expand_schedule, expression_depth, funnel_automaton


class TestHashConsing:
    def test_equal_fields_give_one_node(self):
        assert Product(Letter("a"), Omega(Letter("b"))) is Product(Letter("a"), Omega(Letter("b")))
        assert parse_expression("a b^w", ("a", "b")) is Product(Letter("a"), Omega(Letter("b")))
        assert Power(Concat(Literal("ab"), Literal(())), 3) is \
            Power(Concat(Literal(("a", "b")), Literal([])), 3)

    def test_fields_are_normalized_before_lookup(self):
        assert Literal(["a"]) is Literal(("a",))
        assert Power(Literal(("a",)), 2.0) is Power(Literal(("a",)), 2)

    def test_different_fields_give_different_nodes(self):
        assert Letter("a") is not Letter("b")
        assert Omega(Letter("a")) is not Letter("a")
        assert Power(Literal(("a",)), 2) is not Power(Literal(("a",)), 3)

    def test_nodes_are_immutable(self):
        node = Product(Letter("a"), Letter("b"))
        with pytest.raises(AttributeError):
            node.left = Letter("b")
        with pytest.raises(AttributeError):
            del node.right
        assert node is Product(Letter("a"), Letter("b"))

    def test_copy_and_pickle_give_the_same_node(self):
        schedule = Power(Concat(Literal(("a",)), Power(Literal(("a", "b")), 3)), 2 ** 395)
        assert copy.copy(schedule) is schedule
        assert copy.deepcopy(schedule) is schedule
        assert pickle.loads(pickle.dumps(schedule)) is schedule

    def test_pickle_rebuilds_a_freed_tree(self):
        expr = parse_expression("(gone gone^w)^w", ("gone",))
        data, freed = pickle.dumps(expr), weakref.ref(expr)
        del expr
        assert freed() is None
        loaded = pickle.loads(data)
        assert loaded is Omega(Product(Letter("gone"), Omega(Letter("gone"))))

    def test_walked_tree_is_freed_by_reference_counting(self):
        gc.disable()
        try:
            before = len(expressions._live)
            expr = parse_expression("(fresh (fresh^w))^w", ("fresh",))
            assert postorder(expr)[-1] is expr and postorder(expr)[-1] is expr
            freed = weakref.ref(expr)
            del expr
            assert freed() is None
            assert len(expressions._live) == before
        finally:
            gc.enable()


    def test_threads_building_equal_trees_get_one_node(self):
        # Each round's trees are new, so the threads race to build every node.
        for stacked in range(5):
            texts = [f"(a b^w)^w {'a ' * k}b{'^w' * stacked}" for k in range(200)]
            built = [None] * 4
            start = threading.Barrier(len(built))

            def build(slot):
                start.wait()
                built[slot] = [parse_expression(text, ("a", "b")) for text in texts]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            for trees in built[1:]:
                assert all(tree is first for tree, first in zip(trees, built[0], strict=True))


class TestPostorder:
    def test_children_first_left_to_right_shared_once(self):
        a, b = Letter("a"), Letter("b")
        loop = Omega(Product(a, b))
        root = Product(loop, Product(loop, a))
        assert postorder(root) == [a, b, Product(a, b), loop, Product(loop, a), root]

    def test_done_nodes_and_their_subtrees_are_skipped(self):
        a, b = Letter("a"), Letter("b")
        inner = Product(a, b)
        root = Omega(Product(inner, a))
        assert postorder(root, {inner: None}) == [a, Product(inner, a), root]
        assert postorder(root, {root: None}) == []

    def test_non_nodes_are_leaves(self):
        with pytest.raises(TypeError, match="not an omega-expression"):
            format_expression(Product(Letter("a"), "b"))
        with pytest.raises(TypeError, match="not an omega-expression"):
            boolean_interpretation(Product(Letter("a"), "b"), {"a": None})
        with pytest.raises(TypeError, match="not an omega-expression"):
            realize_polynomial(Omega(Literal(("a",))), 1)
        with pytest.raises(TypeError, match="not an omega-expression"):
            expression_depth(Omega(Literal(("a",))))


DEPTH = 5000


def deep_trees():
    letters = [Letter("ab"[k % 2]) for k in range(DEPTH + 1)]
    left = product_of(letters)
    right = letters[-1]
    for letter in reversed(letters[:-1]):
        right = Product(letter, right)
    omegas = Letter("a")
    for _ in range(DEPTH):
        omegas = Omega(omegas)
    return {"left": (left, "ab" * (DEPTH // 2) + "a"),
            "right": (right, "ab" * (DEPTH // 2) + "a"),
            "omegas": (omegas, "a")}


@pytest.fixture(scope="module")
def funnel():
    return funnel_automaton()


@pytest.mark.parametrize("shape", ["left", "right", "omegas"])
class TestDeeperThanTheRecursionLimit:
    def test_format_and_parse(self, shape):
        expr, _ = deep_trees()[shape]
        assert parse_expression(format_expression(expr), ("a", "b")) is expr
        assert expression_depth(expr) == DEPTH + 1

    def test_interpretations(self, shape, funnel):
        expr, word = deep_trees()[shape]
        supports = letter_supports(funnel)
        value = boolean_interpretation(expr, supports)
        if shape == "omegas":
            # The omega of a limit is that limit again.
            numeric = numeric_interpretation(expr, funnel)
            limit = numeric_interpretation(Omega(Letter("a")), funnel)
            assert value == boolean_interpretation(Omega(Letter("a")), supports)
            assert np.allclose(numeric.entries, limit.entries)
        else:
            expected = supports[word[0]]
            for letter in word[1:]:
                expected = boolean_product(expected, supports[letter])
            assert value == expected
            # The word holds 2,501 a's, and 0.5^2501 underflows: the walk
            # ends, and the support lost to the float product is reported.
            with pytest.raises(ValueError, match="float underflow"):
                numeric_interpretation(expr, funnel)

    def test_copy_and_pickle_give_the_same_node(self, shape):
        expr, _ = deep_trees()[shape]
        assert copy.deepcopy(expr) is expr
        assert pickle.loads(pickle.dumps(expr)) is expr

    def test_realization(self, shape, funnel):
        expr, word = deep_trees()[shape]
        schedule = realize_polynomial(expr, 1)
        assert expand_schedule(schedule) == tuple(word)
        memo = {}
        matrix = schedule_matrix(funnel, schedule, memo)
        assert schedule_matrix(funnel, schedule, memo) is matrix
        assert np.allclose(matrix.entries, funnel.word_matrix(word).entries)
