import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prostochastic import (BooleanMatrix, ExpressionSyntaxError,
                           IdempotenceError, Letter, Omega, Product,
                           boolean_interpretation, boolean_product,
                           format_expression, counterexample_automaton,
                           idempotent_power_exponent,
                           letter_supports, parse_expression, parse_word,
                           product_of, repair_suggestion)
from conftest import expression_depth

AB = ("a", "b")
METACHARACTERS = ("w", "a*", "+", "1x")

UPPER = BooleanMatrix(((1, 1), (0, 1)))
SWAP = BooleanMatrix(((0, 1), (1, 0)))
IDENTITY2 = BooleanMatrix.identity(2)


def expressions(letters):
    return st.recursive(
        st.builds(Letter, st.sampled_from(letters)),
        lambda children: st.one_of(
            st.builds(Product, children, children),
            st.builds(Omega, children),
        ),
        max_leaves=12,
    )


class TestParser:
    def test_single_letter(self):
        assert parse_expression("a", AB) == Letter("a")

    def test_omega_over_product(self):
        assert parse_expression("(b a^w)^w", AB) == \
            Omega(Product(Letter("b"), Omega(Letter("a"))))

    def test_stacked_omegas(self):
        assert parse_expression("a^w^w", AB) == Omega(Omega(Letter("a")))

    def test_product_is_left_associative(self):
        expected = Product(Product(Letter("a"), Letter("b")), Letter("a"))
        assert parse_expression("a b a", AB) == expected
        assert parse_expression("a.b.a", AB) == expected
        assert parse_expression("ab a", AB) == expected

    def test_repetition_sugar(self):
        assert parse_expression("a^2", AB) == Product(Letter("a"), Letter("a"))
        assert parse_expression("(a^2)^w", AB) == Omega(Product(Letter("a"), Letter("a")))
        # Leading zeros do not count towards the bound on the digits.
        assert parse_expression("a^" + "0" * 5000 + "5", AB) == product_of([Letter("a")] * 5)

    def test_multicharacter_letters(self):
        alphabet = ("check", "end", "a")
        expr = parse_expression("check (a end)^w", alphabet)
        assert expr == Product(Letter("check"), Omega(Product(Letter("a"), Letter("end"))))

    def test_longest_token_wins(self):
        alphabet = ("a", "aa")
        assert parse_expression("aaa", alphabet) == Product(Letter("aa"), Letter("a"))
        assert parse_expression("a aa", alphabet) == Product(Letter("a"), Letter("aa"))

    @pytest.mark.parametrize("text,position", [
        ("", 0),
        ("a &", 2),
        ("(a b", 4),
        ("a)", 1),
        ("a ^", 2),
        ("a^0", 1),
        ("((a)", 4),
        ("(a))", 3),
        ("a . )", 4),
        ("()", 1),
        ("(a b)^w^0", 7),
        ("a .", 3),
        ("a^ x", 1),
        ("a^\u00b2", 1),
        ("a^10001", 1),
        ("a^100000000000000000000", 1),
        ("(a^10000)^ 10001", 9),
    ])
    def test_syntax_errors_carry_positions(self, text, position):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_expression(text, AB)
        assert excinfo.value.position == position

    @pytest.mark.parametrize("alphabet,text,expected", [
        (AB, "a^ w", Omega(Letter("a"))),
        (AB, "a^\t\nw b", Product(Omega(Letter("a")), Letter("b"))),
        (AB, "a ^ 2", Product(Letter("a"), Letter("a"))),
        (AB, "b^\n02", Product(Letter("b"), Letter("b"))),
        (METACHARACTERS, "w^w", Omega(Letter("w"))),
        (METACHARACTERS, "w ^ w w", Product(Omega(Letter("w")), Letter("w"))),
        (METACHARACTERS, "a*+ 1x", Product(Product(Letter("a*"), Letter("+")), Letter("1x"))),
        (METACHARACTERS, "(1x.a*)^2", Product(Product(Letter("1x"), Letter("a*")),
                                              Product(Letter("1x"), Letter("a*")))),
    ])
    def test_scanner_tokens(self, alphabet, text, expected):
        assert parse_expression(text, alphabet) == expected

    @pytest.mark.parametrize("alphabet,text,message,position", [
        (AB, "a .", "unexpected end of expression", 3),
        (AB, "a^ x", "expected 'w' or a repetition count after '^'", 1),
        (AB, "a^\u00b2", "expected 'w' or a repetition count after '^'", 1),
        (AB, "a^10001", "repetition count must be at most 10000", 1),
        (AB, "a^0", "repetition count must be >= 1", 1),
        (AB, "a b &c", "unknown letter at '&c'", 4),
        (METACHARACTERS, "a", "unknown letter at 'a'", 0),
        (METACHARACTERS, "w^1x", "unknown letter at 'x'", 3),
        (METACHARACTERS, "w^+", "expected 'w' or a repetition count after '^'", 1),
    ])
    def test_scanner_diagnostics(self, alphabet, text, message, position):
        with pytest.raises(ExpressionSyntaxError, match=re.escape(message)) as excinfo:
            parse_expression(text, alphabet)
        assert excinfo.value.position == position

    @pytest.mark.parametrize("parse", [parse_expression, parse_word])
    def test_repetition_count_beyond_int_digit_limit(self, parse):
        # 5,000 digits: more than `int` reads from text by default.
        with pytest.raises(ExpressionSyntaxError,
                           match="repetition count must be at most 10000") as excinfo:
            parse("a b^" + "1" * 5000, AB)
        assert excinfo.value.position == 3

    def test_repetition_count_bound(self):
        # 9,999 left-nested products over one letter.
        assert expression_depth(parse_expression("a^10000", AB)) == 10000

    def test_parentheses_deeper_than_the_recursion_limit(self):
        depth = 20000
        assert parse_expression("(" * depth + "a b" + ")" * depth, AB) is \
            Product(Letter("a"), Letter("b"))

    def test_unknown_letter(self):
        with pytest.raises(ExpressionSyntaxError, match="unknown letter"):
            parse_expression("a c", AB)

    def test_parse_word(self):
        assert parse_word("b a a", AB) == ("b", "a", "a")
        assert parse_word("ba", AB) == ("b", "a")
        assert parse_word("", AB) == ()
        with pytest.raises(ExpressionSyntaxError, match="only contain letters"):
            parse_word("a^w", AB)
        assert parse_word("w+ 1x\ta*", METACHARACTERS) == ("w", "+", "1x", "a*")
        with pytest.raises(ExpressionSyntaxError, match="only contain letters, got '\\^w'"):
            parse_word("a^ w", AB)
        with pytest.raises(ExpressionSyntaxError, match="only contain letters, got 5"):
            parse_word("a^" + "0" * 5000 + "5", AB)
        with pytest.raises(ExpressionSyntaxError, match="only contain letters, got 20000"):
            parse_word("a^20000", AB)

    @given(expr=expressions(AB))
    @settings(max_examples=300)
    def test_round_trip(self, expr):
        assert parse_expression(format_expression(expr), AB) == expr

    @given(expr=expressions(("check", "end", "a")))
    @settings(max_examples=150)
    def test_round_trip_multicharacter(self, expr):
        assert parse_expression(format_expression(expr), ("check", "end", "a")) == expr


class TestDeepFormatting:
    """Formatting walks the tree without recursion."""

    DEPTH = 5000

    def test_left_nested_product(self):
        expr = product_of(Letter("a") for _ in range(self.DEPTH))
        assert format_expression(expr) == " ".join(["a"] * self.DEPTH)

    def test_omega_stack(self):
        expr = Letter("a")
        for _ in range(self.DEPTH):
            expr = Omega(expr)
        assert format_expression(expr) == "a" + "^w" * self.DEPTH

    def test_right_nested_product(self):
        expr = Letter("a")
        for _ in range(self.DEPTH):
            expr = Product(Letter("b"), expr)
        assert format_expression(expr) == "b (" * (self.DEPTH - 1) + "b a" + ")" * (self.DEPTH - 1)

    def test_shared_subtrees(self):
        a, b = Letter("a"), Letter("b")
        loop = Omega(Product(b, a))
        exprs = [loop, Product(loop, Product(a, b)), Omega(Omega(loop)), Product(a, loop)]
        assert [format_expression(e) for e in exprs] == \
            ["(b a)^w", "(b a)^w (a b)", "(b a)^w^w^w", "a (b a)^w"]

    def test_rejects_non_expressions(self):
        with pytest.raises(TypeError, match="not an omega-expression"):
            format_expression(Product(Letter("a"), "b"))


class TestDepth:
    def test_depths(self):
        assert expression_depth(Letter("a")) == 1
        assert expression_depth(Product(Letter("a"), Letter("b"))) == 2
        assert expression_depth(Omega(Product(Letter("b"), Omega(Letter("a"))))) == 4


class TestBooleanInterpretation:
    def test_letter_maps_to_generator(self):
        gens = {"a": BooleanMatrix(((1,),))}
        assert boolean_interpretation(Letter("a"), gens) == BooleanMatrix(((1,),))

    def test_omega_of_absorbing_support(self):
        gens = {"a": UPPER}
        assert boolean_interpretation(parse_expression("a^w", ("a",)), gens) == \
            BooleanMatrix(((0, 1), (0, 1)))

    def test_omega_of_swap_raises(self):
        gens = {"a": SWAP}
        with pytest.raises(IdempotenceError) as excinfo:
            boolean_interpretation(parse_expression("a^w", ("a",)), gens)
        assert excinfo.value.expression == Letter("a")

    def test_unknown_letter(self):
        with pytest.raises(ValueError, match="unknown letter"):
            boolean_interpretation(Letter("z"), {"a": UPPER})

    def test_one_idempotence_test_per_omega_node(self, monkeypatch):
        # `stabilize` tests idempotence in the same pass that stabilizes.
        from prostochastic import monoid
        automaton = counterexample_automaton(0.9)
        calls = []
        original = monoid._stabilized

        def counting(masks):
            calls.append(masks)
            return original(masks)

        monkeypatch.setattr(monoid, "_stabilized", counting)
        boolean_interpretation(parse_expression("(b a^w)^w", automaton.alphabet),
                               letter_supports(automaton))
        assert len(calls) == 2

    @given(left=expressions(AB), right=expressions(AB))
    @settings(max_examples=100)
    def test_product_homomorphism(self, left, right):
        gens = {"a": UPPER, "b": BooleanMatrix(((1, 0), (1, 0)))}
        try:
            l_val = boolean_interpretation(left, gens)
            r_val = boolean_interpretation(right, gens)
        except IdempotenceError:
            return
        assert boolean_interpretation(Product(left, right), gens) == \
            boolean_product(l_val, r_val)


class TestIdempotentPower:
    def test_identity_is_already_idempotent(self):
        assert idempotent_power_exponent(Letter("a"), {"a": IDENTITY2}) == 1

    def test_swap_needs_squaring(self):
        assert idempotent_power_exponent(Letter("a"), {"a": SWAP}) == 2

    def test_any_idempotent_gives_one(self):
        assert idempotent_power_exponent(Letter("a"), {"a": UPPER}) == 1

    def test_repair_suggestion_is_parseable(self):
        gens = {"a": SWAP, "b": SWAP}
        suggestion = repair_suggestion(Letter("a"), gens)
        assert suggestion == "(a^2)^w"
        repaired = parse_expression(suggestion, AB)
        assert boolean_interpretation(repaired, gens) == IDENTITY2

    def test_repair_suggestion_parenthesizes_products(self):
        gens = {"a": SWAP, "b": IDENTITY2}
        suggestion = repair_suggestion(Product(Letter("b"), Letter("a")), gens)
        assert suggestion == "((b a)^2)^w"
        parse_expression(suggestion, AB)
