"""Expression language: precedence by value, the postfix program, error offsets."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from riordan.exact import QAB, QQ, QY, format_element
from riordan.gfparse import MAX_DEPTH, GfEvalError, ParseError, eval_gf, parse
from strategies import one_ring_gf_texts


def coeffs(text, order=4):
    return eval_gf(text, order).coeffs


class TestParsing:
    def test_variable(self):
        assert coeffs("x") == (0, 1, 0, 0)

    def test_program_is_postfix(self):
        # each operation after its operands, with the offset of its token
        assert parse("-1+x*y^2") == (
            ("num", 1, 1), ("neg", 0, None), ("var", 3, "x"), ("var", 5, "y"),
            ("^", 6, 2), ("*", 4, None), ("+", 2, None),
        )
        assert parse(" sqrt((x))") == (("var", 7, "x"), ("sqrt", 1, None))

    def test_fibonacci_gf(self):
        assert coeffs("1/(1-y*x-x^2)") == tuple(
            QY.poly(c) for c in ([1], [0, 1], [1, 0, 1], [0, 2, 0, 1])
        )

    def test_dual_cf_gf(self):
        # sqrt(1 - 4yx^2) = 1 - 2yx^2 - 2y^2x^4 - ...
        assert coeffs("x*(sqrt(1-4*y*x^2)-x)", 6) == (
            0, 1, -1, QY.poly([0, -2]), 0, QY.poly([0, 0, -2])
        )

    def test_leading_minus(self):
        assert coeffs("-x") == (0, -1, 0, 0)
        assert coeffs("-x^2") == (0, 0, -1, 0)  # the power binds first
        assert coeffs("-x+1") == (1, -1, 0, 0)  # the minus reaches the first term only
        assert coeffs("-2*x-1") == (-1, -2, 0, 0)  # a whole first term

    def test_operators_associate_left(self):
        assert coeffs("1-x-x") == (1, -2, 0, 0)
        assert coeffs("2/3/4") == (Fraction(1, 6), 0, 0, 0)
        assert coeffs("x/2*3") == (0, Fraction(3, 2), 0, 0)
        assert coeffs("1-x+x") == (1, 0, 0, 0)

    def test_precedence(self):
        assert coeffs("1+2*x^2") == (1, 0, 2, 0)
        assert coeffs("(1+2*x)^2") == (1, 4, 4, 0)
        assert coeffs("1+x/2") == (1, Fraction(1, 2), 0, 0)
        assert coeffs("2*x^2/4") == (0, 0, Fraction(1, 2), 0)

    def test_rational_literal_folding(self):
        assert coeffs("1/2") == (Fraction(1, 2), 0, 0, 0)
        assert coeffs("4/2") == (2, 0, 0, 0)  # integral quotients are ints
        assert type(coeffs("4/2")[0]) is int
        assert coeffs("1/(2)") == (Fraction(1, 2), 0, 0, 0)  # parens are transparent
        assert coeffs("1/(1-x)") == (1, 1, 1, 1)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x")

    def test_literals_past_the_int_string_limit(self):
        # 5001 digits: past the 4300-digit default of Python's int <-> str limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        sevens = 7 * (10**5001 - 1) // 9
        assert parse("7" * 5001) == (("num", 0, sevens),)
        assert eval_gf("7" * 5001 + "/7", 1).coeffs == (sevens // 7,)
        assert eval_gf("(" + "7" * 5001 + "/2)", 1).coeffs == (Fraction(sevens, 2),)
        assert eval_gf("7" * 5001 + "*x", 2).coeffs == (0, sevens)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored

    def test_nesting_up_to_the_limit(self):
        assert parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == (("var", MAX_DEPTH, "x"),)
        calls = "sqrt(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1)
        assert eval_gf(calls, 3).coeffs == (1, 0, 0)

    def test_long_chains_evaluate(self):
        # MAX_DEPTH bounds open parentheses and calls only, not operators
        assert eval_gf("+".join(["x"] * 3000), 3).coeffs == (0, 3000, 0)
        assert eval_gf("*".join(["(1+x)"] * 3000), 3).coeffs == (1, 3000, 3000 * 2999 // 2)
        nested = "(" * MAX_DEPTH + "-".join(["x"] * 200) + ")" * MAX_DEPTH
        assert eval_gf(nested, 3).coeffs == (0, -198, 0)


class TestRoundTrip:
    def test_past_the_int_string_limit(self):
        # 5001 digits: past the 4300-digit default of Python's int <-> str limit;
        # a value read from a literal prints back as that literal and reads again
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        for text in ("7" * 5001, "(" + "7" * 5001 + "/2)"):
            (value,) = eval_gf(text, 1).coeffs
            printed = format_element(value)
            assert printed == text.strip("()")
            assert eval_gf(printed, 1).coeffs == (value,)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored


class TestEvaluation:
    def test_reversion_in_language(self):
        s = eval_gf("rev(x-x^2)", 6)
        assert [int(c) for c in s.coeffs] == [0, 1, 1, 2, 5, 14]

    def test_stretched_rows(self):
        s = eval_gf("1/(1-x-y*x^2)", 6)
        assert [[*p.coeffs, *[0] * (n - p.degree)] for n, p in enumerate(s.coeffs)] == [
            [1],
            [1, 0],
            [1, 1, 0],
            [1, 2, 0, 0],
            [1, 3, 1, 0, 0],
            [1, 4, 3, 0, 0, 0],
        ]

    def test_constant(self):
        s = eval_gf("2", 4)
        assert [int(c) for c in s.coeffs] == [2, 0, 0, 0]

    def test_ring_autodetection(self):
        assert eval_gf("1/(1-x)", 3).ring is QQ
        assert eval_gf("1/(1-y*x)", 3).ring is QY
        assert eval_gf("a*x+b", 3).ring is QAB
        with pytest.raises(GfEvalError):
            eval_gf("y+a", 3)

    def test_evaluation_errors_carry_positions(self):
        with pytest.raises(GfEvalError) as exc:
            eval_gf("1/x", 6)
        assert exc.value.position == 1
        with pytest.raises(GfEvalError) as exc:
            eval_gf("sqrt(2)", 6)
        assert exc.value.position == 0
        with pytest.raises(GfEvalError) as exc:
            eval_gf("rev(1+x)", 6)
        assert exc.value.position == 0
        with pytest.raises(GfEvalError) as exc:
            eval_gf("y*a", 6)  # a is the first variable that mixes the rings
        assert exc.value.position == 2
        with pytest.raises(GfEvalError) as exc:
            eval_gf("a+sqrt(1-x*y)+b", 6)
        assert exc.value.position == 11

    def test_agrees_with_hand_built_series(self):
        from riordan.series import generator_series, x_series

        x = x_series(QY, 10)
        y = generator_series(QY, "y", 10)
        assert eval_gf("1/(1-y*x-x^2)", 10) == 1 / (1 - y * x - x * x)
        assert eval_gf("x*(sqrt(1-4*y*x^2)-x)", 10) == x * ((1 - 4 * y * x * x).sqrt() - x)
        assert eval_gf("1/(sqrt(1-4*y*x^2)-x)", 10) == 1 / ((1 - 4 * y * x * x).sqrt() - x)
        assert eval_gf("rev(x/(1-y*x-x^2))", 10) == (x / (1 - y * x - x * x)).revert()

        xab = x_series(QAB, 10)
        a = generator_series(QAB, "a", 10)
        b = generator_series(QAB, "b", 10)
        assert eval_gf("1/(sqrt(1-4*b*x^2)-a*x)", 10) == 1 / (
            (1 - 4 * b * xab * xab).sqrt() - a * xab
        )
        assert eval_gf("rev(x*(sqrt(1-4*b*x^2)-a*x))", 10) == (
            xab * ((1 - 4 * b * xab * xab).sqrt() - a * xab)
        ).revert()

        xq = x_series(QQ, 12)
        assert eval_gf("sqrt(1-4*x-16*x^2)", 12) == (1 - 4 * xq - 16 * xq * xq).sqrt()


WORKING_ORDER = 10


def _evaluated(text, order):
    """The coefficients of ``text`` at ``order``, or the evaluation error."""
    try:
        return eval_gf(text, order).coeffs
    except GfEvalError as exc:
        return str(exc)


class TestPrefixExactness:
    @settings(max_examples=200, deadline=None)
    @given(one_ring_gf_texts, st.integers(1, WORKING_ORDER))
    @example("rev(x-x^2)", 1)
    @example("sqrt(1+x)/rev(2*x+y*x^2)", 1)
    def test_first_terms_do_not_depend_on_the_order(self, text, k):
        full = _evaluated(text, WORKING_ORDER)
        part = _evaluated(text, k)
        if isinstance(full, str):
            assert part == full  # fails at k exactly when it fails at the full order
        else:
            assert part == full[:k]


# Malformed inputs with the exact offset the error must carry.
BAD_INPUTS = [
    ("", 0),
    ("1+", 2),
    ("(1", 2),
    ("x^y", 2),
    ("x^-2", 2),
    ("1**2", 2),
    ("sqrt", 4),
    ("sqrt x", 5),
    ("foo(x)", 0),
    ("1 + * 2", 4),
    (")x", 0),
    ("x y", 2),
    ("1/", 2),
    ("2^(3)", 2),
    ("x^2.5", 3),
    ("x$", 1),
    ("rev()", 4),
    ("sqrt(x))", 7),
    ("--x", 1),
    ("xé", 1),
    ("(" * 101 + "x" + ")" * 101, 100),
    ("sqrt(" * 101 + "x" + ")" * 101, 504),
]


class TestBadInputs:
    @pytest.mark.parametrize("text,offset", BAD_INPUTS, ids=[repr(t) for t, _ in BAD_INPUTS])
    def test_error_offset(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == offset

    def test_never_a_crash(self):
        for text, _ in BAD_INPUTS:
            with pytest.raises(ParseError):
                parse(text)

    def test_parse_errors_come_before_evaluation(self):
        # 1/0 and y*a fail only when evaluated; the syntax error wins
        for text in ("1/0+", "y*a)", "rev(x^2)(x)"):
            with pytest.raises(ParseError):
                eval_gf(text, 3)
