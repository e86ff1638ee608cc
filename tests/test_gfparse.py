"""Expression language: grammar, printing round trip, error offsets."""

import copy
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from riordan.exact import QAB, QQ, QY
from riordan.gfparse import (
    MAX_DEPTH,
    BinOp,
    Call,
    GfEvalError,
    IntLit,
    Neg,
    ParseError,
    Pow,
    RatLit,
    Var,
    eval_gf,
    parse,
    ring_for,
    to_text,
)


class TestParsing:
    def test_variable(self):
        assert parse("x") == Var("x")

    def test_fibonacci_gf(self):
        ast = parse("1/(1-y*x-x^2)")
        assert ast == BinOp(
            "/",
            IntLit(1),
            BinOp("-", BinOp("-", IntLit(1), BinOp("*", Var("y"), Var("x"))), Pow(Var("x"), 2)),
        )

    def test_dual_cf_gf(self):
        ast = parse("x*(sqrt(1-4*y*x^2)-x)")
        inner = BinOp(
            "-",
            IntLit(1),
            BinOp("*", BinOp("*", IntLit(4), Var("y")), Pow(Var("x"), 2)),
        )
        assert ast == BinOp("*", Var("x"), BinOp("-", Call("sqrt", inner), Var("x")))

    def test_leading_minus(self):
        assert parse("-x") == Neg(Var("x"))

    def test_rational_literal_folding(self):
        assert parse("1/2") == RatLit(Fraction(1, 2))
        assert parse("4/2") == IntLit(2)  # integral quotients normalize down
        assert parse("1/(2)") == RatLit(Fraction(1, 2))  # parens are transparent
        assert parse("1/x") == BinOp("/", IntLit(1), Var("x"))

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x")

    def test_literals_past_the_int_string_limit(self):
        # 5001 digits: past the 4300-digit default of Python's int <-> str limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        sevens = 7 * (10**5001 - 1) // 9
        assert parse("7" * 5001) == IntLit(sevens)
        assert parse("7" * 5001 + "/7") == IntLit(sevens // 7)
        assert eval_gf("7" * 5001 + "*x", 2).coeffs == (0, sevens)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored


    def test_nesting_up_to_the_limit(self):
        assert parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == Var("x")
        calls = "sqrt(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1)
        assert eval_gf(calls, 3).coeffs == (1, 0, 0)
        chain = "+".join(["x"] * MAX_DEPTH)  # MAX_DEPTH - 1 operators
        assert eval_gf(chain, 3).coeffs == (0, MAX_DEPTH, 0)


class TestNodes:
    def test_equality_ignores_position(self):
        assert Var("x", pos=0) == Var("x", pos=5)
        assert hash(Var("x", pos=0)) == hash(Var("x", pos=5))
        assert len({parse("x+1"), parse(" x + 1"), BinOp("+", Var("x"), IntLit(1))}) == 1
        assert Var("x") != Var("y")

    def test_equality_is_type_exact(self):
        assert IntLit(2) != Var(2)
        assert Neg(IntLit(1)) != Call("sqrt", IntLit(1))

    def test_immutable(self):
        node = parse("x^2")
        with pytest.raises(AttributeError):
            node.exponent = 3
        with pytest.raises(AttributeError):
            del node.base
        assert node == Pow(Var("x"), 2)

    def test_copies_keep_every_field(self):
        node = parse("1/2 - sqrt(x)")
        for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert twin == node and twin.pos == node.pos and twin.right.pos == node.right.pos

    def test_integral_rational_literal_refused(self):
        with pytest.raises(ValueError):
            RatLit(Fraction(2))

    def test_repr_names_every_field(self):
        assert repr(parse("-y")) == "Neg(operand=Var(name='y', pos=1), pos=0)"


class TestEvaluation:
    def test_reversion_in_language(self):
        s = eval_gf("rev(x-x^2)", 6)
        assert [int(c) for c in s.coeffs] == [0, 1, 1, 2, 5, 14]

    def test_stretched_rows(self):
        s = eval_gf("1/(1-x-y*x^2)", 6)
        assert [p.padded(n + 1) for n, p in enumerate(s.coeffs)] == [
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
        assert ring_for(parse("1/(1-x)")) == QQ
        assert ring_for(parse("1/(1-y*x)")) == QY
        assert ring_for(parse("a*x+b")) == QAB
        with pytest.raises(GfEvalError):
            ring_for(parse("y+a"))

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


# Random parser-shaped ASTs: positions default to -1 and never affect equality.
_leaves = st.one_of(
    st.integers(0, 9).map(IntLit),
    st.sampled_from(["x", "y", "a", "b"]).map(Var),
    st.tuples(st.integers(1, 30), st.integers(2, 9))
    .map(lambda t: Fraction(*t))
    .filter(lambda q: q.denominator > 1)
    .map(RatLit),
)


def _is_parser_shape(node):
    # the parser folds literal/literal division into a single literal node
    return not (
        isinstance(node, BinOp)
        and node.op == "/"
        and isinstance(node.left, (IntLit, RatLit))
        and isinstance(node.right, IntLit)
        and node.right.value != 0
    )


def _compose(children):
    return st.one_of(
        children,
        st.tuples(children).map(lambda t: Neg(t[0])),
        st.tuples(st.sampled_from("+-*/"), children, children)
        .map(lambda t: BinOp(t[0], t[1], t[2]))
        .filter(_is_parser_shape),
        st.tuples(children, st.integers(0, 5)).map(lambda t: Pow(t[0], t[1])),
        st.tuples(st.sampled_from(["sqrt", "rev"]), children).map(
            lambda t: Call(t[0], t[1])
        ),
    )


asts = st.recursive(_leaves, _compose, max_leaves=12)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(asts)
    def test_print_parse_identity(self, ast):
        assert parse(to_text(ast)) == ast

    def test_examples(self):
        for text in ("1/(1-y*x-x^2)", "x*(sqrt(1-4*y*x^2)-x)", "rev(x/(1-y*x-x^2))"):
            ast = parse(text)
            assert parse(to_text(ast)) == ast

    def test_past_the_int_string_limit(self):
        # 5001 digits: past the 4300-digit default of Python's int <-> str limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        for text in ("7" * 5001, "(" + "7" * 5001 + "/2)"):
            ast = parse(text)
            assert to_text(ast) == text
            assert parse(to_text(ast)) == ast
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored


def _one_ring_asts(generators):
    leaves = st.one_of(
        st.integers(0, 9).map(IntLit),
        st.sampled_from(("x",) + generators).map(Var),
        st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]).map(RatLit),
    )
    return st.recursive(leaves, _compose_with_reversions, max_leaves=8)


def _compose_with_reversions(children):
    # rev(x + x^2*e) always has a unit coefficient of x, so it can be reverted
    reversible = children.map(
        lambda e: Call("rev", BinOp("+", Var("x"), BinOp("*", Pow(Var("x"), 2), e)))
    )
    return st.one_of(_compose(children), reversible)


# Random expressions over Q, Q[y] or Q[a][b].
gf_asts = st.sampled_from([(), ("y",), ("a", "b")]).flatmap(_one_ring_asts)

WORKING_ORDER = 10


def _evaluated(text, order):
    """The coefficients of ``text`` at ``order``, or the evaluation error."""
    try:
        return eval_gf(text, order).coeffs
    except GfEvalError as exc:
        return str(exc)


class TestPrefixExactness:
    @settings(max_examples=200, deadline=None)
    @given(gf_asts, st.integers(1, WORKING_ORDER))
    @example(parse("rev(x-x^2)"), 1)
    @example(parse("sqrt(1+x)/rev(2*x+y*x^2)"), 1)
    def test_first_terms_do_not_depend_on_the_order(self, ast, k):
        text = to_text(ast)
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
    ("+".join(["x"] * 101), 2),
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
