"""Arithmetic kernel: numbers, rings, polynomials."""

import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from riordan._value import Value
from riordan.exact import (
    QA,
    QAB,
    QQ,
    QY,
    Polynomial,
    binomial,
    catalan,
    exact_div,
    fibonacci,
    format_element,
    jacobsthal,
    read_rational,
)
from riordan.triangles import Triangle, invert_triangle
from riordan.verify import _compare
from strategies import dot_rings, nonzero_ints, q_elements, qa_polys, qab_polys, qy_polys, rationals
from test_canonical import is_canonical_q


class TestNumbers:
    def test_binomial_small(self):
        assert binomial(4, 2) == 6
        assert binomial(3, 1) == 3

    def test_binomial_boundaries(self):
        for n in range(10):
            assert binomial(n, 0) == 1
        assert binomial(5, 6) == 0
        assert binomial(5, -1) == 0
        assert binomial(-3, 2) == 0  # negative upper index is defined as 0

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_pascal_recurrence(self, n, k):
        if 0 < k <= n:
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_catalan_values(self):
        assert catalan(0) == 1
        assert catalan(4) == 14
        assert catalan(5) == 42

    def test_catalan_integrality(self):
        # binom(2n, n) is divisible by n+1 even though the definition is rational
        for n in range(60):
            assert Fraction(binomial(2 * n, n), n + 1).denominator == 1
            assert catalan(n) == Fraction(binomial(2 * n, n), n + 1)

    def test_catalan_rejects_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)

    def test_exact_div(self):
        assert exact_div(42, 6) == 7 and exact_div(-42, 6) == -7
        with pytest.raises(ArithmeticError, match="43 not divisible by 6"):
            exact_div(43, 6)

    def test_jacobsthal_seed_and_recurrence(self):
        assert jacobsthal(1) == 1
        assert jacobsthal(2) == 1
        assert jacobsthal(3) == 3  # J_2 + 2 J_1
        assert jacobsthal(5) == 11
        assert [jacobsthal(n) for n in range(1, 7)] == [1, 1, 3, 5, 11, 21]
        for n in range(2, 30):
            assert jacobsthal(n) == jacobsthal(n - 1) + 2 * jacobsthal(n - 2)

    def test_jacobsthal_rejects_negative(self):
        with pytest.raises(ValueError):
            jacobsthal(-2)

    def test_fibonacci(self):
        assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_exact_sqrt(self):
        assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert QQ.sqrt(Fraction(0)) == 0
        with pytest.raises(ValueError):
            QQ.sqrt(Fraction(2))
        with pytest.raises(ValueError):
            QQ.sqrt(Fraction(-4))


class TestRationalInvariants:
    @given(st.integers(-10**6, 10**6), nonzero_ints(10**6))
    def test_always_normalized(self, p, q):
        from math import gcd

        x = Fraction(p, q)
        assert x.denominator > 0
        assert gcd(x.numerator, x.denominator) == 1

    def test_zero_is_canonical(self):
        assert Fraction(0, 7) == Fraction(0, 1)
        assert Fraction(0, 7).denominator == 1


def rings_of_polynomials_built(operation) -> list:
    """The ring of each ``Polynomial`` that ``operation()`` constructs, in order."""
    rings = []

    def counting_init(self, ring, c, den):
        rings.append(ring)
        Value.__init__(self, ring, c, den)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Polynomial, "__init__", counting_init)
        operation()
    return rings


class TestPolynomial:
    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_sum_and_difference_build_only_the_result(self, op):
        p, q = QY.poly([1, Fraction(1, 2), 3]), QY.poly([2, 5, Fraction(-1, 3)])
        assert rings_of_polynomials_built(lambda: op(p, q)) == [QY]
        # over Q[a][b], one Q[a] polynomial per coefficient of the result, then the result
        a = QA.generator()
        p, q = QAB.poly([a, 1 + a, 2]), QAB.poly([a * a, Fraction(1, 2), a - 3])
        assert rings_of_polynomials_built(lambda: op(p, q)) == [QA] * 3 + [QAB]

    def test_normalization_strips_trailing_zeros(self):
        p = QY.poly([1, 2, 0, 0])
        assert p.degree == 1
        assert QY.poly([0, 0]).degree == -1
        assert not QY.poly([])

    def test_generator_and_eval(self):
        y = QY.generator()
        p = y ** 3 + 2 * y
        assert p(Fraction(2)) == 12
        assert p.coeffs == (Fraction(0), Fraction(2), Fraction(0), Fraction(1))

    def test_scalar_mixing(self):
        y = QY.generator()
        assert (y + 1) - 1 == y
        assert 2 * y == y + y
        assert (2 * y) / 2 == y
        assert y * Fraction(1, 2) == y / 2

    def test_unit_division_only(self):
        y = QY.generator()
        with pytest.raises(ZeroDivisionError):
            (y ** 2) / y
        with pytest.raises(ZeroDivisionError):
            y / 0

    @given(qy_polys, qy_polys, qy_polys)
    def test_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(qy_polys, qy_polys)
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @given(qy_polys, qy_polys, qy_polys)
    def test_mul_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    def test_power(self):
        y = QY.generator()
        assert (1 + y) ** 3 == 1 + 3 * y + 3 * y ** 2 + y ** 3
        assert (y ** 0) == 1

    def test_bivariate_nesting(self):
        a = QAB.coerce(QA.generator())
        b = QAB.generator()
        p = (a + b) ** 2
        assert p == a * a + 2 * a * b + b * b
        # evaluating at b = 1 collapses to a polynomial in a
        collapsed = p(Fraction(1))
        assert collapsed.ring == QA
        assert collapsed == (QA.generator() + 1) ** 2

    def test_mixed_rings_rejected(self):
        y = QY.generator()
        a = QA.generator()
        with pytest.raises(TypeError):
            y + a

    def test_immutable(self):
        p = QY.poly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (Fraction(9),)


class TestFormatting:
    def test_rationals(self):
        assert format_element(Fraction(5)) == "5"
        assert format_element(Fraction(-3, 7)) == "-3/7"

    def test_polynomials(self):
        y = QY.generator()
        assert format_element(-(y ** 3) + 3 * y) == "-y^3+3*y"
        assert format_element(2 * y ** 2 - 6 * y + 1) == "2*y^2-6*y+1"
        assert format_element(QY.zero()) == "0"
        assert format_element(y / 2) == "1/2*y"

    def test_bivariate(self):
        a = QAB.coerce(QA.generator())
        b = QAB.generator()
        assert format_element(14 * b ** 2 + 42 * a ** 2 * b + 14 * a ** 4) == (
            "14*b^2+42*a^2*b+14*a^4"
        )

    def test_past_the_int_string_limit(self):
        # 5001 digits: past the 4300-digit default of Python's int <-> str
        # limit, which is in force here, outside the CLI
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        sevens = 7 * (10**5001 - 1) // 9
        assert format_element(sevens) == "7" * 5001
        assert str(QY.poly([sevens, 1])) == "y+" + "7" * 5001
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored
        # messages that show such a value report it, and the limit stays
        big = 10**5000
        with pytest.raises(ArithmeticError, match="not divisible by 10"):
            exact_div(big + 1, 10)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with pytest.raises(ValueError, match="is negative"):
            QQ.sqrt(-big)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with pytest.raises(ValueError, match=r"t_\(0,0\) = \+-1, got 10{5000}$"):
            invert_triangle(Triangle(QQ, [[big]]))
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        check = _compare("x", "", [big], [1])
        assert not check.ok and check.detail == f"first mismatch at index 0: 1{'0' * 5000} != 1"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# Texts in the grammar ``read_rational`` shares with ``Fraction``, built by
# construction: whitespace (with the ASCII separators that ``Fraction`` takes
# and ``int`` refuses), a sign, then an integer with leading zeros, a decimal
# (integral ones such as 3.0 and 5. too) or p/q.
_spaces = st.text(alphabet=" \t\n\r\f\v\x1c\x1d\x1e\x1f", max_size=2)
_signs = st.sampled_from(["", "+", "-"])
_naturals = st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2),
                      st.integers(0, 10**30))
_fraction_digits = st.text(alphabet="0123456789", min_size=1, max_size=4)
_rational_bodies = st.one_of(
    _naturals,
    st.builds(lambda i, k: f"{i}.{'0' * k}", _naturals, st.integers(0, 3)),
    st.builds(lambda i, f: f"{i}.{f}", _naturals, _fraction_digits),
    st.builds(lambda f: f".{f}", _fraction_digits),
    st.builds(lambda p, zeros, q: f"{p}/{'0' * zeros}{q}", _naturals, st.integers(0, 1),
              st.integers(1, 10**12)),
)
rational_texts = st.builds(lambda *parts: "".join(parts), _spaces, _signs, _rational_bodies,
                           _spaces)
# past the 4300-digit default of Python's int <-> str limit
_long_bodies = st.builds(lambda d, n, tail: f"{d}{'9' * n}{tail}", st.integers(1, 9),
                         st.integers(4301, 4400), st.sampled_from(["", ".0", ".25", "/7", "/1"]))
long_rational_texts = st.builds(lambda *parts: "".join(parts), _spaces, _signs, _long_bodies,
                                _spaces)


class TestReadRational:
    @given(rational_texts)
    def test_reads_what_fraction_reads(self, text):
        got, want = read_rational(text), QQ.coerce(Fraction(text))
        assert got == want and type(got) is type(want)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter has no int <-> str digit limit")
    @settings(max_examples=20)
    @given(long_rational_texts)
    def test_long_text_under_the_smallest_digit_limit(self, text):
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            want = QQ.coerce(Fraction(text))
            sys.set_int_max_str_digits(640)
            got = read_rational(text)
            assert sys.get_int_max_str_digits() == 640  # restored
        finally:
            sys.set_int_max_str_digits(previous)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("text", ["", " ", "+", "-", "1/", "/2", "--1", "+-1", "- 1", "1 2",
                                      ".", "1.2.3", "1/2/3", "1/-2", "0x10"])
    def test_malformed_text_gets_the_error_of_fraction(self, text):
        with pytest.raises(ValueError) as want:
            Fraction(text)
        with pytest.raises(ValueError) as got:
            read_rational(text)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# The Q[y] and Q[a][b] kernel against a plain oracle.  A polynomial is a dict
# {exponent tuple: Fraction} there: (k,) for y^k, (i, j) for a^i b^j.  The
# oracle shares no code with exact.Polynomial.

def o_clean(p):
    return {e: c for e, c in p.items() if c}


def o_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return o_clean(out)


def o_neg(p):
    return {e: -c for e, c in p.items()}


def o_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return o_clean(out)


def o_pow(p, n, one):
    out = one
    for _ in range(n):
        out = o_mul(out, p)
    return out


def terms(p):
    """The oracle dict of a Q[y], Q[a] or Q[a][b] polynomial; every
    coefficient in Q it passes must be in canonical form."""
    out = {}
    for k, c in enumerate(p.coeffs):
        if isinstance(c, Polynomial):
            out.update({(i, k): ci for (i,), ci in terms(c).items()})
        else:
            assert is_canonical_q(c), repr(c)
            if c:
                out[(k,)] = c
    return out


def assert_canonical(p):
    """Stored form over Q: int numerators, no trailing zero, one positive
    denominator sharing no factor with every numerator; zero is ((), 1)."""
    from math import gcd

    rings = [p] if p.ring.over_q else list(p.coeffs)
    for q in rings:
        assert all(type(c) is int for c in q._c)
        assert type(q._den) is int and q._den > 0
        assert not q._c or q._c[-1] != 0
        assert gcd(q._den, *q._c) == 1
    if not p.ring.over_q:
        assert not p._c or p._c[-1]
        assert p._den == 1


either = st.sampled_from([(qy_polys, (0,)), (qab_polys, (0, 0))])


@st.composite
def poly_pairs(draw):
    polys, unit = draw(either)
    return draw(polys), draw(polys), unit


class TestKernelAgainstOracle:
    @given(poly_pairs())
    def test_add_sub_neg(self, pq):
        p, q, _ = pq
        for got, want in (
            (p + q, o_add(terms(p), terms(q))),
            (p - q, o_add(terms(p), o_neg(terms(q)))),
            (-p, o_neg(terms(p))),
        ):
            assert_canonical(got)
            assert terms(got) == want

    @given(poly_pairs())
    def test_mul(self, pq):
        p, q, _ = pq
        got = p * q
        assert_canonical(got)
        assert terms(got) == o_mul(terms(p), terms(q))

    @given(poly_pairs(), rationals)
    def test_scalar_mixing(self, pq, c):
        p, _, unit = pq
        const = {unit: c} if c else {}
        for got, want in (
            (p * c, o_mul(terms(p), const)),
            (c * p, o_mul(terms(p), const)),
            (p + c, o_add(terms(p), const)),
            (c - p, o_add(const, o_neg(terms(p)))),
        ):
            assert_canonical(got)
            assert terms(got) == want

    @settings(max_examples=50)
    @given(poly_pairs(), st.integers(0, 4))
    def test_pow(self, pq, n):
        p, _, unit = pq
        got = p ** n
        assert_canonical(got)
        assert terms(got) == o_pow(terms(p), n, {unit: Fraction(1)})

    @given(qy_polys, rationals)
    def test_call_over_qy(self, p, v):
        assert p(v) == sum((c * v ** k for (k,), c in terms(p).items()), Fraction(0))
        assert is_canonical_q(p(v)), repr(p(v))

    @given(qab_polys, qa_polys)
    def test_call_over_qab(self, p, v):
        got = p(v)
        assert got.ring == QA
        assert_canonical(got)
        want = {}
        for (i, j), c in terms(p).items():
            want = o_add(want, o_mul({(i,): c}, o_pow(terms(v), j, {(0,): Fraction(1)})))
        assert terms(got) == want


class TestKernelInvariants:
    @given(st.lists(st.sampled_from([0, 1, Fraction(1, 2), Fraction(2, 4)]), max_size=3),
           st.lists(st.sampled_from([0, 1, Fraction(1, 2), Fraction(2, 4)]), max_size=3))
    def test_equality_is_equal_coeffs(self, cp, cq):
        p, q = QY.poly(cp), QY.poly(cq)
        assert (p == q) == (p.coeffs == q.coeffs)
        if p == q:
            assert hash(p) == hash(q)

    @given(rationals)
    def test_constant_hashes_like_its_fraction(self, c):
        for ring in (QY, QA, QAB):
            p = ring.coerce(c)
            assert p == c and c == p
            assert hash(p) == hash(c)
        assert QY.coerce(Fraction(1, 2)) == Fraction(1, 2)
        assert QY.coerce(Fraction(1, 2)) != Fraction(1, 3)

    def test_mixed_denominators_cancel_to_denominator_1(self):
        y = QY.generator()
        third = Fraction(1, 3)
        s = (y / 2 + third) + (y / 2 - third)
        assert s == y
        assert_canonical(s)
        assert s._den == 1 and s._c == (0, 1)
        assert s.coeffs == (Fraction(0), Fraction(1))
        t = QY.poly([Fraction(1, 6), Fraction(1, 10)]) + QY.poly([Fraction(1, 3), Fraction(2, 5)])
        assert t._c == (1, 1) and t._den == 2

    @given(poly_pairs())
    def test_full_cancellation_is_zero(self, pq):
        p, _, _ = pq
        for s in (p + (-p), p - p, -p + p):
            assert not s and s == 0 and s.degree == -1
            assert s._c == () and s._den == 1
            assert hash(s) == hash(0)
            assert s is s.ring.zero()  # the ring's one zero, built once


# ---------------------------------------------------------------------------
# The fused multiply-accumulate ring.dot(terms, den) against the naive fold
# sum(w * x * y) / den, over plain Fractions for Q and over the oracle dicts
# above for the polynomial rings.

weights = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-30, 30))


class TestDot:
    @given(st.lists(st.tuples(weights, q_elements, q_elements), max_size=6), st.integers(1, 12))
    def test_over_q(self, terms_, den):
        got = QQ.dot(terms_, den)
        assert is_canonical_q(got)
        assert got == Fraction(sum(w * Fraction(x) * y for w, x, y in terms_)) / den
        if den == 1:
            assert QQ.dot(terms_) == got

    @given(st.data())
    def test_over_polynomial_rings(self, data):
        ring, elements = data.draw(dot_rings)
        terms_ = data.draw(st.lists(st.tuples(weights, elements, elements), max_size=5))
        den = data.draw(st.integers(1, 12))
        want = {}
        for w, x, y in terms_:
            want = o_add(want, {e: w * c for e, c in o_mul(terms(x), terms(y)).items()})
        got = ring.dot(terms_, den)
        assert got.ring is ring
        assert got or got is ring.zero()
        assert_canonical(got)
        assert terms(got) == {e: Fraction(c) / den for e, c in want.items()}
