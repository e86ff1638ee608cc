"""Differential tests of series reversion, composition, square roots, Hankel
determinants and Q[y] and Q[a][b] polynomial products against sympy.

``PowerSeries.revert`` uses Lagrange inversion, so the coefficient-extraction
checks elsewhere only restate its own formula.  sympy's
``rs_series_reversion`` solves f(r) = t by fixed-point iteration, which shares
neither the algorithm nor the arithmetic.  ``rs_subs`` substitutes the
inner series into a sympy polynomial, not by Horner's rule in the series
ring as ``PowerSeries.compose`` does.  ``rs_nth_root`` and
``Matrix.det`` are likewise independent of J.C.P. Miller's power recurrence
and of the Hankel transform's subresultant chain, and ``sympy.Poly`` of the
integer-numerator kernel in ``riordan.exact``.  sympy is a test-only
dependency.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")
from sympy.polys.domains import QQ as SYMPY_QQ  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402
from sympy import Matrix, Poly, Rational, symbols  # noqa: E402
from sympy.polys.ring_series import rs_nth_root, rs_series_reversion, rs_subs  # noqa: E402

from riordan.exact import QAB, QQ, QY, Polynomial  # noqa: E402
from riordan.hankel import hankel_transform  # noqa: E402
from riordan.series import from_coeffs  # noqa: E402
from strategies import nonzero_q_values, q_polys, q_values  # noqa: E402

R, X, T, Y = ring("x, t, y", SYMPY_QQ)


def to_sympy(f, var):
    """The truncated series f as a polynomial in ``var`` (and y) over sympy's Q."""
    def scalar(q):
        return SYMPY_QQ(q.numerator, q.denominator)

    total = R.zero
    for n, c in enumerate(f.coeffs):
        if isinstance(c, Polynomial):
            c = sum((scalar(q) * Y**k for k, q in enumerate(c.coeffs)), R.zero)
        else:
            c = scalar(c)
        total += c * var**n
    return total


def assert_matches_sympy(f):
    want = rs_series_reversion(to_sympy(f, X), X, f.order, T)
    assert to_sympy(f.revert(), T) == want


@settings(max_examples=50, deadline=None)
@given(nonzero_q_values(9, 6), st.lists(q_values(9, 6), max_size=14))
def test_revert_over_q_matches_sympy(slope, tail):
    assert_matches_sympy(from_coeffs(QQ, [0, slope] + tail, 16))


@settings(max_examples=25, deadline=None)
@given(nonzero_q_values(9, 6),
       st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=8))
def test_revert_over_qy_matches_sympy(slope, tail):
    coeffs = [QY.zero(), QY.coerce(slope)] + [QY.poly(c) for c in tail]
    assert_matches_sympy(from_coeffs(QY, coeffs, 10))


def test_dual_fibonacci_reversion_matches_sympy():
    # x/(1 - yx - x^2): the sparse-1/g input behind the dual Fibonacci polynomials
    order = 16
    fib = [QY.one(), QY.poly([0, 1])]
    while len(fib) < order - 1:
        fib.append(fib[-1] * QY.poly([0, 1]) + fib[-2])
    assert_matches_sympy(from_coeffs(QY, [0] + fib, order))


def assert_compose_matches_sympy(f, g):
    want = rs_subs(to_sympy(f, T), {T: to_sympy(g, X)}, X, min(f.order, g.order))
    assert to_sympy(f.compose(g), X) == want


@settings(max_examples=50, deadline=None)
@given(st.lists(q_values(9, 6), min_size=1, max_size=14), st.lists(q_values(9, 6), max_size=13))
def test_compose_over_q_matches_sympy(f, g_tail):
    # the orders differ, so the result is truncated to the smaller one
    assert_compose_matches_sympy(from_coeffs(QQ, f), from_coeffs(QQ, [0] + g_tail))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), max_size=3), min_size=1, max_size=8),
       st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=7))
def test_compose_over_qy_matches_sympy(f, g_tail):
    assert_compose_matches_sympy(
        from_coeffs(QY, [QY.poly(c) for c in f]),
        from_coeffs(QY, [QY.zero()] + [QY.poly(c) for c in g_tail]),
    )


squares = st.sampled_from([Fraction(1), Fraction(4), Fraction(9, 4), Fraction(1, 25)])


@settings(max_examples=50, deadline=None)
@given(squares, st.lists(q_values(9, 6), max_size=15))
def test_sqrt_over_q_matches_sympy(c0, tail):
    f = from_coeffs(QQ, [c0] + tail, 16)
    assert to_sympy(f.sqrt(), X) == rs_nth_root(to_sympy(f, X), 2, X, f.order)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 7).flatmap(lambda m: st.lists(
    q_values(5, 6),
    min_size=2 * m + 1, max_size=2 * m + 1)))
def test_hankel_determinants_match_sympy(seq):
    m = (len(seq) - 1) // 2
    terms = [Rational(q.numerator, q.denominator) for q in seq]
    want = [
        Matrix(k + 1, k + 1, lambda i, j: terms[i + j]).det(method="berkowitz")
        for k in range(m + 1)
    ]
    got = hankel_transform(seq, m)
    assert [Rational(h.numerator, h.denominator) for h in got] == want


SY, SA, SB = symbols("y a b")


def to_sympy_poly(p):
    """A Q[y] or Q[a][b] polynomial as a ``sympy.Poly`` over sympy's Q."""
    def scalar(q):
        return Rational(q.numerator, q.denominator)

    if p.ring == QY:
        terms = {(k,): scalar(c) for k, c in enumerate(p.coeffs)}
        return Poly.from_dict(terms, SY, domain="QQ")
    terms = {(i, k): scalar(ci) for k, c in enumerate(p.coeffs) for i, ci in enumerate(c.coeffs)}
    return Poly.from_dict(terms, SA, SB, domain="QQ")


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.tuples(q_polys(QY, 12, 9, 8), q_polys(QY, 12, 9, 8)),
                 st.tuples(q_polys(QAB, 5, 9, 8), q_polys(QAB, 5, 9, 8))))
def test_products_match_sympy(pq):
    p, q = pq
    assert to_sympy_poly(p * q) == to_sympy_poly(p) * to_sympy_poly(q)
    assert to_sympy_poly(p + q) == to_sympy_poly(p) + to_sympy_poly(q)
