"""Differential test of series reversion against sympy.

``PowerSeries.revert`` uses Lagrange inversion, so the coefficient-extraction
checks elsewhere only restate its own formula.  sympy's
``rs_series_reversion`` solves f(r) = t by fixed-point iteration, which shares
neither the algorithm nor the arithmetic.  sympy is a test-only dependency.
"""

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")
from sympy.polys.domains import QQ as SYMPY_QQ  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402
from sympy.polys.ring_series import rs_series_reversion  # noqa: E402

from riordan.exact import QQ, QY, Polynomial  # noqa: E402
from riordan.series import from_coeffs  # noqa: E402

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


nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


@settings(max_examples=50, deadline=None)
@given(nonzero_rationals,
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=14))
def test_revert_over_q_matches_sympy(slope, tail):
    assert_matches_sympy(from_coeffs(QQ, [0, slope] + tail, 16))


@settings(max_examples=25, deadline=None)
@given(nonzero_rationals,
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
