"""Named polynomial families and matrices: closed-form coefficients, the
generalized central pairs, and the several equivalent routes to the dual
Fibonacci polynomials.

A family's polynomials are the row polynomials of its ``TRIANGLES`` entry
(row 0 is the constant 1), of ``cf_matrix(1, rows)`` for the Catalan-scaled
family, or the coefficients of ``reciprocal_polys``.  The dual Catalan-Fibonacci
polynomials are Catalan monomials, which ``dual_cf_values`` evaluates.
The four routes to the dual Fibonacci polynomials index from the zero
polynomial instead: family(0) = 0, so family(n) is row n - 1.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from .exact import (QQ, QY, QA, QAB, ExactRational, Polynomial, binomial, catalan, exact_div,
                    rational)
from .series import PowerSeries, from_coeffs, x_series, generator_series
from .triangles import RiordanPair, Triangle, build_exponential


def _check_indices(n: int, k: int) -> None:
    if n < 0 or k < 0 or k > n:
        raise IndexError(f"triangle index ({n}, {k}) out of range")


def fib_coeff(n: int, k: int) -> int:
    """Fibonacci coefficient triangle: binomial((n+k)/2, k) when n-k is even.

    The parity gate is on n-k; gating on n alone would zero out the odd rows,
    contradicting the triangle itself (see verify's discrepancy notes).
    """
    _check_indices(n, k)
    if (n - k) % 2:
        return 0
    return binomial((n + k) // 2, k)


def dual_fib_coeff(n: int, k: int) -> int:
    """Dual Fibonacci coefficients binom(n,k) * C_((n-k)/2) * (-1)^((n+k)/2)."""
    _check_indices(n, k)
    if (n - k) % 2:
        return 0
    return binomial(n, k) * catalan((n - k) // 2) * (-1) ** ((n + k) // 2)


def tilde_coeff(n: int, k: int) -> int:
    """Entries (-1)^k/(k+1) binom(n,k) binom(k+1, n-k+1); always integral."""
    _check_indices(n, k)
    return (-1) ** k * exact_div(
        binomial(n, k) * binomial(k + 1, n - k + 1), k + 1
    )


def tildetilde_coeff(n: int, k: int) -> int:
    """Entries binom(n,2k) C_k (-1)^(n-k) of the inverted stretched array,
    zero where 2k > n."""
    _check_indices(n, k)
    if 2 * k > n:
        return 0
    return binomial(n, 2 * k) * catalan(k) * (-1) ** (n - k)


def a011973_coeff(n: int, k: int) -> int:
    """Entries binom(n-k, k) of the stretched pair (1/(1-x), x^2/(1-x))."""
    _check_indices(n, k)
    return binomial(n - k, k)


def a111959_coeff(n: int, k: int) -> int:
    """Entries 4^m binom(m + (k-1)/2, m) with n-k = 2m, zero when n-k is odd,
    of the pair (1/sqrt(1-4x^2), x/sqrt(1-4x^2)).

    The generalized binomial is 2^(-m) (k+1)(k+3)...(k+2m-1) / m!.
    """
    _check_indices(n, k)
    if (n - k) % 2:
        return 0
    m = (n - k) // 2
    return exact_div(2**m * math.prod(range(k + 1, k + 2 * m, 2)), math.factorial(m))


def i0_dual_coeff(n: int, k: int) -> int:
    """Entries (-1)^(m+k) binom(n,k) binom(2m,m) with n-k = 2m, zero when n-k
    is odd, of the exponential pair [J_0(2x), -x]."""
    _check_indices(n, k)
    if (n - k) % 2:
        return 0
    m = (n - k) // 2
    return (-1) ** (m + k) * binomial(n, k) * binomial(2 * m, m)


def cf_coeff(n: int, i: int) -> int:
    """Catalan-Fibonacci coefficient C_n binom(n-i, i): the coefficient of
    a^(n-2i) b^i in cf_coeffs(n)."""
    _check_indices(n, i)
    return catalan(n) * binomial(n - i, i)


def _closed_form(entry):
    """Builder of the triangle with entry(n, k) at row n, column k."""
    def build(rows: int) -> Triangle:
        if rows < 0:
            raise ValueError(f"need rows >= 0, got {rows}")
        return Triangle(QQ, [[entry(n, k) for k in range(n + 1)] for n in range(rows)])
    return build


def fundamental_root(a, b, x):
    """sqrt(1 - 4bx^2) - ax, for the series x and scalars or series a, b.

    Its reciprocal generates the row sums of ``pair_central(a, b)`` and ``reciprocal_polys``.
    """
    return (1 - 4 * b * x * x).sqrt() - a * x


def tilde_poly_hypergeom(n: int) -> Polynomial:
    """Terminating Gauss-sum evaluation y^n 2F1((1-n)/2, -n/2; 2; -4/y).

    Multiplying by y^n before summing keeps every term polynomial: the
    coefficient of y^(n-j) is (-4)^j ((1-n)/2)_j (-n/2)_j / ((2)_j j!), which
    is the integer (-1)^j prod_(i<j) (1-n+2i)(2i-n) over (j+1)! j!.  Matches
    the tilde matrix rows at even n and is (-1)^n times them at odd n; the
    matrix values are authoritative (see verify's discrepancy notes).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    coeffs = [0] * (n + 1)
    for j in range(n // 2 + 1):
        num = (-1) ** j * math.prod([(1 - n + 2 * i) * (2 * i - n) for i in range(j)])
        coeffs[n - j] = rational(num, math.factorial(j + 1) * math.factorial(j))
    return QY.poly(coeffs)


def cf_coeffs(n: int) -> Polynomial:
    """C_n sum_i binom(n-i, i) a^(n-2i) b^i over Q[a][b]."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return QAB.poly(
        [QA.poly([0] * (n - 2 * i) + [cf_coeff(n, i)]) for i in range(n // 2 + 1)]
    )


def cf_matrix(b0: ExactRational, n_rows: int) -> Triangle:
    """Catalan-scaled Fibonacci matrix at a fixed b: entry (n,k) is the
    coefficient of a^k in cf_coeffs(n) evaluated at b = b0, which is
    C_n binom(n-i, i) b0^i at k = n - 2i and 0 at k = n - 1, n - 3, ..."""
    b0 = QQ.coerce(b0)
    zero = QQ.zero()

    def entry(n, k):
        i, odd = divmod(n - k, 2)
        return zero if odd else cf_coeff(n, i) * b0**i

    return _closed_form(entry)(n_rows)


def dual_cf_values(y0: ExactRational, n_terms: int) -> list:
    """p_1(y0) .. p_n(y0) of the dual Catalan-Fibonacci polynomials, the
    coefficients of x(sqrt(1-4yx^2) - x) = x - x^2 - 2 sum_(m>=1) C_(m-1) y^m x^(2m+1):
    p_1 = 1, p_2 = -1, p_(2m+1) = -2 C_(m-1) y^m, and every other even p is 0."""
    values = [1, -1]
    for m in range(1, (n_terms - 1) // 2 + 1):
        values += [QQ.coerce(-2 * catalan(m - 1) * y0**m), 0]
    return values[:n_terms]


def reciprocal_polys(n_terms: int) -> list[Polynomial]:
    """Coefficients of 1/(sqrt(1-4yx^2) - x): 1, 1, 2y+1, 4y+1, ..."""
    order = max(n_terms, 2)  # x needs two coefficients
    root = fundamental_root(1, generator_series(QY, "y", order), x_series(QY, order))
    return list((1 / root).truncate(n_terms).coeffs)


# ---------------------------------------------------------------------------
# Riordan pairs for the named triangles.

def pair_fib(order: int) -> RiordanPair:
    """(1/(1-x^2), x/(1-x^2)), the Fibonacci coefficient triangle."""
    x = x_series(QQ, order)
    d = 1 / (1 - x * x)
    return RiordanPair(d, x * d)

def pair_x_plus_x2(order: int) -> RiordanPair:
    """(1, x(1+x)), the binom(k, n-k) triangle."""
    x = x_series(QQ, order)
    return RiordanPair(1 + 0 * x, x * (1 + x))

def pair_central(a: ExactRational, b: ExactRational, order: int) -> RiordanPair:
    """(1/sqrt(1-4bx^2), a*x/sqrt(1-4bx^2)) at rational a, b."""
    x = x_series(QQ, order)
    d = 1 / (1 - 4 * QQ.coerce(b) * x * x).sqrt()
    return RiordanPair(d, QQ.coerce(a) * x * d)

def pair_a111959(order: int) -> RiordanPair:
    """(1/sqrt(1-4x^2), x/sqrt(1-4x^2))."""
    return pair_central(1, 1, order)


def bessel(nu: int, order: int) -> PowerSeries:
    """Series of J_nu(2x)/x^nu: sum (-1)^m x^(2m) / (m! (m+nu)!)."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = [QQ.zero()] * order
    for m in range(0, (order + 1) // 2):
        coeffs[2 * m] = rational((-1) ** m, math.factorial(m) * math.factorial(m + nu))
    return from_coeffs(QQ, coeffs)


def pair_exp_j1(order: int) -> RiordanPair:
    """Exponential pair [J_1(2x)/x, -x]: the dual Fibonacci coefficient array.
    Its row polynomials are an Appell sequence (Appell, Ann. ENS 9, 1880),
    p_n' = -n p_(n-1), as those of every pair [g(x), -x] are.  They are
    real-rooted (tests count n distinct real roots in rows 0..32): J_1(2x)/x
    is entire of order 1 with real zeros (Watson, Bessel Functions, 15.25), so
    in the Laguerre-Polya class, and the Jensen polynomials y^n p_n(-1/y) of
    such a function are real-rooted (Polya and Schur, J. reine angew. Math. 144, 1914)."""
    return RiordanPair(bessel(1, order), -x_series(QQ, order))


def pair_exp_j0(order: int) -> RiordanPair:
    """Exponential pair [J_0(2x), -x]: the inversion of the central triangle.
    Its row polynomials are Appell and real-rooted for the reason ``pair_exp_j1``
    gives, since J_0(2x) is in the Laguerre-Polya class too (Watson, 15.25).
    Tests count n distinct real roots in rows 0..32."""
    return RiordanPair(bessel(0, order), -x_series(QQ, order))


# ---------------------------------------------------------------------------
# The named triangles of the CLI: name -> builder taking the number of rows.
# Every one is over Q with t_(0,0) = 1, so every one can be inverted.  Each is
# built from its closed-form entry; the pair_* builders above are an
# independent route to several of them.

TRIANGLES: dict[str, Callable[[int], Triangle]] = {
    "fib": _closed_form(fib_coeff),
    "dual-fib": _closed_form(dual_fib_coeff),
    "tilde": _closed_form(tilde_coeff),
    "tildetilde": _closed_form(tildetilde_coeff),
    "a011973": _closed_form(a011973_coeff),
    "a111959": _closed_form(a111959_coeff),
    "i0-dual": _closed_form(i0_dual_coeff),
    "cf-coeff": _closed_form(cf_coeff),
}


# ---------------------------------------------------------------------------
# Four independent routes to the dual Fibonacci polynomials.

def _dual_route(route):
    """``route`` run at n_max >= 2, where x has the two coefficients that
    reversion and the exponential array need, and cut to indices 0..n_max."""
    @functools.wraps(route)
    def indices(n_max: int) -> tuple[Polynomial, ...]:
        if n_max < 0:
            raise ValueError(f"need n_max >= 0, got {n_max}")
        return route(max(n_max, 2))[:n_max + 1]
    return indices


@_dual_route
def dual_fib_polys_by_reversion(n_max: int) -> tuple[Polynomial, ...]:
    """Indices 0..n_max via series reversion of x/(1 - yx - x^2) in x."""
    order = n_max + 1
    x = x_series(QY, order)
    y = generator_series(QY, "y", order)
    F = x / (1 - y * x - x * x)
    return F.revert().coeffs


@_dual_route
def dual_fib_polys_by_exponential(n_max: int) -> tuple[Polynomial, ...]:
    """Indices 0..n_max via the exponential array [J_1(2x)/x, -x]."""
    T = build_exponential(pair_exp_j1(n_max), n_max)
    return (QY.zero(),) + tuple(T.row_polynomials())


@_dual_route
def dual_fib_polys_by_laurent(n_max: int) -> tuple[Polynomial, ...]:
    """Indices 0..n_max via sum_k t~_{n,k} y^(2k-n), normalized through y^n.

    The sum is a Laurent polynomial a priori; multiplying by y^n makes it
    polynomial, and the result is checked to be divisible by y^n before
    shifting back down.
    """
    out = [QY.zero()]
    for n in range(0, n_max):
        lifted = [QQ.zero()] * (2 * n + 1)
        for k in range(n + 1):
            lifted[2 * k] = tilde_coeff(n, k)
        if any(lifted[:n]):
            raise ValueError(f"{QY.poly(lifted)} is not divisible by y^{n}")
        out.append(QY.poly(lifted[n:]))
    return tuple(out)


@_dual_route
def dual_fib_polys_by_even_form(n_max: int) -> tuple[Polynomial, ...]:
    """Indices 0..n_max via sum_k t~~_{n,k} y^(n-2k)."""
    out = [QY.zero()]
    for n in range(0, n_max):
        coeffs = [QQ.zero()] * (n + 1)
        for k in range(n // 2 + 1):
            coeffs[n - 2 * k] = tildetilde_coeff(n, k)
        out.append(QY.poly(coeffs))
    return tuple(out)
