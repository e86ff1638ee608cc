"""Identity checks behind the CLI ``verify`` command.

``CHECKS`` is one table of rows ``(suite, name, detail, left, right)``.
``left`` and ``right`` are two zero-argument routes to the same exact values,
and a row passes when the sequences they return are equal term by term; its
report line then shows ``detail``, the bounds it checked.  The two routes of
a row share no code under test beyond the allow-list that
``tests/test_verify.py`` traces, except in the ``involution`` rows, which
invert twice and are self-checks by nature.

Two long-standing formula/matrix mismatches are surfaced as DISCREPANCY notes
rather than patched: the matrix values are ground truth throughout.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import accumulate
from operator import mul

from . import families, paths
from ._value import Value
from .exact import (QQ, QY, QAB, binomial, catalan, fibonacci, jacobsthal, rational,
                    without_digit_limit)
from .hankel import hankel_transform
from .series import from_coeffs, generator_series, x_series
from .triangles import build_exponential, build_ordinary, invert_triangle, row_sums


class Check(Value):
    __slots__ = ("name", "ok", "detail")


class SuiteReport(Value):
    __slots__ = ("suite", "checks", "notes")  # checks and notes are tuples


def _compare(name: str, detail: str, got, want) -> Check:
    """The check that ``got`` and ``want`` are equal term by term; on a
    failure its detail names the first difference instead of ``detail``."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return Check(name, False, f"length mismatch: got {len(got)} terms, want {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            g, w = without_digit_limit(str, g), without_digit_limit(str, w)
            return Check(name, False, f"first mismatch at index {i}: {g} != {w}")
    return Check(name, True, detail)


# ---------------------------------------------------------------------------
# Routes.  The cached ones are values that several rows or both routes of a
# row use: each is built once per ``run``, which clears them when it returns.

@cache
def _reversion_route() -> tuple:
    """The dual Fibonacci polynomials of indices 0..16 by series reversion."""
    return families.dual_fib_polys_by_reversion(16)


@cache
def _dual_cf_transform(y0: int) -> list:
    """h_0 .. h_9 of the dual Catalan-Fibonacci polynomials 1..19 at y = y0."""
    return hankel_transform(families.dual_cf_values(y0, 19), 9)


@cache
def _triangle(pair):
    """The 16-row ordinary triangle of ``pair(17)``."""
    return build_ordinary(pair(17), 16)


@cache
def _x_minus_x2():
    x = x_series(QQ, 14)
    return x - x * x


@cache
def _x_root():
    """x(sqrt(1 - 4x^2) - x) below x^14."""
    return families.fundamental_root(1, 1, x_series(QQ, 13)).mul_x()


_SHARED = (_reversion_route, _dual_cf_transform, _triangle, _x_minus_x2, _x_root)


def _matrix(entry, rows: int, cols=lambda n: n + 1) -> list:
    """Rows n < ``rows`` of entry(n, k), for k < cols(n)."""
    return [[entry(n, k) for k in range(cols(n))] for n in range(rows)]


def _fib_formula(gate) -> list:
    """Rows n <= 12 of the paper's formula binom((n+k)/2, k) (1+(-1)^g)/2,
    with the parity gate g = gate(n, k)."""
    return _matrix(lambda n, k: binomial((n + k) // 2, k) * (1 + (-1) ** gate(n, k)) // 2, 13)


def _path_matrix(variant: str, statistic: str, rows: int = 13, cols=lambda n: n + 1) -> list:
    return _matrix(partial(paths.count_paths, variant, statistic), rows, cols)


def _up_cols(n: int) -> int:
    return n // 2 + 2


def _ab_root(order: int):
    """sqrt(1 - 4bx^2) - ax over Q[a][b], below x^order."""
    a, b = (generator_series(QAB, v, order) for v in "ab")
    return families.fundamental_root(a, b, x_series(QAB, order))


def _reverted(f) -> list:
    """[x^(n+1)] Rev(f) for n <= 12."""
    rev = f.revert()
    return [rev.coeffs[n + 1] for n in range(13)]


def _extracted(f) -> list:
    """1/(n+1) [x^n] (x/f)^(n+1) for n <= 12: the coefficients of
    ``_reverted`` by the coefficient-extraction form of Lagrange inversion,
    from one running power of x/f, multiplied by x/f once per n."""
    x_over_f = 1 / f.div_x()
    powers = accumulate([x_over_f] * 13, mul)
    return [rational(power.coeffs[n], n + 1) for n, power in enumerate(powers)]


def _central_row_sums(a: int, b: int) -> list:
    """Row sums n < 16 of the central pair's triangle at (a, b), in integers:
    its entry (n, k) is a^k b^((n-k)/2) times the a111959 entry, 0 for odd n-k."""
    return [sum(a**k * b ** ((n - k) // 2) * families.a111959_coeff(n, k)
                for k in range(n % 2, n + 1, 2))
            for n in range(16)]


# ---------------------------------------------------------------------------
# The table.

def _duality_route(label: str, route) -> tuple:
    return ("duality", f"route agreement: series reversion vs {label}", "indices 0..16",
            partial(route, 16), _reversion_route)


def _extraction_row(label: str, f) -> tuple:
    return ("lagrange", f"coefficient extraction for {label}", "n = 0..12",
            lambda: _reverted(f()), lambda: _extracted(f()))


def _hankel_rows(y0: int, printed: list, num: list, den: list) -> tuple:
    transform = partial(_dual_cf_transform, y0)
    return (
        ("hankel", f"Hankel transform of duals at y={y0}", "first 6 values",
         lambda: transform()[:6], lambda: printed),
        ("hankel", f"transform at y={y0} matches its rational generating function", "10 terms",
         transform, lambda: (from_coeffs(QQ, num, 10) / from_coeffs(QQ, den, 10)).coeffs),
    )


def _reciprocal_row(a: int, b: int) -> tuple:
    # closed-form row sums in integers against the series of the reciprocal
    return ("fundamental", f"row sums expand the reciprocal at (a,b)=({a},{b})", "order 16",
            partial(_central_row_sums, a, b),
            lambda: (1 / families.fundamental_root(a, b, x_series(QQ, 16))).coeffs)


def _involution_row(label: str, pair) -> tuple:
    return ("involution", f"double inversion restores {label}", "16 rows",
            lambda: invert_triangle(invert_triangle(_triangle(pair))).rows,
            lambda: _triangle(pair).rows)


CHECKS = (
    _duality_route("exponential array", families.dual_fib_polys_by_exponential),
    _duality_route("odd-power rows", families.dual_fib_polys_by_laurent),
    _duality_route("even-power rows", families.dual_fib_polys_by_even_form),
    # family(0) = 0, then the dual-fib rows as indices 1..16
    ("duality", "closed-form accessor matches reversion route", "indices 0..16",
     lambda: (QY.zero(), *families.TRIANGLES["dual-fib"](16).row_polynomials()),
     _reversion_route),
    # the paper's formula gates its parity on n, which kills every odd row;
    # the triangle needs the gate on n-k
    ("duality", "discrepancy documented: row-formula parity gate",
     "odd rows vanish under the n-parity gate; gate on n-k reproduces the triangle",
     lambda: _matrix(families.fib_coeff, 13)
     + [any(row) for row in _fib_formula(lambda n, k: n)[1::2]],
     lambda: _fib_formula(lambda n, k: n - k) + [False] * 6),
    # each matrix row has the diagonal entry (-1)^n, so the sign flips at odd n
    ("duality", "discrepancy documented: hypergeometric odd-index sign",
     "2F1 form equals (-1)^n times the matrix row polynomial",
     lambda: [families.tilde_poly_hypergeom(n) for n in range(1, 13)],
     lambda: [(-1) ** n * p
              for n, p in enumerate(families.TRIANGLES["tilde"](13).row_polynomials())][1:]),
    ("lagrange", "reversion coefficients equal the bivariate closed form", "n = 0..12 over Q[a][b]",
     lambda: _reverted(_ab_root(13).mul_x()),
     lambda: [families.cf_coeffs(n) for n in range(13)]),
    _extraction_row("x - x^2", _x_minus_x2),
    _extraction_row("x(sqrt(1-4x^2) - x)", _x_root),
    *_hankel_rows(1, [1, -3, 14, -32, 96, -208], [1, -1, 4], [1, 2, -4, -8]),  # (1-2x)(1+2x)^2
    *_hankel_rows(-1, [1, 1, -10, -16, 64, 112], [1, 1, -2, -8], [1, 0, 8, 0, 16]),  # (1+4x^2)^2
    ("paths", "level steps count |dual Fibonacci coefficients|", "n <= 12",
     lambda: _path_matrix("motzkin", "level_steps"),
     lambda: _matrix(lambda n, k: abs(families.dual_fib_coeff(n, k)), 13)),
    ("paths", "up steps count binom(n,2k)*C_k", "n <= 12",
     lambda: _path_matrix("motzkin", "up_steps", cols=_up_cols),
     lambda: _matrix(lambda n, k: binomial(n, 2 * k) * catalan(k), 13, _up_cols)),
    ("paths", "up-plus-level steps count |inverted-pair coefficients|", "n <= 12",
     lambda: _path_matrix("motzkin", "up_plus_level_steps"),
     lambda: _matrix(lambda n, k: abs(families.tilde_coeff(n, k)), 13)),
    ("paths", "grand-path level steps count the exponential-array entries", "n <= 12",
     lambda: _path_matrix("grand_motzkin", "level_steps"),
     lambda: [[abs(e) for e in row]
              for row in build_exponential(families.pair_exp_j0(13), 13).rows]),
    ("paths", "square/domino tilings count the Fibonacci coefficients", "n <= 14",
     lambda: _matrix(paths.count_tilings, 15), lambda: _matrix(families.fib_coeff, 15)),
    ("paths", "row sums give the Motzkin numbers", "n <= 6",
     lambda: [sum(row) for row in _path_matrix("motzkin", "level_steps", rows=7)],
     lambda: [1, 1, 2, 4, 9, 21, 51]),
    _reciprocal_row(1, 1),
    _reciprocal_row(1, 2),
    _reciprocal_row(2, 1),
    ("fundamental", "bivariate reciprocal polynomials", "7 terms over Q[a][b]",
     lambda: [str(c) for c in (1 / _ab_root(8)).coeffs[:7]],
     lambda: ["1", "a", "2*b+a^2", "4*a*b+a^3", "6*b^2+6*a^2*b+a^4", "16*a*b^2+8*a^3*b+a^5",
              "20*b^3+30*a^2*b^2+10*a^4*b+a^6"]),
    ("fundamental", "reciprocal polynomials at a=1, b=y", "7 terms",
     lambda: [str(p) for p in families.reciprocal_polys(7)],
     lambda: ["1", "1", "2*y+1", "4*y+1", "6*y^2+6*y+1", "16*y^2+8*y+1", "20*y^3+30*y^2+10*y+1"]),
    ("fundamental", "row sums at b=1 are C_n * F_(n+1)", "n <= 12, F by recurrence",
     lambda: row_sums(families.cf_matrix(1, 13)),
     lambda: [catalan(n) * fibonacci(n + 1) for n in range(13)]),
    ("fundamental", "row sums at b=2 are C_n * J_(n+1)", "n <= 12, J by recurrence",
     lambda: row_sums(families.cf_matrix(2, 13)),
     lambda: [catalan(n) * jacobsthal(n + 1) for n in range(13)]),
    _involution_row("Fibonacci coefficient triangle", families.pair_fib),
    _involution_row("(1, x+x^2) triangle", families.pair_x_plus_x2),
    _involution_row("central coefficient triangle", families.pair_a111959),
)

_NOTES = {
    "duality": (
        "DISCREPANCY: the closed row formula binom((n+k)/2,k)*(1+(-1)^n)/2 "
        "zeroes every odd row; the printed triangle needs the parity gate on "
        "n-k, i.e. (1+(-1)^(n-k))/2.  The triangle is treated as ground truth.",
        "DISCREPANCY: the closed form y^n*2F1((1-n)/2,-n/2;2;-4/y) matches the "
        "matrix row polynomials only up to a factor (-1)^n: it is sign-flipped "
        "at odd n.  Matrix values are treated as ground truth.",
    ),
}


def _report(suite: str) -> SuiteReport:
    checks = tuple(_compare(name, detail, left(), right())
                   for s, name, detail, left, right in CHECKS if s == suite)
    return SuiteReport(suite, checks, _NOTES.get(suite, ()))


# suite name -> the callable that runs its rows, in table order
_SUITES = {suite: partial(_report, suite) for suite in dict.fromkeys(row[0] for row in CHECKS)}
SUITE_NAMES = tuple(_SUITES)


def run(suite: str) -> list[SuiteReport]:
    """Run one named suite, or all of them."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES + ('all',)}")
    try:
        return [fn() for name, fn in _SUITES.items() if suite in (name, "all")]
    finally:
        for shared in _SHARED:
            shared.cache_clear()
