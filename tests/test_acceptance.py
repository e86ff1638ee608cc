"""Acceptance gate: every criterion at its stated bound, bit-exact.

Each test prints one ACCEPTANCE PASS/FAIL line (all arithmetic is exact, so
every comparison below is equality, never a tolerance).
"""

import re
from contextlib import contextmanager
from fractions import Fraction

import known_values as kv
from riordan import verify
from riordan.exact import QQ, QY, binomial, catalan
from riordan.families import (
    TRIANGLES,
    cf_matrix,
    pair_a011973,
    pair_a111959,
    pair_central,
    pair_exp_j0,
    pair_fib,
    pair_x_plus_x2,
    reciprocal_polys,
)
from riordan.hankel import hankel_transform
from riordan.paths import PathClass, count_paths, count_tilings
from riordan.series import from_coeffs, generator_series, x_series
from riordan.triangles import (
    build_exponential,
    build_from_bgf,
    build_ordinary,
    invert_triangle,
    row_sums,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def as_ints(T):
    return [[int(e) for e in row] for row in T.rows]


def assert_verified(report, names, bound):
    """Each named check of a ``verify`` report passes, at the bound its
    detail states (the last integer in the detail)."""
    checks = {c.name: c for c in report.checks}
    for name in names:
        check = checks[name]
        assert check.ok, f"{name}: {check.detail}"
        assert int(re.findall(r"\d+", check.detail)[-1]) == bound, check.detail


def test_printed_matrix_reproduction():
    with criterion("printed-matrix reproduction (13 displays, entry for entry)"):
        fib = build_ordinary(pair_fib(8), 6)
        assert as_ints(fib) == kv.FIB_TRIANGLE
        assert as_ints(invert_triangle(fib)) == kv.DUAL_FIB_TRIANGLE

        second = build_ordinary(pair_x_plus_x2(8), 6)
        assert as_ints(second) == kv.X_PLUS_X2_TRIANGLE
        assert as_ints(invert_triangle(second)) == kv.TILDE_TRIANGLE

        stretched = build_ordinary(pair_a011973(8), 6)
        assert as_ints(stretched) == kv.A011973_TRIANGLE
        assert as_ints(invert_triangle(stretched)) == kv.TILDETILDE_TRIANGLE

        # coefficient array of the Catalan-scaled family, via the series route
        x = x_series(QY, 8)
        y = generator_series(QY, "y", 8)
        reverted = (x * ((1 - 4 * y * x * x).sqrt() - x)).revert().div_x()
        cf_coeff = build_from_bgf(reverted, 6)
        assert as_ints(cf_coeff) == kv.CF_COEFF_TRIANGLE
        assert cf_coeff == TRIANGLES["cf-coeff"](6)
        assert as_ints(invert_triangle(cf_coeff)) == kv.CF_COEFF_INVERSION

        assert as_ints(cf_matrix(Fraction(1), 6)) == kv.CF_MATRIX_B1
        assert as_ints(cf_matrix(Fraction(2), 6)) == kv.CF_MATRIX_B2
        assert as_ints(invert_triangle(cf_matrix(Fraction(1), 6))) == kv.CF_MATRIX_B1_INVERSION

        central = build_ordinary(pair_a111959(8), 6)
        assert as_ints(central) == kv.A111959_TRIANGLE
        assert as_ints(build_exponential(pair_exp_j0(8), 6)) == kv.I0_DUAL_TRIANGLE


def test_duality_routes():
    with criterion("duality routes (a)-(d) agree identically for n <= 16"):
        assert_verified(
            verify.duality_suite(),
            [
                "route agreement: series reversion vs exponential array",
                "route agreement: series reversion vs odd-power rows",
                "route agreement: series reversion vs even-power rows",
                "closed-form accessor matches reversion route",
            ],
            bound=16,
        )


def test_lagrange_proposition():
    with criterion("reversion coefficients over Q[a][b] equal C_n*sum binom(n-i,i)a^(n-2i)b^i, n <= 12"):
        assert_verified(
            verify.lagrange_suite(),
            ["reversion coefficients equal the bivariate closed form"],
            bound=12,
        )


def test_closed_form_reversion():
    with criterion("closed-form reversion composes to x through order 20 at three rational points"):
        order = 21  # coefficients of x^0..x^20
        for a0, b0 in ((1, 2), (2, 0), (0, 1)):
            x = x_series(QQ, order + 2)  # headroom for the two shifts
            disc = 2 * (a0 * a0 + 4 * b0)  # a^2+4b is a perfect square here
            f = x * ((1 - 4 * b0 * x * x).sqrt() - a0 * x)
            inner = 1 - 2 * a0 * x - (1 - 4 * a0 * x - 16 * b0 * x * x).sqrt()
            closed = (inner.div_x().div_x() / disc).sqrt().mul_x().truncate(order)
            assert f.compose(closed) == x_series(QQ, order)
            assert closed.compose(f) == x_series(QQ, order)


def test_hankel_transforms():
    with criterion("Hankel transforms reproduce both printed sequences and match their rational GFs to 10 terms"):
        x = x_series(QY, 20)
        y = generator_series(QY, "y", 20)
        dual_gf = x * ((1 - 4 * y * x * x).sqrt() - x)
        for y0, printed, num, den in (
            (Fraction(1), kv.HANKEL_AT_1, kv.HANKEL_AT_1_NUM, kv.HANKEL_AT_1_DEN),
            (
                Fraction(-1),
                kv.HANKEL_AT_MINUS_1,
                kv.HANKEL_AT_MINUS_1_NUM,
                kv.HANKEL_AT_MINUS_1_DEN,
            ),
        ):
            seq = [dual_gf[n + 1](y0) for n in range(19)]
            transform = hankel_transform(seq, 9)
            assert transform[:6] == printed[:6]
            assert transform == list((from_coeffs(QQ, num, 10) / from_coeffs(QQ, den, 10)).coeffs)


def test_row_sums():
    with criterion("row sums equal C_n*F_(n+1) at b=1 and C_n*J_(n+1) at b=2 for n <= 12"):
        # recurrences unrolled here, independent of the library helpers
        fib = [0, 1]
        jac = [0, 1]
        while len(fib) < 15:
            fib.append(fib[-1] + fib[-2])
            jac.append(jac[-1] + 2 * jac[-2])
        n_max = 12
        assert row_sums(cf_matrix(Fraction(1), n_max + 1)) == [
            catalan(n) * fib[n + 1] for n in range(n_max + 1)
        ]
        assert row_sums(cf_matrix(Fraction(2), n_max + 1)) == [
            catalan(n) * jac[n + 1] for n in range(n_max + 1)
        ]


def test_fundamental_theorem():
    with criterion("central-pair row sums expand the reciprocal GF to order 16; reciprocal polynomials reproduced"):
        order = 16
        for a0, b0 in ((1, 1), (1, 2), (2, 1)):
            T = build_ordinary(pair_central(a0, b0, order), order)
            x = x_series(QQ, order)
            direct = 1 / ((1 - 4 * b0 * x * x).sqrt() - a0 * x)
            assert row_sums(T) == list(direct.coeffs)
        polys = reciprocal_polys(7)
        assert [p == QY.poly(c) for p, c in zip(polys, kv.RECIPROCAL_POLY_COEFFS)] == [True] * 7


def test_path_oracles():
    with criterion("exhaustive path/tiling enumeration matches every closed form at the stated bounds"):
        n_max = 12
        from riordan.families import dual_fib_coeff, fib_coeff, tilde_coeff

        level = PathClass("motzkin", "level_steps")
        up = PathClass("motzkin", "up_steps")
        upl = PathClass("motzkin", "up_plus_level_steps")
        grand = PathClass("grand_motzkin", "level_steps")
        grand_T = build_exponential(pair_exp_j0(n_max + 1), n_max + 1)
        for n in range(n_max + 1):
            for k in range(n + 1):
                assert count_paths(level, n, k) == abs(dual_fib_coeff(n, k))
                assert count_paths(up, n, k) == binomial(n, 2 * k) * catalan(k)
                assert count_paths(upl, n, k) == abs(tilde_coeff(n, k))
                assert count_paths(grand, n, k) == abs(grand_T.entry(n, k))
        for n in range(15):
            for k in range(n + 1):
                assert count_tilings(n, k) == fib_coeff(n, k)


def test_involution():
    with criterion("double inversion restores all three invertible triangles at 16 rows"):
        assert_verified(
            verify.involution_suite(),
            [
                "double inversion restores Fibonacci coefficient triangle",
                "double inversion restores (1, x+x^2) triangle",
                "double inversion restores central coefficient triangle",
            ],
            bound=16,
        )


def test_documented_discrepancies():
    with criterion("verify report flags the two formula/matrix discrepancies without hiding them"):
        report = verify.duality_suite()
        flags = [n for n in report.notes if n.startswith("DISCREPANCY")]
        assert len(flags) == 2
        assert any("parity gate" in n or "(1+(-1)^(n-k))/2" in n for n in flags)
        assert any("2F1" in n for n in flags)
        # the backing checks pass: matrix values are the ground truth
        backing = [c for c in report.checks if c.name.startswith("discrepancy documented")]
        assert len(backing) == 2 and all(c.ok for c in backing)
