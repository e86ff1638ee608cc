"""Acceptance gate: every criterion at its stated bound, bit-exact.

Each test prints one ACCEPTANCE PASS/FAIL line (all arithmetic is exact, so
every comparison below is equality, never a tolerance).  A criterion that a
``verify`` suite checks is asserted through that suite's report, by check
name and bound, so each identity is computed in one place.
"""

import re
from contextlib import contextmanager
from fractions import Fraction

import known_values as kv
from riordan import verify
from riordan.exact import QQ, QY
from riordan.families import (
    TRIANGLES,
    cf_matrix,
    pair_a111959,
    pair_exp_j0,
    pair_fib,
    pair_x_plus_x2,
)
from riordan.series import generator_series, x_series
from riordan.triangles import build_exponential, build_from_bgf, build_ordinary, invert_triangle


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


def suite_report(suite):
    (report,) = verify.run(suite)
    return report


def assert_verified(report, bounds):
    """Each check named in ``bounds`` passes in a ``verify`` report, at the
    bound given for it: the last integer in the check's detail."""
    checks = {c.name: c for c in report.checks}
    for name, bound in bounds.items():
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

        # the stretched array, and the coefficient array of the Catalan-scaled
        # family, via the series route
        x = x_series(QY, 8)
        y = generator_series(QY, "y", 8)
        stretched = build_from_bgf(1 / (1 - x - y * x * x), 6)
        assert as_ints(stretched) == kv.A011973_TRIANGLE
        assert as_ints(invert_triangle(stretched)) == kv.TILDETILDE_TRIANGLE

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
            suite_report("duality"),
            dict.fromkeys(
                [
                    "route agreement: series reversion vs exponential array",
                    "route agreement: series reversion vs odd-power rows",
                    "route agreement: series reversion vs even-power rows",
                    "closed-form accessor matches reversion route",
                ],
                16,
            ),
        )


def test_lagrange_proposition():
    with criterion("reversion coefficients over Q[a][b] equal C_n*sum binom(n-i,i)a^(n-2i)b^i, n <= 12"):
        assert_verified(
            suite_report("lagrange"),
            {
                "reversion coefficients equal the bivariate closed form": 12,
                "coefficient extraction for x - x^2": 12,
                "coefficient extraction for x(sqrt(1-4x^2) - x)": 12,
            },
        )


def test_closed_form_reversion():
    with criterion("closed-form reversion composes to x through order 20 at three rational points"):
        # Rev(x(sqrt(1-4bx^2)-ax)) = sqrt(1-2ax-sqrt(1-4ax-16bx^2)) / sqrt(2(a^2+4b));
        # the numerator has valuation 1, so the root is taken after shifting x^2 out
        order = 21  # coefficients of x^0..x^20
        for a0, b0 in ((1, 2), (2, 0), (0, 1)):
            x = x_series(QQ, order + 2)  # headroom for the two shifts
            disc = 2 * (a0 * a0 + 4 * b0)  # a^2+4b is a perfect square here
            f = x * ((1 - 4 * b0 * x * x).sqrt() - a0 * x)
            inner = 1 - 2 * a0 * x - (1 - 4 * a0 * x - 16 * b0 * x * x).sqrt()
            closed = (inner.div_x().div_x() / disc).sqrt().mul_x().truncate(order)
            assert closed == f.revert().truncate(order)
            assert f.compose(closed) == x_series(QQ, order)
            assert closed.compose(f) == x_series(QQ, order)


def test_hankel_transforms():
    with criterion("Hankel transforms reproduce both printed sequences and match their rational GFs to 10 terms"):
        assert_verified(
            suite_report("hankel"),
            {
                "Hankel transform of duals at y=1": 6,
                "transform at y=1 matches its rational generating function": 10,
                "Hankel transform of duals at y=-1": 6,
                "transform at y=-1 matches its rational generating function": 10,
            },
        )


def test_row_sums():
    with criterion("row sums equal C_n*F_(n+1) at b=1 and C_n*J_(n+1) at b=2 for n <= 12"):
        assert_verified(
            suite_report("fundamental"),
            {
                "row sums at b=1 are C_n * F_(n+1)": 12,
                "row sums at b=2 are C_n * J_(n+1)": 12,
            },
        )


def test_fundamental_theorem():
    with criterion("central-pair row sums expand the reciprocal GF to order 16; reciprocal polynomials reproduced"):
        assert_verified(
            suite_report("fundamental"),
            {
                "row sums expand the reciprocal at (a,b)=(1,1)": 16,
                "row sums expand the reciprocal at (a,b)=(1,2)": 16,
                "row sums expand the reciprocal at (a,b)=(2,1)": 16,
                "bivariate reciprocal polynomials": 7,
                "reciprocal polynomials at a=1, b=y": 7,
            },
        )


def test_path_oracles():
    with criterion("exhaustive path/tiling enumeration matches every closed form at the stated bounds"):
        assert_verified(
            suite_report("paths"),
            {
                "level steps count |dual Fibonacci coefficients|": 12,
                "up steps count binom(n,2k)*C_k": 12,
                "up-plus-level steps count |inverted-pair coefficients|": 12,
                "grand-path level steps count the exponential-array entries": 12,
                "square/domino tilings count the Fibonacci coefficients": 14,
                "row sums give the Motzkin numbers": 6,
            },
        )


def test_involution():
    with criterion("double inversion restores all three invertible triangles at 16 rows"):
        assert_verified(
            suite_report("involution"),
            dict.fromkeys(
                [
                    "double inversion restores Fibonacci coefficient triangle",
                    "double inversion restores (1, x+x^2) triangle",
                    "double inversion restores central coefficient triangle",
                ],
                16,
            ),
        )


def test_documented_discrepancies():
    with criterion("verify report flags the two formula/matrix discrepancies without hiding them"):
        report = suite_report("duality")
        flags = [n for n in report.notes if n.startswith("DISCREPANCY")]
        assert len(flags) == 2
        assert any("parity gate" in n or "(1+(-1)^(n-k))/2" in n for n in flags)
        assert any("2F1" in n for n in flags)
        # the backing checks pass: matrix values are the ground truth
        backing = [c for c in report.checks if c.name.startswith("discrepancy documented")]
        assert len(backing) == 2 and all(c.ok for c in backing)
