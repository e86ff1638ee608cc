"""Polynomial families: closed forms, scaling, the equivalent dual routes."""

from fractions import Fraction

import pytest

import known_values as kv
from riordan.exact import QA, QAB, QQ, QY, binomial, catalan
from riordan.families import (
    TRIANGLES,
    a111959_coeff,
    bessel,
    cf_coeffs,
    cf_matrix,
    dual_cf_values,
    dual_fib_coeff,
    dual_fib_polys_by_even_form,
    dual_fib_polys_by_exponential,
    dual_fib_polys_by_laurent,
    dual_fib_polys_by_reversion,
    fib_coeff,
    pair_a111959,
    pair_central,
    pair_exp_j0,
    reciprocal_polys,
    tilde_coeff,
    tilde_poly_hypergeom,
    tildetilde_coeff,
)
from riordan.gfparse import eval_gf
from riordan.series import generator_series, x_series
from riordan.triangles import (
    build_exponential,
    build_from_bgf,
    build_ordinary,
    invert_triangle,
    row_sums,
)
from test_series import revert_routes


class TestCoefficients:
    def test_fib_coeff(self):
        assert fib_coeff(4, 2) == 3
        assert fib_coeff(5, 3) == 4
        for n in range(12):
            assert fib_coeff(n, n) == 1
        rows = [[fib_coeff(n, k) for k in range(n + 1)] for n in range(6)]
        assert rows == kv.FIB_TRIANGLE

    def test_dual_fib_coeff(self):
        assert dual_fib_coeff(4, 2) == -6
        assert dual_fib_coeff(5, 1) == -10
        for n in range(12):
            assert dual_fib_coeff(n, n) == (-1) ** n
        rows = [[dual_fib_coeff(n, k) for k in range(n + 1)] for n in range(6)]
        assert rows == kv.DUAL_FIB_TRIANGLE

    def test_inversion_of_fib_in_closed_form(self):
        # the inversion of fib at (n, k) is (-1)^k/(n+1) C(n+1,k)
        # (-1)^((n-k)/2) C(n+1-k,(n-k)/2) for even n-k, and 0 for odd n-k
        inverted = invert_triangle(TRIANGLES["fib"](30))
        for n in range(30):
            for k in range(n + 1):
                m, odd = divmod(n - k, 2)
                num = 0 if odd else (-1) ** (k + m) * binomial(n + 1, k) * binomial(n + 1 - k, m)
                entry, remainder = divmod(num, n + 1)
                assert remainder == 0
                assert entry == dual_fib_coeff(n, k) == inverted.rows[n][k]

    def test_tilde_coeff(self):
        assert tilde_coeff(3, 2) == 3
        assert tilde_coeff(4, 3) == -6
        assert tilde_coeff(5, 3) == -10
        rows = [[tilde_coeff(n, k) for k in range(n + 1)] for n in range(6)]
        assert rows == kv.TILDE_TRIANGLE

    def test_tildetilde_coeff(self):
        assert tildetilde_coeff(4, 1) == -6
        assert tildetilde_coeff(5, 2) == -10
        assert tildetilde_coeff(0, 0) == 1
        assert tildetilde_coeff(3, 2) == 0
        rows = [[tildetilde_coeff(n, k) for k in range(n + 1)] for n in range(6)]
        assert rows == kv.TILDETILDE_TRIANGLE

    def test_index_validation(self):
        for fn in (fib_coeff, dual_fib_coeff, tilde_coeff, tildetilde_coeff):
            with pytest.raises(IndexError):
                fn(3, 4)
            with pytest.raises(IndexError):
                fn(-1, 0)


class TestFamilyPolynomials:
    """A family's polynomials are rows: of a TRIANGLES entry, of cf_matrix at
    b = 1, or of the series reciprocal_polys; the dual Catalan-Fibonacci
    polynomials are checked by their values at points."""

    def test_start_at_zero_then_one(self):
        for name in ("fib", "dual-fib", "tilde", "tildetilde"):
            assert TRIANGLES[name](1).row_polynomials() == [1], name
        assert cf_matrix(1, 1).row_polynomials() == [1]
        # the dual routes start at family(0) = 0, the dual-cf values at p_1 = 1
        for route in (dual_fib_polys_by_reversion, dual_fib_polys_by_exponential,
                      dual_fib_polys_by_laurent, dual_fib_polys_by_even_form):
            for n_max, start in ((0, (0,)), (1, (0, 1)), (2, (0, 1, QY.poly([0, -1])))):
                assert route(n_max) == start, (route.__name__, n_max)
        for y0 in (0, 5, Fraction(-2, 3)):
            assert [dual_cf_values(y0, n) for n in range(3)] == [[], [1], [1, -1]]
        assert reciprocal_polys(1) == [1]

    @pytest.mark.parametrize(
        "name,frozen",
        [
            ("fib", kv.FIB_POLYS),
            ("dual-fib", kv.DUAL_FIB_POLYS),
            ("tilde", kv.TILDE_FIB_POLYS),
            ("tildetilde", kv.TILDETILDE_FIB_POLYS),
        ],
    )
    def test_against_frozen_lists(self, name, frozen):
        # the lists start at family(0) = 0, so family(n) is row n - 1
        rows = TRIANGLES[name](len(frozen) - 1).row_polynomials()
        assert [QY.zero(), *rows] == [QY.poly(c) for c in frozen]

    def test_named_examples(self):
        y = QY.generator()
        assert TRIANGLES["fib"](4).row_polynomials()[3] == y ** 3 + 2 * y
        assert TRIANGLES["tilde"](4).row_polynomials()[3] == -(y ** 3) + 3 * y ** 2
        assert TRIANGLES["tildetilde"](5).row_polynomials()[4] == 2 * y ** 2 - 6 * y + 1

    def test_dual_cf_values(self):
        for y0 in (1, -3, Fraction(2, 7)):
            values = dual_cf_values(y0, 9)
            assert values[2] == -2 * y0
            assert values[8] == -10 * y0 ** 4

    def test_cf_scaling_identity(self):
        cf_rows = cf_matrix(1, 13).row_polynomials()
        fib_rows = TRIANGLES["fib"](13).row_polynomials()
        assert cf_rows == [catalan(n) * p for n, p in enumerate(fib_rows)]


class TestTriangleTable:
    @pytest.mark.parametrize("name", list(TRIANGLES))
    def test_every_entry_double_inverts(self, name):
        T = TRIANGLES[name](16)
        assert T.ring == QQ and T.n_rows == 16 and T.rows[0][0] == 1
        assert invert_triangle(invert_triangle(T)) == T

    @pytest.mark.parametrize("name", ["dual-fib", "tilde", "i0-dual"])
    def test_double_inversion_runs_both_reversion_routes(self, name):
        # the reversion of the array has no zero to skip and that of its
        # inversion has one, so the round trip takes both routes of revert
        T = TRIANGLES[name](24)
        back, routes = revert_routes(lambda: invert_triangle(invert_triangle(T)))
        assert back == T
        assert routes == ["powers of u", "Lagrange"]

    @pytest.mark.parametrize("name", list(TRIANGLES))
    def test_negative_rows_is_an_error(self, name):
        assert TRIANGLES[name](0).n_rows == 0
        for rows in (-1, -2):
            with pytest.raises(ValueError, match=f"need rows >= 0, got {rows}"):
                TRIANGLES[name](rows)


def derivative(coeffs) -> list:
    """d/dy of the polynomial with ascending coefficients ``coeffs``."""
    return [k * c for k, c in enumerate(coeffs)][1:]


# The first row n with p_n' != -n p_(n-1), None when rows 1 .. 40 all satisfy it
FIRST_NON_APPELL_ROW = {
    "fib": 1,
    "dual-fib": None,
    "tilde": 2,
    "tildetilde": 1,
    "a011973": 1,
    "a111959": 1,
    "i0-dual": None,
    "cf-coeff": 1,
}


class TestAppellRows:
    """The rows of an exponential array [g(x), -x] form an Appell sequence
    (Appell, Ann. ENS 9, 1880): p_n' = -n p_(n-1).  Those are the two duals;
    the other named arrays fail it at a small row."""

    @pytest.mark.parametrize("name", list(TRIANGLES))
    def test_first_row_that_is_not_appell(self, name):
        rows = TRIANGLES[name](41).rows
        first = next((n for n in range(1, 41)
                      if derivative(rows[n]) != [-n * c for c in rows[n - 1]]), None)
        assert first == FIRST_NON_APPELL_ROW[name]


def sturm_real_roots(coeffs) -> int:
    """The distinct real roots of the polynomial with ascending ``coeffs``, by
    Sturm's theorem: the sign changes of its Sturm chain at -inf less those at
    +inf.  The chain is p, p', then the negated remainders, in Fractions."""
    def remainder(a, b):
        while len(a) >= len(b):
            q = a[0] / b[0]
            a = [u - q * v for u, v in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
            while a and not a[0]:
                del a[0]
        return a

    p = [Fraction(c) for c in reversed(coeffs)]  # descending
    chain = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while chain[-1]:
        chain.append([-c for c in remainder(chain[-2], chain[-1])])
    chain.pop()

    def changes(signs):
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return (changes([(c[0] > 0) != (len(c) % 2 == 0) for c in chain])
            - changes([c[0] > 0 for c in chain]))


class TestRealRoots:
    """Rows 0..32 of the two Appell duals have n distinct real roots: the
    Laguerre-Polya reason in the docstrings of pair_exp_j1 and pair_exp_j0,
    pinned by a Sturm count."""

    @pytest.mark.parametrize("name", ["dual-fib", "i0-dual"])
    def test_row_n_has_n_distinct_real_roots(self, name):
        rows = TRIANGLES[name](33).rows
        assert [sturm_real_roots(row) for row in rows] == list(range(33))

    def test_sturm_count(self):
        # (y^2 + 1)(y - 2)^2 (y + 3) has two distinct real roots, and the
        # fib row 1 + 3y^2 + y^4 none
        assert sturm_real_roots([12, -8, 11, -7, -1, 1]) == 2
        assert sturm_real_roots(TRIANGLES["fib"](5).rows[4]) == 0


def cf_coeff_by_reversion(n_rows):
    """Rows of Rev(x(sqrt(1-4yx^2) - x))/x, the series route to cf-coeff."""
    x = x_series(QY, n_rows + 1)
    y = generator_series(QY, "y", n_rows + 1)
    return build_from_bgf((x * ((1 - 4 * y * x * x).sqrt() - x)).revert().div_x(), n_rows)


def a011973_by_bgf(n_rows):
    """Rows of 1/(1-x-yx^2), the series route to a011973."""
    x = x_series(QY, n_rows)
    y = generator_series(QY, "y", n_rows)
    return build_from_bgf(1 / (1 - x - y * x * x), n_rows)


INDEPENDENT_ROUTES = {
    "a011973": a011973_by_bgf,
    "a111959": lambda n: build_ordinary(pair_a111959(n), n),
    "i0-dual": lambda n: build_exponential(pair_exp_j0(n), n),
    "cf-coeff": cf_coeff_by_reversion,
}


class TestClosedFormTriangles:
    """Each closed-form table entry against a route that does not use it."""

    @pytest.mark.parametrize("name", list(INDEPENDENT_ROUTES))
    def test_equals_independent_route(self, name):
        assert TRIANGLES[name](40) == INDEPENDENT_ROUTES[name](40)

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 1), (3, -2)])
    def test_central_pair_at_a_and_b(self, a, b):
        # the a111959 entries scaled by a^k b^((n-k)/2), zero where n-k is odd
        T = build_ordinary(pair_central(a, b, 16), 16)
        for n, row in enumerate(T.rows):
            assert list(row) == [
                0 if (n - k) % 2 else a**k * b ** ((n - k) // 2) * a111959_coeff(n, k)
                for k in range(n + 1)
            ]


class TestHypergeometric:
    def test_small_values(self):
        y = QY.generator()
        assert tilde_poly_hypergeom(0) == 1
        assert tilde_poly_hypergeom(2) == y ** 2 - y
        # derived by direct terminating-sum evaluation; note the odd-index
        # sign flip against the matrix row (-y^3 + 3y^2)
        assert tilde_poly_hypergeom(3) == y ** 3 - 3 * y ** 2

    def test_sign_relation_to_matrix_rows(self):
        tilde_rows = TRIANGLES["tilde"](16).row_polynomials()
        for n in range(16):
            assert tilde_poly_hypergeom(n) == (-1) ** n * tilde_rows[n]


class TestCfCoeffs:
    def test_printed_values(self):
        a = QAB.coerce(QA.generator())
        b = QAB.generator()
        assert cf_coeffs(0) == 1
        assert cf_coeffs(4) == 14 * (a ** 4 + 3 * a ** 2 * b + b ** 2)
        assert cf_coeffs(5) == 42 * a * (a ** 4 + 4 * a ** 2 * b + 3 * b ** 2)

    def test_quadratic_branch_closed_forms(self):
        # reversion against the u(0)=0 branch of the defining quadratic,
        # solved independently by hand for each row generating function
        order = 14
        x = x_series(QY, order + 1)
        y = generator_series(QY, "y", order + 1)
        F = x / (1 - y * x - x * x)
        # x*u^2 + (1+yx)*u - x = 0
        branch = ((1 + 2 * y * x + (y * y + 4) * x * x).sqrt() - 1 - y * x).div_x() / 2
        assert branch == F.revert().truncate(order)

        for y0 in (Fraction(1), Fraction(3), Fraction(-2), Fraction(1, 2)):
            xq = x_series(QQ, order + 2)
            # yx*u^2 + (1+yx)*u - x = 0, from u/(1-yu-yu^2) = x
            G = xq / (1 - y0 * xq - y0 * xq * xq)
            num = (1 + 2 * y0 * xq + y0 * (y0 + 4) * xq * xq).sqrt() - y0 * xq - 1
            assert num.div_x().div_x() / (2 * y0) == G.revert().div_x().truncate(order)

        for y0 in (Fraction(1), Fraction(5), Fraction(-1, 3)):
            xq = x_series(QQ, order + 2)
            # yx*u^2 + (1+x)*u - x = 0, from u/(1-u-yu^2) = x
            H = xq / (1 - xq - y0 * xq * xq)
            num = (1 + 2 * xq + (1 + 4 * y0) * xq * xq).sqrt() - xq - 1
            assert num.div_x().div_x() / (2 * y0) == H.revert().div_x().truncate(order)

    def test_matrix_vector_factorizations(self):
        # both printed factorizations reproduce the bivariate polynomials
        a = QAB.coerce(QA.generator())
        b = QAB.generator()
        for n in range(6):
            cn = catalan(n)
            by_b_powers = QAB.zero()
            for i in range(n // 2 + 1):
                by_b_powers = by_b_powers + (cn * binomial(n - i, i) * a ** (n - 2 * i)) * b ** i
            by_a_powers = QAB.zero()
            for k in range(n + 1):
                if (n - k) % 2:
                    continue
                i = (n - k) // 2
                by_a_powers = by_a_powers + (cn * binomial(n - i, i) * b ** i) * a ** k
            assert by_b_powers == cf_coeffs(n)
            assert by_a_powers == cf_coeffs(n)


class TestCfMatrices:
    def test_b0_diagonal(self):
        T = cf_matrix(Fraction(0), 7)
        for n in range(7):
            for k in range(n + 1):
                expected = catalan(n) if k == n else 0
                assert T.rows[n][k] == expected

    def test_alternating_zero_pattern(self):
        T = cf_matrix(Fraction(3), 9)
        for n in range(9):
            for k in range(n + 1):
                if (n - k) % 2:
                    assert T.rows[n][k] == 0

    def test_inversion_first_column(self):
        T = invert_triangle(cf_matrix(Fraction(1), 9))
        assert [row[0] for row in T.rows] == [1, 0, -2, 0, -2, 0, -4, 0, -10]

    @pytest.mark.parametrize("b", ["1", "2", "1/3", "-5/2", "0"])
    def test_inversion_is_the_closed_form_bgf(self, b):
        # the inverted array is read off sqrt(1-4bx^2) - yx: a square root, no reversion
        closed = build_from_bgf(eval_gf(f"sqrt(1-4*({b})*x^2)-y*x", 48), 48)
        assert invert_triangle(cf_matrix(Fraction(b), 48)) == closed

    def test_zero_rows(self):
        # the zero-size contract of the named cf-coeff triangle it evaluates
        assert cf_matrix(Fraction(1), 0) == TRIANGLES["cf-coeff"](0)
        assert cf_matrix(Fraction(1), 0).n_rows == 0
        for rows in (-1, -2):
            with pytest.raises(ValueError, match=f"need rows >= 0, got {rows}"):
                cf_matrix(Fraction(1), rows)

    @pytest.mark.parametrize("b0", [2, 1, -1, Fraction(1, 2), Fraction(-3, 7), 0])
    def test_closed_form_equals_evaluated_cf_coeffs(self, b0):
        T = cf_matrix(Fraction(b0), 24)
        for k, row in enumerate(T.rows):
            p = cf_coeffs(k)(QQ.coerce(b0))
            assert list(row) == [*p.coeffs, *[0] * (k - p.degree)]


class TestDualCfValues:
    """The closed form of the dual Catalan-Fibonacci values against the frozen
    polynomials, the paper's definition by inversion, and the series."""

    def test_frozen(self):
        # the frozen coefficients start at x^0, whose polynomial is 0
        for y0 in (1, -1, 0, Fraction(1, 2), Fraction(-5, 3)):
            assert dual_cf_values(y0, 9) == [
                sum(c * y0**i for i, c in enumerate(coeffs))
                for coeffs in kv.DUAL_CF_POLY_COEFFS[1:]
            ], y0

    @pytest.mark.parametrize("b", [1, 2, -1, Fraction(1, 2), Fraction(-5, 3), 0, 3], ids=str)
    def test_row_sums_of_the_inverted_cf_matrix(self, b):
        # the paper's definition: invert the Catalan-Fibonacci array at b, and
        # p_(n+1)(b) is the sum of row n
        assert dual_cf_values(b, 24) == row_sums(invert_triangle(cf_matrix(b, 24)))

    def test_coefficients_of_the_series(self):
        # x(sqrt(1-4yx^2) - x) over Q[y] from the parser, at eight points
        coeffs = eval_gf("sqrt(1-4*y*x^2)-x", 120).coeffs
        for y0 in (0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 11), 100):
            assert dual_cf_values(y0, 120) == [p(y0) for p in coeffs], y0


class TestDualRoutes:
    def test_laurent_normalization_is_exact(self):
        # the y^n-lifted sums must be divisible by y^n before shifting back
        polys = dual_fib_polys_by_laurent(12)
        assert polys[4] == QY.poly([0, 3, 0, -1])

    @pytest.mark.parametrize("route", [
        dual_fib_polys_by_reversion,
        dual_fib_polys_by_exponential,
        dual_fib_polys_by_laurent,
        dual_fib_polys_by_even_form,
    ])
    def test_negative_n_max_is_an_error(self, route):
        assert route(0) == (QY.zero(),)
        for n_max in (-1, -2, -3):
            with pytest.raises(ValueError, match=f"need n_max >= 0, got {n_max}"):
                route(n_max)


class TestBessel:
    @pytest.mark.parametrize("nu", [0, 1])
    def test_negative_order_is_an_error(self, nu):
        assert bessel(nu, 0).order == 0
        for order in (-1, -3):
            with pytest.raises(ValueError, match=f"order must be >= 0, got {order}"):
                bessel(nu, order)
