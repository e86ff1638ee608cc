"""Triangles: Riordan builders, the inversion operator, row operations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import known_values as kv
from riordan.exact import QA, QQ, QY, binomial
from riordan.families import TRIANGLES, cf_matrix, pair_a111959, pair_exp_j0, pair_exp_j1, pair_fib
from riordan.gfparse import eval_gf
from riordan.hankel import hankel_transform
from riordan.series import from_coeffs, generator_series, x_series
from riordan.triangles import (
    RiordanPair,
    Triangle,
    build_exponential,
    build_from_bgf,
    build_ordinary,
    eval_rows,
    invert_triangle,
    row_sums,
)
from strategies import bell_d, q_inputs, q_values


def rows_of(T):
    return [[int(e) for e in row] for row in T.rows]


def identity_pair(order):
    x = x_series(QQ, order)
    return RiordanPair(1 + 0 * x, x)


class TestBuildOrdinary:
    def test_order_too_small(self):
        with pytest.raises(ValueError):
            build_ordinary(pair_fib(4), 6)


class TestBuildExponential:
    def test_dual_fib_array(self):
        assert rows_of(build_exponential(pair_exp_j1(8), 6)) == kv.DUAL_FIB_TRIANGLE

    def test_identity(self):
        T = build_exponential(identity_pair(8), 6)
        assert rows_of(T) == [[1 if i == n else 0 for i in range(n + 1)] for n in range(6)]


class TestBuildFromBgf:
    def test_fibonacci_bgf(self):
        x = x_series(QY, 8)
        y = generator_series(QY, "y", 8)
        G = 1 / (1 - y * x - x * x)
        assert rows_of(build_from_bgf(G, 6)) == kv.FIB_TRIANGLE

    def test_matches_riordan_route(self):
        x = x_series(QY, 12)
        y = generator_series(QY, "y", 12)
        G = 1 / (1 - y * x - x * x)
        assert build_from_bgf(G, 12) == build_ordinary(pair_fib(12), 12)

    def test_stretched_bgf(self):
        x = x_series(QY, 8)
        y = generator_series(QY, "y", 8)
        G = 1 / (1 - x - y * x * x)
        assert rows_of(build_from_bgf(G, 6)) == kv.A011973_TRIANGLE

    def test_constant_bgf(self):
        G = from_coeffs(QY, [1])
        assert rows_of(build_from_bgf(G, 1)) == [[1]]

    def test_degree_overflow_rejected(self):
        # [x^1] has y-degree 2: not lower-triangular
        G = from_coeffs(QY, [QY.one(), QY.poly([0, 0, 1])])
        with pytest.raises(ValueError):
            build_from_bgf(G, 2)

    def test_negative_rows_is_an_error(self):
        G = from_coeffs(QY, [1])
        assert build_from_bgf(G, 0).n_rows == 0
        with pytest.raises(ValueError, match="need n_rows >= 0, got -1"):
            build_from_bgf(G, -1)


class TestInversion:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_involution_on_random_triangles(self, data):
        # any rational triangle with a unit head t_(0,0) = +-1, up to 8 rows
        n_rows = data.draw(st.integers(1, 8))
        entries = q_values(9, 6)
        rows = [[data.draw(st.sampled_from([1, -1]))]] + [
            data.draw(st.lists(entries, min_size=n + 1, max_size=n + 1))
            for n in range(1, n_rows)
        ]
        T = Triangle(QQ, rows)
        assert invert_triangle(invert_triangle(T)) == T

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_lagrange_inversion_oracle(self, data):
        """For an ordinary pair (d, h) with d_0 = +-1 and h = x + O(x^2),
        Lagrange inversion of x d/(1 - y h) gives every entry of the inverse:

            t*_(n,k) = (-1)^k binom(n+1, k)/(n+1) [x^n] h^k d^(-(n+1)).

        Both the triangle and the formula are computed here by plain
        convolution of int lists, sharing no code with the series layer."""
        n_rows = data.draw(st.integers(1, 12))
        small = st.integers(-3, 3)
        d = [data.draw(st.sampled_from([1, -1]))] + data.draw(
            st.lists(small, min_size=n_rows - 1, max_size=n_rows - 1))
        h = [0, 1] + data.draw(st.lists(small, min_size=n_rows - 1, max_size=n_rows - 1))
        h = h[:n_rows]

        def mul(f, g):
            return [sum(f[i] * g[m - i] for i in range(m + 1)) for m in range(n_rows)]

        one = [1] + [0] * (n_rows - 1)
        h_powers = [one]
        for _ in range(1, n_rows):
            h_powers.append(mul(h_powers[-1], h))
        # 1/d from sum_i d_i d_inv_(m-i) = [m = 0]; d_0 = +-1 is its own inverse
        d_inv = [d[0]]
        for m in range(1, n_rows):
            d_inv.append(-d[0] * sum(d[i] * d_inv[m - i] for i in range(1, m + 1)))
        columns = [mul(d, hk) for hk in h_powers]
        T = Triangle(QQ, [[columns[k][n] for k in range(n + 1)] for n in range(n_rows)])
        expected, d_power = [], one
        for n in range(n_rows):
            d_power = mul(d_power, d_inv)  # d^(-(n+1))
            expected.append([
                (-1) ** k * Fraction(binomial(n + 1, k), n + 1)
                * sum(h_powers[k][i] * d_power[n - i] for i in range(n + 1))
                for k in range(n + 1)
            ])
        assert [list(row) for row in invert_triangle(T).rows] == expected

    def test_bell_duality(self):
        T = build_ordinary(pair_fib(13), 12)
        assert invert_triangle(T) == build_exponential(pair_exp_j1(12), 12)

    def test_central_duality(self):
        T = build_ordinary(pair_a111959(13), 12)
        assert invert_triangle(T) == build_exponential(pair_exp_j0(12), 12)

    def test_head_must_be_unit(self):
        T = Triangle(QQ, [[2], [0, 1]])
        with pytest.raises(ValueError):
            invert_triangle(T)

    def test_non_rational_triangle_rejected(self):
        T = Triangle(QY, [[QY.one()]])
        with pytest.raises(TypeError):
            invert_triangle(T)


class TestBellInversion:
    """The inversion of a Bell array (d, x*d) with d(0) = +-1 is Appell, and
    both keep the Hankel transform of their row values free of the point:
    the row values of a Bell array are an invert transform of d, those of an
    Appell array at y0 + z a binomial transform of those at y0, and neither
    transform moves a Hankel transform (Layman, JIS 4, 2001)."""

    @settings(max_examples=30, deadline=None)
    @given(bell_d)
    def test_inversion_is_appell(self, d):
        rows = invert_triangle(build_ordinary(RiordanPair(d, d.mul_x()), 12)).rows
        for n, row in enumerate(rows):
            assert list(row) == [binomial(n, k) * (-1) ** k * rows[n - k][0] for k in range(n + 1)]

    @settings(max_examples=30, deadline=None)
    @given(bell_d, q_inputs, q_inputs)
    def test_hankel_transform_of_row_values_is_free_of_the_point(self, d, y0, y1):
        T = build_ordinary(RiordanPair(d, d.mul_x()), 12)
        for array in (T, invert_triangle(T)):
            assert hankel_transform(eval_rows(array, y0), 5) == hankel_transform(
                eval_rows(array, y1), 5)


class TestRowOps:
    def test_row_sums_cf_b1(self):
        sums = row_sums(cf_matrix(Fraction(1), 6))
        assert sums == [1, 1, 4, 15, 70, 336]

    def test_row_sums_cf_b2(self):
        # frozen by summing the six printed rows of the b=2 matrix by hand
        sums = row_sums(cf_matrix(Fraction(2), 6))
        assert sums == [1, 1, 6, 25, 154, 882]

    def test_row_sums_identity_triangle(self):
        T = build_ordinary(identity_pair(8), 6)
        assert row_sums(T) == [1] * 6

    def test_eval_rows_inverted_cf_at_1(self):
        T = invert_triangle(TRIANGLES["cf-coeff"](9))
        assert eval_rows(T, 1) == [1, -1, -2, 0, -2, 0, -4, 0, -10]

    def test_eval_rows_inverted_cf_at_minus_1(self):
        T = invert_triangle(TRIANGLES["cf-coeff"](9))
        assert eval_rows(T, -1) == [1, -1, 2, 0, -2, 0, 4, 0, -10]

    def test_row_sums_over_q_a(self):
        T = build_from_bgf(eval_gf("1/(1-a*x-b*x^2)", 4), 4)
        assert T.ring is QA
        assert [str(s) for s in row_sums(T)] == ["1", "a", "a^2+1", "a^3+2*a"]

    def test_eval_rows_at_zero_gives_first_column(self):
        T = build_ordinary(pair_fib(8), 6)
        assert eval_rows(T, 0) == [row[0] for row in T.rows]


class TestTriangleType:
    def test_row_length_enforced(self):
        with pytest.raises(ValueError):
            Triangle(QQ, [[1], [2]])

    def test_mixed_ring_entries_rejected(self):
        with pytest.raises(TypeError):
            Triangle(QQ, [[QY.one()]])

    def test_row_polynomials_share_qy(self):
        assert Triangle(QQ, [[1]]).row_polynomials()[0].ring is QY

    def test_immutable(self):
        T = Triangle(QQ, [[1]])
        with pytest.raises(AttributeError):
            T.rows = ()


class TestRiordanPair:
    def test_validation(self):
        x = x_series(QQ, 6)
        with pytest.raises(ValueError):
            RiordanPair(x, x)  # d(0) == 0
        with pytest.raises(ValueError):
            RiordanPair(1 + x, 1 + x)  # h(0) != 0
        with pytest.raises(ValueError):
            RiordanPair(1 + x, x * x)  # h'(0) == 0

    def test_mixed_rings_rejected(self):
        with pytest.raises(TypeError):
            RiordanPair(from_coeffs(QQ, [1, 0]), x_series(QY, 2))
