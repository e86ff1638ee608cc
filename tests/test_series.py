"""Power series: arithmetic, sqrt, composition, reversion.

Derived expectations are produced by small independent oracles written with
plain Fraction lists (no PowerSeries involvement) and frozen here.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from riordan.exact import QAB, QQ, QY, binomial
from riordan.families import cf_matrix
from riordan.series import _miller_power, constant, from_coeffs, generator_series, x_series
from strategies import (
    nonzero_q_values,
    q_elements,
    q_inputs,
    q_polys,
    q_series,
    q_units,
    q_values,
    qab_elements,
    qy_elements,
    zeros,
)
from test_canonical import is_canonical_q
from test_exact import rings_of_polynomials_built


# --- independent oracles -----------------------------------------------------

def oracle_linear_recurrence(init, coeffs, n_terms):
    """Expand c_n = sum_i coeffs[i] * c_{n-1-i} starting from ``init``."""
    seq = list(init)
    while len(seq) < n_terms:
        seq.append(sum(c * seq[-1 - i] for i, c in enumerate(coeffs)))
    return seq[:n_terms]


def oracle_revert(f):
    """Order-by-order solve of f(u) = x with bare coefficient lists.

    With u known through x^(m-1), [x^m] f(u) = f_1 u_m + sum_{k>=2} f_k [x^m] u^k,
    and the powers u^k (k >= 2) do not involve u_m.
    """
    u = [Fraction(0), 1 / Fraction(f[1])]
    for m in range(2, len(f)):
        u.append(Fraction(0))
        power, acc = u, Fraction(0)
        for k in range(2, m + 1):
            power = [sum(power[i] * u[j - i] for i in range(j + 1)) for j in range(m + 1)]
            acc += f[k] * power[m]
        u[m] = -acc / f[1]
    return u


# Frozen from the oracles above.
FIBONACCI_10 = oracle_linear_recurrence([1, 1], [1, 1], 10)
assert FIBONACCI_10 == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
CATALAN_REVERT_8 = oracle_revert([0, 1, -1, 0, 0, 0, 0, 0])
assert CATALAN_REVERT_8 == [0, 1, 1, 2, 5, 14, 42, 132]


def x_and_y(order):
    return x_series(QY, order), generator_series(QY, "y", order)


def nonzero_tail(s):
    """Number of nonzero coefficients of x^1, x^2, ... in s."""
    return sum(1 for c in s.coeffs[1:] if c)


def specialise(c, point):
    """c in Q, Q[y] or Q[a][b], at y = point or at (a, b) = point."""
    if isinstance(point, tuple):
        a0, b0 = point
        return c(b0)(a0)
    return c if point is None else c(point)


def _sparse_g():
    order = 10
    x = x_series(QAB, order)
    a, b = generator_series(QAB, "a", order), generator_series(QAB, "b", order)
    return x - a * x * x - b * x ** 3, [(1, 1), (Fraction(1, 2), -3), (0, 2)], (2, 8)


def _sparse_inverse_g():
    x, y = x_and_y(14)
    return x / (2 - y * x - x * x), [0, 1, Fraction(-2, 3)], (12, 2)


def _both_dense():
    # x times the row generating function of the cf@1 triangle
    G = from_coeffs(QY, cf_matrix(1, 13).row_polynomials())
    return G.mul_x(), [0, 1, Fraction(1, 2)], (12, 12)


def _dense_over_q():
    x = x_series(QQ, 12)
    return x * (1 - 4 * x).sqrt() / 2, [None], (10, 10)


# Each case: f, the points it is specialised at, and the nonzero tail counts
# of g = f/x and 1/g that select the base of the power recurrence.
PINNED_REVERSIONS = {
    "sparse g": _sparse_g,
    "sparse 1/g": _sparse_inverse_g,
    "both dense": _both_dense,
    "both dense, slope 1/2": _dense_over_q,
}


class TestArithmetic:
    def test_geometric(self):
        x = x_series(QQ, 8)
        g = 1 / (1 - 2 * x)
        assert [int(c) for c in g.coeffs] == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_rational_gf_from_example(self):
        # (1-x+4x^2) / ((1-2x)(1+2x)^2); denominator expanded
        x = x_series(QQ, 8)
        den = (1 - 2 * x) * (1 + 2 * x) ** 2
        f = (1 - x + 4 * x * x) / den
        assert [int(c) for c in f.coeffs[:6]] == [1, -3, 14, -32, 96, -208]

    def test_reciprocal_of_sqrt_combination(self):
        x = x_series(QQ, 8)
        f = 1 / ((1 - 4 * x * x).sqrt() - x)
        assert [int(c) for c in f.coeffs[:6]] == [1, 1, 3, 5, 13, 25]

    def test_binary_ops_truncate_to_min_order(self):
        f = from_coeffs(QQ, [1, 1, 1, 1])
        g = from_coeffs(QQ, [1, 1])
        assert (f + g).order == 2
        assert (f * g).order == 2
        assert (f - g).order == 2
        assert (f / g).order == 2

    def test_truncate_cannot_extend(self):
        f = from_coeffs(QQ, [1, 2])
        with pytest.raises(ValueError):
            f.truncate(5)
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            x_series(QQ, 4).truncate(-1)

    def test_divide_by_zero_constant_term(self):
        x = x_series(QQ, 6)
        with pytest.raises(ZeroDivisionError):
            (1 + x) / x

    def test_mixed_rings_rejected(self):
        with pytest.raises(TypeError):
            x_series(QQ, 4) + x_series(QY, 4)

    def test_immutable(self):
        f = x_series(QQ, 4)
        with pytest.raises(AttributeError):
            f.coeffs = ()

    @pytest.mark.parametrize("ring, var", [(QY, "y"), (QAB, "b")])
    def test_subtraction_builds_one_polynomial_per_coefficient(self, ring, var):
        x, t = x_series(ring, 6), generator_series(ring, var, 6)
        f, g = 1 / (1 - t * x - x * x), 1 + t * x
        assert rings_of_polynomials_built(lambda: f - g).count(ring) == 6
        # a scalar operand is the constant series, built as for any operator
        scalar = rings_of_polynomials_built(lambda: constant(ring, 1, 6)).count(ring)
        assert rings_of_polynomials_built(lambda: 1 - f).count(ring) == scalar + 6


RINGS = {"Q": (QQ, q_elements), "Q[y]": (QY, qy_elements), "Q[a][b]": (QAB, qab_elements)}
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class TestScalarOperands:
    """A scalar operand is the constant series of the other operand's order."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("op", OPERATORS)
    @pytest.mark.parametrize("ring_name", RINGS)
    def test_scalar_is_the_constant_series(self, ring_name, op, data):
        ring, elements = RINGS[ring_name]
        # a divisor on either side of / is a unit: the scalar and the head of s
        head = q_units if op == "/" else elements
        s = data.draw(st.builds(lambda h, t: from_coeffs(ring, [h, *t]),
                                head, st.lists(elements, max_size=5)))
        c = data.draw(q_units if op == "/" else st.one_of(q_inputs, elements))
        f, const = OPERATORS[op], constant(ring, c, s.order)
        assert f(s, c) == f(s, const)
        assert f(c, s) == f(const, s)

    @pytest.mark.parametrize("op", OPERATORS)
    @pytest.mark.parametrize("ring_name", RINGS)
    def test_order_zero_stays_order_zero(self, ring_name, op):
        s = from_coeffs(RINGS[ring_name][0], [])
        f = OPERATORS[op]
        assert f(s, 2) == s
        if op == "/":  # an order-0 divisor has no constant term to invert
            with pytest.raises(ZeroDivisionError):
                2 / s
        else:
            assert f(2, s) == s


class TestSqrt:
    def test_sqrt_one(self):
        assert constant(QQ, 1, 6).sqrt() == constant(QQ, 1, 6)

    def test_sqrt_even_catalan_series(self):
        x = x_series(QQ, 10)
        s = (1 - 4 * x * x).sqrt()
        assert [int(c) for c in s.coeffs] == [1, 0, -2, 0, -2, 0, -4, 0, -10, 0]

    def test_sqrt_exact_square(self):
        x = x_series(QQ, 6)
        assert ((1 + x) * (1 + x)).sqrt() == (1 + x).truncate(6)

    def test_sqrt_squares_back(self):
        x = x_series(QQ, 12)
        f = 1 + 3 * x + x ** 3
        assert (f * f).sqrt() == f

    def test_sqrt_rejects_non_square_constant(self):
        x = x_series(QQ, 6)
        with pytest.raises(ValueError):
            (2 + x).sqrt()

    def test_sqrt_nonnegative_root(self):
        s = from_coeffs(QQ, [Fraction(9, 4), 1, 1]).sqrt()
        assert s.coeffs[0] == Fraction(3, 2)

    def test_sqrt_over_polynomial_ring(self):
        x, y = x_and_y(8)
        s = (1 - 4 * y * x * x).sqrt()
        assert s * s == (1 - 4 * y * x * x).truncate(8)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sqrt_squares_to_its_argument(self, data):
        ring = data.draw(st.sampled_from([QQ, QY]))
        root = data.draw(st.sampled_from([1, 2, Fraction(3, 2), Fraction(1, 5)]))
        term = q_values(9, 6) if ring is QQ else q_polys(QY, 3, 3, 3)
        # sparse: mostly zero coefficients, as in the binomials 1 - c x^k
        sparse = data.draw(st.booleans())
        if sparse:
            term = st.one_of(st.just(ring.zero()), st.just(ring.zero()), term)
        tail = data.draw(st.lists(term, max_size=15))
        s = from_coeffs(ring, [ring.coerce(root * root)] + tail, 16)
        q = s.sqrt()
        assert q.coeffs[0] == root
        assert q * q == s


class TestMillerPower:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rational_exponents_match_integer_powers(self, data):
        """P = h^(p/q) from the recurrence satisfies P^q == h^p, by ``**``
        and ``1/**``; h_0 = r^q, so h_0^(p/q) = r^p is exact."""
        ring = data.draw(st.sampled_from([QQ, QY]))
        p = data.draw(st.integers(-4, 4))
        q = data.draw(st.sampled_from([1, 1, 2, 3]))
        r = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]))
        if q % 2 == 0:
            r = abs(r)
        term = q_values(9, 6) if ring is QQ else q_polys(QY, 3, 3, 4)
        term = st.one_of(st.just(ring.zero()), term)  # sparse tails too
        order = 8
        tail = data.draw(st.lists(term, max_size=order - 1))
        h0 = Fraction(r) ** q
        h = from_coeffs(ring, [h0] + tail, order)
        h_tail = [(j, ring.coerce(c * (1 / h0)))
                  for j, c in enumerate(h.coeffs[1:], 1) if c]
        P = _miller_power(ring, h_tail, p, q, ring.coerce(Fraction(r) ** p), order)
        rationals = P if ring is QQ else [c for poly in P for c in poly.coeffs]
        assert all(map(is_canonical_q, rationals))
        P = from_coeffs(ring, P)
        assert P ** q == (h ** p if p >= 0 else 1 / h ** -p)


class TestCompose:
    def test_identity_substitution(self):
        x = x_series(QQ, 8)
        f = 1 / (1 - 3 * x)
        assert f.compose(x) == f

    def test_fibonacci_by_composition(self):
        x = x_series(QQ, 10)
        f = (1 / (1 - x)).compose(x * (1 + x))
        assert [int(c) for c in f.coeffs] == FIBONACCI_10

    def test_riordan_proof_composition(self):
        # (1/(1-x^2)) * (1/(1-y*t) at t = x/(1-x^2)) == 1/(1-yx-x^2)
        x, y = x_and_y(10)
        d = 1 / (1 - x * x)
        inner = (1 / (1 - y * x)).compose(x * d)
        assert d * inner == 1 / (1 - y * x - x * x)

    def test_compose_requires_zero_constant(self):
        x = x_series(QQ, 6)
        with pytest.raises(ValueError):
            (1 + x).compose(1 + x)


class TestRevert:
    def test_revert_x(self):
        x = x_series(QQ, 6)
        assert x.revert() == x

    def test_revert_catalan(self):
        x = x_series(QQ, 8)
        u = (x - x * x).revert()
        assert list(u.coeffs) == CATALAN_REVERT_8

    def test_revert_bivariate_duals(self):
        x, y = x_and_y(5)
        u = (x / (1 - y * x - x * x)).revert()
        assert u.coeffs[0] == 0
        assert u.coeffs[1] == 1
        assert u.coeffs[2] == -y.coeffs[0]
        assert u.coeffs[3] == y.coeffs[0] ** 2 - 1
        assert u.coeffs[4] == -(y.coeffs[0] ** 3) + 3 * y.coeffs[0]

    def test_revert_negative_unit_slope(self):
        x = x_series(QQ, 8)
        f = -x + x * x
        u = f.revert()
        assert f.compose(u) == x
        assert u.compose(f) == x

    @pytest.mark.parametrize("case", sorted(PINNED_REVERSIONS))
    def test_revert_against_oracle(self, case):
        f, points, tail_counts = PINNED_REVERSIONS[case]()
        g = f.div_x()
        assert (nonzero_tail(g), nonzero_tail(1 / g)) == tail_counts
        u = f.revert()
        for p in points:
            want = oracle_revert([specialise(c, p) for c in f.coeffs])
            assert [specialise(c, p) for c in u.coeffs] == want

    def test_revert_preconditions(self):
        x = x_series(QQ, 6)
        with pytest.raises(ValueError):
            (1 + x).revert()
        with pytest.raises(ValueError, match="nonzero coefficient of x"):
            (x * x).revert()
        with pytest.raises(ValueError):
            from_coeffs(QQ, [0]).revert()

    def test_revert_zero_slope_over_qy(self):
        x, y = x_and_y(6)
        with pytest.raises(ValueError, match="^reversion needs a nonzero coefficient of x$"):
            (y * x * x).revert()

    def test_revert_non_unit_slope_over_qy(self):
        x, y = x_and_y(6)
        with pytest.raises(ZeroDivisionError):
            (y * x).revert()


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(q_series(24, (zeros, nonzero_q_values(9, 6)), st.lists(q_values(9, 6), max_size=22)))
    def test_round_trip_over_q(self, f):
        x = x_series(QQ, f.order)
        u = f.revert()
        assert f.compose(u) == x
        assert u.compose(f) == x

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.lists(st.integers(-4, 4), max_size=3), min_size=0, max_size=10),
           st.sampled_from([1, -1]))
    def test_round_trip_over_qy(self, tail, slope):
        order = 24
        coeffs = [QY.zero(), QY.coerce(slope)] + [QY.poly(c) for c in tail]
        f = from_coeffs(QY, coeffs[:order], order)
        x = x_series(QY, order)
        u = f.revert()
        assert f.compose(u) == x
        assert u.compose(f) == x

    @settings(max_examples=10, deadline=None)
    @given(st.lists(q_polys(QAB, 3, 3), max_size=6), nonzero_q_values(3, 3))
    def test_round_trip_over_qab(self, tail, slope):
        order = 8
        f = from_coeffs(QAB, [QAB.zero(), QAB.coerce(slope)] + tail, order)
        x = x_series(QAB, order)
        u = f.revert()
        assert f.compose(u) == x
        assert u.compose(f) == x


class TestShift:
    def test_div_x(self):
        x = x_series(QQ, 6)
        assert x.div_x() == constant(QQ, 1, 5)

    def test_div_x_requires_zero_constant(self):
        with pytest.raises(ValueError):
            constant(QQ, 1, 4).div_x()

    def test_div_x_inverts_mul_x(self):
        x, y = x_and_y(8)
        f = x * ((1 - 4 * y * x * x).sqrt() - x)
        assert f.div_x().mul_x() == f

    def test_div_x_cancels_leading_factor(self):
        x, y = x_and_y(8)
        g = (1 - 4 * y * x * x).sqrt() - x
        assert (x * g).div_x() == g.truncate(7)

    def test_order_drops_by_one(self):
        x = x_series(QQ, 6)
        assert x.div_x().order == 5


class TestBivariateExpansion:
    def test_coefficients_of_general_quadratic_denominator(self):
        # [x^n] 1/(1 - ax - bx^2) = sum_i binom(n-i, i) a^(n-2i) b^i
        order = 13
        x = x_series(QAB, order)
        a = generator_series(QAB, "a", order)
        b = generator_series(QAB, "b", order)
        f = 1 / (1 - a * x - b * x * x)
        av = a.coeffs[0]
        bv = b.coeffs[0]
        for n in range(order):
            expected = QAB.zero()
            for i in range(n // 2 + 1):
                expected = expected + binomial(n - i, i) * av ** (n - 2 * i) * bv ** i
            assert f.coeffs[n] == expected
