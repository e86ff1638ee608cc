"""Hankel transforms: the one-pass transform against two determinant
oracles, the printed transforms, GF matching.

The package takes no determinant.  Its transform is checked minor by minor
against Bareiss elimination, up to m = 20, and Bareiss in turn against
cofactor expansion; both oracles live here and share no code with it.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import known_values as kv
from riordan import hankel
from riordan.exact import QQ, binomial
from riordan.families import cf_matrix, dual_cf_values, reciprocal_polys
from riordan.hankel import hankel_transform
from riordan.series import from_coeffs
from riordan.triangles import row_sums
from strategies import hankel_sources, nonzero_ints, q_values
from test_canonical import is_canonical_q


def hankel_rows(source, dim):
    """The (dim x dim) matrix with entry (i, j) = source[i + j]."""
    return [[source[i + j] for j in range(dim)] for i in range(dim)]


def oracle_cofactor_det(m):
    """Textbook cofactor expansion along the first row; the independent oracle."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * oracle_cofactor_det(minor)
    return total


def determinant(rows):
    """Fraction-free Bareiss elimination with row swaps (Bareiss, Math. Comp.
    1968) on the matrix scaled to integers by the least common denominator L
    of its entries, divided by L^n.  Every interior division is exact."""
    n = len(rows)
    rows = [[Fraction(e) for e in row] for row in rows]
    lcd = math.lcm(*(e.denominator for row in rows for e in row))
    m = [[e.numerator * (lcd // e.denominator) for e in row] for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, top = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            a = row[k]
            row[k + 1:] = [(x * pivot - a * t) // prev for x, t in zip(row[k + 1:], top)]
        prev = pivot
    return Fraction(sign * m[-1][-1], lcd ** n)


@st.composite
def one_zero_run(draw):
    """(seq, m): 2m+1 terms, m <= 10, all nonzero but one run of 1-6 zeros at
    a drawn position; integers, or rationals over one denominator."""
    m = draw(st.integers(0, 10))
    n = 2 * m + 1
    run = draw(st.integers(1, min(6, n)))
    at = draw(st.integers(0, n - run))
    den = draw(st.integers(1, 6))
    nums = draw(st.lists(nonzero_ints(9 * den), min_size=n - run, max_size=n - run))
    terms = [Fraction(a, den) if den > 1 else a for a in nums]
    return terms[:at] + [0] * run + terms[at:], m


def fibonacci(n_terms):
    fib = [1, 1]
    while len(fib) < n_terms:
        fib.append(fib[-1] + fib[-2])
    return fib[:n_terms]


class TestHankelTransform:
    def test_printed_transform_at_1(self):
        seq = dual_cf_values(1, 19)
        assert seq[:10] == kv.DUAL_CF_AT_1[:10]
        assert hankel_transform(seq, 9) == kv.HANKEL_AT_1

    def test_printed_transform_at_minus_1(self):
        seq = dual_cf_values(-1, 19)
        assert seq[:10] == kv.DUAL_CF_AT_MINUS_1[:10]
        assert hankel_transform(seq, 9) == kv.HANKEL_AT_MINUS_1

    def test_rank_one_matrix(self):
        assert hankel_transform([1] * 11, 5) == [1, 0, 0, 0, 0, 0]

    def test_h1_orientation(self):
        # pins the indexing: h_1 = det [[1, -1], [-1, -2]] = -3
        assert hankel_transform([1, -1, -2], 1) == [1, -3]

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=9))
    def test_h0_is_first_term(self, seq):
        m_max = (len(seq) - 1) // 2
        assert hankel_transform(seq, m_max)[0] == seq[0]

    @pytest.mark.parametrize("bad", [0.5, "1/2", Decimal("0.5")], ids=repr)
    def test_terms_follow_q_coercion(self, bad):
        with pytest.raises(TypeError, match=r"need rational terms; term 0 is "):
            hankel_transform([bad, 1, 2], 1)

    def test_insufficient_terms(self):
        with pytest.raises(ValueError):
            hankel_transform([1, 2, 3], 2)

    def test_negative_m_max_is_an_error(self):
        assert hankel_transform([1, 2, 3], 0) == [1]
        for m_max in (-1, -2):
            with pytest.raises(ValueError, match=f"need m_max >= 0, got {m_max}"):
                hankel_transform([1, 2, 3], m_max)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=7, max_size=7))
    def test_bareiss_equals_cofactor_oracle(self, source):
        rows = hankel_rows(source, 4)
        assert determinant(rows) == oracle_cofactor_det(rows)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(q_values(5, 6), min_size=7, max_size=7))
    def test_rational_path_equals_cofactor_oracle(self, source):
        rows = hankel_rows(source, 4)
        assert determinant(rows) == oracle_cofactor_det(rows)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=9, max_size=9))
    def test_invariant_under_binomial_transform(self, seq):
        transformed = [
            sum(binomial(n, k) * seq[k] for k in range(n + 1)) for n in range(len(seq))
        ]
        assert hankel_transform(seq, 4) == hankel_transform(transformed, 4)


class TestOnePassTransform:
    """The one-pass transform against one determinant per leading minor."""

    @settings(max_examples=150, deadline=None)
    @given(hankel_sources())
    def test_equals_minor_by_minor(self, source):
        seq, m = source
        h = hankel_transform(seq, m)
        assert h == [determinant(hankel_rows(seq, k + 1)) for k in range(m + 1)]
        if m <= 4:
            assert h == [
                oracle_cofactor_det(hankel_rows(seq, k + 1)) for k in range(m + 1)
            ]

    # inputs of the benchmark's hankel workload, past the sizes the property draws
    SOURCES_AT_M_20 = {
        "rowsums:cf@2": lambda n: row_sums(cf_matrix(Fraction(2), n)),
        "dual-cf@1/2": lambda n: dual_cf_values(Fraction(1, 2), n),
        "fibonacci": fibonacci,
    }

    @pytest.mark.parametrize("name", SOURCES_AT_M_20)
    def test_equals_minor_by_minor_at_m_20(self, name):
        seq = self.SOURCES_AT_M_20[name](41)
        assert hankel_transform(seq, 20) == [
            determinant(hankel_rows(seq, k + 1)) for k in range(21)
        ]

    def test_fibonacci_minors_vanish_from_h2(self):
        assert hankel_transform(fibonacci(21), 10) == [1, 1] + [0] * 9

    def test_zero_pivot_then_nonzero_minor(self):
        assert hankel_transform([0, 1, 0, 0, 0], 2) == [0, -1, 0]

    @pytest.mark.parametrize("r", range(1, 7))
    def test_leading_zero_run(self, r):
        # r leading zeros drop the chain's degree by r + 1 at its first step;
        # the later zero run and the small terms give more gaps further on
        tail = [3, -2, 0, 0, 0, 5, 1, -4, 2, 0, 0, 7, -1, 6, -3, 2, 4, -5, 1, 3, -2, 8, 0, 0, 0, 1]
        seq = ([0] * r + [-2, 0, 0] + tail)[:29]
        h = hankel_transform(seq, 14)
        assert h == [determinant(hankel_rows(seq, k + 1)) for k in range(15)]
        # the leading minors are anti-triangular up to h_r
        assert h[:r + 1] == [0] * r + [(-1) ** (r * (r + 1) // 2) * (-2) ** (r + 1)]

    @settings(max_examples=100, deadline=None)
    @given(one_zero_run())
    def test_one_zero_run_equals_minor_by_minor(self, source):
        # a zero run part way along puts a degree drop of 2 or more in the
        # middle of the chain, where the previous minor s is rarely +-1
        seq, m = source
        assert hankel_transform(seq, m) == [
            determinant(hankel_rows(seq, k + 1)) for k in range(m + 1)
        ]

    # late zero minors with nonzero minors after them; checked against
    # sympy's Berkowitz determinant
    LATE_ZERO_PIVOTS = [
        ([1, 0, 1, 1, 2, 2, -1, 0, 0], [1, 1, 0, -1, 98]),
        ([2, 0, -2, -2, 0, 0, 1, 1, 1], [2, -4, 0, 16, 28]),
    ]

    @pytest.mark.parametrize("seq, expected", LATE_ZERO_PIVOTS)
    def test_late_zero_pivot_then_nonzero_minors(self, seq, expected):
        assert hankel_transform(seq, 4) == expected

    def test_transform_shares_no_code_with_its_oracle(self):
        # the package takes no determinant: Bareiss elimination is this
        # module's oracle only
        assert {"determinant", "_det_bareiss"}.isdisjoint(vars(hankel))

    @pytest.mark.parametrize("y", [3, -2, Fraction(2, 5)])
    def test_reciprocal_polys_closed_form(self, y):
        # a closed form, over Q at three points: the coefficients of
        # 1/(sqrt(1-4yx^2) - x) have h_n = 2^n y^(n(n+1)/2)
        seq = [p(Fraction(y)) for p in reciprocal_polys(39)]
        assert hankel_transform(seq, 19) == [
            2**n * Fraction(y) ** (n * (n + 1) // 2) for n in range(20)
        ]

    @pytest.mark.parametrize(
        "y", [1, -1, 2, Fraction(1, 2), -3, Fraction(5, 7), Fraction(-1, 4), Fraction(11, 3)], ids=str
    )
    def test_dual_cf_values_closed_form(self, y):
        # a closed form, over Q at eight points (1/2 is the benchmark's
        # dual-cf@1/2): the dual Catalan-Fibonacci values have
        # h_k = y^(T_k - 1) (A_k y + B_k) with T_k = k(k+1)/2,
        # A_2j = (2j+1) 4^j, A_2j+1 = -2 A_2j, B_0 = 0, B_2j+1 = -(j+1) 4^j
        # and B_2j+2 = -2 B_2j+1
        y = Fraction(y)
        want = []
        for k in range(40):
            j, odd = divmod(k, 2)
            a = (2 * j + 1) * 4**j * (-2) ** odd
            b = -(j + 1) * 4**j if odd else j * 4**j // 2
            want.append(y ** (k * (k + 1) // 2 - 1) * (a * y + b))
        assert hankel_transform(dual_cf_values(y, 79), 39) == want

    @given(hankel_sources(max_m=4))
    def test_result_type_depends_only_on_the_terms_used(self, source):
        seq, m = source
        # a non-integral term past a_(2m) is never used: it changes neither
        # a value nor its type, and every value is canonical
        h = hankel_transform(seq, m)
        longer = hankel_transform(seq + [Fraction(1, 2)], m)
        assert longer == h
        assert [type(v) for v in longer] == [type(v) for v in h]
        assert all(is_canonical_q(v) for v in h)
        if all(Fraction(a).denominator == 1 for a in seq):
            assert all(type(v) is int for v in h)

    def test_result_type_of_dual_values_at_one_half(self):
        h = hankel_transform(dual_cf_values(Fraction(1, 2), 9), 4)
        assert h[:3] == [1, -2, 2]
        assert [type(v) for v in h] == [int, int, int, Fraction, Fraction]
        assert all(is_canonical_q(v) for v in h)


def rational_gf(num, den, n_terms):
    """The first n_terms coefficients of num(x)/den(x), by series division."""
    return list((from_coeffs(QQ, num, n_terms) / from_coeffs(QQ, den, n_terms)).coeffs)


class TestGfMatching:
    """Matching a sequence against a rational GF goes through series division."""

    def test_all_ones(self):
        assert rational_gf([1], [1, -1], 10) == [1] * 10

    def test_zero_leading_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rational_gf([1], [0, 1], 3)

    def test_expand_rational(self):
        assert rational_gf([1], [1, -2], 5) == [1, 2, 4, 8, 16]
        assert rational_gf([1, -1, 4], [1, 2, -4, -8], 6) == [1, -3, 14, -32, 96, -208]
