"""Every element of Q the package hands out is canonical: an ``int`` when it
is integral, otherwise a ``Fraction`` with denominator > 1; never a ``bool``,
a ``float`` or a ``Fraction`` with denominator 1."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from riordan.exact import QQ, QY
from riordan.hankel import hankel_transform
from riordan.triangles import Triangle, eval_rows, row_sums
from strategies import q_inputs, q_positives, q_series, q_units, zeros


def is_canonical_q(v) -> bool:
    """Whether ``v`` is an element of Q in canonical form."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def assert_canonical_q(values) -> None:
    for v in values:
        assert is_canonical_q(v), repr(v)


class TestRing:
    def test_constants_are_ints(self):
        for v in (QQ.zero(), QQ.one(), QQ.coerce(7), QQ.coerce(True)):
            assert type(v) is int
        assert type(QQ.coerce(True)) is int
        assert type(QQ.coerce(Fraction(6, 3))) is int

    @given(q_units)
    def test_invert_and_sqrt(self, c):
        assert_canonical_q([QQ.invert(c), QQ.sqrt(c * c), QQ.coerce(c)])


class TestSeries:
    @settings(max_examples=60)
    @given(st.data(), st.integers(1, 6))
    def test_series_operations(self, data, order):
        f = data.draw(q_series(order))
        g = data.draw(q_series(order, (q_units,)))
        s = data.draw(q_series(order, (q_positives,)))
        x_term = data.draw(q_series(order + 1, (zeros,)))
        results = [f * g, f / g, (s * s).sqrt(), f.compose(x_term)]
        if order > 1:
            rev = data.draw(q_series(order, (zeros, q_units)))
            results.append(rev.revert())
        for r in results:
            assert_canonical_q(r.coeffs)


class TestPolynomial:
    @given(st.lists(q_inputs, max_size=6), q_inputs)
    def test_coefficients_and_values(self, coeffs, v):
        p = QY.poly(coeffs)
        assert_canonical_q(p.coeffs)
        assert_canonical_q([p(v)])


class TestTriangleAndHankel:
    @given(st.lists(q_inputs, min_size=10, max_size=10), q_inputs)
    def test_entries_sums_and_values(self, flat, v):
        T = Triangle(QQ, [flat[n * (n + 1) // 2:(n + 1) * (n + 2) // 2] for n in range(4)])
        assert_canonical_q(e for row in T.rows for e in row)
        assert_canonical_q(row_sums(T))
        assert_canonical_q(eval_rows(T, v))
        # and each value is the sum of its row's terms, in Fractions
        for point, values in ((1, row_sums(T)), (v, eval_rows(T, v))):
            assert values == [sum(Fraction(e) * Fraction(point) ** k for k, e in enumerate(row))
                              for row in T.rows]

    @given(st.lists(q_inputs, min_size=9, max_size=9))
    def test_hankel_transform(self, seq):
        assert_canonical_q(hankel_transform(seq, 4))
