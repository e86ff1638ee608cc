"""Lower-triangular coefficient arrays and the generating-function inversion.

A triangle stores row n as exactly n+1 exact entries (zeros explicit) over a
single declared ring.  Triangles arise from Riordan pairs (d(x), h(x)), from
bivariate generating functions, and from the inversion operator: reverting
x times the row-polynomial generating function and re-expanding the rows.
"""

from __future__ import annotations

import math

from ._value import Value
from .exact import QQ, QY, PolynomialRing, Polynomial, format_element, horner
from .series import PowerSeries, from_coeffs


class Triangle(Value):
    """Immutable lower-triangular array; row n holds entries t_{n,0} .. t_{n,n}."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        coerced = []
        for n, row in enumerate(rows):
            row = [ring.coerce(e) for e in row]
            if len(row) != n + 1:
                raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")
            coerced.append(tuple(row))
        super().__init__(ring, tuple(coerced))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row_polynomials(self) -> list[Polynomial]:
        """Row n as the polynomial sum_k t_{n,k} y^k."""
        ring = PolynomialRing(self.ring, "y")
        return [ring.poly(row) for row in self.rows]

    def __repr__(self):
        return f"<Triangle over {self.ring!r}, {self.n_rows} rows>"


class RiordanPair(Value):
    """A pair (d(x), h(x)) with d(0) != 0, h(0) = 0 and h'(0) != 0.  The
    builder is the reading: ``build_ordinary`` reads it as an ordinary
    Riordan array, ``build_exponential`` as an exponential one."""

    __slots__ = ("d", "h")

    def __init__(self, d: PowerSeries, h: PowerSeries):
        if d.ring is not h.ring:
            raise TypeError("d and h must share a coefficient ring")
        if d.order == 0 or not d.coeffs[0]:
            raise ValueError("d must have a nonzero constant term")
        if h.order == 0 or h.coeffs[0]:
            raise ValueError("h must have a zero constant term")
        if h.order < 2 or not h.coeffs[1]:
            raise ValueError("h must have a nonzero coefficient of x")
        super().__init__(d, h)

    @property
    def ring(self):
        return self.d.ring

    def __repr__(self):
        return f"<Riordan pair over {self.ring!r}>"


def _column_series(pair: RiordanPair, n_rows: int):
    if min(pair.d.order, pair.h.order) < n_rows:
        raise ValueError(
            f"series order {min(pair.d.order, pair.h.order)} too small for {n_rows} rows"
        )
    col = pair.d.truncate(n_rows)
    h = pair.h.truncate(n_rows)
    for _ in range(n_rows):
        yield col
        col = col * h


def build_ordinary(pair: RiordanPair, n_rows: int) -> Triangle:
    """Triangle with t_{n,k} = [x^n] d(x) h(x)^k."""
    cols = list(_column_series(pair, n_rows))
    rows = [[cols[k].coeffs[n] for k in range(n + 1)] for n in range(n_rows)]
    return Triangle(pair.ring, rows)


def build_exponential(pair: RiordanPair, n_rows: int) -> Triangle:
    """Triangle with t_{n,k} = (n!/k!) [x^n] d(x) h(x)^k."""
    cols = list(_column_series(pair, n_rows))
    rows = []
    for n in range(n_rows):
        fn = math.factorial(n)
        rows.append([cols[k].coeffs[n] * (fn // math.factorial(k)) for k in range(n + 1)])
    return Triangle(pair.ring, rows)


def build_from_bgf(G: PowerSeries, n_rows: int) -> Triangle:
    """Rows from a bivariate generating function: row n is [x^n] G as a
    polynomial in the coefficient variable, padded to length n+1.  A series
    over Q is lifted to Q[y], constant in y."""
    if n_rows < 0:
        raise ValueError(f"need n_rows >= 0, got {n_rows}")
    if G.order < n_rows:
        raise ValueError(f"series order {G.order} too small for {n_rows} rows")
    if G.ring is QQ:
        G = from_coeffs(QY, G.coeffs[:n_rows])
    rows, zero = [], G.ring.base.zero()
    for n, c in enumerate(G.coeffs[:n_rows]):
        if c.degree > n:
            raise ValueError(f"coefficient of x^{n} has degree {c.degree}: not lower-triangular")
        rows.append([*c.coeffs, *[zero] * (n - c.degree)])
    return Triangle(G.ring.base, rows)


def invert_triangle(T: Triangle) -> Triangle:
    """The inversion operator: revert (in x) x times the row-polynomial
    generating function, divide by x, and re-expand the rows.

    Defined for numeric triangles with t_{0,0} = +-1; an involution."""
    if T.ring is not QQ:
        raise TypeError("inversion is defined for triangles over Q")
    if T.n_rows == 0:
        raise ValueError("cannot invert an empty triangle")
    head = T.rows[0][0]
    if head * head != 1:
        raise ValueError(f"inversion needs t_(0,0) = +-1, got {format_element(head)}")
    G = from_coeffs(QY, T.row_polynomials())
    reverted = G.mul_x().revert().div_x()
    return build_from_bgf(reverted, T.n_rows)


def row_sums(T: Triangle) -> list:
    """The sum of each row: its row polynomial at y = 1."""
    return eval_rows(T, 1)


def eval_rows(T: Triangle, y0) -> list:
    """sum_k t_{n,k} y0^k for each row n, by ``horner`` on its entries."""
    return [horner(T.ring, row, y0) for row in T.rows]
