"""Hankel transforms via fraction-free Bareiss elimination, plus rational-GF matching.

Every exact determinant goes through one routine.  Rational entries are first
scaled by their least common denominator L, so the matrix is integral; the
integer determinant is then divided by L^dim.  Bareiss elimination keeps every
intermediate an integer because each interior division is exact (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968).

By Sylvester's identity, with no row swaps the pivot at step k is the leading
principal minor of order k+1.  So one elimination of the largest Hankel matrix
yields the whole transform h_0 .. h_m; on rationals it runs on the scaled
matrix, whose minors are L^(k+1) h_k.  A zero pivot h_k stops that pass; each
later minor can still be nonzero (for 0, 1, 0, 0, 0: h_0 = 0, h_1 = -1) and is
computed on its own by ``determinant``, which swaps rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class HankelMatrix:
    """The (dim x dim) matrix with entry (i, j) = source[i + j]."""

    source: tuple
    dim: int

    def __post_init__(self):
        if len(self.source) < 2 * self.dim - 1:
            raise ValueError(
                f"need {2 * self.dim - 1} terms for dimension {self.dim}, "
                f"got {len(self.source)}"
            )

    def entry(self, i: int, j: int):
        return self.source[i + j]

    def rows(self) -> list[list]:
        return [[self.source[i + j] for j in range(self.dim)] for i in range(self.dim)]


def _scale_to_integers(values) -> tuple[list[int], int]:
    """The integers L*v and their least common denominator L."""
    qs = []
    for i, v in enumerate(values):
        if not isinstance(v, (int, Fraction)):
            try:
                v = Fraction(v)
            except TypeError:
                raise TypeError(
                    f"Hankel determinants need rational terms; term {i} is {v!r}"
                ) from None
        qs.append(v)
    lcd = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (lcd // q.denominator) for q in qs], lcd


def _bareiss_step(m: list[list[int]], k: int, prev: int) -> None:
    """Eliminate below pivot m[k][k]; prev is the previous pivot, 1 at k = 0.

    Every division is exact, and afterwards m[k+1][k+1] is the minor of
    rows and columns 0..k+1 (of the row-permuted matrix, if rows were swapped).
    """
    top = m[k][k + 1:]
    pivot = m[k][k]
    for row in m[k + 1:]:
        a = row[k]
        row[k + 1:] = [(x * pivot - a * t) // prev for x, t in zip(row[k + 1:], top)]


def _det_bareiss(m: list[list[int]]) -> int:
    """Integer determinant by Bareiss elimination with row swaps, in place."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        _bareiss_step(m, k, prev)
        prev = m[k][k]
    return sign * m[-1][-1]


def determinant(rows: list[list]):
    """Exact determinant of a square matrix of rationals.

    An ``int`` when every entry is integral, a ``Fraction`` otherwise.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return 1
    flat, lcd = _scale_to_integers(e for row in rows for e in row)
    det = _det_bareiss([flat[i * n:(i + 1) * n] for i in range(n)])
    return det if lcd == 1 else Fraction(det, lcd**n)


def hankel_transform(seq, m_max: int) -> list:
    """h_m = det(a_{i+j}) over 0 <= i,j <= m, for m = 0 .. m_max.

    Every h_m is an ``int`` when a_0 .. a_{2 m_max} are all integral and a
    ``Fraction`` otherwise.
    """
    seq = tuple(seq)
    if len(seq) < 2 * m_max + 1:
        raise ValueError(
            f"need {2 * m_max + 1} sequence terms for m_max={m_max}, got {len(seq)}"
        )
    scaled, lcd = _scale_to_integers(seq[:2 * m_max + 1])
    scaled = tuple(scaled)
    dim = m_max + 1
    m = HankelMatrix(scaled, dim).rows()
    h = []
    prev = 1
    for k in range(dim):
        pivot = m[k][k]
        if pivot == 0:
            h.append(0)
            h += [determinant(HankelMatrix(scaled, j + 1).rows()) for j in range(k + 1, dim)]
            break
        h.append(pivot)
        _bareiss_step(m, k, prev)
        prev = pivot
    if lcd == 1:
        return h
    return [Fraction(v, lcd ** (k + 1)) for k, v in enumerate(h)]


def expand_rational(num, den, n_terms: int) -> list[Fraction]:
    """Power-series coefficients of num(x)/den(x) by the linear recurrence
    c_n = (num_n - sum_{i>=1} den_i c_{n-i}) / den_0."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    if not den or den[0] == 0:
        raise ValueError("denominator needs a nonzero constant term")
    inv0 = 1 / den[0]
    out: list[Fraction] = []
    for n in range(n_terms):
        acc = num[n] if n < len(num) else Fraction(0)
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc * inv0)
    return out


@dataclass(frozen=True)
class GfMatchReport:
    """Outcome of comparing a sequence against a rational generating function."""

    n_checked: int
    first_mismatch: int | None  # index, or None when all terms agree

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None

    def __bool__(self):
        return self.ok


def match_rational_gf(seq, num, den, n_check: int) -> GfMatchReport:
    """Expand num/den to n_check terms and report agreement with ``seq``."""
    seq = list(seq)
    if len(seq) < n_check:
        raise ValueError(f"sequence has {len(seq)} terms, need {n_check}")
    expansion = expand_rational(num, den, n_check)
    for i in range(n_check):
        if Fraction(seq[i]) != expansion[i]:
            return GfMatchReport(n_checked=n_check, first_mismatch=i)
    return GfMatchReport(n_checked=n_check, first_mismatch=None)
