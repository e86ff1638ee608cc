"""Hankel transforms via fraction-free Bareiss elimination.

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
from fractions import Fraction


def _hankel_rows(seq: list, dim: int) -> list[list]:
    """The (dim x dim) matrix with entry (i, j) = seq[i + j], as new lists."""
    return [seq[i:i + dim] for i in range(dim)]


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
    dim = m_max + 1
    m = _hankel_rows(scaled, dim)
    h = []
    prev = 1
    for k in range(dim):
        pivot = m[k][k]
        if pivot == 0:
            h.append(0)
            h += [determinant(_hankel_rows(scaled, j + 1)) for j in range(k + 1, dim)]
            break
        h.append(pivot)
        _bareiss_step(m, k, prev)
        prev = pivot
    if lcd == 1:
        return h
    return [Fraction(v, lcd ** (k + 1)) for k, v in enumerate(h)]
