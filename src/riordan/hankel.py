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
matrix, whose minors are L^(k+1) h_k.  A Hankel matrix is symmetric, and
without row swaps so is every trailing block, so that pass stores and updates
only the upper triangle.  A zero pivot h_k stops it; each later minor can still
be nonzero (for 0, 1, 0, 0, 0: h_0 = 0, h_1 = -1).  Minor j is then continued
from the eliminated block k..j, with row swaps, from the last nonzero pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import rational


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


def _det_bareiss(m: list[list[int]], prev: int = 1) -> int:
    """Integer determinant by Bareiss elimination with row swaps, in place.

    Every division is exact.  Started from prev, the last pivot of an earlier
    pass, on a trailing block that pass left, it returns the determinant of
    the whole matrix that pass eliminated.
    """
    n = len(m)
    sign = 1
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
    return sign * m[-1][-1]


def determinant(rows: list[list]):
    """Exact determinant of a square matrix of rationals, as a canonical
    element of Q: an ``int`` when it is integral, a ``Fraction`` otherwise.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return 1
    flat, lcd = _scale_to_integers(e for row in rows for e in row)
    det = _det_bareiss([flat[i * n:(i + 1) * n] for i in range(n)])
    return rational(det, lcd**n)


def hankel_transform(seq, m_max: int) -> list:
    """h_m = det(a_{i+j}) over 0 <= i,j <= m, for m = 0 .. m_max.

    Each h_m is a canonical element of Q: an ``int`` when it is integral,
    which it is whenever a_0 .. a_{2 m_max} are, and a ``Fraction`` otherwise.
    """
    seq = tuple(seq)
    if len(seq) < 2 * m_max + 1:
        raise ValueError(
            f"need {2 * m_max + 1} sequence terms for m_max={m_max}, got {len(seq)}"
        )
    scaled, lcd = _scale_to_integers(seq[:2 * m_max + 1])
    dim = m_max + 1
    # row i keeps columns i .. m_max: u[i][j - i] is entry (i, j) and also (j, i)
    u = [scaled[2 * i:i + dim] for i in range(dim)]
    h = []
    prev = 1
    for k in range(dim):
        top = u[k]
        pivot = top[0]
        if pivot == 0:
            block = [[u[min(r, c)][abs(c - r)] for c in range(k, dim)] for r in range(k, dim)]
            h.append(0)
            h += [_det_bareiss([row[:n] for row in block[:n]], prev)
                  for n in range(2, dim - k + 1)]
            break
        h.append(pivot)
        for i in range(k + 1, dim):
            a = top[i - k]
            u[i] = [(x * pivot - a * t) // prev for x, t in zip(u[i], top[i - k:])]
        prev = pivot
    return [rational(v, lcd ** (k + 1)) for k, v in enumerate(h)]
