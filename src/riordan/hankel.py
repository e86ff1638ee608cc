"""Exact Hankel transforms.

``hankel_transform`` finds every leading minor at once, and takes no
determinant.  The leading Hankel minors h_k = det(a_{i+j})_{0<=i,j<=k},
k = 0 .. m, are the signed subresultant coefficients h_k = sRes_{2m-k}(P, Q)
of P = x^(2m+1) and Q = sum a_i x^(2m-i), whose quotient
Q/P = sum a_i x^(-i-1) has the a_i as its Markov parameters.  The signed
subresultant algorithm of Basu, Pollack and Roy (BPR, *Algorithms in Real
Algebraic Geometry*, Algorithm 8.21) computes all of them, zeros included, as
one remainder chain of polynomials sResP_l, each in the slot l of its nominal
degree:

- a regular step, where the degree drops by one, is a three-term recurrence,
  the fraction-free form of Chebyshev's algorithm for J-fractions;
- after a zero minor the degree drops by z + 1 > 1: the z coefficients in
  between are 0, the next one follows from BPR's t-recurrence, and the next
  polynomial is one pseudo-remainder.

Every division is exact.  Each quotient in the chain is a subresultant
coefficient or a coefficient of a subresultant polynomial, which is a
determinant of integer entries.  The t-recurrence steps through t (t/s)^d for
d = 1 .. z, and t (t/s)^z = +-s_k is such a coefficient, so the denominator of
(t/s)^z divides t and every step is integral too.

The chain only reads top coefficients: slot l keeps its degrees >= 2m - l,
because no lower coefficient reaches an s_l with l >= m.  So the transform
takes O(m^2) exact divisions, and a zero minor costs no more than a nonzero
one.  On rationals it runs on the scaled terms L a_i, where L is the least
common denominator of the terms; their minors are L^(k+1) h_k.
"""

from __future__ import annotations

from .exact import QQ, over_common_denominator, rational


def _scale_to_integers(values) -> tuple[list[int], int]:
    """The integers L*v and their least common denominator L, for the
    elements v of Q by ``QQ.coerce``'s rule."""
    qs = []
    for i, v in enumerate(values):
        try:
            qs.append(QQ.coerce(v))
        except TypeError:
            raise TypeError(
                f"Hankel determinants need rational terms; term {i} is {v!r}"
            ) from None
    return over_common_denominator(qs)


def hankel_transform(seq, m_max: int) -> list:
    """h_m = det(a_{i+j}) over 0 <= i,j <= m, for m = 0 .. m_max.

    One signed subresultant chain of x^(2 m_max + 1) and the scaled terms (see
    the module docstring): O(m_max^2) exact integer divisions, with or without
    zero minors.  Each h_m is a canonical element of Q: an ``int`` when it is
    integral, which it is whenever a_0 .. a_{2 m_max} are, and a ``Fraction``
    otherwise.
    """
    if m_max < 0:
        raise ValueError(f"need m_max >= 0, got {m_max}")
    seq = tuple(seq)
    if len(seq) < 2 * m_max + 1:
        raise ValueError(
            f"need {2 * m_max + 1} sequence terms for m_max={m_max}, got {len(seq)}"
        )
    m = m_max
    scaled, lcd = _scale_to_integers(seq[:2 * m + 1])
    # a = sResP_(i-1), of degree j, with s = s_j; b = sResP_(j-1).  Each is the
    # list of its coefficients from its slot's degree down to degree 2m - slot.
    a, s, j = [1] + [0] * (2 * m + 1), 1, 2 * m + 1
    b = scaled
    h = []  # s_2m, s_2m-1, ...: h_k = s_(2m-k)
    while len(h) <= m:
        z = 0
        while z < len(b) and not b[z]:
            z += 1
        if z == len(b):
            break  # sResP_(j-1) = 0, and so is every later s_l
        b = b[z:]
        k = j - 1 - z  # the degree of sResP_(j-1)
        t = sk = b[0]  # t_(j-1), the leading coefficient of b
        for delta in range(1, z + 1):  # t_(j-1-delta); s_(j-1) .. s_(k+1) are 0
            sk = (-1) ** delta * t * sk // s
        h += [0] * z + [sk]
        if k <= m:
            break
        if z == 0:
            # -Rem(t^2 a, b) / (s a_0) in closed form: the quotient is t a_0 x + q0
            q0, ta, tt, d = t * a[1] - a[0] * b[1], t * a[0], t * t, s * a[0]
            b_next = [(q0 * x + ta * y - tt * w) // d for x, y, w in zip(b[1:], b[2:], a[2:])]
        else:
            # -s_k prem(a, b) / (t^(j-k) s a_0), prem(a, b) = Rem(t^(j-k+1) a, b)
            r = a[:len(b)]
            for _ in range(z + 2):
                c = r[0]
                r = [t * x - c * y for x, y in zip(r[1:], b[1:])]
            d = t ** (z + 1) * s * a[0]
            b_next = [-sk * x // d for x in r]
        a, b, s, j = b, b_next, sk, k
    h = (h + [0] * (m + 1))[:m + 1]
    return [rational(v, lcd ** (n + 1)) for n, v in enumerate(h)]
