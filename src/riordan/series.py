"""Truncated formal power series in x over an exact coefficient ring.

A series carries exactly ``order`` coefficients c_0 .. c_{order-1}; binary
operations truncate to the smaller order, so precision can shrink but never
silently degrade.  A scalar operand of ``+ - * /`` is the constant series of
the other operand's order, so each operation has one path.  Everything is
exact: composition is Horner's rule in the series ring.  Reversion (Lagrange
inversion, see ``PowerSeries.revert``) and the square root both form a power
h^(p/q) by J.C.P. Miller's recurrence (``_miller_power``), summed over the
nonzero coefficients of h only, with integer weights: the exponent is passed
as p/q and q goes into the integer divisor of each step.  A square root
needs the constant term to have an exact root.

Every output coefficient of ``*``, ``/`` and ``_miller_power`` is one call
of the ring's fused multiply-accumulate ``ring.dot`` (see ``exact``): the
loops here only gather the (weight, factor, factor) terms of each
coefficient, and the ring sums them with one reduction.
"""

from __future__ import annotations

from ._value import Value
from .exact import PolynomialRing, _format_coefficient, power_by_squaring


class PowerSeries(Value):
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(ring.coerce(c) for c in coeffs))

    @property
    def order(self) -> int:
        """Number of retained coefficients."""
        return len(self.coeffs)

    def truncate(self, order: int) -> "PowerSeries":
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if order > len(self.coeffs):
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return PowerSeries(self.ring, self.coeffs[:order])

    def _binary(self, other) -> "PowerSeries":
        """The other operand as a series: a scalar is the constant series of
        this order, or of order 1 when this one is order 0 (a constant needs
        its one coefficient), and the result still truncates to order 0."""
        if not isinstance(other, PowerSeries):
            return constant(self.ring, other, max(len(self.coeffs), 1))
        if other.ring is not self.ring:
            raise TypeError(f"mixed series rings {self.ring!r} and {other.ring!r}")
        return other

    def __neg__(self):
        return PowerSeries(self.ring, [-c for c in self.coeffs])

    def __add__(self, other):
        g = self._binary(other)
        return PowerSeries(self.ring, [a + b for a, b in zip(self.coeffs, g.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        g = self._binary(other)
        return PowerSeries(self.ring, [a - b for a, b in zip(self.coeffs, g.coeffs)])

    def __rsub__(self, other):
        g = self._binary(other)
        return PowerSeries(self.ring, [b - a for a, b in zip(self.coeffs, g.coeffs)])

    def __mul__(self, other):
        g = self._binary(other)
        ring = self.ring
        n = min(len(self.coeffs), len(g.coeffs))
        # the terms of each out_k: one per pair of nonzero f_i, g_j, i + j = k
        sums = [[] for _ in range(n)]
        g_terms = _nonzero(g.coeffs[:n])
        for i, a in _nonzero(self.coeffs[:n]):
            for j, b in g_terms:
                if i + j >= n:
                    break
                sums[i + j].append((1, a, b))
        return PowerSeries(ring, list(map(ring.dot, sums)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Long division; the divisor needs an invertible constant term."""
        ring = self.ring
        g = self._binary(other)
        if not g.coeffs or not g.coeffs[0]:
            raise ZeroDivisionError("division by series with zero constant term")
        inv0, one = ring.invert(g.coeffs[0]), ring.one()
        n = min(len(self.coeffs), len(g.coeffs))
        # out_k = f_k/g_0 + sum_{i=1..k} (-g_i/g_0) out_{k-i}: one dot per k,
        # over canonical factors, so integral data stays on int arithmetic
        f = [ring.coerce(c * inv0) for c in self.coeffs[:n]]
        minus_inv0 = -inv0
        g_tail = [(i, ring.coerce(b * minus_inv0)) for i, b in _nonzero(g.coeffs[1:n], 1)]
        out = []
        for k in range(n):
            # the tail is ascending in i >= 1, so g_tail[:k] holds every i <= k
            terms = [(1, b, out[k - i]) for i, b in g_tail[:k] if i <= k]
            if f[k]:
                terms.append((1, f[k], one))
            out.append(ring.dot(terms))
        return PowerSeries(ring, out)

    def __rtruediv__(self, other):
        return self._binary(other) / self

    def __pow__(self, n: int):
        return power_by_squaring(self, n, self._binary(1), "series")

    def mul_x(self) -> "PowerSeries":
        """Multiply by x; the order grows by one (explicitly, never silently)."""
        return PowerSeries(self.ring, (self.ring.zero(),) + self.coeffs)

    def div_x(self) -> "PowerSeries":
        """Divide by x: shift coefficients down; the constant term must vanish."""
        if not self.coeffs:
            raise ValueError("cannot shift an order-0 series")
        if self.coeffs[0]:
            raise ValueError("div_x needs a zero constant term")
        return PowerSeries(self.ring, self.coeffs[1:])

    def sqrt(self) -> "PowerSeries":
        """Square root with nonnegative constant-term root.

        The power f^(p/q) with p/q = 1/2 by J.C.P. Miller's recurrence (see
        ``_miller_power``) from q_0 = sqrt(f_0), with the integer weights
        3 j - 2 k, summed over the nonzero f_j only: O(N s) ring products for
        s nonzero f_j, so a binomial 1 - c x^k costs O(N).  The constant term
        must have an exact root and be a unit.
        """
        ring = self.ring
        N = len(self.coeffs)
        if not N:
            raise ValueError("cannot take sqrt of an order-0 series")
        if not self.coeffs[0]:
            raise ValueError("sqrt needs a nonzero constant term; shift powers of x out first")
        q0 = ring.sqrt(self.coeffs[0])
        f0_inv = ring.invert(self.coeffs[0])
        f_tail = [(j, ring.coerce(c * f0_inv)) for j, c in _nonzero(self.coeffs[1:], 1)]
        return PowerSeries(ring, _miller_power(ring, f_tail, 1, 2, q0, N))

    def compose(self, g: "PowerSeries") -> "PowerSeries":
        """f(g(x)) by Horner in the series ring; g must have zero constant term.

        Since g = O(x), the Horner partial sum that is still to be multiplied
        by g^k only matters through x^(n-1-k), so each step works at that
        order: acc <- x (acc * g/x) + c grows by one coefficient per step.
        """
        if not isinstance(g, PowerSeries) or g.ring is not self.ring:
            raise TypeError("compose needs a series over the same ring")
        if not g.coeffs or g.coeffs[0]:
            raise ValueError("compose needs inner series with zero constant term")
        n = min(len(self.coeffs), len(g.coeffs))
        g_over_x = g.div_x()
        acc = PowerSeries(self.ring, ())
        for c in reversed(self.coeffs[:n]):
            acc = (acc * g_over_x).mul_x() + c
        return acc

    def revert(self) -> "PowerSeries":
        """Compositional inverse u with f(u(x)) = x = u(f(x)).

        Needs f = c_1 x + O(x^2) with c_1 a unit.  By Lagrange inversion,
        with g = f/x and phi = 1/g,

            u_0 = 0,   u_n = (1/n) [x^(n-1)] phi^n   (n >= 1).

        Only the coefficients P_0 .. P_{n-1} of phi^n = h^a are formed, by
        J.C.P. Miller's power recurrence (``_miller_power``) summed over the
        nonzero h_j only.  h is whichever of g (a = -n) and
        phi (a = n) has fewer nonzero coefficients, ties going to g: a
        polynomial f such as x - x^2 has a sparse g, a rational f such as
        x/(1-x-x^2) a sparse phi.  With s nonzero h_j the cost is O(N^2 s)
        ring products.  The divisions by k and by n are the integer divisor
        of a ``ring.dot``, so integral data makes no ``Fraction``; they need
        Q inside the ring, which holds for every ring here.
        """
        ring = self.ring
        N = len(self.coeffs)
        if N < 2:
            raise ValueError("reversion needs order >= 2")
        if self.coeffs[0]:
            raise ValueError("reversion needs a zero constant term")
        if not self.coeffs[1]:
            raise ValueError("reversion needs a nonzero coefficient of x")
        c1_inv = ring.invert(self.coeffs[1])
        g = self.div_x()
        phi = 1 / g

        g_tail, phi_tail = _nonzero(g.coeffs[1:], 1), _nonzero(phi.coeffs[1:], 1)
        if len(phi_tail) < len(g_tail):
            h_tail, sign, h0_inv = phi_tail, 1, self.coeffs[1]
        else:
            h_tail, sign, h0_inv = g_tail, -1, c1_inv
        h_tail = [(j, ring.coerce(c * h0_inv)) for j, c in h_tail]
        u = [ring.zero()]
        p0 = one = ring.one()
        for n in range(1, N):
            p0 = p0 * c1_inv  # h_0^a = c_1^(-n) for either choice of h
            P = _miller_power(ring, h_tail, sign * n, 1, p0, n)
            u.append(ring.dot(((1, P[n - 1], one),), n))
        return PowerSeries(ring, u)

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            s, parens = _format_coefficient(c)
            if parens:
                s = f"({s})"
            term = s if n == 0 else (f"{s}*x" if n == 1 else f"{s}*x^{n}")
            parts.append(term)
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(x^{self.order})"

    def __repr__(self):
        return f"<series over {self.ring!r}: {self}>"


def _nonzero(coeffs, start: int = 0) -> list:
    """The pairs (start + i, coeffs[i]) with coeffs[i] nonzero, ascending.
    The coefficients of a series are canonical ring elements, so the zero
    element is exactly the falsy one."""
    return [(j, c) for j, c in enumerate(coeffs, start) if c]


def _miller_power(ring, h_tail, p: int, q: int, p0, n: int) -> list:
    """Coefficients P_0 .. P_{n-1} of h^(p/q), by J.C.P. Miller's recurrence

        P_0 = h_0^a,   P_k = 1/(q k) sum_{j=1..k} ((p+q) j - q k) (h_j/h_0) P_{k-j}

    for a = p/q: this is 1/(k h_0) sum ((a+1) j - k) h_j P_{k-j} with q
    multiplied through, so every weight is an integer and the divisor q k
    is one.  ``h_tail`` holds the pairs (j, h_j/h_0) with j >= 1 and h_j
    nonzero, ascending in j, and ``p0`` is h_0^a.  Each P_k is one
    ``ring.dot`` over the nonzero h_j only, so s of them cost O(n s) ring
    products, and it is canonical, so integral data stays on int
    arithmetic.  The division by q k needs Q inside the ring, which holds
    for every ring here.
    """
    pq = p + q
    P = [p0]
    for k in range(1, n):
        qk = q * k
        # the tail is ascending in j >= 1, so h_tail[:k] holds every j <= k
        P.append(ring.dot([(pq * j - qk, hj, P[k - j]) for j, hj in h_tail[:k] if j <= k], qk))
    return P


def from_coeffs(ring, coeffs, order: int | None = None) -> PowerSeries:
    """Series from an explicit coefficient list, zero-padded to ``order``."""
    coeffs = list(coeffs)
    if order is not None:
        if len(coeffs) > order:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs += [ring.zero()] * (order - len(coeffs))
    return PowerSeries(ring, coeffs)


def constant(ring, value, order: int) -> PowerSeries:
    return from_coeffs(ring, [value], order)


def x_series(ring, order: int) -> PowerSeries:
    return from_coeffs(ring, [0, 1], order)


def generator_series(ring: PolynomialRing, name: str, order: int) -> PowerSeries:
    """Constant series whose value is the named generator of the ring chain."""
    r = ring
    while isinstance(r, PolynomialRing):
        if r.var == name:
            return constant(ring, ring.coerce(r.generator()), order)
        r = r.base
    raise KeyError(f"ring {ring!r} has no generator {name!r}")
