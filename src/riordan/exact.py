"""Exact arithmetic kernel: rationals, nested polynomial rings, small number helpers.

Every other module is generic over a coefficient ring.  A ring is described by
a lightweight descriptor object (``QQ``, ``QY``, ``QA``, ``QAB``) exposing
``zero``/``one``/``coerce``/``invert``/``sqrt``/``dot``; a polynomial ring
adds ``poly`` and ``generator``.  There is one descriptor per ring:
``RationalField()`` is ``QQ`` and ``PolynomialRing(base, var)`` returns the
one ring for that pair, so rings compare by identity.  Every ring element is
canonical, so its zero is exactly its falsy element: ``not x`` is the zero
test.
An element of Q has one canonical form: an ``int`` when it is integral and
a normalized ``fractions.Fraction`` (positive denominator > 1) otherwise,
never a ``bool``, a ``float`` or a ``Fraction`` with denominator 1.  So the
integer arrays of the paper run on Python ints, and ``Fraction`` arithmetic
happens only where a value is not integral.  ``QQ.coerce`` maps any int,
bool or ``Fraction`` to its canonical form; code that keeps a computed
rational passes it through ``coerce``.  Between two ints ``/`` is Python's
true division, a float: use ``rational(a, b)`` or ``QQ.invert`` instead.

The ``fractions`` module (and the ``decimal`` and ``numbers`` it imports)
loads only when a value is not integral: in ``rational`` on a remainder, in
``read_rational`` for text that is not an integer, and in the verify-only
routes of ``families`` and ``verify``.  So a command whose values are all
integral never loads it.  Until it loads, no ``Fraction`` can exist, so the
type tests look for the class only where ``sys.modules`` already holds it.

``ring.dot(terms, den=1)`` is the ring's one fused multiply-accumulate: the
canonical (sum of w*x*y) / den over triples (w, x, y) of an ``int`` weight
w and two ring elements, for an ``int`` den > 0.  Series products, division
and powers build each output coefficient with one ``dot``; the product of
two polynomials is a one-term ``dot`` and their sum or difference a two-term
one.  Polynomials and series share one square-and-multiply,
``power_by_squaring``.

A polynomial over Q (Q[y], Q[a]) does not hold Fractions: it stores integer
numerators over one positive common denominator, in lowest terms, so its
arithmetic runs on Python ints.  Its ring's ``dot`` convolves the numerators
of every term into one list over one common denominator, so a sum of
products is reduced by one gcd, not one per product.  ``Polynomial.coeffs``
gives the canonical rationals for callers outside the arithmetic.
Bivariate polynomials in a and b are realized as polynomials in b whose
coefficients are polynomials in a; there each coefficient of a ``dot`` is
one ``dot`` over Q[a].
"""

from __future__ import annotations

import math
import sys
from functools import cache

from ._value import Value

# Base scalar type, canonical: an int when integral, else a normalized
# Fraction with denominator > 1 (see ``rational``).  A string, so that naming
# the type does not load ``fractions``.
ExactRational = "int | Fraction"

# The only polynomial variables that ever occur.
POLY_VARS = ("y", "a", "b")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside 0 <= k <= n.

    Negative n also returns 0: the falling-factorial extension to negative
    upper index is deliberately not provided, nothing downstream needs it.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def exact_div(num: int, den: int) -> int:
    """num / den for ints that divide exactly; ArithmeticError on a
    remainder.  The one checked division behind the integral closed forms."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{format_element(num)} not divisible by {format_element(den)}")
    return q


@cache
def catalan(n: int) -> int:
    """n-th Catalan number binomial(2n, n) / (n + 1); cached, because every
    closed-form Catalan-Fibonacci entry of a row asks for the same one."""
    if n < 0:
        raise ValueError(f"catalan: need n >= 0, got {n}")
    return exact_div(math.comb(2 * n, n), n + 1)


def fibonacci(n: int) -> int:
    """Fibonacci numbers with F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError(f"fibonacci: need n >= 0, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def jacobsthal(n: int) -> int:
    """Jacobsthal numbers: J_0 = 0, J_1 = J_2 = 1, J_n = J_{n-1} + 2 J_{n-2}.

    This indexing makes 1/(1 - x - 2x^2) the generating function of J_{n+1}.
    """
    if n < 0:
        raise ValueError(f"jacobsthal: need n >= 0, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, b + 2 * a
    return a


def without_digit_limit(convert, arg):
    """``convert(arg)``, retried with Python's int <-> str digit limit
    (4300 digits by default since 3.11 and in some 3.10 patch releases)
    lifted, only when it raises ValueError, and restored after.  Exact
    values have no size limit, so ``read_rational``, ``format_element`` and
    each message that shows an exact value go through here."""
    try:
        return convert(arg)
    except ValueError:
        if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
            raise
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(arg)
    finally:
        sys.set_int_max_str_digits(previous)


def rational(num: int, den: int) -> ExactRational:
    """The canonical element num/den of Q, den != 0; ``fractions`` loads
    here on the first remainder."""
    q, r = divmod(num, den)
    if not r:
        return q
    from fractions import Fraction
    return Fraction(num, den)


def _is_fraction(x) -> bool:
    """Whether x is a ``Fraction``.  No Fraction exists before ``fractions``
    is loaded, so until then this is False without loading it."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


class RationalField(Value):
    """Descriptor for Q, the base coefficient field.  ``RationalField()`` is
    ``QQ``, its one instance, which copies and unpickles as itself."""

    __slots__ = ()
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls):
        return QQ

    def __reduce__(self):
        return RationalField, ()

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def coerce(self, x) -> ExactRational:
        """The canonical form of an int, bool or Fraction."""
        if type(x) is int:
            return x
        if _is_fraction(x):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):  # a bool or another int subclass
            return int(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def invert(self, x) -> ExactRational:
        x = self.coerce(x)
        if not x:
            raise ZeroDivisionError("inverse of 0 in Q")
        return rational(x.denominator, x.numerator)

    def sqrt(self, x) -> ExactRational:
        """Nonnegative square root, or ValueError if it is not rational."""
        q = self.coerce(x)
        if q < 0:
            raise ValueError(f"{format_element(q)} is negative")
        num, den = q.numerator, q.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise ValueError(f"{format_element(q)} is not a perfect square")
        return rational(rn, rd)

    def dot(self, terms, den: int = 1) -> ExactRational:
        """The canonical (sum of w * x * y over the triples (w, x, y)) / den."""
        acc = 0
        for w, x, y in terms:
            acc += x * y if w == 1 else x * y * w
        if type(acc) is int:
            return acc if den == 1 else rational(acc, den)
        return self.coerce(acc if den == 1 else acc / den)

    def __repr__(self):
        return "Q"


class PolynomialRing(Value):
    """Descriptor for base[var], dense univariate polynomials over ``base``.

    There is one ring per (base, var): ``PolynomialRing(base, var)`` returns
    it, and so do its copies and pickles, so rings compare and hash by
    identity.
    """

    __slots__ = ("base", "var", "over_q", "_one", "_zero")
    __eq__, __hash__ = object.__eq__, object.__hash__
    _interned: dict = {}

    def __new__(cls, base, var: str):
        ring = cls._interned.get((base, var))
        if ring is None:
            if var not in POLY_VARS:
                raise ValueError(f"polynomial variable must be one of {POLY_VARS}")
            ring = object.__new__(cls)
            # Over Q, polynomials store integer numerators over one
            # denominator.  The unit and the zero are built once: every sum
            # is a ``dot`` of each operand with the unit, and every zero
            # that ``dot`` or ``coerce`` returns is the zero.
            Value.__init__(ring, base, var, isinstance(base, RationalField),
                           Polynomial(ring, (base.one(),), 1), Polynomial(ring, (), 1))
            ring = cls._interned.setdefault((base, var), ring)
        return ring

    def __init__(self, base, var: str):
        """Nothing to do: ``__new__`` sets the fields of each ring once."""

    def __reduce__(self):
        return PolynomialRing, (self.base, self.var)

    def poly(self, coeffs) -> "Polynomial":
        """Polynomial from an ascending coefficient list (index = degree): the
        one constructor that brings coefficients to the stored form."""
        coeffs = [self.base.coerce(c) for c in coeffs]
        if not self.over_q:
            return Polynomial(self, *_reduced(coeffs, 1))
        den = math.lcm(*[c.denominator for c in coeffs])
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        return Polynomial(self, *_reduced(nums, den))

    def generator(self) -> "Polynomial":
        return Polynomial(self, (self.base.zero(), self.base.one()), 1)

    def zero(self) -> "Polynomial":
        return self._zero

    def one(self) -> "Polynomial":
        return self._one

    def coerce(self, x) -> "Polynomial":
        if isinstance(x, Polynomial):
            if x.ring is self:
                return x
        elif self.over_q and (isinstance(x, int) or _is_fraction(x)):
            return Polynomial(self, (x.numerator,), x.denominator) if x else self._zero
        return self.poly([x])  # an element of the base chain

    def invert(self, x) -> "Polynomial":
        """Inverse of a unit: only degree-0 polynomials with invertible constant."""
        p = self.coerce(x)
        if p.degree > 0:
            raise ZeroDivisionError(f"{p} is not a unit of {self}")
        if not p:
            raise ZeroDivisionError(f"inverse of 0 in {self}")
        return self.coerce(self.base.invert(p.coeffs[0]))

    def sqrt(self, x) -> "Polynomial":
        p = self.coerce(x)
        if p.degree > 0:
            raise ValueError(f"square root of non-constant polynomial {p}")
        if not p:
            return self.zero()
        return self.coerce(self.base.sqrt(p.coeffs[0]))

    def dot(self, terms, den: int = 1) -> "Polynomial":
        """(The sum of w * x * y over the triples (w, x, y)) / den, for ints
        w and den > 0 and polynomials x, y of this ring.

        Over Q the integer numerators of every product are convolved into
        one list over the least common denominator, and the sum is reduced
        once.  Over any other base each coefficient of the sum is one
        ``dot`` of the base ring over every pair of coefficients that meets
        at its degree, so the base reduces once per coefficient too.
        """
        if not self.over_q:
            sums = []
            for w, x, y in terms:
                a, b = x._c, y._c
                if not (w and a and b):
                    continue
                if len(sums) < len(a) + len(b) - 1:
                    sums += [[] for _ in range(len(a) + len(b) - 1 - len(sums))]
                for i, c in enumerate(a):
                    for j, e in enumerate(b, i):
                        sums[j].append((w, c, e))
            c, d = _reduced([self.base.dot(t, den) for t in sums], 1)
            return Polynomial(self, c, d) if c else self._zero
        out, lcd = [], 1
        for w, x, y in terms:
            a, b = x._c, y._c
            if not (w and a and b):
                continue
            d = x._den * y._den
            if lcd % d:  # widen the common denominator to lcm(lcd, d)
                m = d // math.gcd(lcd, d)
                out = [c * m for c in out]
                lcd *= m
            w *= lcd // d
            if len(a) < len(b):
                a, b = b, a
            if len(out) < len(a) + len(b) - 1:
                out += [0] * (len(a) + len(b) - 1 - len(out))
            for j, c in enumerate(b):
                if c:
                    c *= w
                    for i, e in enumerate(a, j):
                        out[i] += e * c
        c, d = _reduced(out, lcd * den)
        return Polynomial(self, c, d) if c else self._zero

    def __repr__(self):
        return f"{self.base!r}[{self.var}]"


class Polynomial(Value):
    """Dense univariate polynomial over a coefficient ring.  Immutable.

    ``_c`` holds the ascending stored coefficients and ``_den`` a positive
    common denominator.  Over Q the stored coefficients are ``int``
    numerators and the polynomial is sum_k (_c[k] / _den) var^k, kept
    canonical: no trailing zero, gcd(_c..., _den) == 1, and the zero
    polynomial is ((), 1).  So two polynomials over the same ring are equal
    exactly when their stored ints are, and ``+``, ``-`` and ``*`` run on
    ints.  Over any other base (Q[a] inside Q[a][b]) ``_c`` holds the base
    elements themselves, with no trailing zero, and ``_den`` is 1.

    ``coeffs`` is the public view, a tuple of base elements: canonical
    rationals over Q (an ``int`` when integral, else a ``Fraction``), which
    is ``_c`` itself when ``_den`` is 1 and is built on each access
    otherwise; every reader outside the arithmetic reads through it.

    ``Polynomial(ring, c, den)`` takes ``c`` and ``den`` already in this
    stored form; ``ring.poly(coeffs)`` is the constructor that brings any
    coefficients to it.
    """

    __slots__ = ("ring", "_c", "_den")

    @property
    def coeffs(self) -> tuple:
        """Ascending coefficients as base elements; canonical rationals over Q."""
        den = self._den
        if den == 1:
            return self._c
        return tuple(rational(c, den) for c in self._c)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._c) - 1

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        try:
            other = self.ring.coerce(other)
        except TypeError:
            return NotImplemented
        return self._c == other._c and self._den == other._den

    def __hash__(self):
        # Constants hash like their constant so x == c implies equal hashes.
        if not self._c:
            return hash(0)
        if len(self._c) == 1:
            return hash(self.coeffs[0])
        return hash((self.ring.var, self._c, self._den))

    def __neg__(self):
        return Polynomial(self.ring, tuple([-c for c in self._c]), self._den)

    def _sum(self, other, w: int, v: int):
        """w * self + v * other through the ring's ``dot``."""
        ring = self.ring
        try:
            other = ring.coerce(other)
        except TypeError:
            return NotImplemented
        one = ring.one()
        return ring.dot(((w, self, one), (v, other, one)))

    def __add__(self, other):
        return self._sum(other, 1, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, 1, -1)

    def __rsub__(self, other):
        return self._sum(other, -1, 1)

    def __mul__(self, other):
        try:
            other = self.ring.coerce(other)
        except TypeError:
            return NotImplemented
        return self.ring.dot(((1, self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a unit of the ring (constant); anything else raises."""
        return self * self.ring.invert(other)

    def __pow__(self, n: int):
        return power_by_squaring(self, n, self.ring.one(), "polynomial")

    def __call__(self, value):
        """Evaluate by Horner at a point of the coefficient ring."""
        base = self.ring.base
        v = base.coerce(value)
        if not self.ring.over_q:
            acc = base.zero()
            for c in reversed(self._c):
                acc = acc * v + c
            return acc
        if not self._c:
            return base.zero()
        # Horner on integers at v = p/q: after k steps, acc / (q^k * _den) is
        # the Horner partial sum of the top k+1 coefficients
        p, q = v.numerator, v.denominator
        acc, q_power = self._c[-1], 1
        for c in reversed(self._c[:-1]):
            q_power *= q
            acc = acc * p + c * q_power
        return rational(acc, q_power * self._den)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{self.ring!r}: {self}>"


def power_by_squaring(x, n: int, one, what: str):
    """x^n by repeated squaring, for an int n >= 0; ``one`` is x^0 and
    ``what`` names the kind of x in the error for any other n."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"{what} power needs integer n >= 0, got {n!r}")
    result, square = one, x
    while n:
        if n & 1:
            result = result * square
        n >>= 1
        if n:
            square = square * square
    return result


def _reduced(nums: list, den: int) -> tuple[tuple, int]:
    """Canonical stored form of sum_k (nums[k] / den) var^k, den > 0:
    trailing zeros dropped and, over Q, the common factor of numerators and
    denominator divided out (over any other base ``den`` is 1)."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return tuple(nums), den


QQ = object.__new__(RationalField)
QY = PolynomialRing(QQ, "y")
QA = PolynomialRing(QQ, "a")
QAB = PolynomialRing(QA, "b")


def _format_coefficient(c) -> tuple[str, bool]:
    """Render a coefficient; the flag says whether it needs parentheses."""
    s = format_element(c)
    need_parens = ("+" in s[1:]) or ("-" in s[1:])
    return s, need_parens


def read_rational(text: str) -> ExactRational:
    """The canonical element of Q that ``text`` writes in ASCII digits, of
    any number of them, in the grammar of ``Fraction(text)``: an integer, a
    decimal or p/q.  Exponent notation (a few characters could ask for any
    power of ten), ``_`` and other digits are refused with a ValueError that
    names the text, so the grammar is the same on every Python version;
    other malformed text gets ``Fraction``'s error.  An integer, signed or
    not, is read by ``int`` without loading ``fractions``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"'_' and non-ASCII characters are not accepted in {text!r}")
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted in {text!r}")
    # strip() removes what Fraction's pattern takes as whitespace, some of
    # which (such as "\x1c") int() refuses, so int reads the stripped text
    stripped = text.strip()
    digits = stripped[1:] if stripped[:1] in ("+", "-") else stripped
    if digits.isdigit():
        return without_digit_limit(int, stripped)
    from fractions import Fraction
    return QQ.coerce(without_digit_limit(Fraction, text))


def format_element(x) -> str:
    """Canonical exact rendering: integers bare, rationals p/q, polynomials
    in descending powers with explicit '*', whatever their number of digits
    (see ``without_digit_limit``)."""
    if isinstance(x, int) or _is_fraction(x):
        return without_digit_limit(str, x)
    if isinstance(x, Polynomial):
        coeffs = x.coeffs
        if not coeffs:
            return "0"
        var = x.ring.var
        parts = []
        for k in range(x.degree, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            s, parens = _format_coefficient(c)
            if k == 0:
                term = f"({s})" if parens else s
            else:
                power = var if k == 1 else f"{var}^{k}"
                if parens:
                    term = f"({s})*{power}"
                elif s == "1":
                    term = power
                elif s == "-1":
                    term = f"-{power}"
                else:
                    term = f"{s}*{power}"
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append("-")
                parts.append(term[1:])
            else:
                parts.append("+")
                parts.append(term)
        return "".join(parts)
    raise TypeError(f"cannot format {x!r}")
