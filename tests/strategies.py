"""Hypothesis strategies shared by the test modules.

Every exact value is built by construction, never drawn and then thrown away:

- a rational is an integer numerator over one drawn denominator;
- a polynomial over Q[y], Q[a] or Q[a][b] is a list of integer numerators
  over one drawn denominator, built with ``ring.poly``;
- a nonzero value is a drawn sign times a magnitude of at least 1;
- a series has its head fixed by construction.

No strategy, here or in a test module, draws from Hypothesis's fractions
strategy, filters or assumes: each of them rejects draws, which Hypothesis
reports as invalid examples and pays for in generation time.  Each strategy
is built once: the builders are cached, and the recursive expression
strategy is built level by level.
"""

import functools
import operator
from fractions import Fraction

from hypothesis import strategies as st

from riordan.exact import QA, QAB, QQ, QY
from riordan.gfparse import FUNCTIONS, VARIABLES
from riordan.series import from_coeffs


@functools.cache
def nonzero_ints(bound):
    """Integers in -bound..bound other than 0."""
    return st.builds(operator.mul, st.sampled_from([1, -1]), st.integers(1, bound))


@functools.cache
def q_values(bound, max_den=1):
    """Fractions n/d with n in -bound..bound and d in 1..max_den."""
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, max_den))


@functools.cache
def nonzero_q_values(bound, max_den=1):
    """Fractions n/d with n in -bound..bound other than 0 and d in 1..max_den."""
    return st.builds(Fraction, nonzero_ints(bound), st.integers(1, max_den))


def _over(ring, den, nums):
    if ring is QAB:
        return QAB.poly([_over(QA, den, row) for row in nums])
    return ring.poly([Fraction(n, den) for n in nums])


@functools.cache
def q_polys(ring, length, bound, max_den=1):
    """Elements of ``ring`` (Q[y], Q[a] or Q[a][b]) with at most ``length``
    coefficients in each variable: numerators in -bound..bound over one
    denominator in 1..max_den."""
    nums = st.lists(st.integers(-bound, bound), max_size=length)
    if ring is QAB:
        nums = st.lists(nums, max_size=length)
    return st.builds(functools.partial(_over, ring), st.integers(1, max_den), nums)


# Q, Q[y], Q[a] and Q[a][b] for the ring laws: numerators in -100..100 over a
# denominator up to 20, up to 9 coefficients in y and 4 in each of a and b.
rationals = q_values(100, 20)
qy_polys = q_polys(QY, 9, 100, 20)
qa_polys = q_polys(QA, 4, 100, 20)
qab_polys = q_polys(QAB, 4, 100, 20)


# Elements of each ring for the fused multiply-accumulate ``ring.dot``: zero,
# constants and polynomials, with the coefficients still reducing to mixed
# denominators.
small_rationals = q_values(40, 12)
q_elements = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-9, 9), small_rationals)
qy_elements = st.one_of(st.just(QY.zero()), small_rationals.map(QY.coerce), q_polys(QY, 6, 40, 12))
qa_elements = st.one_of(st.just(QA.zero()), small_rationals.map(QA.coerce), q_polys(QA, 4, 40, 12))
qab_elements = st.one_of(st.just(QAB.zero()), small_rationals.map(QAB.coerce),
                         qa_elements.map(QAB.coerce),
                         st.lists(qa_elements, max_size=4).map(QAB.poly))
dot_rings = st.sampled_from([(QY, qy_elements), (QA, qa_elements), (QAB, qab_elements)])


def _q_input(form, n, d):
    return (n, bool(n), Fraction(n), Fraction(n, 2), Fraction(n, d))[form]


# Elements of Q in every form a caller may pass: an int, a bool, an integral
# Fraction, a half or n/d, with |n| <= 6 and d <= 4.  Integral values arrive
# as ints, bools and integral Fractions alike, so every path has to
# canonicalize them rather than pass them through; halves make integral sums
# and products of non-integral values common.
q_inputs = st.builds(_q_input, st.integers(0, 4), st.integers(-6, 6), st.integers(1, 4))
q_units = st.builds(_q_input, st.integers(0, 4), nonzero_ints(6), st.integers(1, 4))
q_positives = st.builds(_q_input, st.integers(0, 4), st.integers(1, 6), st.integers(1, 4))
zeros = st.just(0)
signs = st.sampled_from([1, -1])


@functools.cache
def q_series(order, head=(), tail=None):
    """Series over Q of ``order`` coefficients: one value of each strategy in
    ``head``, then the list that ``tail`` draws (by default the other
    coefficients, all from ``q_inputs``), zero padded."""
    if tail is None:
        tail = st.lists(q_inputs, min_size=order - len(head), max_size=order - len(head))
    return st.builds(lambda h, t: from_coeffs(QQ, [*h, *t], order), st.tuples(*head), tail)


# d of a Bell array (d, x*d) over Q, with d(0) = +-1 so that the array has an
# inversion: 12 coefficients, the tail from q_inputs.
bell_d = q_series(12, (signs,))


@functools.cache
def hankel_sources(max_m=7):
    """(seq, m) with 2m+1 integer, rational, zero-heavy or gapped terms.

    Zero-heavy sequences often have zero minors.  Gapped ones put runs of 1-6
    zeros at the start and in the middle, so the subresultant chain drops its
    degree by 3 or more.  Rationals share one denominator.
    """
    kinds = st.sampled_from(["integers", "rationals", "zero-heavy", "gapped"])
    zero_heavy = st.sampled_from([0, 0, 0, 1, -1])

    @st.composite
    def sources(draw):
        m = draw(st.integers(0, max_m))
        n = 2 * m + 1
        kind = draw(kinds)
        if kind == "rationals":
            den = draw(st.integers(1, 6))
            nums = draw(st.lists(st.integers(-5 * den, 5 * den), min_size=n, max_size=n))
            return [Fraction(a, den) for a in nums], m
        if kind == "gapped":
            seq = []
            while len(seq) < n:
                seq += [0] * draw(st.integers(1, 6))
                seq += draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
            return seq[:n], m
        term = st.integers(-20, 20) if kind == "integers" else zero_heavy
        return draw(st.lists(term, min_size=n, max_size=n)), m

    return sources()


@functools.cache
def gf_texts(variables=VARIABLES, depth=3):
    """Expressions over ``variables`` with sqrt and rev, at most depth deep.

    ``rev(x + x^2*e)`` always has a unit coefficient of x, so it can be
    reverted whatever ``e`` is."""
    leaves = st.one_of(st.sampled_from(variables), st.integers(0, 9).map(str))
    if depth == 0:
        return leaves
    inner = gf_texts(variables, depth - 1)
    kinds = st.sampled_from(["binop", "binop", "call", "call", "pow", "neg", "reversible"])
    operators = st.sampled_from("+-*/")
    functions = st.sampled_from(FUNCTIONS)

    @st.composite
    def texts(draw):
        if draw(st.integers(0, 3)) == 0:
            return draw(leaves)
        kind = draw(kinds)
        if kind == "binop":
            return f"({draw(inner)}{draw(operators)}{draw(inner)})"
        if kind == "pow":
            return f"({draw(inner)})^{draw(st.integers(0, 5))}"
        if kind == "call":
            return f"{draw(functions)}({draw(inner)})"
        if kind == "reversible":
            return f"rev(x+x^2*{draw(inner)})"
        return f"(-{draw(inner)})"

    return texts()


# Expressions over one coefficient ring: Q, Q[y] or Q[a][b].
one_ring_gf_texts = st.one_of(*(gf_texts(v) for v in [("x",), ("x", "y"), ("x", "a", "b")]))
