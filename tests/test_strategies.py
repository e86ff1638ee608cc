"""The shared strategies are not narrower than the values the tests need.

Each strategy in ``strategies.py`` must reach zero, a negative value, an
integral value (an ``int`` after ``QQ.coerce``) and a value with denominator
> 1, its largest length or degree, and, for ring elements, every ring it
serves.  Each test makes one ``find`` per strategy, which stops once every
property has held for some draw, so a check costs tens of draws; it fails
naming the properties that no draw reached.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, find, settings
from hypothesis.errors import NoSuchExample

import strategies as s
from riordan.exact import QA, QAB, QQ, QY, Polynomial

# Only the generate phase: shrinking would minimize a draw that is not used.
FIRST_MATCH = settings(max_examples=2000, phases=[Phase.generate], database=None)


def assert_reaches(strategy, **properties):
    """Every one of ``properties`` (name: predicate) holds for some draw of
    ``strategy``: one ``find`` that stops once each has been seen."""
    unseen = dict(properties)

    def all_seen(v):
        for name, holds in list(unseen.items()):
            if holds(v):
                del unseen[name]
        return not unseen

    try:
        find(strategy, all_seen, settings=FIRST_MATCH)
    except NoSuchExample:
        pytest.fail(f"no draw reached {', '.join(unseen)}")


def q_values_in(v):
    """The elements of Q in ``v``: ``v`` itself, or every coefficient of a
    polynomial, down to Q."""
    if isinstance(v, Polynomial):
        return [c for p in v.coeffs for c in q_values_in(p)]
    return [v]


def is_zero(v):
    return v == 0


def is_negative(v):
    return any(c < 0 for c in q_values_in(v))


def is_integral(v):
    values = q_values_in(v)
    return any(values) and all(type(QQ.coerce(c)) is int for c in values)


def has_denominator(v):
    return any(type(QQ.coerce(c)) is Fraction for c in q_values_in(v))


SIGNS_AND_DENOMINATORS = {
    "zero": is_zero,
    "negative": is_negative,
    "integral": is_integral,
    "denominator": has_denominator,
}

RATIONALS = {
    "rationals": s.rationals,
    "small_rationals": s.small_rationals,
    "q_elements": s.q_elements,
    "q_inputs": s.q_inputs,
}


@pytest.mark.parametrize("name", RATIONALS)
def test_rationals(name):
    assert_reaches(RATIONALS[name], **SIGNS_AND_DENOMINATORS)


def test_q_inputs_reach_every_form_of_an_integer():
    assert_reaches(s.q_inputs, **{
        form.__name__: lambda v, form=form: type(v) is form and Fraction(v).denominator == 1
        for form in (int, bool, Fraction)
    })


# name: (strategy, whether it draws negative values and denominators)
NONZERO = {
    "nonzero_ints(10**6)": (s.nonzero_ints(10**6), True, False),
    "nonzero_q_values(9, 6)": (s.nonzero_q_values(9, 6), True, True),
    "q_units": (s.q_units, True, True),
    "q_positives": (s.q_positives, False, True),
}


@pytest.mark.parametrize("name", NONZERO)
def test_nonzero_values(name):
    strategy, negative, denominators = NONZERO[name]
    properties = dict(SIGNS_AND_DENOMINATORS, one=lambda v: v == 1)
    del properties["zero"]
    if not negative:
        del properties["negative"]
    if not denominators:
        del properties["denominator"]
    assert_reaches(strategy, **properties)


# name: (strategy, ring, coefficients in each variable, denominators drawn)
POLYNOMIALS = {
    "qy_polys": (s.qy_polys, QY, 9, True),
    "qa_polys": (s.qa_polys, QA, 4, True),
    "qab_polys": (s.qab_polys, QAB, 4, True),
    "q_polys(QAB, 3, 3)": (s.q_polys(QAB, 3, 3), QAB, 3, False),
}


@pytest.mark.parametrize("name", POLYNOMIALS)
def test_polynomials(name):
    strategy, ring, length, denominators = POLYNOMIALS[name]
    properties = dict(SIGNS_AND_DENOMINATORS, ring=lambda p: p.ring is ring,
                      largest_degree=lambda p: p.degree == length - 1)
    if not denominators:
        del properties["denominator"]
    if ring is QAB:
        properties["non_constant_qa_coefficient"] = lambda p: any(c.degree > 0 for c in p.coeffs)
    assert_reaches(strategy, **properties)


def test_dot_rings_reach_every_ring():
    elements = s.dot_rings.flatmap(lambda ring_and_elements: ring_and_elements[1])
    assert_reaches(
        elements,
        **SIGNS_AND_DENOMINATORS,
        **{repr(ring): lambda p, ring=ring: p.ring is ring for ring in (QY, QA, QAB)},
        non_constant_qa_coefficient=lambda p: p.ring is QAB and any(
            c.degree > 0 for c in p.coeffs),
    )


# name: (strategy, order, number of fixed head coefficients)
SERIES = {
    "q_series(6)": (s.q_series(6), 6, 0),
    "q_series(6, (zeros, q_units))": (s.q_series(6, (s.zeros, s.q_units)), 6, 2),
    "bell_d": (s.bell_d, 12, 1),
}


@pytest.mark.parametrize("name", SERIES)
def test_series(name):
    strategy, order, fixed = SERIES[name]
    assert_reaches(
        strategy,
        order=lambda f: f.order == order,
        zero=lambda f: 0 in f.coeffs[fixed:],
        negative=lambda f: any(c < 0 for c in f.coeffs[fixed:]),
        denominator=lambda f: any(type(c) is Fraction for c in f.coeffs[fixed:]),
        largest_length=lambda f: f.coeffs[-1] != 0,
    )


def test_bell_d_reaches_both_heads():
    assert_reaches(s.bell_d, plus_one=lambda d: d.coeffs[0] == 1,
                   minus_one=lambda d: d.coeffs[0] == -1)


def test_hankel_sources():
    assert_reaches(
        s.hankel_sources(),
        largest_m=lambda source: source[1] == 7,
        zero=lambda source: 0 in source[0],
        negative=lambda source: any(a < 0 for a in source[0]),
        denominator=lambda source: any(type(QQ.coerce(a)) is Fraction for a in source[0]),
    )
