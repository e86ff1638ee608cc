"""The ``verify`` table: its comparison, its reports, and the code that the two
routes of each check share.

Each row of ``verify.CHECKS`` compares two routes to the same values.  The
trace below runs each route alone, with every cache of the package cleared,
and collects the package functions it calls.  What both routes call must be
in ``BASE`` or in the row's ``SHARED`` entry, and each ``SHARED`` entry must
still be shared, so the list says exactly where a row's routes meet.
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

import riordan
from riordan import verify
from riordan.verify import Check, SuiteReport, _compare

PACKAGE = Path(riordan.__file__).parent
MODULES = [
    importlib.import_module(f"riordan.{path.stem}")
    for path in sorted(PACKAGE.glob("*.py"))
    if path.stem != "__init__"
]
ROWS = {row[1]: row for row in verify.CHECKS}

# What any two routes may share: the value base, ring constants, coercion to
# the canonical form, and the polynomial constructor ``PolynomialRing.poly``
# behind it, with the common-denominator rule it applies.
BASE = {
    "_value.Value.__init__",
    "exact.RationalField.zero",
    "exact.RationalField.one",
    "exact.PolynomialRing.zero",
    "exact.PolynomialRing.one",
    "exact.RationalField.coerce",
    "exact.PolynomialRing.coerce",
    "exact.rational",
    "exact.PolynomialRing.poly",
    "exact.over_common_denominator",
    "exact._reduced",
}

# Building a series from its coefficients.
SERIES_VALUES = {
    "series.PowerSeries.__init__",
    "series.PowerSeries._binary",
    "series._nonzero",
    "series.from_coeffs",
}

# Both routes of a coefficient-extraction row build f by series arithmetic
# and divide x by it, as ``revert`` does inside: what they compare is Miller's
# power recurrence in ``revert`` against repeated squaring.
EXTRACTION = SERIES_VALUES | {
    "exact.RationalField.dot",
    "exact.RationalField.invert",
    "series.PowerSeries.__mul__",
    "series.PowerSeries.__rtruediv__",
    "series.PowerSeries.__sub__",
    "series.PowerSeries.__truediv__",
    "series.PowerSeries.div_x",
    "series.constant",
    "series.x_series",
}

ROUTE_CUT = {"families._dual_route.<locals>.indices"}  # cuts a route to indices 0..n_max

# Row name -> what its two routes share beyond BASE.
SHARED = {
    # each route builds its input with *: x/(1-yx-x^2) over Q[y], and the
    # columns of the array [J_1(2x)/x, -x] over Q
    "route agreement: series reversion vs exponential array": ROUTE_CUT | SERIES_VALUES | {
        "series.PowerSeries.__mul__",
        "series.x_series",
    },
    "route agreement: series reversion vs odd-power rows": ROUTE_CUT,
    "route agreement: series reversion vs even-power rows": ROUTE_CUT,
    # the formula at the gate on n on one side and on n-k on the other; the
    # triangle's entries are binomials
    "discrepancy documented: row-formula parity gate": {
        "exact.binomial",
        "verify._fib_formula",
        "verify._matrix",
    },
    "reversion coefficients equal the bivariate closed form": {"exact.Polynomial.__bool__"},
    "coefficient extraction for x - x^2": EXTRACTION | {"verify._x_minus_x2"},
    "coefficient extraction for x(sqrt(1-4x^2) - x)": EXTRACTION | {
        "exact.RationalField.sqrt",
        "families.fundamental_root",
        "series.PowerSeries.__rsub__",
        "series.PowerSeries.mul_x",
        "series.PowerSeries.sqrt",
        "series._miller_power",
        "verify._x_root",
    },
    "level steps count |dual Fibonacci coefficients|": {"verify._matrix"},
    "up steps count binom(n,2k)*C_k": {"verify._matrix", "verify._up_cols"},
    "up-plus-level steps count |inverted-pair coefficients|": {"verify._matrix"},
    "square/domino tilings count the Fibonacci coefficients": {"verify._matrix"},
    # both sides carry the factor C_n, an exact quotient
    "row sums at b=1 are C_n * F_(n+1)": {"exact.catalan", "exact.exact_div"},
    "row sums at b=2 are C_n * J_(n+1)": {"exact.catalan", "exact.exact_div"},
}

# Rows that check a law on one route: inverting twice must give the input back.
SELF_CHECKS = {
    "double inversion restores Fibonacci coefficient triangle",
    "double inversion restores (1, x+x^2) triangle",
    "double inversion restores central coefficient triangle",
}


def qualified_names() -> dict:
    """Each package function's code object -> ``module.qualname``; lambdas
    and comprehensions are part of the function that holds them."""
    names = {}

    def add(code, name):
        if not code.co_name.startswith("<"):
            names[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const, f"{name}.<locals>.{const.co_name}")

    for module in MODULES:
        for value in vars(module).values():
            for fn in vars(value).values() if isinstance(value, type) else (value,):
                fn = inspect.unwrap(getattr(fn, "fget", None) or getattr(fn, "__func__", fn))
                code = getattr(fn, "__code__", None)
                if code is not None and Path(code.co_filename).parent == PACKAGE:
                    add(code, f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}")
    return names


NAMES = qualified_names()


def called(route) -> set:
    """The package functions that ``route()`` calls, from empty caches."""
    for module in MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in NAMES:
            seen.add(NAMES[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(previous)
    return seen


class TestRoutes:
    def test_allow_lists_name_rows(self):
        assert len(ROWS) == len(verify.CHECKS)
        assert set(SHARED) <= set(ROWS) - SELF_CHECKS
        assert SELF_CHECKS == {name for suite, name, *_ in verify.CHECKS if suite == "involution"}

    @pytest.mark.parametrize("name", [name for name in ROWS if name not in SELF_CHECKS])
    def test_routes_share_only_listed_code(self, name):
        _, _, _, left, right = ROWS[name]
        shared = called(left) & called(right)
        listed = SHARED.get(name, set())
        assert shared - BASE - listed == set()
        assert listed - shared == set()

    def test_trace_sees_the_series_kernel(self):
        # the reciprocal rows share nothing because their sides do not, not
        # because the trace misses the kernel
        assert {"series.PowerSeries.sqrt", "series._miller_power"} <= called(
            ROWS["row sums expand the reciprocal at (a,b)=(1,2)"][4]
        )


def compare(got, want):
    return _compare("label", "", got, want)


class TestCompareSequences:
    def test_first_mismatch_is_reported(self):
        check = compare([1, 5, 3], [1, 2, 4])
        assert not check.ok and check.detail == "first mismatch at index 1: 5 != 2"

    def test_shorter_got_fails(self):
        check = compare([1, 2], [1, 2, 3])
        assert not check.ok and check.detail == "length mismatch: got 2 terms, want 3"

    def test_longer_got_fails(self):
        check = compare([1, 2, 3, 4], [1, 2, 3])
        assert not check.ok and check.detail == "length mismatch: got 4 terms, want 3"


class TestReports:
    def test_positional_construction(self):
        report = SuiteReport("s", (Check("c", False, "d"),), ())
        assert report.suite == "s" and report.checks == (Check("c", False, "d"),)
        assert report.notes == () and not all(c.ok for c in report.checks)
