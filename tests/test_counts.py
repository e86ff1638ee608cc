"""Operation counts of CLI commands, pinned: a change that adds ring work
fails here, and one that removes some updates the pinned count.

Every command of the benchmark corpus (perfbench/corpus.json) is pinned by
two counts: its ``ring.dot`` calls per ring and the polynomials it
constructs.  Counts are taken in process by wrapping from the test side,
with no hook in the package.  The ``functools`` caches are cleared first, so
a count does not depend on which tests ran before.
"""

import functools
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from riordan import cli, exact, paths, verify
from riordan._value import Value
from riordan.exact import Polynomial, PolynomialRing, RationalField

CORPUS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "corpus.json").read_text())

# Corpus command -> (``ring.dot`` calls per ring, polynomials constructed)
COUNTS = {
    # invert
    ("triangle", "--gf", "1/(1-y*x-x^2)", "--rows", "32", "--invert"): ({"Q[y]": 883}, 684),
    ("triangle", "cf@1", "--rows", "32", "--invert"): ({"Q[y]": 591}, 490),
    ("sequence", "gf:rev(x/(1-y*x-x^2))", "-n", "24"): ({"Q[y]": 539}, 373),
    ("sequence", "gf:rev(x/(1-x-x^2))", "-n", "48"): ({"Q": 1319}, 0),
    ("sequence", "gf:rev(x-a*x^2-b*x^3)", "-n", "12"): ({"Q[a][b]": 211, "Q[a]": 254}, 379),
    # hankel
    ("sequence", "hankel:dual-cf@1", "-n", "60"): ({"Q[y]": 840}, 134),
    ("sequence", "hankel:dual-cf@1/2", "-n", "40"): ({"Q[y]": 560}, 94),
    ("sequence", "hankel:rowsums:cf@2", "-n", "50"): ({}, 99),
    ("sequence", "hankel:gf:1/(1-x-x^2)", "-n", "60"): ({"Q": 357}, 0),
    ("sequence", "hankel:gf:1/sqrt(1-4*x)", "-n", "60"): ({"Q": 356}, 0),
    # readme
    ("triangle", "fib", "--rows", "6", "--format", "csv"): ({}, 0),
    ("triangle", "cf@1", "--rows", "6", "--invert"): ({"Q[y]": 32}, 35),
    ("triangle", "--gf", "1/(1-y*x-x^2)", "--rows", "8"): ({"Q[y]": 58}, 27),
    ("sequence", "dual-cf@1", "-n", "10"): ({"Q[y]": 77}, 26),
    ("sequence", "hankel:dual-cf@1", "-n", "6"): ({"Q[y]": 84}, 26),
    ("sequence", "rowsums:cf@2", "-n", "8", "--format", "bfile", "--offset", "0"): ({}, 8),
    ("sequence", "gf:rev(x-x^2)", "-n", "10"): ({"Q": 74}, 0),
    ("verify", "all"): ({"Q": 3313, "Q[y]": 1635, "Q[a][b]": 311, "Q[a]": 538}, 2238),
}


@functools.cache
def counts(argv: tuple) -> tuple[dict, int]:
    """The ``ring.dot`` calls per ring and the polynomials constructed by
    ``riordan argv``, which must succeed and print."""
    for module in (exact, paths, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    dots, polynomials = {}, 0

    def counting(dot):
        def wrapper(ring, *args):
            dots[repr(ring)] = dots.get(repr(ring), 0) + 1
            return dot(ring, *args)
        return wrapper

    def constructing(self, *values):
        nonlocal polynomials
        polynomials += 1
        Value.__init__(self, *values)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out):
        for cls in (RationalField, PolynomialRing):
            patch.setattr(cls, "dot", counting(cls.dot))
        patch.setattr(Polynomial, "__init__", constructing)
        assert cli.main(list(argv)) == 0
    assert out.getvalue()
    return dots, polynomials


def test_every_corpus_command_is_pinned():
    corpus = [tuple(argv) for workload in CORPUS["workloads"].values()
              for argv in workload["commands"]]
    assert list(COUNTS) == corpus


@pytest.mark.parametrize("argv", COUNTS, ids=" ".join)
def test_dot_calls(argv):
    assert counts(argv)[0] == COUNTS[argv][0]


@pytest.mark.parametrize("argv", COUNTS, ids=" ".join)
def test_polynomial_constructions(argv):
    assert counts(argv)[1] == COUNTS[argv][1]
