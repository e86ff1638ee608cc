"""Operation counts of CLI commands, pinned: a change that adds ring work
fails here, and one that removes some updates the pinned count.

Every command of the benchmark corpus (perfbench/corpus.json) is pinned by
four counts: its ``ring.dot`` calls per ring, the terms of those calls per
ring, the polynomials it constructs and the power series it constructs.
Counts are taken in process by wrapping from the test side, with no hook in
the package.  The ``functools`` caches are cleared first, so a count does
not depend on which tests ran before.
"""

import functools
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from riordan import cli, exact, paths, verify
from riordan.exact import Polynomial, PolynomialRing, RationalField
from riordan.series import PowerSeries

CORPUS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "corpus.json").read_text())

# Corpus command -> (``ring.dot`` calls per ring, ``ring.dot`` terms per
# ring, polynomials constructed, power series constructed)
COUNTS = {
    # invert
    ("triangle", "--gf", "1/(1-y*x-x^2)", "--rows", "32", "--invert"):
        ({"Q[y]": 883}, {"Q[y]": 1814}, 684, 19),
    ("triangle", "cf@1", "--rows", "32", "--invert"): ({"Q[y]": 591}, {"Q[y]": 6016}, 490, 7),
    ("sequence", "gf:rev(x/(1-y*x-x^2))", "-n", "24"): ({"Q[y]": 539}, {"Q[y]": 1002}, 373, 16),
    ("sequence", "gf:rev(x/(1-x-x^2))", "-n", "48"): ({"Q": 1319}, {"Q": 3341}, 0, 14),
    ("sequence", "gf:rev(x-a*x^2-b*x^3)", "-n", "12"):
        ({"Q[a][b]": 211, "Q[a]": 254}, {"Q[a][b]": 212, "Q[a]": 464}, 379, 20),
    # hankel
    ("sequence", "hankel:dual-cf@1", "-n", "60"): ({}, {}, 0, 0),
    ("sequence", "hankel:dual-cf@1/2", "-n", "40"): ({}, {}, 0, 0),
    ("sequence", "hankel:rowsums:cf@2", "-n", "50"): ({}, {}, 0, 0),
    ("sequence", "hankel:gf:1/(1-x-x^2)", "-n", "60"): ({"Q": 357}, {"Q": 238}, 0, 10),
    ("sequence", "hankel:gf:1/sqrt(1-4*x)", "-n", "60"): ({"Q": 356}, {"Q": 7141}, 0, 8),
    # readme
    ("triangle", "fib", "--rows", "6", "--format", "csv"): ({}, {}, 0, 0),
    ("triangle", "cf@1", "--rows", "6", "--invert"): ({"Q[y]": 32}, {"Q[y]": 62}, 35, 7),
    ("triangle", "--gf", "1/(1-y*x-x^2)", "--rows", "8"): ({"Q[y]": 58}, {"Q[y]": 59}, 27, 12),
    ("sequence", "dual-cf@1", "-n", "10"): ({}, {}, 0, 0),
    ("sequence", "hankel:dual-cf@1", "-n", "6"): ({}, {}, 0, 0),
    ("sequence", "rowsums:cf@2", "-n", "8", "--format", "bfile", "--offset", "0"): ({}, {}, 0, 0),
    ("sequence", "gf:rev(x-x^2)", "-n", "10"): ({"Q": 74}, {"Q": 56}, 0, 10),
    ("verify", "all"): ({"Q": 3313, "Q[y]": 1495, "Q[a][b]": 311, "Q[a]": 538},
                        {"Q": 9164, "Q[y]": 4548, "Q[a][b]": 484, "Q[a]": 1814}, 2178, 422),
}


@functools.cache
def counts(argv: tuple) -> tuple[dict, dict, int, int]:
    """The ``ring.dot`` calls and terms per ring and the polynomials and
    power series constructed by ``riordan argv``, which must succeed and
    print.  The terms are counted by turning each iterable that ``dot``
    receives into a list, which is passed on."""
    for module in (exact, paths, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    dots, terms, constructed = {}, {}, {Polynomial: 0, PowerSeries: 0}

    def counting(dot):
        def wrapper(ring, triples, *args):
            triples = list(triples)
            dots[repr(ring)] = dots.get(repr(ring), 0) + 1
            terms[repr(ring)] = terms.get(repr(ring), 0) + len(triples)
            return dot(ring, triples, *args)
        return wrapper

    def constructing(cls):
        init = cls.__init__

        def wrapper(self, *values):
            constructed[cls] += 1
            init(self, *values)
        return wrapper

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out):
        for cls in (RationalField, PolynomialRing):
            patch.setattr(cls, "dot", counting(cls.dot))
        for cls in (Polynomial, PowerSeries):
            patch.setattr(cls, "__init__", constructing(cls))
        assert cli.main(list(argv)) == 0
    assert out.getvalue()
    return dots, terms, constructed[Polynomial], constructed[PowerSeries]


def test_every_corpus_command_is_pinned():
    corpus = [tuple(argv) for workload in CORPUS["workloads"].values()
              for argv in workload["commands"]]
    assert list(COUNTS) == corpus


@pytest.mark.parametrize("argv", COUNTS, ids=" ".join)
def test_dot_calls(argv):
    assert counts(argv)[0] == COUNTS[argv][0]


@pytest.mark.parametrize("argv", COUNTS, ids=" ".join)
def test_dot_terms(argv):
    assert counts(argv)[1] == COUNTS[argv][1]


@pytest.mark.parametrize("argv", COUNTS, ids=" ".join)
def test_polynomial_constructions(argv):
    assert counts(argv)[2] == COUNTS[argv][2]


@pytest.mark.parametrize("argv", COUNTS, ids=" ".join)
def test_series_constructions(argv):
    assert counts(argv)[3] == COUNTS[argv][3]
