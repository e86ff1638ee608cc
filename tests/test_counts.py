"""Operation counts of CLI commands, pinned: a change that adds ring work
fails here, and one that removes some updates the pinned count.

Every command of the benchmark corpus (perfbench/corpus.json) is pinned by
four counts: its ``ring.dot`` calls per ring, the terms of those calls per
ring, the polynomials it constructs and the power series it constructs.
Counts are taken in process by wrapping from the test side, with no hook in
the package.  The ``functools`` caches are cleared first, so a count does
not depend on which tests ran before.

``python tests/test_counts.py`` (with the package importable) prints the
measured counts of every corpus command as rows of ``COUNTS``, ready to
paste over the table when a change lowers a count.
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
        ({"Q[y]": 851}, {"Q[y]": 1813}, 683, 18),
    ("triangle", "cf@1", "--rows", "32", "--invert"): ({"Q[y]": 591}, {"Q[y]": 6016}, 490, 7),
    ("sequence", "gf:rev(x/(1-y*x-x^2))", "-n", "24"): ({"Q[y]": 515}, {"Q[y]": 1001}, 372, 15),
    ("sequence", "gf:rev(x/(1-x-x^2))", "-n", "48"): ({"Q": 1271}, {"Q": 3340}, 0, 13),
    ("sequence", "gf:rev(x-a*x^2-b*x^3)", "-n", "12"):
        ({"Q[a][b]": 187, "Q[a]": 252}, {"Q[a][b]": 210, "Q[a]": 462}, 375, 18),
    # hankel
    ("sequence", "hankel:dual-cf@1", "-n", "60"): ({}, {}, 0, 0),
    ("sequence", "hankel:dual-cf@1/2", "-n", "40"): ({}, {}, 0, 0),
    ("sequence", "hankel:rowsums:cf@2", "-n", "50"): ({}, {}, 0, 0),
    ("sequence", "hankel:gf:1/(1-x-x^2)", "-n", "60"): ({"Q": 238}, {"Q": 237}, 0, 9),
    ("sequence", "hankel:gf:1/sqrt(1-4*x)", "-n", "60"): ({"Q": 356}, {"Q": 7141}, 0, 8),
    # readme
    ("triangle", "fib", "--rows", "6", "--format", "csv"): ({}, {}, 0, 0),
    ("triangle", "cf@1", "--rows", "6", "--invert"): ({"Q[y]": 32}, {"Q[y]": 62}, 35, 7),
    ("triangle", "--gf", "1/(1-y*x-x^2)", "--rows", "8"): ({"Q[y]": 50}, {"Q[y]": 58}, 26, 11),
    ("sequence", "dual-cf@1", "-n", "10"): ({}, {}, 0, 0),
    ("sequence", "hankel:dual-cf@1", "-n", "6"): ({}, {}, 0, 0),
    ("sequence", "rowsums:cf@2", "-n", "8", "--format", "bfile", "--offset", "0"): ({}, {}, 0, 0),
    ("sequence", "gf:rev(x-x^2)", "-n", "10"): ({"Q": 64}, {"Q": 55}, 0, 9),
    ("verify", "all"): ({"Q": 2247, "Q[y]": 1495, "Q[a][b]": 311, "Q[a]": 538},
                        {"Q": 3730, "Q[y]": 4548, "Q[a][b]": 484, "Q[a]": 1814}, 2178, 314),
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


def table_row(argv: tuple, measured: tuple) -> str:
    """One ``COUNTS`` row, on one line when it fits in 100 columns."""
    key = "(" + ", ".join(map(json.dumps, argv)) + "):"
    dots, terms, polys, series = map(json.dumps, measured)
    value = f"({dots}, {terms}, {polys}, {series}),"
    for row in (f"    {key} {value}", f"    {key}\n        {value}"):
        if max(map(len, row.splitlines())) <= 100:
            return row
    return f"    {key} ({dots},\n{' ' * (len(key) + 6)}{terms}, {polys}, {series}),"


if __name__ == "__main__":
    for name, workload in CORPUS["workloads"].items():
        print(f"    # {name}")
        for argv in map(tuple, workload["commands"]):
            print(table_row(argv, counts(argv)))
