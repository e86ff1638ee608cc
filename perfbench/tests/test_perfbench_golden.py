"""Independent checks of the committed golden outputs.

The golden files are the stdout of the corpus commands and the benchmark
counts any difference as a failure, so a wrong golden file would freeze a
bug.  These tests recompute a sample of them without the riordan package:
with sympy (skipped when it is missing) and with the printed values in
tests/known_values.py, which is read, never modified.

Run with: python -m pytest perfbench/tests
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CORPUS = json.loads((BENCH / "corpus.json").read_text())


def golden(workload: str, index: int) -> str:
    return (BENCH / "golden" / workload / f"{index:02d}.out").read_text()


def golden_for(workload: str, argv: list[str]) -> str:
    index = CORPUS["workloads"][workload]["commands"].index(argv) + 1
    return golden(workload, index)


def values(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in text.split()]


def table(text: str) -> list[list[Fraction]]:
    sep = "," if "," in text else None
    return [[Fraction(tok) for tok in line.split(sep)] for line in text.splitlines()]


@pytest.fixture(scope="module")
def known():
    spec = importlib.util.spec_from_file_location("known_values", ROOT / "tests" / "known_values.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_has_a_golden_file_and_no_order_flag():
    for name, wl in CORPUS["workloads"].items():
        files = sorted(p.name for p in (BENCH / "golden" / name).iterdir())
        assert files == [f"{i:02d}.out" for i in range(1, len(wl["commands"]) + 1)]
        for argv in wl["commands"]:
            assert "--order" not in argv


def test_reversion_over_q_matches_lagrange_inversion():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    got = values(golden_for("invert", ["sequence", "gf:rev(x/(1-x-x^2))", "-n", "48"]))
    assert len(got) == 48
    # [x^n] Rev(x/g) = (1/n) [x^(n-1)] g^n with g = 1 - x - x^2.
    want = [Fraction(0)]
    for n in range(1, 48):
        c = sympy.Poly((1 - x - x**2) ** n, x).coeff_monomial(x ** (n - 1)) / n
        want.append(Fraction(int(c.p), int(c.q)))
    assert got == want


def test_hankel_of_dual_cf_at_one_half_prefix():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    got = values(golden_for("hankel", ["sequence", "hankel:dual-cf@1/2", "-n", "40"]))
    assert len(got) == 40
    m_max = 11
    # dual-cf@y0 lists [x^n] (sqrt(1 - 4*y0*x^2) - x) from n = 0.
    expansion = sympy.series(sympy.sqrt(1 - 2 * x**2) - x, x, 0, 2 * m_max + 1).removeO()
    seq = [expansion.coeff(x, n) for n in range(2 * m_max + 1)]
    for m in range(m_max + 1):
        det = sympy.Matrix(m + 1, m + 1, lambda i, j: seq[i + j]).det()
        assert got[m] == Fraction(int(det.p), int(det.q)), m


def test_readme_triangles_match_printed_values(known):
    assert table(golden("readme", 1)) == known.FIB_TRIANGLE
    assert table(golden("readme", 2)) == known.CF_MATRIX_B1_INVERSION
    gf_rows = table(golden("readme", 3))
    assert gf_rows[:6] == known.FIB_TRIANGLE


def test_readme_gf_triangle_rows_match_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    expansion = sympy.series(1 / (1 - y * x - x**2), x, 0, 8).removeO()
    for n, row in enumerate(table(golden("readme", 3))):
        poly = sympy.Poly(sympy.expand(expansion.coeff(x, n)), y)
        assert row == [Fraction(int(poly.coeff_monomial(y**k))) for k in range(n + 1)]


def test_readme_sequences_match_printed_values(known):
    assert values(golden("readme", 4)) == known.DUAL_CF_AT_1[:10]
    assert values(golden("readme", 5)) == known.HANKEL_AT_1[:6]
    bfile = [line.split() for line in golden("readme", 6).splitlines()]
    assert [int(i) for i, _ in bfile] == list(range(8))
    assert [Fraction(v) for _, v in bfile[:6]] == [sum(row) for row in known.CF_MATRIX_B2]


def test_readme_reversion_and_verify_output():
    sympy = pytest.importorskip("sympy")
    assert values(golden("readme", 7)) == [0] + [sympy.catalan(n) for n in range(9)]
    report = golden("readme", 8)
    assert report.endswith("29 checks, 0 failed\n")
    assert report.count("DISCREPANCY") == 2
