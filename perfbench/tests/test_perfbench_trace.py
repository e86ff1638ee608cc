"""The traced run: its operation counts repeat exactly, and it reports every
per-layer metric that BENCHMARK.json declares, with the declared unit.

Run with: python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def traced_readme(capsys) -> dict:
    assert run.main(["--workload", "readme", "--seed", "7", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def test_two_traced_runs_give_identical_counts(capsys):
    first, second = traced_readme(capsys), traced_readme(capsys)
    counts = {name for name, m in first.items() if m["unit"] != "s"} - {"trace.overhead"}
    assert {"exact.mul.QY.calls", "series.revert.calls", "families.cache_hits"} <= counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {n: m["unit"] for n, m in first.items()}


def test_tail_is_the_interpolated_90th_percentile():
    assert run.tail([5.0]) == 5.0
    assert run.tail([3.0, 1.0, 2.0]) == pytest.approx(2.8)
    assert run.tail([float(i) for i in range(11)]) == pytest.approx(9.0)
