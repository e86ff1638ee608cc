"""The CLI output contract: every benchmark corpus command, byte for byte.

Runs each command of perfbench/corpus.json in-process through
``riordan.cli.main`` and compares its stdout with perfbench/golden/, the
stdout of the reference implementation.  perfbench/ is only read here.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from riordan.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
CORPUS = json.loads((BENCH / "corpus.json").read_text())
COMMANDS = [
    (workload, index, argv)
    for workload, spec in CORPUS["workloads"].items()
    for index, argv in enumerate(spec["commands"], 1)
]


@pytest.mark.parametrize(
    "workload,index,argv", COMMANDS, ids=[f"{w}/{i:02d}" for w, i, _ in COMMANDS]
)
def test_stdout_matches_golden(workload, index, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    golden = (BENCH / "golden" / workload / f"{index:02d}.out").read_bytes()
    assert out.getvalue().encode() == golden
