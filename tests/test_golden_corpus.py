"""The CLI output contract: every benchmark corpus command, byte for byte.

Runs each command of perfbench/corpus.json in-process through
``riordan.cli.main`` and compares its stdout with perfbench/golden/, the
stdout of the reference implementation.  perfbench/ is only read here.  The
``readme`` workload is the README's CLI block, command for command.
"""

import io
import json
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from riordan.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
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
    # at the smallest digit limit the interpreter allows, so that the longer
    # values (1158 digits in hankel/03) print only through riordan.exact
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    out = io.StringIO()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(640)
        with redirect_stdout(out):
            code = main(list(argv))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert code == 0
    golden = (BENCH / "golden" / workload / f"{index:02d}.out").read_bytes()
    assert out.getvalue().encode() == golden


def test_readme_cli_block_is_the_readme_workload():
    block = (ROOT / "README.md").read_text().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()]
    assert {argv[0] for argv in commands} == {"riordan"}
    assert [argv[1:] for argv in commands] == CORPUS["workloads"]["readme"]["commands"]
