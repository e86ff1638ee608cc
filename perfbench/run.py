"""Closed-loop benchmark of the riordan CLI over fixed command corpora.

Usage (from the repository root):

    python3 perfbench/run.py --workload invert --seed 1 --seconds 40 --trace 0

Each command of the workload's corpus (perfbench/corpus.json) runs as a fresh
``python -m riordan.cli`` subprocess against the checkout's ``src/``, one at a
time, and its stdout is compared byte for byte with perfbench/golden/.  A run
makes one untimed warm-up import, then repeats passes over the corpus, in an
order shuffled by ``--seed``, while another pass is expected to end within
``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced passes with traced ones, where every command runs under
perfbench/tracer.py, and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9
# The machine-speed yardstick: a stdlib-only interpreter run that shares no
# code with riordan.  It runs after every timed command and every set-up
# sample.  Times are scaled by REFERENCE_CALIBRATION_S over its median in the
# same phase, so they read as seconds on a machine where it takes that long
# and slow drift in the speed of a shared machine cancels out.
CALIBRATION = (
    "from fractions import Fraction\n"
    "acc = Fraction(0)\n"
    "for i in range(1, 2500):\n"
    "    acc += Fraction(1, i)\n"
)
REFERENCE_CALIBRATION_S = 0.075
TRACEBACK = b"Traceback (most recent call last)"


class Command:
    """One corpus command with its golden stdout."""

    def __init__(self, workload: str, index: int, argv: list[str]):
        self.argv = argv
        self.label = f"{workload}/{index:02d}"
        self.golden = (HERE / "golden" / workload / f"{index:02d}.out").read_bytes()


class Result(NamedTuple):
    """Outcome of one subprocess: wall time, status, output and peak memory."""

    wall_s: float
    status: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


class Runner:
    """Starts the interpreter on ``src/`` and collects what each run left."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.failures = []  # (label, reason) of failed command runs
        self.attempted = 0
        self.problems = []  # other correctness findings, such as unsteady counts

    def spawn(self, args: list[str]) -> Result:
        """Run ``python args`` to completion; stdout and stderr go to files."""
        with open(OUT / "stdout", "w+b") as out, open(OUT / "stderr", "w+b") as err:
            actions = [
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                                 file_actions=actions)
            _, wait_status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
            out.seek(0)
            err.seek(0)
            return Result(wall, os.waitstatus_to_exitcode(wait_status), out.read(), err.read(),
                          usage.ru_maxrss)

    def check(self, cmd: Command, res: Result) -> None:
        """Count a run toward ``attempted``; record it as failed unless it is exact."""
        self.attempted += 1
        if res.status != 0:
            self.failures.append((cmd.label, f"exit status {res.status}"))
        elif TRACEBACK in res.stderr:
            self.failures.append((cmd.label, "traceback on stderr"))
        elif res.stdout != cmd.golden:
            self.failures.append((cmd.label, "stdout differs from golden"))

    def run_pass(self, cmds: list[Command], rng: random.Random, traced=None,
                 after_each=None) -> dict:
        """One pass over the corpus in shuffled order; returns the results by label.

        With ``traced`` set to a list, each command runs under the tracer and
        its trace record is appended to that list.  ``after_each`` is called
        after every command, outside its timing.
        """
        order = list(cmds)
        rng.shuffle(order)
        results = {}
        for cmd in order:
            if traced is None:
                results[cmd.label] = self.spawn(["-m", "riordan.cli", *cmd.argv])
            else:
                trace_path = OUT / "command-trace.json"
                results[cmd.label] = self.spawn(
                    [str(HERE / "tracer.py"), str(trace_path), str(SRC), "--", *cmd.argv]
                )
                record = json.loads(trace_path.read_text())
                record["command"] = cmd.label
                record["metrics"]["cli.output_bytes"] = len(results[cmd.label].stdout)
                traced.append(record)
            if after_each is not None:
                after_each()
        for cmd in order:
            self.check(cmd, results[cmd.label])
        return results


def pass_seconds(results: dict) -> float:
    """Wall time of a pass: the sum of its commands' wall times."""
    return sum(res.wall_s for res in results.values())


def fits(start: float, expected: float, seconds: float) -> bool:
    """Whether another step of about ``expected`` seconds ends within the budget."""
    return time.perf_counter() - start + expected <= seconds


def tail(values: list[float]) -> float:
    """The 90th percentile, interpolated between the closest ranks.

    The rank rule (the highest percentile with at least ten samples beyond
    it) reaches p90 only at 100 samples; a run holds 1 to about 15 passes.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(runner: Runner, cmds: list[Command], rng, seconds: float, report) -> dict:
    setup, setup_calibration = [], []
    for _ in range(SETUP_SAMPLES):
        res = runner.spawn(["-c", "import riordan.cli"])
        if res.status != 0:
            raise RuntimeError(f"import riordan.cli failed: {res.stderr.decode(errors='replace')}")
        setup.append(res.wall_s)
        setup_calibration.append(runner.spawn(["-c", CALIBRATION]).wall_s)
    calibration = []

    def calibrate():
        calibration.append(runner.spawn(["-c", CALIBRATION]).wall_s)

    pass_walls, step_walls = [], []
    per_cmd = {cmd.label: [] for cmd in cmds}
    peak_kb = 0
    start = time.perf_counter()
    while not step_walls or fits(start, statistics.median(step_walls), seconds):
        step_start = time.perf_counter()
        results = runner.run_pass(cmds, rng, after_each=calibrate)
        step_walls.append(time.perf_counter() - step_start)
        pass_walls.append(pass_seconds(results))
        for label, res in results.items():
            per_cmd[label].append(res.wall_s)
            peak_kb = max(peak_kb, res.maxrss_kb)
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    setup_scale = REFERENCE_CALIBRATION_S / statistics.median(setup_calibration)
    cmd_medians = {label: statistics.median(v) for label, v in per_cmd.items()}
    setup_s = statistics.median(setup)
    report(f"calibration median {statistics.median(calibration):.4f} s over {len(calibration)} "
           f"runs between commands, {statistics.median(setup_calibration):.4f} s over "
           f"{SETUP_SAMPLES} between set-ups; times below are raw, metrics are scaled by "
           f"{scale:.4f} and {setup_scale:.4f}")
    report(f"passes: {len(pass_walls)}; pass walls (s): "
           + " ".join(f"{w:.3f}" for w in pass_walls))
    report(f"corpus_s_tail is p90 of {len(pass_walls)} passes")
    report("command medians (s): "
           + " ".join(f"{label}={v:.3f}" for label, v in cmd_medians.items()))
    report(f"setup median (s): {setup_s:.4f} of {SETUP_SAMPLES}")
    geomean = math.exp(statistics.fmean(math.log(v) for v in cmd_medians.values()))
    return {
        "corpus_s_p50": (statistics.median(pass_walls) * scale, "s"),
        "corpus_s_tail": (tail(pass_walls) * scale, "s"),
        "cmd_geomean_s": (geomean * scale, "s"),
        "setup_s": (setup_s * setup_scale, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


# Unit of each per-layer metric, by the end of its name.  Every metric not in
# seconds is a deterministic count or size.
LAYER_UNITS = {"_s": "s", ".s": "s", ".calls": "count", "_calls": "count", "cache_hits": "count",
               "cache_misses": "count", "_bits": "bits", "eval_order": "terms",
               "terms_used": "terms", "dim_sum": "rows", "output_bytes": "bytes"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def pass_layer_metrics(records: list[dict]) -> dict:
    """Sum the per-command metrics of one traced pass (max for coefficient bits)."""
    total = {}
    for rec in records:
        for name, value in rec["metrics"].items():
            if name == "exact.max_coeff_bits":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def per_layer(runner: Runner, cmds: list[Command], rng, seconds: float, report) -> dict:
    plain_walls, traced_walls, passes, spans = [], [], [], []
    start = time.perf_counter()
    step_walls = []
    while not step_walls or fits(start, statistics.median(step_walls), seconds):
        step_start = time.perf_counter()
        plain_walls.append(pass_seconds(runner.run_pass(cmds, rng)))
        records = []
        traced_walls.append(pass_seconds(runner.run_pass(cmds, rng, traced=records)))
        step_walls.append(time.perf_counter() - step_start)
        passes.append(pass_layer_metrics(records))
        for cmd_id, rec in enumerate(records, start=len(spans)):
            spans.append({"command_id": cmd_id, "command": rec["command"],
                          "spans": rec["spans"]})
    first = passes[0]
    counts = {k: v for k, v in first.items() if layer_unit(k) != "s"}
    for later in passes[1:]:
        for name, value in counts.items():
            if later[name] != value:
                runner.problems.append(f"{name} changed between traced passes: "
                                       f"{value} != {later[name]}")
    metrics = {}
    for name in first:
        unit = layer_unit(name)
        value = first[name] if unit != "s" else statistics.median(p[name] for p in passes)
        metrics[name] = (value, unit)
    used, order = metrics.pop("gfparse.terms_used")[0], metrics["gfparse.eval_order"][0]
    metrics["gfparse.coeff_use_ratio"] = (used / order if order else 0.0, "ratio")
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics["trace.overhead"] = (overhead, "ratio")
    trace_file = OUT / f"trace-{cmds[0].label.split('/')[0]}.json"
    trace_file.write_text(json.dumps({"spans_by_command": spans}))
    report(f"traced passes: {len(traced_walls)}; traced/untraced wall (s): "
           f"{statistics.median(traced_walls):.3f}/{statistics.median(plain_walls):.3f} "
           f"= {overhead:.3f}; spans in {trace_file.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    corpus = json.loads((HERE / "corpus.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "riordan" / "cli.py").is_file():
        print(f"error: no riordan sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    def report(line: str) -> None:
        print(f"# {args.workload}: {line}")

    wl = corpus["workloads"][args.workload]
    cmds = [Command(args.workload, i, argv) for i, argv in enumerate(wl["commands"], start=1)]
    rng = random.Random(args.seed)
    runner = Runner()
    # Untimed warm-up: importing riordan.cli compiles the .pyc of every module.
    warm = runner.spawn(["-c", "import riordan.cli"])
    if warm.status != 0:
        print(warm.stderr.decode(errors="replace"), file=sys.stderr)
        return 1
    measure = per_layer if args.trace else end_to_end
    metrics = measure(runner, cmds, rng, args.seconds, report)

    for label, reason in runner.failures:
        report(f"FAILED {label}: {reason}")
    for problem in runner.problems:
        report(f"FAILED {problem}")
    failed = len(runner.failures)
    report(f"fail_frac = {failed}/{runner.attempted} = {failed / runner.attempted:g}")
    print(json.dumps({
        "correct": failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
