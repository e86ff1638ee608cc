"""Command-line contract: specs, formats, exit codes, determinism."""

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import known_values as kv
from riordan.cli import main, render_triangle
from riordan.exact import QQ, format_element
from riordan.families import TRIANGLES
from riordan.triangles import Triangle
from riordan.verify import SUITE_NAMES
from strategies import gf_texts, q_values


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangleCommand:
    def test_fib_csv(self, capsys):
        code, out, err = run_cli(capsys, "triangle", "fib", "--rows", "6", "--format", "csv")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "0,3,0,4,0,1"

    def test_named_triangles_match_printed(self, capsys):
        cases = {
            "fib": kv.FIB_TRIANGLE,
            "dual-fib": kv.DUAL_FIB_TRIANGLE,
            "tilde": kv.TILDE_TRIANGLE,
            "tildetilde": kv.TILDETILDE_TRIANGLE,
            "a011973": kv.A011973_TRIANGLE,
            "a111959": kv.A111959_TRIANGLE,
            "i0-dual": kv.I0_DUAL_TRIANGLE,
            "cf-coeff": kv.CF_COEFF_TRIANGLE,
            "cf@1": kv.CF_MATRIX_B1,
            "cf@2": kv.CF_MATRIX_B2,
        }
        for name, rows in cases.items():
            code, out, _ = run_cli(
                capsys, "triangle", name, "--rows", "6", "--format", "json"
            )
            assert code == 0, name
            assert json.loads(out) == [[str(e) for e in row] for row in rows], name

    def test_invert_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "cf@1", "--rows", "6", "--invert", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [[str(e) for e in r] for r in kv.CF_MATRIX_B1_INVERSION]
        code, out, _ = run_cli(
            capsys, "triangle", "cf-coeff", "--rows", "6", "--invert", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [[str(e) for e in r] for r in kv.CF_COEFF_INVERSION]

    def test_gf_triangle(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--gf", "1/(1-y*x-x^2)", "--rows", "6", "--format", "csv"
        )
        assert code == 0
        assert out.strip().splitlines() == [
            ",".join(str(e) for e in row) for row in kv.FIB_TRIANGLE
        ]

    def test_y_free_gf_triangle(self, capsys):
        # a series over Q is a triangle constant in y: row n is [x^n] G, then zeros
        code, out, _ = run_cli(capsys, "triangle", "--gf", "1/(1-x)", "--rows", "3")
        assert code == 0 and out.splitlines() == ["1", "1 0", "1 0 0"]
        code, out, _ = run_cli(capsys, "triangle", "--gf", "1/(1-x)", "--rows", "3", "--invert")
        assert code == 0 and out.splitlines() == [" 1", "-1 0", " 1 0 0"]

    def test_gf_constant(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--gf", "1", "--rows", "1")
        assert code == 0 and out.strip() == "1"

    def test_eval_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "cf-coeff", "--rows", "9", "--invert", "--eval-at", "1"
        )
        assert code == 0
        assert out.strip() == "1 -1 -2 0 -2 0 -4 0 -10"

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "nope", "--rows", "3")
        assert code == 1
        assert err == (
            "error: unknown triangle 'nope'; names: fib, dual-fib, tilde, tildetilde, "
            "a011973, a111959, i0-dual, cf-coeff, cf@<rational>\n"
        )

    def test_name_and_gf_conflict(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "fib", "--gf", "1", "--rows", "3")
        assert code == 1 and "exactly one" in err

    def test_gf_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--gf", "1/(1-", "--rows", "3")
        assert code == 1 and "offset" in err

    @pytest.mark.parametrize("argv, what", [
        (("triangle", "cf@1/0"), "cf@ value"),
        (("sequence", "dual-cf@1/0"), "dual-cf@ value"),
        (("triangle", "fib", "--eval-at", "1/0"), "--eval-at value"),
    ])
    def test_zero_denominator_is_named(self, capsys, argv, what):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: bad {what} '1/0': zero denominator\n"

    def test_inversion_precondition_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "triangle", "--gf", "2/(1-x)", "--rows", "3", "--invert"
        )
        assert (code, err) == (1, "error: inversion needs t_(0,0) = +-1, got 2\n")

    def test_gf_in_a_and_b_gives_polynomial_entries(self, capsys):
        # No y: the ring is Q[a][b], b is the row variable, entries are in a.
        code, out, err = run_cli(capsys, "triangle", "--gf", "1/(1-a*x)", "--rows", "4")
        assert code == 0 and err == ""
        assert out.splitlines() == ["  1", "  a 0", "a^2 0 0", "a^3 0 0 0"]
        code, out, _ = run_cli(
            capsys, "triangle", "--gf", "1/(1-a*x-b*x^2)", "--rows", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [["1"], ["a", "0"], ["a^2", "1", "0"], ["a^3", "2*a", "0", "0"]]

    def test_gf_in_a_and_b_evaluates_rows_in_q_a(self, capsys):
        code, out, err = run_cli(
            capsys, "triangle", "--gf", "1/(1-a*x-b*x^2)", "--rows", "4", "--eval-at", "2"
        )
        assert (code, out, err) == (0, "1 a a^2+2 a^3+4*a\n", "")

    def test_gf_in_a_and_b_cannot_be_inverted(self, capsys):
        code, out, err = run_cli(
            capsys, "triangle", "--gf", "1/(1-a*x)", "--rows", "4", "--invert"
        )
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: inversion is defined for triangles over Q"]

    def test_bfile_rejected_for_triangles(self, capsys):
        code, _, err = run_cli(
            capsys, "triangle", "fib", "--rows", "3", "--format", "bfile"
        )
        assert code == 1 and "single sequences" in err


class TestRenderTriangle:
    def test_csv_rendering(self):
        T = Triangle(QQ, [[1], [Fraction(1, 2), -3]])
        assert render_triangle(T, "csv") == "1\n1/2,-3"

    def test_json_rendering(self):
        T = Triangle(QQ, [[1], [Fraction(1, 2), -3]])
        assert json.loads(render_triangle(T, "json")) == [["1"], ["1/2", "-3"]]

    def test_big_integer_rendering_is_exact(self):
        big = 10 ** 40 + 1
        T = Triangle(QQ, [[big]])
        assert render_triangle(T, "csv") == render_triangle(T, "table") == str(big)


class TestSequenceCommand:
    def test_dual_cf_at_1(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "dual-cf@1", "-n", "10")
        assert code == 0
        assert out.strip() == "1 -1 -2 0 -2 0 -4 0 -10 0"

    def test_hankel_of_dual_cf(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "hankel:dual-cf@1", "-n", "6")
        assert code == 0
        assert out.strip() == "1 -3 14 -32 96 -208"

    def test_hankel_at_minus_1(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "hankel:dual-cf@-1", "-n", "6")
        assert code == 0
        assert out.strip() == "1 1 -10 -16 64 112"

    def test_rowsums(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "rowsums:cf@1", "-n", "6")
        assert code == 0
        assert out.strip() == "1 1 4 15 70 336"

    def test_gf_sequence_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequence", "gf:rev(x-x^2)", "-n", "6", "--format", "csv"
        )
        assert code == 0
        assert out.strip() == "0,1,1,2,5,14"

    def test_bfile_format_and_offset(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequence", "gf:1/(1-2*x)", "-n", "4", "--format", "bfile",
            "--offset", "1",
        )
        assert code == 0
        assert out.splitlines() == ["1 1", "2 2", "3 4", "4 8"]

    def test_json_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequence", "gf:1/(2-2*x)", "-n", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == ["1/2", "1/2", "1/2"]

    def test_polynomial_valued_gf(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "gf:1/(1-y*x-x^2)", "-n", "4")
        assert code == 0
        assert out.strip() == "1 y y^2+1 y^3+2*y"

    def test_values_past_the_int_string_limit(self, capsys):
        # 4302 digits: past the 4300-digit default of Python's int <-> str limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, "sequence", "gf:10^4301", "-n", "1")
        assert (code, err) == (0, "")
        assert out == "1" + "0" * 4301 + "\n"
        sevens = "7" * 5001
        code, out, err = run_cli(capsys, "sequence", "gf:" + sevens + "*x", "-n", "2")
        assert (code, err) == (0, "")
        assert out == "0 " + sevens + "\n"
        # rationals read by cf@, --eval-at and dual-cf@
        code, out, err = run_cli(capsys, "triangle", "cf@" + sevens, "--rows", "3")
        assert (code, err) == (0, "")
        twice = "1" + "5" * 5000 + "4"  # 2 * sevens: entry (2, 0) is C_2 b
        assert out.splitlines() == ["1".rjust(5002), "0".rjust(5002) + " 1", twice + " 0 2"]
        code, out, err = run_cli(capsys, "triangle", "fib", "--rows", "3", "--eval-at", sevens)
        assert (code, err) == (0, "")
        row_2 = format_element(1 + (7 * (10**5001 - 1) // 9) ** 2)  # y^2 + 1 at y = sevens
        assert out == f"1 {sevens} {row_2}\n"
        code, out, err = run_cli(capsys, "sequence", "dual-cf@1/" + sevens, "-n", "3")
        assert (code, err) == (0, "")
        assert out == "1 -1 -2/" + sevens + "\n"
        code, out, err = run_cli(capsys, "triangle", f"cf@{sevens}/0", "--rows", "2")
        assert (code, out) == (1, "")
        assert err == f"error: bad cf@ value '{sevens}/0': zero denominator\n"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored

    def test_unknown_spec(self, capsys):
        code, _, err = run_cli(capsys, "sequence", "fib@1", "-n", "3")
        assert code == 1 and "unknown sequence" in err

    @pytest.mark.parametrize(
        "gf,offset",
        [("(" * 3000 + "x" + ")" * 3000, 100), ("sqrt(" * 3000 + "x" + ")" * 3000, 504)],
        ids=["parentheses", "calls"],
    )
    def test_deep_nesting_is_a_clean_error(self, capsys, gf, offset):
        code, out, err = run_cli(capsys, "sequence", f"gf:{gf}", "-n", "3")
        assert (code, out) == (1, "")
        assert err == f"error: more than 100 nested parentheses (at offset {offset})\n"

    def test_long_chain_evaluates(self, capsys):
        # the nesting limit counts open parentheses and calls, not operators
        code, out, err = run_cli(capsys, "sequence", "gf:" + "+".join(["x"] * 3000), "-n", "3")
        assert (code, out, err) == (0, "0 3000 0\n", "")

    @pytest.mark.parametrize("gf", ["1/(1-y*x)", "1/(1-a*x)"])
    def test_hankel_of_polynomial_terms_is_a_clean_error(self, capsys, gf):
        code, out, err = run_cli(capsys, "sequence", f"hankel:gf:{gf}", "-n", "3")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "need rational terms" in err and "Traceback" not in err

    def test_mixed_ring_error_names_the_mixing_variable(self, capsys):
        code, out, err = run_cli(capsys, "sequence", "gf:y*a", "-n", "2")
        assert code == 1 and out == ""
        assert err == (
            "error: variables ['a', 'y'] do not fit one ring (y is exclusive of a, b) "
            "(at offset 2)\n"
        )

    def test_reversion_of_zero_slope_is_a_clean_error(self, capsys):
        code, out, err = run_cli(capsys, "sequence", "gf:rev(x^2)", "-n", "3")
        assert (code, out) == (1, "")
        assert err == "error: reversion needs a nonzero coefficient of x (at offset 0)\n"

    def test_no_order_option(self, capsys):
        # the working order is the number of terms requested
        with pytest.raises(SystemExit) as exc:
            main(["sequence", "gf:1/(1-x)", "-n", "4", "--order", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --order 8" in capsys.readouterr().err


class TestSmallSizes:
    @pytest.mark.parametrize("form", ["plain", "invert", "rowsums"])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("name", list(TRIANGLES))
    def test_every_named_triangle(self, capsys, name, rows, form):
        argv = {
            "plain": ["triangle", name, "--rows", str(rows)],
            "invert": ["triangle", name, "--rows", str(rows), "--invert"],
            "rowsums": ["sequence", f"rowsums:{name}", "-n", str(rows)],
        }[form]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        if rows == 1:
            assert out == "1\n"


class TestVerifyCommand:
    def test_involution_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "involution")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        assert out.strip().endswith("0 failed")

    def test_all_flags_discrepancies(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert out.count("DISCREPANCY") == 2
        assert "parity gate" in out  # row-formula gate note
        assert "2F1" in out  # hypergeometric sign note

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        assert all(repr(name) in err for name in SUITE_NAMES + ("all",))

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        from riordan import verify
        from riordan.verify import Check, SuiteReport

        broken = SuiteReport("fake", [Check("always wrong", False, "counterexample at n=0")])
        monkeypatch.setattr(verify, "run", lambda suite: [broken])
        code, out, _ = run_cli(capsys, "verify", "involution")
        assert code == 1
        assert "FAIL always wrong" in out
        assert out.strip().endswith("1 failed")

    def test_failing_row_names_its_first_mismatch(self, capsys, monkeypatch):
        from riordan import paths
        from riordan.families import dual_fib_coeff

        count_paths = paths.count_paths

        def off_by_one(cls, n, k):  # one wrong count of the level-step statistic
            wrong = (cls.statistic, cls.variant, n, k) == ("level_steps", "motzkin", 9, 3)
            return count_paths(cls, n, k) + wrong

        monkeypatch.setattr(paths, "count_paths", off_by_one)
        code, out, _ = run_cli(capsys, "verify", "paths")
        want = [abs(dual_fib_coeff(9, k)) for k in range(10)]
        got = want.copy()
        got[3] += 1
        assert code == 1
        assert (
            f"  FAIL level steps count |dual Fibonacci coefficients|: "
            f"first mismatch at index 9: {got} != {want}"
        ) in out.splitlines()
        assert out.strip().endswith("6 checks, 1 failed")


class TestDeterminism:
    def test_identical_bytes_across_runs(self, capsys):
        a = run_cli(capsys, "triangle", "cf@1", "--rows", "8", "--format", "json")
        b = run_cli(capsys, "triangle", "cf@1", "--rows", "8", "--format", "json")
        assert a == b
        a = run_cli(capsys, "verify", "hankel")
        b = run_cli(capsys, "verify", "hankel")
        assert a == b


def child_env():
    """The environment of a child interpreter: ``src`` first on its path, and
    this interpreter's dev mode and warning filters, so that a resource the
    CLI leaks fails a run under ``-X dev -W error::ResourceWarning``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    if sys.flags.dev_mode:
        env["PYTHONDEVMODE"] = "1"
    if sys.warnoptions:
        env["PYTHONWARNINGS"] = ",".join(sys.warnoptions)
    return env


class TestOutputErrors:
    """A failed write to stdout is one clean exit 1, never a traceback."""

    ARGV = ("sequence", "gf:1/(1-x)", "-n", "20000", "--format", "bfile")

    @staticmethod
    def run_with_stdout(stdout, **kwargs):
        return subprocess.run([sys.executable, "-m", "riordan.cli", *TestOutputErrors.ARGV],
                              stdout=stdout, stderr=subprocess.PIPE, env=child_env(), text=True,
                              **kwargs)

    def test_reader_closed_early(self):
        # the read end is closed before the command starts, so every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run_with_stdout(write_end)
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            proc = self.run_with_stdout(full)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child before exec")
    def test_stdout_closed(self):
        # fd 1 is closed when the interpreter starts, so sys.stdout is None
        # and print would drop the text without an error
        proc = self.run_with_stdout(None, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write the output: stdout is closed\n"


class TestImports:
    """Each command imports only the layers it runs; checked in a fresh
    interpreter, since this process has imported everything."""

    HEAVY = {"riordan.gfparse", "riordan.hankel", "riordan.paths", "riordan.verify",
             "dataclasses"}

    @staticmethod
    def loaded_after(statement):
        # repr, not json: the probe must not load a module it reports on
        script = (
            "import sys\n"
            "try:\n"
            f"    {statement}\n"
            "except SystemExit:\n"  # --help
            "    pass\n"
            "print(repr([m for m in sys.modules"
            " if m.startswith('riordan') or m in ('dataclasses', 'json')]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                              text=True, check=True)
        assert proc.stderr == ""
        return set(ast.literal_eval(proc.stdout.splitlines()[-1]))

    def cli_loads(self, *argv):
        return self.loaded_after(f"import riordan.cli; riordan.cli.main({list(argv)!r})")

    def test_package_import_loads_no_submodule(self):
        assert self.loaded_after("import riordan") == {"riordan"}

    def test_cli_import_loads_no_layer(self):
        assert self.loaded_after("import riordan.cli") == {"riordan", "riordan.cli"}

    @pytest.mark.parametrize("argv", [("--help",), ("triangle", "-h")])
    def test_help_loads_no_layer(self, argv):
        assert self.cli_loads(*argv) == {"riordan", "riordan.cli"}

    @pytest.mark.parametrize("argv", [
        ("triangle", "fib", "--rows", "3"),
        ("sequence", "dual-cf@1", "-n", "3"),
    ])
    def test_named_objects_skip_parser_hankel_paths_verify(self, argv):
        assert not self.cli_loads(*argv) & self.HEAVY

    @pytest.mark.parametrize("argv", [
        ("triangle", "fib", "--rows", "3"),
        ("sequence", "dual-cf@1", "-n", "3"),
    ])
    def test_json_loads_only_for_json_output(self, argv):
        assert "json" not in self.cli_loads(*argv)
        assert "json" in self.cli_loads(*argv, "--format", "json")

    # no json and no dataclasses either: the probe reports those too
    GF_LAYERS = {"riordan", "riordan.cli", "riordan._value", "riordan.exact", "riordan.series",
                 "riordan.gfparse"}

    def test_gf_sequence_loads_the_parser_and_its_layers_only(self):
        assert self.cli_loads("sequence", "gf:1/(1-x)", "-n", "3") == self.GF_LAYERS

    def test_hankel_of_gf_adds_only_hankel(self):
        assert self.cli_loads("sequence", "hankel:gf:1/(1-x)", "-n", "3") == (
            self.GF_LAYERS | {"riordan.hankel"})

    def test_gf_triangle_skips_families(self):
        loaded = self.cli_loads("triangle", "--gf", "1/(1-y*x-x^2)", "--rows", "3")
        assert "riordan.triangles" in loaded and "riordan.families" not in loaded


# ---------------------------------------------------------------------------
# Fuzzing the argument grammar.  Sizes stay at most 8, exponents at most 5 and
# expressions at most 3 deep, so that no drawn command runs unbounded work.

values = st.one_of(q_values(9, 9).map(str), st.sampled_from(["", "x", "1/0", "--1"]))


@st.composite
def gf_inputs(draw):
    """A well-formed expression, or a prefix of one (a syntax error)."""
    text = draw(gf_texts())
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


triangle_names = st.one_of(
    st.sampled_from(list(TRIANGLES) + ["nope"]), values.map(lambda v: f"cf@{v}")
)


@st.composite
def sequence_specs(draw, depth=2):
    kind = draw(st.sampled_from(["dual-cf", "rowsums", "hankel", "gf", "junk"]))
    if kind == "dual-cf":
        return f"dual-cf@{draw(values)}"
    if kind == "rowsums":
        return f"rowsums:{draw(triangle_names)}"
    if kind == "hankel" and depth > 0:
        return f"hankel:{draw(sequence_specs(depth - 1))}"
    if kind == "junk":
        return draw(st.sampled_from(["", "fib@1", "hankel:", "rowsums:"]))
    return f"gf:{draw(gf_inputs())}"


sizes = st.integers(1, 8).map(str)
formats = st.sampled_from(["table", "csv", "json", "bfile"])


@st.composite
def argvs(draw):
    if draw(st.booleans()):
        argv = ["sequence", draw(sequence_specs()), "-n", draw(sizes)]
    else:
        if draw(st.booleans()):
            argv = ["triangle", draw(triangle_names)]
        else:
            argv = ["triangle", "--gf", draw(gf_inputs())]
        argv += ["--rows", draw(sizes)]
        if draw(st.booleans()):
            argv.append("--invert")
        if draw(st.booleans()):
            argv += ["--eval-at", draw(values)]
    return argv + ["--format", draw(formats)]


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_fuzzed_commands_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
