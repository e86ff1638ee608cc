"""Command-line contract: specs, formats, exit codes, determinism."""

import argparse
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
from riordan.cli import FORMATS, _parse_args, main, render_triangle
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
        # exponent notation: a few characters could ask for a power of ten of any size
        (("triangle", "--rows", "1", "cf@1e10000000"), "cf@ value"),
        (("sequence", "dual-cf@1E5"), "dual-cf@ value"),
        (("triangle", "fib", "--eval-at", "1e3"), "--eval-at value"),
        # '_' (Fraction reads it from Python 3.11 on) and digits outside ASCII (read on all)
        (("triangle", "--rows", "3", "cf@1_000"), "cf@ value"),
        (("triangle", "fib", "--eval-at", "\u0663"), "--eval-at value"),
        (("sequence", "dual-cf@\uff11/\uff12"), "dual-cf@ value"),
    ])
    def test_bad_rational_is_named(self, capsys, argv, what):
        text = argv[-1].split("@")[-1]
        if text.endswith("/0"):
            reason = "zero denominator"
        elif text.isascii() and "_" not in text:
            reason = f"exponent notation is not accepted in {text!r}"
        else:
            reason = f"'_' and non-ASCII characters are not accepted in {text!r}"
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: bad {what} {text!r}: {reason}\n"

    @pytest.mark.parametrize("argv, option, value, want", [
        (("triangle", "fib", "--rows", "3"), "--eval-at", "-1/2", "1 -1/2 5/4\n"),
        (("triangle", "--rows", "2"), "--gf", "-y*x+1", "1\n0 -1\n"),
    ], ids=["eval-at", "gf"])
    def test_value_may_begin_with_a_dash(self, capsys, argv, option, value, want):
        assert run_cli(capsys, *argv, option, value) == (0, want, "")
        assert run_cli(capsys, *argv, f"{option}={value}") == (0, want, "")

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

        broken = SuiteReport("fake", (Check("always wrong", False, "counterexample at n=0"),), ())
        monkeypatch.setattr(verify, "run", lambda suite: [broken])
        code, out, _ = run_cli(capsys, "verify", "involution")
        assert code == 1
        assert "FAIL always wrong" in out
        assert out.strip().endswith("1 failed")

    def test_failing_row_names_its_first_mismatch(self, capsys, monkeypatch):
        from riordan import paths
        from riordan.families import dual_fib_coeff

        count_paths = paths.count_paths

        def off_by_one(variant, statistic, n, k):  # one wrong count of the level-step statistic
            wrong = (statistic, variant, n, k) == ("level_steps", "motzkin", 9, 3)
            return count_paths(variant, statistic, n, k) + wrong

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
    # the argument parsers of the standard library, and what they load
    ARGUMENT_PARSING = {"argparse", "getopt", "optparse", "gettext", "locale"}
    # what a value that is not integral loads
    FRACTIONS = {"fractions", "decimal", "numbers"}

    @classmethod
    def probe(cls, statement):
        """The probed modules loaded after ``statement`` runs in a fresh
        interpreter, and what it printed."""
        # repr, not json: the probe must not load a module it reports on
        probed = cls.ARGUMENT_PARSING | cls.FRACTIONS | {"dataclasses", "json"}
        script = (
            "import sys\n"
            "try:\n"
            f"    {statement}\n"
            "except SystemExit:\n"  # --help, or a usage error
            "    pass\n"
            "print(repr([m for m in sys.modules if m.startswith('riordan')"
            f" or m in {sorted(probed)!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                              text=True, check=True)
        assert proc.stderr == ""
        *printed, loaded = proc.stdout.splitlines(keepends=True)
        return set(ast.literal_eval(loaded)), "".join(printed)

    @classmethod
    def loaded_after(cls, statement):
        return cls.probe(statement)[0]

    def cli_loads(self, *argv):
        return self.loaded_after(f"import riordan.cli; riordan.cli.main({list(argv)!r})")

    def test_package_import_loads_no_submodule(self):
        assert self.loaded_after("import riordan") == {"riordan"}

    def test_cli_import_loads_no_layer(self):
        assert self.loaded_after("import riordan.cli") == {"riordan", "riordan.cli"}

    @pytest.mark.parametrize("argv", [("--help",), ("triangle", "-h")])
    def test_help_loads_no_layer(self, argv):
        assert self.cli_loads(*argv) == {"riordan", "riordan.cli"}

    def test_path_oracle_loads_no_other_module(self):
        # the oracle shares no code with what it checks, not even the value base
        assert self.loaded_after("import riordan.paths") == {"riordan", "riordan.paths"}

    def test_usage_error_loads_no_layer(self):
        # the message goes to stdout, where the probe reads only its own last line
        assert self.loaded_after("sys.stderr = sys.stdout; import riordan.cli; "
                                 "riordan.cli.main(['triangle', '--rows', 'x'])") == {
            "riordan", "riordan.cli"}

    @pytest.mark.parametrize("argv", [
        ("triangle", "fib", "--rows", "3"),
        ("sequence", "dual-cf@1", "-n", "3"),
    ])
    def test_named_objects_skip_parser_hankel_paths_verify(self, argv):
        assert not self.cli_loads(*argv) & (self.HEAVY | self.ARGUMENT_PARSING)

    @pytest.mark.parametrize("argv", [
        ("triangle", "fib", "--rows", "3"),
        ("sequence", "dual-cf@1", "-n", "3"),
    ])
    def test_json_loads_only_for_json_output(self, argv):
        assert "json" not in self.cli_loads(*argv)
        assert "json" in self.cli_loads(*argv, "--format", "json")

    # no json, dataclasses or argument parser either: the probe reports those too
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
        assert not loaded & self.ARGUMENT_PARSING

    def test_exact_loads_no_fractions(self):
        assert not self.loaded_after("import riordan.exact") & self.FRACTIONS

    @pytest.mark.parametrize("argv", [
        ("triangle", "fib", "--rows", "3"),
        ("triangle", "cf@1", "--rows", "6", "--invert"),
        ("triangle", "--gf", "1/(1-y*x-x^2)", "--rows", "4", "--invert"),
        ("sequence", "gf:rev(x-a*x^2-b*x^3)", "-n", "5"),
        ("sequence", "rowsums:cf@2", "-n", "5"),
        ("sequence", "hankel:gf:1/(1-x-x^2)", "-n", "5"),
    ])
    def test_integral_values_load_no_fractions(self, argv):
        assert not self.cli_loads(*argv) & self.FRACTIONS

    @pytest.mark.parametrize("argv, out", [
        # read as p/q; every value computed from it is integral
        (("sequence", "dual-cf@1/2", "-n", "3"), "1 -1 -1\n"),
        (("triangle", "fib", "--rows", "3", "--eval-at", "1/2"), "1 1/2 5/4\n"),
    ])
    def test_a_rational_that_is_not_integral_loads_fractions(self, argv, out):
        loaded, printed = self.probe(f"import riordan.cli; riordan.cli.main({list(argv)!r})")
        assert self.FRACTIONS <= loaded
        assert printed == out


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
        except SystemExit as exc:  # usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# The argument parser against argparse.  ``build_parser`` is the grammar as
# argparse read it before ``_parse_args`` replaced it, kept as the reference.


def _suite_name(text: str) -> str:
    """The ``verify`` argument: a suite name or ``all``.  argparse calls this
    only for the ``verify`` command, so no other command imports ``verify``."""
    from riordan import verify

    names = verify.SUITE_NAMES + ("all",)
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact triangles, dual polynomial sequences, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="print a coefficient triangle")
    p_tri.add_argument(
        "name", nargs="?", help="a named triangle (an unknown name lists them), or cf@<rational>"
    )
    p_tri.add_argument(
        "--gf",
        help="bivariate generating function in x and y: row n is [x^n] as a polynomial "
        "in y, over Q; with a and b instead of y, b is the row variable, the entries "
        "are polynomials in a, and --invert is refused",
    )
    p_tri.add_argument("--rows", type=int, default=8, help="number of rows (default 8)")
    p_tri.add_argument("--invert", action="store_true", help="apply the inversion operator first")
    p_tri.add_argument("--eval-at", metavar="Y0", help="evaluate row polynomials at a rational y")
    p_tri.add_argument("--format", choices=FORMATS, default="table")
    p_tri.add_argument("--offset", type=int, default=0, help="b-file start index (default 0)")

    p_seq = sub.add_parser("sequence", help="print an exact sequence")
    p_seq.add_argument(
        "spec", help="dual-cf@<rational> | rowsums:<triangle> | hankel:<sequence> | gf:<expression>"
    )
    p_seq.add_argument("-n", "--terms", type=int, default=10, help="number of terms (default 10)")
    p_seq.add_argument("--format", choices=FORMATS, default="table")
    p_seq.add_argument("--offset", type=int, default=0, help="b-file start index (default 0)")

    p_ver = sub.add_parser("verify", help="run identity-verification suites")
    p_ver.add_argument(
        "suite", type=_suite_name, help="a suite name, or all; an unknown name lists them"
    )
    return parser


def parsed(parse, argv):
    """``parse(argv)`` as a dict of destinations, or the status it exits with:
    argparse exits 0 after printing help, where ``_parse_args`` returns the
    command "help" for ``main`` to print."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            result = parse(argv)
        except SystemExit as exc:
            return exc.code
    if isinstance(result, argparse.Namespace):
        return vars(result)
    return 0 if result == {"command": "help"} else result


def argparse_refused_first(argv):
    """Whether argparse exited 2 where ``_parse_args`` reads on: an option that
    takes a value is followed by an argument that begins with "-", which
    argparse refused unless it read as a negative number; or an ambiguous
    "--=" follows -h, which argparse rejected before acting on anything."""
    valued = {option for options in OPTIONS.values() for option, value in options.items()
              if value is not None} | {"--terms"}
    return any(b.startswith("-") and (a in valued or a[2:] and any(f.startswith(a) for f in valued))
               for a, b in zip(argv, argv[1:])) or any(
        a in ("-h", "--help", "--he") and any(b.startswith("--=") for b in argv[i:])
        for i, a in enumerate(argv))


# each command's options, with the strategies of their values (None for a flag)
OPTIONS = {
    "triangle": {"--gf": gf_inputs(), "--rows": sizes, "--invert": None, "--eval-at": values,
                 "--format": formats, "--offset": st.integers(-3, 8).map(str)},
    "sequence": {"-n": sizes, "--format": formats, "--offset": st.integers(-3, 8).map(str)},
    "verify": {},
}


@st.composite
def spelled(draw, option, value):
    """``option`` and its value, if any, spelled in a way argparse took: a
    long option as a unique prefix, the value as the next argument or after
    "=", and "-n" also as -n5 or -n=5."""
    if option == "-n" and draw(st.booleans()):
        return draw(st.sampled_from([["-n", value], [f"-n{value}"], [f"-n={value}"]]
                                    if value is not None else [["-n"]]))
    flag = "--terms" if option == "-n" else option
    prefix = flag[:draw(st.integers(3, len(flag)))]
    if value is None:
        return [prefix]
    return draw(st.sampled_from([[prefix, value], [f"{prefix}={value}"]]))


@st.composite
def parser_argvs(draw):
    """A command of ``argvs()``, or a ``verify`` command, re-spelled: each
    option as ``spelled`` draws it and the options and positional argument
    in any order, a repeated option now and then; and at times an unknown
    option, an ambiguous prefix, an extra positional argument, -h anywhere,
    or an option missing its value at the end."""
    if draw(st.integers(0, 4)) == 0:
        command, *rest = ["verify", draw(st.sampled_from([*SUITE_NAMES, "all", "nope"]))]
    else:
        command, *rest = draw(argvs())
    options, units = OPTIONS[command], []
    while rest:
        token = rest.pop(0)
        if token not in options:  # the positional argument
            units.append([token])
        else:
            units.append(draw(spelled(token, None if options[token] is None else rest.pop(0))))
    if options and draw(st.booleans()):
        option = draw(st.sampled_from(sorted(options)))
        value = None if options[option] is None else draw(options[option])
        units.append(draw(spelled(option, value)))
    for extra in (["--order", "8"], ["-x"], ["--bogus=1"], ["--=1"], ["extra"]):
        if draw(st.integers(0, 9)) == 0:
            units.append(extra)
    argv = [command, *[token for unit in draw(st.permutations(units)) for token in unit]]
    if draw(st.integers(0, 7)) == 0:
        help_flag = draw(st.sampled_from(["-h", "--help", "--he"]))
        argv.insert(draw(st.integers(0, len(argv))), help_flag)
    if options and draw(st.integers(0, 7)) == 0:
        option = draw(st.sampled_from(sorted(o for o in options if options[o] is not None)))
        argv += draw(spelled(option, None))
    return argv


@settings(max_examples=200, deadline=None)
@given(parser_argvs())
def test_parser_matches_argparse(argv):
    """Where argparse accepted an argument list, ``_parse_args`` returns the
    same value for every destination; where argparse printed help (exit 0)
    or a usage error (exit 2), so does ``_parse_args``, except in the cases
    ``argparse_refused_first`` names."""
    want, got = parsed(build_parser().parse_args, argv), parsed(_parse_args, argv)
    if not (want == 2 and argparse_refused_first(argv)):
        assert got == want, argv


def test_help_lists_every_command_and_argument(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: riordan ")
    commands = build_parser()._subparsers._group_actions[0]
    for command in commands._choices_actions:
        assert f"riordan {command.dest}: {command.help}\n" in out
    for parser in commands.choices.values():
        for action in parser._actions[1:]:  # after argparse's own -h
            assert (action.option_strings or [action.dest])[-1] in out
            assert (action.help or "") in out
