"""Command-line front end: triangles, sequences, and identity verification.

Output is deterministic byte-for-byte for fixed inputs.  Exact values render
as decimal integers or "p/q"; polynomial entries use the same compact form as
the library.  Exit status is 0 only when every requested computation or
check succeeds.  Each command imports only the layers it runs: every
riordan module, and ``json``, loads inside the branch that uses it, so
``import riordan.cli`` and ``--help`` load none, a ``gf:`` sequence loads
the parser and the series and ring layers under it, and only named
triangles, ``cf@``, ``dual-cf@`` and ``rowsums:`` load ``families``.
"""

from __future__ import annotations

import argparse
import os
import sys

FORMATS = ("table", "csv", "json", "bfile")


class CliError(Exception):
    pass


def _parse_rational(text: str, what: str):
    from .exact import read_rational

    try:
        return read_rational(text)
    except ValueError as exc:
        raise CliError(f"bad {what} {text!r}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise CliError(f"bad {what} {text!r}: zero denominator") from exc


def resolve_triangle(spec: str | None, gf: str | None, rows: int) -> Triangle:
    if (spec is None) == (gf is None):
        raise CliError("give exactly one of a triangle name or --gf")
    if rows < 1:
        raise CliError("--rows must be >= 1")
    if gf is not None:
        from .gfparse import eval_gf
        from .triangles import build_from_bgf

        return build_from_bgf(eval_gf(gf, rows), rows)
    from . import families

    if spec.startswith("cf@"):
        return families.cf_matrix(_parse_rational(spec[3:], "cf@ value"), rows)
    if spec not in families.TRIANGLES:
        raise CliError(
            f"unknown triangle {spec!r}; names: {', '.join(families.TRIANGLES)}, cf@<rational>"
        )
    return families.TRIANGLES[spec](rows)


def resolve_sequence(spec: str, n_terms: int) -> list:
    if n_terms < 1:
        raise CliError("-n must be >= 1")
    if spec.startswith("dual-cf@"):
        from . import families

        y0 = _parse_rational(spec[len("dual-cf@"):], "dual-cf@ value")
        polys = families.dual_cf_sequence(n_terms + 1)
        return [p(y0) for p in polys[1:]]
    if spec.startswith("rowsums:"):
        from .triangles import row_sums

        T = resolve_triangle(spec[len("rowsums:"):], None, n_terms)
        return row_sums(T)
    if spec.startswith("hankel:"):
        from .hankel import hankel_transform

        source = resolve_sequence(spec[len("hankel:"):], 2 * n_terms - 1)
        return hankel_transform(source, n_terms - 1)
    if spec.startswith("gf:"):
        from .gfparse import eval_gf

        return list(eval_gf(spec[len("gf:"):], n_terms).coeffs)
    raise CliError(
        f"unknown sequence {spec!r}; forms: dual-cf@<rational>, rowsums:<triangle>, "
        "hankel:<sequence>, gf:<expression>"
    )


def render_triangle(T: Triangle, fmt: str) -> str:
    from .exact import format_element

    if fmt == "bfile":
        raise CliError("bfile applies only to single sequences")
    cells = [[format_element(e) for e in row] for row in T.rows]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in cells)
    if fmt == "json":
        import json

        return json.dumps(cells)
    widths = [0] * T.n_rows
    for row in cells:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = [" ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)) for row in cells]
    return "\n".join(lines)


def render_sequence(values: list, fmt: str, offset: int) -> str:
    from .exact import format_element

    cells = [format_element(v) for v in values]
    if fmt == "csv":
        return ",".join(cells)
    if fmt == "json":
        import json

        return json.dumps(cells)
    if fmt == "bfile":
        return "\n".join(f"{offset + i} {cell}" for i, cell in enumerate(cells))
    return " ".join(cells)


def render_reports(reports) -> tuple[str, bool]:
    lines = []
    total = failures = 0
    for rep in reports:
        lines.append(f"suite {rep.suite}:")
        for c in rep.checks:
            total += 1
            if c.ok:
                detail = f" ({c.detail})" if c.detail else ""
                lines.append(f"  PASS {c.name}{detail}")
            else:
                failures += 1
                lines.append(f"  FAIL {c.name}: {c.detail}")
        for note in rep.notes:
            lines.append(f"  {note}")
    lines.append(f"{total} checks, {failures} failed")
    return "\n".join(lines), failures == 0


def _suite_name(text: str) -> str:
    """The ``verify`` argument: a suite name or ``all``.  argparse calls this
    only for the ``verify`` command, so no other command imports ``verify``."""
    from . import verify

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


def _silence_stdout() -> None:
    """Point stdout at the null device once a write to it failed, so that the
    flush at interpreter exit has nothing left to fail on (the "Note on
    SIGPIPE" in the ``signal`` module documentation)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    ok = True
    try:
        if args.command == "triangle":
            from .triangles import eval_rows, invert_triangle

            T = resolve_triangle(args.name, args.gf, args.rows)
            if args.invert:
                T = invert_triangle(T)
            if args.eval_at is not None:
                values = eval_rows(T, _parse_rational(args.eval_at, "--eval-at value"))
                text = render_sequence(values, args.format, args.offset)
            else:
                text = render_triangle(T, args.format)
        elif args.command == "sequence":
            values = resolve_sequence(args.spec, args.terms)
            text = render_sequence(values, args.format, args.offset)
        else:
            from . import verify

            text, ok = render_reports(verify.run(args.suite))
    except (CliError, ValueError, ZeroDivisionError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if sys.stdout is None:
        # fd 1 was closed at startup, and print would drop the text silently
        print("error: cannot write the output: stdout is closed", file=sys.stderr)
        return 1
    try:
        # flushed here, so that a failed write is caught here
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early (``riordan ... | head``): no message
        _silence_stdout()
        return 1
    except OSError as exc:
        _silence_stdout()
        print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
