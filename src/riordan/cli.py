"""Command-line front end: triangles, sequences, and identity verification.

Output is deterministic byte-for-byte for fixed inputs.  Exact values render
as decimal integers or "p/q"; polynomial entries use the same compact form as
the library.  Exit status is 0 only when every requested computation or check
succeeds.  Nothing loads an argument-parsing module (``_parse_args`` reads
``_COMMANDS``); every riordan module, and ``json``, loads in the branch that
uses it: ``import riordan.cli`` and ``--help`` load none, a ``gf:`` sequence
loads the parser and the series and ring layers under it, and only named
triangles, ``cf@``, ``dual-cf@`` and ``rowsums:`` load ``families``.
"""

from __future__ import annotations

import os
import sys

FORMATS = ("table", "csv", "json", "bfile")


def _parse_rational(text: str, what: str):
    from .exact import read_rational

    try:
        return read_rational(text)
    except ValueError as exc:
        raise ValueError(f"bad {what} {text!r}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise ValueError(f"bad {what} {text!r}: zero denominator") from exc


def resolve_triangle(spec: str | None, gf: str | None, rows: int) -> Triangle:
    if (spec is None) == (gf is None):
        raise ValueError("give exactly one of a triangle name or --gf")
    if rows < 1:
        raise ValueError("--rows must be >= 1")
    if gf is not None:
        from .gfparse import eval_gf
        from .triangles import build_from_bgf

        return build_from_bgf(eval_gf(gf, rows), rows)
    from . import families

    if spec.startswith("cf@"):
        return families.cf_matrix(_parse_rational(spec[3:], "cf@ value"), rows)
    if spec not in families.TRIANGLES:
        raise ValueError(
            f"unknown triangle {spec!r}; names: {', '.join(families.TRIANGLES)}, cf@<rational>"
        )
    return families.TRIANGLES[spec](rows)


def resolve_sequence(spec: str, n_terms: int) -> list:
    if n_terms < 1:
        raise ValueError("-n must be >= 1")
    if spec.startswith("dual-cf@"):
        from . import families

        y0 = _parse_rational(spec[len("dual-cf@"):], "dual-cf@ value")
        return families.dual_cf_values(y0, n_terms)
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
    raise ValueError(
        f"unknown sequence {spec!r}; forms: dual-cf@<rational>, rowsums:<triangle>, "
        "hankel:<sequence>, gf:<expression>"
    )


def render_triangle(T: Triangle, fmt: str) -> str:
    from .exact import format_element

    if fmt == "bfile":
        raise ValueError("bfile applies only to single sequences")
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


def _suites() -> tuple:  # only the verify command loads verify
    from .verify import SUITE_NAMES
    return SUITE_NAMES + ("all",)


_OUT = {"format": ("--format {" + ",".join(FORMATS) + "}", FORMATS, "table", ""),
        "offset": ("--offset OFFSET", int, 0, "b-file start index (default 0)")}
_HELP = {"help": ("-h/--help", None, None, "print this text and exit, wherever it appears")}

# Per command: its help and its arguments by destination, as (spelling, conversion, default,
# help), the positional first, "[name]" if optional; bool marks a flag, a tuple the choices.
_COMMANDS = {
    "triangle": ("print a coefficient triangle", {
        "name": ("[name]", str, None,
                 "a named triangle (an unknown name lists them), or cf@<rational>"),
        "gf": ("--gf GF", str, None, "bivariate generating function in x and y: row n is [x^n] "
               "as a polynomial in y, over Q; with a and b instead of y, b is the row variable, "
               "the entries are polynomials in a, and --invert is refused"),
        "rows": ("--rows ROWS", int, 8, "number of rows (default 8)"),
        "eval_at": ("--eval-at Y0", str, None, "evaluate row polynomials at a rational y"),
        "invert": ("--invert", bool, False, "apply the inversion operator first"), **_OUT}),
    "sequence": ("print an exact sequence", {
        "spec": ("spec", str, None,
                 "dual-cf@<rational> | rowsums:<triangle> | hankel:<sequence> | gf:<expression>"),
        "terms": ("-n/--terms TERMS", int, 10, "number of terms (default 10)"), **_OUT}),
    "verify": ("run identity-verification suites", {
        "suite": ("suite", _suites, None, "a suite name, or all; an unknown name lists them")}),
}
_USAGE = "usage: riordan {" + ",".join(_COMMANDS) + "} ..."


def _fail(command, message: str):
    print(f"{_USAGE}\nriordan{f' {command}' * bool(command)}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv) -> dict:
    """``argv`` by destination; an option's value is the next argument, whatever it is."""
    command, values, extras, tokens = None, {}, [], iter(argv)
    rows, positional = {**_HELP, "command": ("command", tuple(_COMMANDS), None, "")}, "command"
    for token in tokens:
        if token[:1] != "-" or token == "-":
            dest, value, positional = positional, token, None
        else:
            name, eq, value = token.partition("=") if token[1] == "-" else (
                token[:2], token[2:], token[2:].removeprefix("="))  # -n5 or -n=5
            value = value if eq else None
            found = [dest for dest, row in rows.items()
                     if any(flag.startswith(name) for flag in row[0].split()[0].split("/"))]
            if len(found) > 1:
                _fail(command, f"ambiguous option: {token} could match {', '.join(found)}")
            dest = found[0] if found else None
        if dest is None:  # reported only once every argument is read
            extras.append(token)
            continue
        conversion, what = rows[dest][1], "argument " + rows[dest][0].split()[0].strip("[]")
        if conversion in (None, bool) and value is not None:
            _fail(command, f"{what}: ignored explicit argument {value!r}")
        if conversion is None:
            return {"command": "help"}
        if conversion is not bool and value is None and (value := next(tokens, None)) is None:
            _fail(command, f"{what}: expected one argument")
        if conversion is int:
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"{what}: invalid int value: {value!r}")
        elif conversion not in (str, bool) and value not in (
                choices := conversion if isinstance(conversion, tuple) else conversion()):
            _fail(command, f"{what}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
        if command is None:  # from here on the command's own arguments apply
            command, arguments = value, _COMMANDS[value][1]
            positional, rows = next(iter(arguments)), {**_HELP, **arguments}
            values = {key: row[2] for key, row in arguments.items()}
        values[dest] = True if conversion is bool else value
    if positional is not None and not rows[positional][0].startswith("["):
        _fail(command, f"the following arguments are required: {positional}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return values


def _silence_stdout() -> None:
    """Point stdout at the null device once a write to it failed, so that the
    flush at interpreter exit has nothing left to fail on (the "Note on
    SIGPIPE" in the ``signal`` module documentation)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    ok = True
    try:
        if args["command"] == "triangle":
            from .triangles import eval_rows, invert_triangle

            T = resolve_triangle(args["name"], args["gf"], args["rows"])
            if args["invert"]:
                T = invert_triangle(T)
            if args["eval_at"] is not None:
                values = eval_rows(T, _parse_rational(args["eval_at"], "--eval-at value"))
                text = render_sequence(values, args["format"], args["offset"])
            else:
                text = render_triangle(T, args["format"])
        elif args["command"] == "sequence":
            values = resolve_sequence(args["spec"], args["terms"])
            text = render_sequence(values, args["format"], args["offset"])
        elif args["command"] == "help":
            text = f"{_USAGE}\n\nExact triangles, dual polynomial sequences, and identity checks."
            for command, (about, arguments) in _COMMANDS.items():
                text += f"\n\nriordan {command}: {about}" + "".join(
                    f"\n  {spelling:<18} {note}".rstrip()
                    for spelling, _, _, note in (*arguments.values(), *_HELP.values()))
        else:
            from . import verify

            text, ok = render_reports(verify.run(args["suite"]))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
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
