"""Run one riordan CLI command with every layer of the package wrapped.

Usage: python perfbench/tracer.py TRACE_JSON SRC_DIR -- CLI_ARGS...

The child imports ``riordan`` from SRC_DIR, wraps the public functions of
each module from outside (nothing in the package changes), calls
``riordan.cli.main(CLI_ARGS)`` and exits with its status.  Stdout is the
command's own output, so it can be checked against the golden file.  At exit
the spans and per-layer metrics of the command go to TRACE_JSON.

Coarse boundaries (cli, gfparse, series operations, triangles, families,
hankel, paths, verify suites) get full spans.  Hot ring calls
(``Polynomial.__mul__``/``__add__``) are aggregated into counts and self time
instead; ``PolynomialRing.coerce`` and ``PowerSeries.__init__`` are counted
only.  A frame's self time is its duration minus the durations of the
wrapped calls made inside it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

clock = time.perf_counter

# Ring of a Polynomial, by its variable: Q[y], Q[a] and Q[a][b] are the only
# polynomial rings the package builds.
RING_BY_VAR = {"y": "QY", "a": "QA", "b": "QAB"}


class Tracer:
    """Spans, hot-call aggregates and per-group inclusive times of one command."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, self seconds)
        self.frames = []  # child-time accumulators of the open wrapped calls
        self.current = None  # id of the innermost open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.group_s = defaultdict(float)  # inclusive time of outermost spans per group
        self.active = Counter()  # open spans per group
        self.max_bits = 0

    def span(self, name, group, fn, scan_result=False):
        """Wrap ``fn`` so each call records a span named ``name``."""
        spans, frames, calls, self_s = self.spans, self.frames, self.calls, self.self_s
        group_s, active = self.group_s, self.active

        def wrapper(*args, **kwargs):
            parent = self.current
            sid = len(spans)
            spans.append(None)
            self.current = sid
            frame = [0.0]
            frames.append(frame)
            active[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                self.current = parent
                spans[sid] = (sid, parent, name, start, end, duration - frame[0])
                calls[name] += 1
                self_s[name] += duration - frame[0]
                active[group] -= 1
                if not active[group]:
                    group_s[group] += duration
            if scan_result and not active[group]:
                self.max_bits = max(self.max_bits, coeff_bits(result))
            return result

        return wrapper

    def hot(self, key_of, fn):
        """Wrap a hot binary method: count and self time per ``key_of(self)``."""
        frames, calls, self_s = self.frames, self.calls, self.self_s

        def wrapper(a, b):
            key = key_of(a)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(a, b)
            finally:
                duration = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                calls[key] += 1
                self_s[key] += duration - frame[0]

        return wrapper

    def counted(self, name, fn):
        """Wrap ``fn`` so each call only increments a count."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def coeff_bits(value) -> int:
    """Largest bit length of any numerator or denominator inside ``value``."""
    from riordan.exact import Polynomial
    from riordan.series import PowerSeries
    from riordan.triangles import Triangle

    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (Polynomial, PowerSeries)):
        return max((coeff_bits(c) for c in value.coeffs), default=0)
    if isinstance(value, Triangle):
        return max((coeff_bits(e) for row in value.rows for e in row), default=0)
    if isinstance(value, (list, tuple)):
        return max((coeff_bits(v) for v in value), default=0)
    return 0


def _rebind(old, new) -> None:
    """Point every riordan module attribute that is ``old`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if modname == "riordan" or modname.startswith("riordan."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _wrap(owner, name, make) -> None:
    """Replace ``owner.name``, its aliases and every riordan reference to it
    by ``make(old)``.  A name the package no longer has is skipped, so that
    layer's metrics read 0 instead of the run failing."""
    old = getattr(owner, name, None)
    if old is None:
        return
    new = make(old)
    if isinstance(owner, type):
        for attr, value in list(vars(owner).items()):
            if value is old:
                setattr(owner, attr, new)
    _rebind(old, new)


def _recording(usage: Counter, key: str, param: str, fn, call, when=lambda bound: True):
    """Wrap ``call``, a wrapper of ``fn``, so each call adds ``fn``'s argument
    ``param`` to ``usage[key]`` when ``when`` holds for the bound arguments."""
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        try:
            bound = signature.bind(*args, **kwargs).arguments
        except TypeError:
            bound = {}
        if param in bound and when(bound):
            value = bound[param]
            usage[key] += len(value) if isinstance(value, (list, tuple)) else value
        return call(*args, **kwargs)

    return wrapper


def install(tracer: Tracer, usage: Counter) -> dict:
    """Wrap every layer of the imported riordan package.

    ``usage`` collects the series order gfparse evaluated, the number of
    coefficients the CLI then used, and the Hankel matrix dimensions.
    Returns the ``functools.cache`` objects of ``families`` so their hit
    counts can be read at exit.
    """
    from riordan import cli, exact, families, gfparse, hankel, paths, series, triangles, verify

    def span(name, group=None, scan_result=False):
        return lambda fn: tracer.span(name, group or name, fn, scan_result)

    # exact: hot ring arithmetic, aggregated.
    Poly = exact.Polynomial
    _wrap(Poly, "__mul__", lambda fn: tracer.hot(
        lambda p: "exact.mul." + RING_BY_VAR.get(getattr(p.ring, "var", None), "other"), fn))
    _wrap(Poly, "__add__", lambda fn: tracer.hot(lambda p: "exact.add", fn))
    _wrap(exact.PolynomialRing, "coerce", lambda fn: tracer.counted("exact.coerce", fn))

    # series: every operation is a span; construction is counted.
    PS = series.PowerSeries
    _wrap(PS, "__init__", lambda fn: tracer.counted("series.new", fn))
    for op, method in (("mul", "__mul__"), ("truediv", "__truediv__"), ("pow", "__pow__"),
                       ("sqrt", "sqrt"), ("compose", "compose"), ("revert", "revert")):
        _wrap(PS, method, span(f"series.{op}", "series", scan_result=True))

    # gfparse: parse and evaluate; the evaluated order is recorded.
    _wrap(gfparse, "parse", span("gfparse.parse"))
    _wrap(gfparse, "eval_ast", lambda fn: _recording(usage, "eval_order", "order", fn,
                                                      span("gfparse.eval")(fn)))

    # triangles
    for fname in ("build_ordinary", "build_exponential", "build_from_bgf"):
        _wrap(triangles, fname, span(f"triangles.{fname}", "triangles.build", scan_result=True))
    _wrap(triangles, "invert_triangle", span("triangles.invert", scan_result=True))
    for fname in ("eval_rows", "row_sums"):
        _wrap(triangles, fname, span(f"triangles.{fname}", "triangles.rows_eval"))

    # families: every function the module defines; the cached ones keep their
    # cache objects for the hit and miss counts.
    caches = {}
    for fname, fn in list(vars(families).items()):
        if callable(fn) and not isinstance(fn, type) \
                and getattr(fn, "__module__", None) == families.__name__:
            if hasattr(fn, "cache_info"):
                caches[fname] = fn
            _wrap(families, fname, span(f"families.{fname}", "families", scan_result=True))

    # hankel: the transform, every determinant, and the rational fallback count.
    _wrap(hankel, "hankel_transform", span("hankel.transform", scan_result=True))
    _wrap(hankel, "determinant", lambda fn: _recording(usage, "det_dim_sum", "rows", fn,
                                                        span("hankel.det")(fn)))
    _wrap(hankel, "_det_rational", lambda fn: tracer.counted("hankel.det_rational", fn))

    # paths
    for fname in ("count_paths", "count_tilings"):
        _wrap(paths, fname, span(f"paths.{fname}", "paths.count"))

    # verify: the suites are reached through verify._SUITES.
    suites = getattr(verify, "_SUITES", {})
    for suite, fn in list(suites.items()):
        suites[suite] = span(f"verify.{suite}")(fn)
        _rebind(fn, suites[suite])

    # cli: resolve, render, and the coefficients a gf: spec actually uses.
    _wrap(cli, "resolve_triangle", lambda fn: _recording(
        usage, "terms_used", "rows", fn, span("cli.resolve_triangle", "cli.resolve")(fn),
        when=lambda bound: bound.get("gf") is not None))
    _wrap(cli, "resolve_sequence", lambda fn: _recording(
        usage, "terms_used", "n_terms", fn, span("cli.resolve_sequence", "cli.resolve")(fn),
        when=lambda bound: str(bound.get("spec", "")).startswith("gf:")))
    for fname in ("render_triangle", "render_sequence", "render_reports"):
        _wrap(cli, fname, span(f"cli.{fname}", "cli.render"))
    _wrap(cli, "main", span("cli.main", "cli"))
    return caches


def layer_metrics(tracer: Tracer, usage: dict, caches: dict, import_s: float) -> dict:
    """Per-layer metrics of one command; counts add up over a pass."""
    calls, self_s, group_s = tracer.calls, tracer.self_s, tracer.group_s
    m = {}
    for ring in ("QY", "QA", "QAB"):
        m[f"exact.mul.{ring}.calls"] = calls[f"exact.mul.{ring}"]
        m[f"exact.mul.{ring}.self_s"] = self_s[f"exact.mul.{ring}"]
    m["exact.add.calls"] = calls["exact.add"]
    m["exact.add.self_s"] = self_s["exact.add"]
    m["exact.coerce.calls"] = calls["exact.coerce"]
    m["exact.max_coeff_bits"] = tracer.max_bits
    for op in ("mul", "truediv", "sqrt", "compose", "revert", "pow"):
        m[f"series.{op}.calls"] = calls[f"series.{op}"]
        m[f"series.{op}.self_s"] = self_s[f"series.{op}"]
    m["series.new_calls"] = calls["series.new"]
    m["gfparse.parse_s"] = group_s["gfparse.parse"]
    m["gfparse.eval_s"] = group_s["gfparse.eval"]
    m["gfparse.eval_order"] = usage["eval_order"]
    m["gfparse.terms_used"] = usage["terms_used"]
    m["triangles.build_s"] = group_s["triangles.build"]
    m["triangles.invert.calls"] = calls["triangles.invert"]
    m["triangles.invert.self_s"] = self_s["triangles.invert"]
    m["triangles.rows_eval_s"] = group_s["triangles.rows_eval"]
    m["families.s"] = group_s["families"]
    m["families.cache_hits"] = sum(fn.cache_info().hits for fn in caches.values())
    m["families.cache_misses"] = sum(fn.cache_info().misses for fn in caches.values())
    m["hankel.transform_s"] = group_s["hankel.transform"]
    m["hankel.det.calls"] = calls["hankel.det"]
    m["hankel.det.self_s"] = self_s["hankel.det"]
    m["hankel.det_rational.calls"] = calls["hankel.det_rational"]
    m["hankel.det_dim_sum"] = usage["det_dim_sum"]
    m["paths.count.calls"] = calls["paths.count_paths"] + calls["paths.count_tilings"]
    m["paths.count_s"] = group_s["paths.count"]
    for suite in ("duality", "lagrange", "hankel", "paths", "fundamental", "involution"):
        m[f"verify.{suite}_s"] = group_s[f"verify.{suite}"]
    m["cli.import_s"] = import_s
    m["cli.resolve_s"] = group_s["cli.resolve"]
    m["cli.render_s"] = group_s["cli.render"]
    return m


def main(argv: list[str]) -> int:
    trace_path, src = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON SRC_DIR -- CLI_ARGS...")
    cli_args = argv[3:]
    start = clock()
    sys.path.insert(0, src)
    import riordan.cli

    import_s = clock() - start
    tracer = Tracer()
    usage = Counter()
    caches = install(tracer, usage)
    try:
        status = riordan.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        record = {
            "metrics": layer_metrics(tracer, usage, caches, import_s),
            "spans": tracer.spans,
        }
        with open(trace_path, "w") as fh:
            json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
