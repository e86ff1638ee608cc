"""Exact Riordan-array toolkit.

Triangles from Riordan pairs and bivariate generating functions, the
generating-function inversion operator on triangles, the named polynomial
families it produces, Hankel transforms, and lattice-path and tiling oracles
that cross-check them: cached dynamic programs that never touch the series
machinery.
"""

import importlib

# Public name -> the submodule that defines it.  A name's submodule is
# imported on first access (PEP 562), so ``import riordan`` loads none.
_EXPORTS = {
    **dict.fromkeys(
        ("QA", "QAB", "QQ", "QY", "ExactRational", "Polynomial", "PolynomialRing",
         "RationalField", "binomial", "catalan", "exact_sqrt", "fibonacci",
         "format_element", "jacobsthal"),
        "exact",
    ),
    **dict.fromkeys(("GfEvalError", "ParseError", "eval_ast", "eval_gf", "parse"), "gfparse"),
    "hankel_transform": "hankel",
    **dict.fromkeys(("PathClass", "count_paths", "count_tilings"), "paths"),
    **dict.fromkeys(("PowerSeries", "constant", "from_coeffs", "generator_series", "x_series"),
                    "series"),
    **dict.fromkeys(("RiordanPair", "Triangle", "build_exponential", "build_from_bgf",
                     "build_ordinary", "eval_rows", "invert_triangle", "row_sums"),
                    "triangles"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
