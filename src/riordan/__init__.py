"""Exact Riordan-array toolkit.

Triangles from Riordan pairs and bivariate generating functions, the
generating-function inversion operator on triangles, the named polynomial
families it produces, Hankel transforms, and brute-force lattice-path and
tiling oracles that cross-check everything.
"""

from .exact import (
    QA,
    QAB,
    QQ,
    QY,
    ExactRational,
    Polynomial,
    PolynomialRing,
    RationalField,
    binomial,
    catalan,
    exact_sqrt,
    fibonacci,
    format_element,
    jacobsthal,
)
from .gfparse import GfEvalError, ParseError, eval_ast, eval_gf, parse, to_text
from .hankel import determinant, hankel_transform
from .paths import PathClass, count_paths, count_tilings
from .series import (
    PowerSeries,
    constant,
    from_coeffs,
    generator_series,
    one,
    x_series,
)
from .triangles import (
    RiordanPair,
    Triangle,
    apply_series,
    build_exponential,
    build_from_bgf,
    build_ordinary,
    eval_rows,
    invert_triangle,
    row_sums,
)

__all__ = [
    "QA",
    "QAB",
    "QQ",
    "QY",
    "ExactRational",
    "Polynomial",
    "PolynomialRing",
    "RationalField",
    "binomial",
    "catalan",
    "exact_sqrt",
    "fibonacci",
    "format_element",
    "jacobsthal",
    "GfEvalError",
    "ParseError",
    "eval_ast",
    "eval_gf",
    "parse",
    "to_text",
    "determinant",
    "hankel_transform",
    "PathClass",
    "count_paths",
    "count_tilings",
    "PowerSeries",
    "constant",
    "from_coeffs",
    "generator_series",
    "one",
    "x_series",
    "RiordanPair",
    "Triangle",
    "apply_series",
    "build_exponential",
    "build_from_bgf",
    "build_ordinary",
    "eval_rows",
    "invert_triangle",
    "row_sums",
]
