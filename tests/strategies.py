"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from riordan.gfparse import FUNCTIONS, VARIABLES


@st.composite
def gf_texts(draw, variables=VARIABLES, depth=3):
    """Expressions over ``variables`` with sqrt and rev, at most depth deep.

    ``rev(x + x^2*e)`` always has a unit coefficient of x, so it can be
    reverted whatever ``e`` is."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(st.sampled_from(variables), st.integers(0, 9).map(str)))
    kind = draw(st.sampled_from(["binop", "binop", "call", "call", "pow", "neg", "reversible"]))
    inner = gf_texts(variables, depth - 1)
    if kind == "binop":
        return f"({draw(inner)}{draw(st.sampled_from('+-*/'))}{draw(inner)})"
    if kind == "pow":
        return f"({draw(inner)})^{draw(st.integers(0, 5))}"
    if kind == "call":
        return f"{draw(st.sampled_from(FUNCTIONS))}({draw(inner)})"
    if kind == "reversible":
        return f"rev(x+x^2*{draw(inner)})"
    return f"(-{draw(inner)})"


# Expressions over one coefficient ring: Q, Q[y] or Q[a][b].
one_ring_gf_texts = st.sampled_from([("x",), ("x", "y"), ("x", "a", "b")]).flatmap(gf_texts)
