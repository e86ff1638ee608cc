"""A small expression language for generating functions.

Grammar (version 1, stable public interface):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' uint)?
    atom   := number | var | '(' expr ')' | func '(' expr ')'
    var    := 'x' | 'y' | 'a' | 'b'
    func   := 'sqrt' | 'rev'
    number := decimal integer (arbitrary precision)

Implicit multiplication is not supported; '^' takes a literal nonnegative
integer exponent; rationals are written with '/'.  ``x`` is the series
variable, y/a/b are coefficient-ring generators, ``rev`` is compositional
reversion in x and ``sqrt`` the exact series square root.

Parse errors carry the character offset of the offending token.

Nesting is bounded by MAX_DEPTH, so that no input can exhaust the
interpreter's recursion stack: at most MAX_DEPTH parentheses and function
calls may be open at once, and the parsed tree may be at most MAX_DEPTH
nodes deep (a chain of n binary operators is n + 1 deep).  Deeper input
raises ParseError at the offset where the limit is passed.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .exact import QQ, QY, QAB, unlimited_int_digits
from .series import PowerSeries, constant, x_series, generator_series

VARIABLES = ("x", "y", "a", "b")
FUNCTIONS = ("sqrt", "rev")

GRAMMAR_VERSION = 1

MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax error with the character offset where it was detected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class GfEvalError(ValueError):
    """Evaluation error carrying the source offset of the failing node."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# --- AST -------------------------------------------------------------------
# ``pos`` is the source offset; it never participates in equality.

class IntLit(Value):
    __slots__ = ("value", "pos")

    def __init__(self, value: int, pos: int = -1):
        super().__init__(value, pos)


class RatLit(Value):
    __slots__ = ("value", "pos")

    def __init__(self, value: Fraction, pos: int = -1):
        if value.denominator == 1:
            raise ValueError("integral RatLit; use IntLit")
        super().__init__(value, pos)


class Var(Value):
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: int = -1):
        super().__init__(name, pos)


class Neg(Value):
    __slots__ = ("operand", "pos")

    def __init__(self, operand: Node, pos: int = -1):
        super().__init__(operand, pos)


class BinOp(Value):
    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left: Node, right: Node, pos: int = -1):  # op: + - * /
        super().__init__(op, left, right, pos)


class Pow(Value):
    __slots__ = ("base", "exponent", "pos")

    def __init__(self, base: Node, exponent: int, pos: int = -1):
        super().__init__(base, exponent, pos)


class Call(Value):
    __slots__ = ("func", "arg", "pos")

    def __init__(self, func: str, arg: Node, pos: int = -1):  # func: sqrt | rev
        super().__init__(func, arg, pos)


Node = IntLit | RatLit | Var | Neg | BinOp | Pow | Call


# --- Lexer -----------------------------------------------------------------

class _Token(Value):
    __slots__ = ("kind", "text", "pos")  # kind: int, name, op, end

    def __init__(self, kind: str, text: str, pos: int):
        super().__init__(kind, text, pos)


def _tokenize(text: str) -> list[_Token]:
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError(f"non-ASCII character {text[bad]!r}", bad)
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
        else:
            raise ParseError(f"illegal character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.open_parens = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.current
        if tok.kind != "op" or tok.text != op:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {op!r}, found {shown!r}", tok.pos)
        return self.advance()

    def parse_expr(self) -> Node:
        tok = self.current
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            node: Node = Neg(self.parse_term(), pos=tok.pos)
        else:
            node = self.parse_term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance()
            right = self.parse_term()
            node = BinOp(op.text, node, right, pos=op.pos)
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance()
            right = self.parse_factor()
            node = _fold_div(op.text, node, right, op.pos)
        return node

    def parse_factor(self) -> Node:
        node = self.parse_atom()
        if self.current.kind == "op" and self.current.text == "^":
            caret = self.advance()
            tok = self.current
            if tok.kind != "int":
                shown = tok.text if tok.kind != "end" else "end of input"
                raise ParseError(
                    f"exponent must be a nonnegative integer literal, found {shown!r}",
                    tok.pos,
                )
            self.advance()
            node = Pow(node, int(tok.text), pos=caret.pos)
        return node

    def parse_atom(self) -> Node:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text), pos=tok.pos)
        if tok.kind == "name":
            self.advance()
            if tok.text in VARIABLES:
                return Var(tok.text, pos=tok.pos)
            if tok.text in FUNCTIONS:
                return Call(tok.text, self.parse_parenthesized(self.expect_op("(")), pos=tok.pos)
            raise ParseError(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            return self.parse_parenthesized(self.advance())
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"expected a value, found {shown!r}", tok.pos)

    def parse_parenthesized(self, opener: _Token) -> Node:
        """The expression after the consumed ``opener`` and its closing ')'."""
        self.open_parens += 1
        if self.open_parens > MAX_DEPTH:
            raise ParseError(f"more than {MAX_DEPTH} nested parentheses", opener.pos)
        node = self.parse_expr()
        self.expect_op(")")
        self.open_parens -= 1
        return node


def _fold_div(op: str, left: Node, right: Node, pos: int) -> Node:
    """Fold literal/literal into a rational literal so printing round-trips."""
    if op == "/" and isinstance(right, IntLit) and isinstance(left, (IntLit, RatLit)):
        lv = left.value if isinstance(left, RatLit) else Fraction(left.value)
        if right.value != 0:
            q = lv / right.value
            return IntLit(int(q), pos=left.pos) if q.denominator == 1 else RatLit(q, pos=left.pos)
    return BinOp(op, left, right, pos=pos)


def parse(text: str) -> Node:
    """Parse generating-function text into an AST.  Integer literals have
    no digit limit."""
    parser = _Parser(_tokenize(text))
    with unlimited_int_digits():
        node = parser.parse_expr()
    tok = parser.current
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r} after expression", tok.pos)
    stack = [(node, 1)]
    while stack:
        n, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", n.pos)
        stack.extend((child, depth + 1) for child in _children(n))
    return node


def _children(node: Node) -> tuple:
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def to_text(node: Node) -> str:
    """Render an AST back to source, fully parenthesized; reparsing yields a
    structurally identical tree.  Integer literals have no digit limit."""
    with unlimited_int_digits():
        return _render(node)


def _render(node: Node) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, RatLit):
        # parenthesized so neighbouring '*'/'/' cannot re-associate the literal
        return f"({node.value.numerator}/{node.value.denominator})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_render(node.operand)})"
    if isinstance(node, BinOp):
        return f"({_render(node.left)}{node.op}{_render(node.right)})"
    if isinstance(node, Pow):
        base = _render(node.base)
        if isinstance(node.base, Pow):  # x^2^3 is not grammatical
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def _var_nodes(node: Node) -> list[Var]:
    """The variable occurrences, in source order."""
    if isinstance(node, Var):
        return [node]
    return [v for child in _children(node) for v in _var_nodes(child)]


def ring_for(node: Node):
    """Smallest supported coefficient ring for the variables that occur.

    Mixing y with a or b is an error at the first variable that mixes them."""
    occurrences = _var_nodes(node)
    gens = {v.name for v in occurrences} - {"x"}
    if not gens:
        return QQ
    if gens == {"y"}:
        return QY
    if gens <= {"a", "b"}:
        return QAB
    pos = max(
        next(v.pos for v in occurrences if v.name == "y"),
        next(v.pos for v in occurrences if v.name in ("a", "b")),
    )
    raise GfEvalError(f"variables {sorted(gens)} do not fit one ring (y is exclusive of a, b)", pos)


def eval_ast(node: Node, order: int) -> PowerSeries:
    """Evaluate bottom-up to a series of ``order`` coefficients over the
    ring ``ring_for`` picks.  Series-domain failures are re-raised with the
    source offset of the responsible node.

    Every operation is prefix-exact: coefficient n of a result depends only
    on coefficients 0..n of its inputs.  So the result is the first
    ``order`` coefficients at any larger working order.  The working order
    is at least 2, because ``rev`` needs the coefficient of x."""
    ring = ring_for(node)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    work = max(order, 2)

    def ev(n: Node) -> PowerSeries:
        try:
            if isinstance(n, IntLit):
                return constant(ring, n.value, work)
            if isinstance(n, RatLit):
                return constant(ring, n.value, work)
            if isinstance(n, Var):
                if n.name == "x":
                    return x_series(ring, work)
                return generator_series(ring, n.name, work)
            if isinstance(n, Neg):
                return -ev(n.operand)
            if isinstance(n, BinOp):
                left, right = ev(n.left), ev(n.right)
                if n.op == "+":
                    return left + right
                if n.op == "-":
                    return left - right
                if n.op == "*":
                    return left * right
                return left / right
            if isinstance(n, Pow):
                return ev(n.base) ** n.exponent
            if isinstance(n, Call):
                arg = ev(n.arg)
                return arg.sqrt() if n.func == "sqrt" else arg.revert()
        except GfEvalError:
            raise
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise GfEvalError(str(exc), n.pos) from exc
        raise TypeError(f"not an AST node: {n!r}")

    series = ev(node)
    return series if work == order else series.truncate(order)


def eval_gf(text: str, order: int) -> PowerSeries:
    """Parse and evaluate in one step."""
    return eval_ast(parse(text), order)
