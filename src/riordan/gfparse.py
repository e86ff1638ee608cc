"""A small expression language for generating functions.

Grammar (version 1):

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

``parse`` compiles text to a postfix program: a tuple of ``(op, offset,
arg)`` instructions in which the operands of each operation come before
it.  ``op`` is ``num`` or ``var`` (``arg`` is the integer or the variable
name), ``neg``, one of ``+ - * /``, ``^`` (``arg`` is the exponent), or a
function name; ``offset`` is the source offset of the token.
``eval_ast`` runs a program on a stack of series.

Parse errors carry the character offset of the offending token, and all of
them are raised before any evaluation.

The parser recurses only into parentheses and function calls, and at most
MAX_DEPTH of those may be open at once, so that no input can exhaust the
interpreter's recursion stack; deeper input raises ParseError at the offset
of the opening that passes the limit.  An operator chain is a loop, in the
parser and on the stack, however long it is.
"""

from __future__ import annotations

import operator

from ._value import Value
from .exact import QQ, QY, QAB, read_rational
from .series import PowerSeries, constant, x_series, generator_series

VARIABLES = ("x", "y", "a", "b")
FUNCTIONS = ("sqrt", "rev")

MAX_DEPTH = 100

# (op, source offset, arg) instructions, each operation after its operands
Program = tuple[tuple[str, int, object], ...]

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class ParseError(ValueError):
    """Syntax error with the character offset where it was detected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class GfEvalError(ValueError):
    """Evaluation error carrying the source offset of the failing operation."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# --- Lexer -----------------------------------------------------------------

class _Token(Value):
    __slots__ = ("kind", "text", "pos")  # kind: int, name, op, end

    def shown(self) -> str:
        return self.text if self.kind != "end" else "end of input"


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


# --- Compiler --------------------------------------------------------------

class _Compiler:
    """Recursive descent that appends each operation after its operands."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.open_parens = 0
        self.code = []

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, ops: str) -> bool:
        return self.current.kind == "op" and self.current.text in ops

    def expect_op(self, op: str) -> _Token:
        if not self.at_op(op):
            tok = self.current
            raise ParseError(f"expected {op!r}, found {tok.shown()!r}", tok.pos)
        return self.advance()

    def expr(self) -> None:
        if self.at_op("-"):
            minus = self.advance()
            self.term()
            self.code.append(("neg", minus.pos, None))
        else:
            self.term()
        while self.at_op("+-"):
            op = self.advance()
            self.term()
            self.code.append((op.text, op.pos, None))

    def term(self) -> None:
        self.factor()
        while self.at_op("*/"):
            op = self.advance()
            self.factor()
            self.code.append((op.text, op.pos, None))

    def factor(self) -> None:
        self.atom()
        if self.at_op("^"):
            caret = self.advance()
            tok = self.current
            if tok.kind != "int":
                raise ParseError(
                    f"exponent must be a nonnegative integer literal, found {tok.shown()!r}",
                    tok.pos,
                )
            self.advance()
            self.code.append(("^", caret.pos, read_rational(tok.text)))

    def atom(self) -> None:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            self.code.append(("num", tok.pos, read_rational(tok.text)))
        elif tok.kind == "name":
            self.advance()
            if tok.text in VARIABLES:
                self.code.append(("var", tok.pos, tok.text))
            elif tok.text in FUNCTIONS:
                self.parenthesized(self.expect_op("("))
                self.code.append((tok.text, tok.pos, None))
            else:
                raise ParseError(f"unknown name {tok.text!r}", tok.pos)
        elif self.at_op("("):
            self.parenthesized(self.advance())
        else:
            raise ParseError(f"expected a value, found {tok.shown()!r}", tok.pos)

    def parenthesized(self, opener: _Token) -> None:
        """The expression after the consumed ``opener`` and its closing ')'."""
        self.open_parens += 1
        if self.open_parens > MAX_DEPTH:
            raise ParseError(f"more than {MAX_DEPTH} nested parentheses", opener.pos)
        self.expr()
        self.expect_op(")")
        self.open_parens -= 1


def parse(text: str) -> Program:
    """Compile generating-function text to a postfix program.  Integer
    literals have no digit limit."""
    compiler = _Compiler(_tokenize(text))
    compiler.expr()
    tok = compiler.current
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r} after expression", tok.pos)
    return tuple(compiler.code)


def _ring_for(program: Program):
    """Smallest supported coefficient ring for the variables that occur.

    Mixing y with a or b is an error at the first variable that mixes them;
    the ``var`` instructions are in source order."""
    occurrences = [(pos, name) for op, pos, name in program if op == "var" and name != "x"]
    gens = {name for _, name in occurrences}
    if not gens:
        return QQ
    if gens == {"y"}:
        return QY
    if gens <= {"a", "b"}:
        return QAB
    pos = max(
        next(pos for pos, name in occurrences if name == "y"),
        next(pos for pos, name in occurrences if name != "y"),
    )
    raise GfEvalError(f"variables {sorted(gens)} do not fit one ring (y is exclusive of a, b)", pos)


def eval_ast(program: Program, order: int) -> PowerSeries:
    """Run ``program`` to a series of ``order`` coefficients over the
    smallest ring of its variables.  Series-domain failures are re-raised
    with the source offset of the failing instruction.

    Every operation is prefix-exact: coefficient n of a result depends only
    on coefficients 0..n of its inputs.  So the result is the first
    ``order`` coefficients at any larger working order.  The working order
    is at least 2, because ``rev`` needs the coefficient of x."""
    ring = _ring_for(program)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    work = max(order, 2)
    stack = []
    for op, pos, arg in program:
        try:
            if op == "num":
                value = constant(ring, arg, work)
            elif op == "var":
                value = x_series(ring, work) if arg == "x" else generator_series(ring, arg, work)
            elif op == "neg":
                value = -stack.pop()
            elif op == "^":
                value = stack.pop() ** arg
            elif op == "sqrt":
                value = stack.pop().sqrt()
            elif op == "rev":
                value = stack.pop().revert()
            else:
                right = stack.pop()
                value = _BINARY[op](stack.pop(), right)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise GfEvalError(str(exc), pos) from exc
        stack.append(value)
    (series,) = stack
    return series if work == order else series.truncate(order)


def eval_gf(text: str, order: int) -> PowerSeries:
    """Parse and evaluate in one step."""
    return eval_ast(parse(text), order)
