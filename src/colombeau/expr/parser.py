"""Recursive-descent parser for the expression-net grammar.

    expr     := term (("+"|"-") term)*
    term     := unary (("*"|"/") unary)*
    unary    := "-" unary | factor
    factor   := atom ("^" exponent)?
    atom     := NUMBER | "eps" | VAR | FUNC "(" expr ")" | "(" expr ")"
    exponent := INT | "(" INT "/" INT ")" | "(" "-" INT ("/" INT)? ")"
    VAR      := "x1" | "x2" | "x3"
    FUNC     := "sin" | "cos" | "exp" | "bump" | "cutoff"

Binding strength is ^ > unary minus > * / > + - with left association for
the binary operators.  ``eps`` reads as ``EpsPow(1)``, and a power of it
folds into its exponent; rational exponents are only meaningful there, and
any other base requires an integer exponent.  The returned tree is in
simplified normal form.  Brackets, function calls and unary minus signs nest
at most ``MAX_NESTING`` deep, so that parsing, simplifying and evaluating a
parsed tree stay within Python's default recursion limit.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .nodes import (
    Add,
    Bump,
    Const,
    Cos,
    Cutoff,
    Div,
    EpsPow,
    Expr,
    ExpressionError,
    IntPow,
    Mul,
    Sin,
    Sub,
    Exp,
    Var,
)
from .transform import simplify

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

MAX_NESTING = 100  # open brackets, function calls and unary minus signs at one point

_FUNCS = {"sin": Sin, "cos": Cos, "exp": Exp, "bump": Bump, "cutoff": Cutoff}
_VAR_RE = re.compile(r"^x([1-9]\d*)$")


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dimension: int):
        if not 1 <= dimension <= 3:
            raise ExpressionError(f"dimension must be in 1..3, got {dimension}")
        self.tokens = _tokenize(text)
        self.i = 0
        self.dimension = dimension
        self.depth = 0  # nesting at the current token

    # -- token helpers ------------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def enter(self, tok: _Token) -> None:
        # one level down at an open bracket or minus sign; the caller steps back up
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)
        self.depth += 1

    # -- grammar ------------------------------------------------------------
    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.term()
            e = Add((e, rhs)) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            rhs = self.unary()
            e = Mul((e, rhs)) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.enter(self.advance())
            e = Mul((Const(-1.0), self.unary()))
            self.depth -= 1
            return e
        return self.factor()

    def factor(self) -> Expr:
        base = self.atom()
        if not self.at_op("^"):
            return base
        caret = self.advance()
        q = self.exponent()
        if isinstance(base, EpsPow):
            return EpsPow(base.exponent * q)
        if q.denominator != 1:
            raise ParseError("fractional exponents are only allowed on eps", caret.pos)
        return IntPow(base, int(q))

    def exponent(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            if "." in tok.text or "e" in tok.text or "E" in tok.text:
                raise ParseError("exponent must be an integer or (p/q)", tok.pos)
            return Fraction(int(tok.text))
        if self.at_op("("):
            self.advance()
            sign = 1
            if self.at_op("-"):
                self.advance()
                sign = -1
            num_tok = self.peek()
            if num_tok.kind != "num" or "." in num_tok.text:
                raise ParseError("expected integer in exponent", num_tok.pos)
            self.advance()
            num = int(num_tok.text)
            den = 1
            if self.at_op("/"):
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "num" or "." in den_tok.text:
                    raise ParseError("expected integer denominator", den_tok.pos)
                self.advance()
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator in exponent", den_tok.pos)
            self.expect_op(")")
            return Fraction(sign * num, den)
        raise ParseError("expected exponent", tok.pos)

    def bracketed(self, open_tok: _Token) -> Expr:
        """The expression after an open bracket, up to its closing one."""
        self.enter(open_tok)
        e = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return e

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name == "eps":
                return EpsPow(Fraction(1))
            m = _VAR_RE.match(name)
            if m:
                idx = int(m.group(1))
                if idx > 3:
                    raise ParseError(f"unknown identifier {name!r}", tok.pos)
                if idx > self.dimension:
                    raise ParseError(
                        f"variable {name} exceeds declared dimension {self.dimension}", tok.pos
                    )
                return Var(idx - 1)
            if name in _FUNCS:
                return _FUNCS[name](self.bracketed(self.expect_op("(")))
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        if self.at_op("("):
            return self.bracketed(self.advance())
        raise ParseError(f"expected expression, found {tok.text or 'end of input'!r}", tok.pos)


def parse(text: str, dimension: int = 1) -> Expr:
    """Parse ``text`` into simplified normal form for a net in ``dimension`` variables."""
    return simplify(_Parser(text, dimension).parse())
