"""Recursive-descent parser for polynomial and rational-function text.

Grammar (whitespace insignificant):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ['-'] base ['^' INT]
    base    := INT | 'x' | 'y' | '(' expr ')'

'/' is division over Q(x, y) in rational-function mode.  Polynomial mode
reads the same text the same way but allows only a nonzero constant
divisor, so 7/3, x/2 and 3/4^2 = 3/16 parse while x/y is rejected.
Multiplication is always explicit: '2x' is a syntax error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DegreeCapError, PolyParseError, ZeroDenominatorError
from .poly import Poly2, get_degree_cap


class _Token(NamedTuple):
    kind: str  # int | var | op | lparen | rparen | end
    text: str
    pos: int


_OPS = set("+-*/^")


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
        elif c in ("x", "y"):
            out.append(_Token("var", c, i))
            i += 1
        elif c in _OPS:
            out.append(_Token("op", c, i))
            i += 1
        elif c == "(":
            out.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            out.append(_Token("rparen", c, i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    """Evaluates the token stream over pairs (numerator, denominator)."""

    def __init__(self, text: str, rational: bool):
        self.tokens = _tokenize(text)
        self.k = 0
        self.rational = rational

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self) -> tuple[Poly2, Poly2]:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise PolyParseError(
                f"unexpected {tok.text!r}; multiplication requires an explicit '*'",
                tok.pos,
            )
        return value

    def expr(self) -> tuple[Poly2, Poly2]:
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            negate = tok.text == "-"
        num, den = self.term()
        if negate:
            num = -num
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                n2, d2 = self.term()
                if tok.text == "-":
                    n2 = -n2
                num, den = num * d2 + n2 * den, den * d2
            else:
                return num, den

    def term(self) -> tuple[Poly2, Poly2]:
        num, den = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                n2, d2 = self.factor()
                num, den = num * n2, den * d2
            elif tok.kind == "op" and tok.text == "/":
                self.advance()
                n2, d2 = self.factor()
                if not (self.rational or n2.is_constant()):
                    raise PolyParseError(
                        "a polynomial may only be divided by a constant", tok.pos
                    )
                if n2.is_zero:
                    raise ZeroDenominatorError(
                        f"division by zero at position {tok.pos}"
                    )
                num, den = num * d2, den * n2
            else:
                return num, den

    def factor(self) -> tuple[Poly2, Poly2]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            num, den = self.factor()
            return -num, den
        num, den = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            etok = self.advance()
            if etok.kind != "int":
                raise PolyParseError(
                    "exponent must be a nonnegative integer literal", etok.pos
                )
            e = int(etok.text)
            if e > get_degree_cap():
                raise DegreeCapError(
                    f"exponent {e} exceeds the degree cap {get_degree_cap()}"
                )
            return num**e, den**e
        return num, den

    def base(self) -> tuple[Poly2, Poly2]:
        tok = self.advance()
        if tok.kind == "int":
            return Poly2.const(int(tok.text)), Poly2.one()
        if tok.kind == "var":
            return Poly2.variable(tok.text), Poly2.one()
        if tok.kind == "lparen":
            value = self.expr()
            closing = self.advance()
            if closing.kind != "rparen":
                raise PolyParseError("expected ')'", closing.pos)
            return value
        if tok.kind == "rparen":
            raise PolyParseError("unbalanced ')'", tok.pos)
        if tok.kind == "end":
            raise PolyParseError("unexpected end of input", tok.pos)
        raise PolyParseError(f"unexpected {tok.text!r}", tok.pos)


def parse_poly(text: str) -> Poly2:
    """Parse polynomial text; '/' only by a nonzero constant."""
    num, den = _Parser(text, rational=False).parse()
    # every divisor was a constant, so den is one
    return num * (1 / den.constant_value())


def parse_ratfunc_pair(text: str) -> tuple[Poly2, Poly2]:
    """Parse a rational function, returning an unreduced (num, den) pair."""
    num, den = _Parser(text, rational=True).parse()
    if den.is_zero:
        raise ZeroDenominatorError("denominator is identically zero")
    return num, den


def parse_point(text: str) -> tuple[Fraction, Fraction]:
    """Parse 'a,b' with rational entries like 3/2 or -7."""
    parts = text.split(",")
    if len(parts) != 2:
        raise PolyParseError("expected two comma-separated coordinates", 0)
    coords = []
    for part, start in zip(parts, (0, len(parts[0]) + 1)):
        pos, entry = start + len(part) - len(part.lstrip()), part.strip()
        try:
            coords.append(Fraction(entry))
        except ValueError as exc:
            raise PolyParseError(f"bad coordinate: {exc}", pos) from None
        except ZeroDivisionError:
            raise PolyParseError(f"zero denominator in {entry!r}", pos) from None
    return coords[0], coords[1]
