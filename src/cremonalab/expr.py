"""Shared expression grammar for surface equations, map components and CLI input.

Grammar: integers, rationals p/q, zeta(N) and zeta(N)^k, named variables,
operators + - * / ^ and parentheses; whitespace is ignored.  A map is one
component tuple "(e : e : ...)" per factor, the tuples joined by the name x.
The parser evaluates as it reads, into polynomials over a roster (divisors
and the bases of negative powers must be constant) or into rational
functions of x.  Error offsets count from the start of the text.
"""

from __future__ import annotations

from typing import Sequence

from .cyclo import CycloNumber, _power
from .multipoly import MultiPoly
from .poly import RatFunc


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class _Tok:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Tok]:
    toks = []
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
            toks.append(_Tok("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^():":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", None, n))
    return toks


class _Polys:
    """MultiPolys over a roster; a divisor or the base of a negative power must be constant."""

    def __init__(self, vars: Sequence[str]):
        self.vars = tuple(vars)

    def number(self, c) -> MultiPoly:
        return MultiPoly.constant(self.vars, c)

    def variable(self, name: str, pos: int) -> MultiPoly:
        if name not in self.vars:
            raise ParseError(f"unknown variable {name!r}", pos)
        return MultiPoly.variable(self.vars, name)

    def divide(self, a: MultiPoly, b: MultiPoly, pos: int) -> MultiPoly:
        if not b.is_constant():
            raise ParseError("division by a non-constant polynomial", pos)
        return a.scale(b.constant_value().inverse())

    def power(self, a: MultiPoly, k: int, pos: int) -> MultiPoly:
        if k >= 0:
            return a**k
        if not a.is_constant():
            raise ParseError("negative power of a non-constant", pos)
        return self.number(a.constant_value() ** k)


class _RatFuncs:
    """Rational functions of x."""

    def number(self, c) -> RatFunc:
        return RatFunc.coerce(c)

    def variable(self, name: str, pos: int) -> RatFunc:
        if name != "x":
            raise ParseError(f"unknown variable {name!r} (expected 'x')", pos)
        return RatFunc.x()

    def divide(self, a: RatFunc, b: RatFunc, pos: int) -> RatFunc:
        return a / b

    def power(self, a: RatFunc, k: int, pos: int) -> RatFunc:
        if k < 0:
            a, k = a.inverse(), -k
        return _power(a, k, self.number(1))


class _Parser:
    """Recursive descent that evaluates into `ring` as it reads."""

    def __init__(self, text: str, ring):
        self.toks = _tokenize(text)
        self.i = 0
        self.ring = ring

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.kind!r}", t.pos)
        return t

    def parse(self, rule):
        value = rule()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected token {t.kind!r}", t.pos)
        return value

    def apply(self, op, a, b, pos: int):
        """ring.divide or ring.power; a zero divisor is an error at its operator."""
        try:
            return op(a, b, pos)
        except ZeroDivisionError:
            raise ParseError("division by zero", pos) from None

    def tuples(self) -> list[tuple]:
        found = [self.component_tuple()]
        while self.peek().kind == "name" and self.peek().value == "x":
            self.next()
            found.append(self.component_tuple())
        return found

    def component_tuple(self) -> tuple:
        t = self.next()
        if t.kind != "(":
            raise ParseError("expected parenthesized component tuples", t.pos)
        comps = [self.expr()]
        while self.peek().kind == ":":
            self.next()
            comps.append(self.expr())
        self.expect(")")
        return tuple(comps)

    def expr(self):
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind in ("*", "/"):
            t = self.next()
            rhs = self.factor()
            value = value * rhs if t.kind == "*" else self.apply(self.ring.divide, value, rhs, t.pos)
        return value

    def factor(self):
        t = self.peek()
        if t.kind == "-":
            self.next()
            return -self.factor()
        if t.kind == "+":
            self.next()
            return self.factor()
        value = self.atom()
        if self.peek().kind == "^":
            t = self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            k = sign * self.expect("int").value
            value = self.apply(self.ring.power, value, k, t.pos)
        return value

    def atom(self):
        t = self.next()
        if t.kind == "int":
            return self.ring.number(t.value)
        if t.kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if t.kind == "name":
            if t.value == "zeta":
                self.expect("(")
                n = self.expect("int")
                self.expect(")")
                if n.value < 1:
                    raise ParseError("zeta conductor must be positive", n.pos)
                return self.ring.number(CycloNumber.zeta(n.value))
            return self.ring.variable(t.value, t.pos)
        raise ParseError(f"unexpected token {t.kind!r}", t.pos)


def parse_expression(text: str, vars: Sequence[str]) -> MultiPoly:
    """Parse text into an exact polynomial over the given roster."""
    parser = _Parser(text, _Polys(vars))
    return parser.parse(parser.expr)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse text into a rational function of x."""
    parser = _Parser(text, _RatFuncs())
    return parser.parse(parser.expr)


def parse_tuples(text: str, vars: Sequence[str]) -> list[tuple[MultiPoly, ...]]:
    """Parse "(e : e : ...)" tuples joined by the name x, one tuple per factor."""
    parser = _Parser(text, _Polys(vars))
    return parser.parse(parser.tuples)
