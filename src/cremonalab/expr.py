"""Shared expression grammar for surface equations, map components and CLI input.

Grammar: integers, rationals p/q, zeta(N) and zeta(N)^k, named variables,
operators + - * / ^ and parentheses; whitespace is ignored.  Division is
restricted to constant divisors when evaluating into polynomials, while the
rational-function evaluator accepts polynomial divisors.
"""

from __future__ import annotations

from fractions import Fraction
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
        if ch in "+-*/^()":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", None, n))
    return toks


# AST nodes: ("num", Fraction) | ("zeta", n) | ("var", name)
#            | ("+"|"-"|"*"|"/", lhs, rhs) | ("neg", node) | ("pow", node, k)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

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

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected token {t.kind!r}", t.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.factor()
            node = (op, node, rhs)
        return node

    def factor(self):
        t = self.peek()
        if t.kind == "-":
            self.next()
            return ("neg", self.factor())
        if t.kind == "+":
            self.next()
            return self.factor()
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            e = self.expect("int")
            node = ("pow", node, sign * e.value)
        return node

    def atom(self):
        t = self.next()
        if t.kind == "int":
            return ("num", Fraction(t.value))
        if t.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if t.kind == "name":
            if t.value == "zeta":
                self.expect("(")
                n = self.expect("int")
                self.expect(")")
                if n.value < 1:
                    raise ParseError("zeta conductor must be positive", n.pos)
                return ("zeta", n.value)
            return ("var", t.value, t.pos)
        raise ParseError(f"unexpected token {t.kind!r}", t.pos)


def parse_ast(text: str):
    return _Parser(text).parse()


def eval_poly(node, vars: Sequence[str]) -> MultiPoly:
    """Evaluate an AST into a polynomial over the given variable roster."""
    vars = tuple(vars)
    kind = node[0]
    if kind == "num":
        return MultiPoly.constant(vars, node[1])
    if kind == "zeta":
        return MultiPoly.constant(vars, CycloNumber.zeta(node[1]))
    if kind == "var":
        name, pos = node[1], node[2]
        if name not in vars:
            raise ParseError(f"unknown variable {name!r}", pos)
        return MultiPoly.variable(vars, name)
    if kind == "neg":
        return -eval_poly(node[1], vars)
    if kind == "pow":
        base = eval_poly(node[1], vars)
        k = node[2]
        if k < 0:
            if not base.is_constant():
                raise ParseError("negative power of a non-constant", 0)
            return MultiPoly.constant(vars, base.constant_value() ** k)
        return base**k
    lhs = eval_poly(node[1], vars)
    rhs = eval_poly(node[2], vars)
    if kind == "+":
        return lhs + rhs
    if kind == "-":
        return lhs - rhs
    if kind == "*":
        return lhs * rhs
    if kind == "/":
        if not rhs.is_constant():
            raise ParseError("division by a non-constant polynomial", 0)
        c = rhs.constant_value()
        if c.is_zero():
            raise ParseError("division by zero", 0)
        return lhs.scale(c.inverse())
    raise AssertionError(f"unhandled node {kind}")


def eval_ratfunc(node, var: str = "x") -> RatFunc:
    """Evaluate an AST into a univariate rational function."""
    kind = node[0]
    if kind == "num":
        return RatFunc.coerce(node[1], var)
    if kind == "zeta":
        return RatFunc.coerce(CycloNumber.zeta(node[1]), var)
    if kind == "var":
        name, pos = node[1], node[2]
        if name != var:
            raise ParseError(f"unknown variable {name!r} (expected {var!r})", pos)
        return RatFunc.x(var)
    if kind == "neg":
        return -eval_ratfunc(node[1], var)
    if kind == "pow":
        base = eval_ratfunc(node[1], var)
        k = node[2]
        if k < 0:
            base, k = base.inverse(), -k
        return _power(base, k, RatFunc.coerce(1, var))
    lhs = eval_ratfunc(node[1], var)
    rhs = eval_ratfunc(node[2], var)
    if kind == "+":
        return lhs + rhs
    if kind == "-":
        return lhs - rhs
    if kind == "*":
        return lhs * rhs
    if kind == "/":
        return lhs / rhs
    raise AssertionError(f"unhandled node {kind}")


def parse_expression(text: str, vars: Sequence[str]) -> MultiPoly:
    """Parse text into an exact polynomial over the given roster."""
    return eval_poly(parse_ast(text), vars)


def parse_ratfunc(text: str, var: str = "x") -> RatFunc:
    return eval_ratfunc(parse_ast(text), var)


def parse_constant(text: str) -> CycloNumber:
    p = parse_expression(text, ())
    return p.constant_value()


def parse_tuple(text: str, vars: Sequence[str]) -> tuple[MultiPoly, ...]:
    """Parse "(e1 : e2 : ... )" into component polynomials."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("expected parenthesized component tuple", 0)
    inner = text[1:-1]
    parts = _split_top(inner, ":")
    return tuple(parse_expression(p, vars) for p in parts)


def _split_top(text: str, sep: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts
