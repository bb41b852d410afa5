import random
from fractions import Fraction

import pytest

from cremonalab.cyclo import CycloNumber
from cremonalab.expr import (
    ParseError,
    parse_expression,
    parse_ratfunc,
    parse_tuples,
)
from cremonalab.multipoly import MultiPoly
from cremonalab.poly import RatFunc, UniPoly

P3 = ("w", "x", "y", "z")


def test_fermat_cubic():
    f = parse_expression("w^3 + x^3 + y^3 + z^3", P3)
    w, x, y, z = (MultiPoly.variable(P3, n) for n in P3)
    assert f == w**3 + x**3 + y**3 + z**3


def test_zeta_coefficients():
    f = parse_expression("zeta(3)^2 * x*y*z", P3)
    x, y, z = (MultiPoly.variable(P3, n) for n in ("x", "y", "z"))
    assert f == (x * y * z).scale(CycloNumber.zeta(3) ** 2)


def test_rationals_and_parentheses():
    f = parse_expression("1/2*x^2 - (3/4)*y + 2", ("x", "y"))
    x, y = (MultiPoly.variable(("x", "y"), n) for n in ("x", "y"))
    assert f == (x**2).scale(Fraction(1, 2)) - y.scale(Fraction(3, 4)) + 2


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_expression("x^2 +", ("x",))
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_expression("x^2 $ y", ("x", "y"))
    # Evaluation errors point at the operator, and an error in a map at its
    # place in the whole map.
    for parse, text, position in (
        (lambda t: parse_expression(t, ("x", "y")), "x / y", 2),
        (lambda t: parse_expression(t, ("x", "y")), "x^-1", 1),
        (lambda t: parse_tuples(t, ("x", "y", "z")), "(x : y : q)", 9),
        (lambda t: parse_tuples(t, ("x", "y", "z")), "(x : y : z) x (x : 1/0 : z)", 20),
        (lambda t: parse_expression(t, ()), "1/0", 1),
        (lambda t: parse_expression(t, ()), "2 + (1-1)^-2", 9),
        (parse_ratfunc, "1/0", 1),
        (parse_ratfunc, "x/(x-x)", 1),
        (parse_ratfunc, "0^-1", 1),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position, text


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_expression("x + q", ("x", "y"))


def test_division_by_nonconstant_rejected_for_polys():
    with pytest.raises(ParseError):
        parse_expression("x / y", ("x", "y"))


def test_ratfunc_parsing():
    f = parse_ratfunc("(x^2+1)/x")
    x = UniPoly.x()
    assert f == RatFunc(x**2 + 1, x)
    assert parse_ratfunc("x^-1") == RatFunc(UniPoly.constant(1), x)


def test_constant_parsing():
    c = parse_expression("zeta(8)^2 + 1", ()).constant_value()
    assert c == CycloNumber.zeta(4) + 1


def test_tuple_parsing():
    (comps,) = parse_tuples("(y*z : x*z : x*y)", ("x", "y", "z"))
    x, y, z = (MultiPoly.variable(("x", "y", "z"), n) for n in ("x", "y", "z"))
    assert comps == (y * z, x * z, x * y)


def test_whitespace_insensitive():
    a = parse_expression("x ^ 2+ y *z", ("x", "y", "z"))
    b = parse_expression("x^2+y*z", ("x", "y", "z"))
    assert a == b


def _random_text(rng, sympy, names, divisor_names, depth):
    """Random text in the grammar from ints, p/q, names, parentheses, unary
    minus and ^k, dividing only by, and raising to negative powers only,
    expressions in divisor_names that sympy finds nonzero."""

    def text(names, depth):
        if depth == 0 or rng.random() < 0.2:
            r = rng.random()
            if names and r < 0.45:
                return rng.choice(names)
            if r < 0.8:
                return str(rng.randint(0, 9))
            return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
        kind = rng.choice(("+", "-", "*", "/", "neg", "pow", "invpow", "paren"))
        if kind in ("+", "-", "*"):
            return f"{text(names, depth - 1)} {kind} {text(names, depth - 1)}"
        if kind == "/":
            return f"{text(names, depth - 1)}/({nonzero(depth - 1)})"
        if kind == "neg":
            return f"-{text(names, depth - 1)}"
        if kind == "pow":
            return f"({text(names, depth - 1)})^{rng.randint(0, 3)}"
        if kind == "invpow":
            return f"({nonzero(depth - 1)})^-{rng.randint(1, 2)}"
        return f"({text(names, depth - 1)})"

    def nonzero(depth):
        while True:
            t = text(divisor_names, depth)
            if sympy.cancel(sympy.sympify(t.replace("^", "**"))) != 0:
                return t

    return text(names, depth)


def test_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1707)
    names = ("x", "y", "z")
    gens = sympy.symbols(names)
    for _ in range(300):
        text = _random_text(rng, sympy, names, (), 4)
        expected = sympy.Poly(sympy.sympify(text.replace("^", "**")), *gens)
        terms = {m: Fraction(int(c.p), int(c.q)) for m, c in expected.terms()}
        assert parse_expression(text, names) == MultiPoly(names, terms), text


def _as_sympy(p: UniPoly, x):
    assert all(c.is_rational() for c in p.coeffs)
    return sum(
        (c.coeffs[0].numerator * x**i / c.coeffs[0].denominator for i, c in enumerate(p.coeffs)),
        start=0 * x,
    )


def test_rational_functions_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1708)
    x = sympy.Symbol("x")
    for _ in range(200):
        text = _random_text(rng, sympy, ("x",), ("x",), 4)
        num, den = sympy.fraction(sympy.cancel(sympy.sympify(text.replace("^", "**"))))
        f = parse_ratfunc(text)
        assert sympy.expand(_as_sympy(f.num, x) * den - _as_sympy(f.den, x) * num) == 0, text
