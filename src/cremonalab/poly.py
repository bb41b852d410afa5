"""Polynomials and rational functions of x over Q(zeta_N).

x is the one variable: the de Jonquieres group acts through k(x), and
values print in x.  Polynomials are dense coefficient tuples with the zero
polynomial stored as an empty tuple.  Rational functions are kept reduced
with a monic denominator, so structural equality is semantic equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .cyclo import CycloNumber, _divmod, _join_terms, _mono, _poly_mul, _power, _term

Coeffish = Union[int, Fraction, CycloNumber]


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeffish] = ()):
        cs = [CycloNumber.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def constant(c: Coeffish) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly((0, 1))

    @staticmethod
    def from_roots(roots: Sequence[Coeffish]) -> "UniPoly":
        p = UniPoly.constant(1)
        for r in roots:
            p = p * UniPoly((-CycloNumber.coerce(r), 1))
        return p

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> CycloNumber:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> CycloNumber:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return CycloNumber.from_rational(0)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: Union[Coeffish, "UniPoly"]) -> "UniPoly":
        other = _coerce_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: Union[Coeffish, "UniPoly"]) -> "UniPoly":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other: Union[Coeffish, "UniPoly"]) -> "UniPoly":
        return _coerce_poly(other) - self

    def __mul__(self, other: Union[Coeffish, "UniPoly"]) -> "UniPoly":
        return UniPoly(_poly_mul(self.coeffs, _coerce_poly(other).coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(self, k, UniPoly.constant(1))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        other = _coerce_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _divmod(self.coeffs, other.coeffs)
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return UniPoly([c * inv for c in self.coeffs])

    def derivative(self) -> "UniPoly":
        return UniPoly([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def compose_poly(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(x)), by Horner evaluation in the polynomial ring."""
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({self})"

    def __str__(self) -> str:
        return _join_terms(
            _term(c, _mono("x", i))
            for i, c in reversed(list(enumerate(self.coeffs)))
            if not c.is_zero()
        )


def _coerce_poly(value: Union[Coeffish, UniPoly]) -> UniPoly:
    return value if isinstance(value, UniPoly) else UniPoly.constant(value)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    if a.is_zero() and b.is_zero():
        return UniPoly.zero()
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class SquareFreeDecomposition:
    """p = constant * radical * square_root**2, radical monic square-free."""

    __slots__ = ("radical", "square_root", "constant")

    def __init__(self, radical: UniPoly, square_root: UniPoly, constant: CycloNumber):
        self.radical = radical
        self.square_root = square_root
        self.constant = constant

    def __repr__(self) -> str:
        return (
            f"SquareFreeDecomposition(radical={self.radical}, "
            f"square_root={self.square_root}, constant={self.constant})"
        )


def squarefree_part(p: UniPoly) -> SquareFreeDecomposition:
    """Odd-multiplicity radical of p, via Yun's algorithm (no factorization)."""
    if p.is_zero():
        raise ValueError("squarefree_part of the zero polynomial")
    constant = p.leading()
    mono = p.monic()
    radical = square_root = UniPoly.constant(1)
    if mono.degree > 0:
        for mult, factor in _yun(mono):
            if mult % 2 == 1:
                radical = radical * factor
            square_root = square_root * factor ** (mult // 2)
    dec = SquareFreeDecomposition(radical, square_root, constant)
    assert constant * radical * square_root**2 == p
    return dec


def _yun(p: UniPoly) -> list[tuple[int, UniPoly]]:
    # Yun's square-free decomposition; valid in characteristic zero.
    out = []
    g = poly_gcd(p, p.derivative())
    w = p.exact_div(g)
    y = p.derivative().exact_div(g)
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        a = poly_gcd(w, z)
        if a.degree > 0:
            out.append((i, a))
        w = w.exact_div(a)
        y = z.exact_div(a)
        i += 1
    return out


class RatFunc:
    """Reduced fraction of univariate polynomials, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: Optional[UniPoly] = None):
        if den is None:
            den = UniPoly.constant(1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = poly_gcd(num, den)
        if not g.is_one() and not g.is_zero():
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead_inv = den.leading().inverse()
        self.num = num * lead_inv
        self.den = den * lead_inv

    @staticmethod
    def coerce(value: Union[Coeffish, UniPoly, "RatFunc"]) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        return RatFunc(_coerce_poly(value))

    @staticmethod
    def x() -> "RatFunc":
        return RatFunc(UniPoly.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> CycloNumber:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num[0] / self.den[0]

    def __add__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) / self

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, CycloNumber, UniPoly)):
            other = RatFunc.coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self})"

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"
