"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are residues modulo the N-th cyclotomic polynomial Phi_N, stored
as integer numerators over one positive denominator (Cohen, A Course in
Computational Algebraic Number Theory, 4.2), so products reduce by the monic
Phi_N in integers.  Mixed-conductor arithmetic promotes both operands to the
lcm of their conductors, so any finite computation lives in a single field.

The one product and the one long division on dense ascending coefficient
lists, `_poly_mul` and `_divmod`, live here; `poly` and `weyl` use them too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence, Union


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


def _poly_mul(a: Sequence, b: Sequence) -> list:
    """Product of dense ascending coefficient lists; zero entries are skipped."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _divmod(num: Iterable, den: Sequence) -> tuple[list, list]:
    """Quotient and remainder of dense ascending coefficient lists over a field.

    den[-1] must be nonzero; the quotient is scaled by 1 / den[-1] unless
    that entry is 1.  Entries may be ints (den monic), Fractions or
    CycloNumbers.  The remainder has at most len(den) - 1 entries.
    """
    rem = list(num)
    dn = len(den) - 1
    inv = None if den[-1] == 1 else 1 / den[-1]
    quo = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            if inv is not None:
                c = c * inv
            quo[i - dn] = c
            for j in range(dn):  # rem[i] itself cancels and is dropped
                if den[j]:
                    rem[i - dn + j] -= c * den[j]
    return quo, rem[:dn]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n)[:-1]:
        poly, rem = _divmod(poly, cyclotomic_polynomial(d))
        assert not any(rem), "inexact cyclotomic division"
    return tuple(poly)


Scalar = Union[int, Fraction, "CycloNumber"]


def _of(n: int, num: Iterable[int], den: int = 1) -> "CycloNumber":
    """sum(num[k] * zeta_n^k) / den for phi(n) ints num and an int den != 0;
    unchecked, but for dividing out gcd(den, *num) with the sign of den."""
    num = tuple(num)
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    if g != 1:
        num, den = tuple(c // g for c in num), den // g
    x = object.__new__(CycloNumber)
    x.n, x.num, x.den = n, num, den
    return x


def _reduce(num: Iterable[int], n: int, den: int = 1) -> "CycloNumber":
    """sum(num[k] * zeta_n^k) / den for ints num, reduced modulo the monic Phi_n."""
    phi = cyclotomic_polynomial(n)
    rem = _divmod(num, phi)[1]
    return _of(n, rem + [0] * (len(phi) - 1 - len(rem)), den)


def cyclo_reduce(coeffs: Iterable[Union[int, Fraction]], n: int) -> "CycloNumber":
    """Residue of sum(coeffs[k] * zeta_n^k) modulo Phi_n, canonical form."""
    cs = [Fraction(c) for c in coeffs]
    den = lcm(1, *(c.denominator for c in cs))
    return _reduce([c.numerator * (den // c.denominator) for c in cs], n, den)


class CycloNumber:
    """The element sum(num[k] * zeta_n^k) / den of Q(zeta_n), k < phi(n), for
    ints num and den > 0 with gcd(den, *num) = 1: one value, one (num, den)."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: Iterable[Union[int, Fraction]]):
        coeffs, deg = tuple(coeffs), euler_phi(n)
        if len(coeffs) != deg:
            raise ValueError(f"expected {deg} coefficients for conductor {n}")
        x = cyclo_reduce(coeffs, n)
        self.n, self.num, self.den = n, x.num, x.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates in the power basis of zeta_n, as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rational(q: Union[int, Fraction]) -> "CycloNumber":
        return _of(1, (q.numerator,), q.denominator)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycloNumber":
        """zeta_n^k as an element of Q(zeta_n)."""
        if n < 1:
            raise ValueError("conductor must be positive")
        return _reduce([0] * (k % n) + [1], n)

    @staticmethod
    def coerce(value: Scalar) -> "CycloNumber":
        if isinstance(value, CycloNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloNumber.from_rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to CycloNumber")

    # -- promotion between conductors ----------------------------------

    def promote(self, n: int) -> "CycloNumber":
        """Re-express in Q(zeta_n); requires self.n | n."""
        if n == self.n:
            return self
        if n % self.n != 0:
            raise ValueError(f"cannot promote conductor {self.n} into {n}")
        step = n // self.n
        raw = [0] * ((len(self.num) - 1) * step + 1)
        raw[::step] = self.num
        return _reduce(raw, n, self.den)

    @staticmethod
    def _common(a: "CycloNumber", b: "CycloNumber") -> tuple["CycloNumber", "CycloNumber"]:
        n = a.n * b.n // gcd(a.n, b.n)
        return a.promote(n), b.promote(n)

    # -- ring/field operations -----------------------------------------

    def __add__(self, other: Scalar) -> "CycloNumber":
        if not isinstance(other, (CycloNumber, int, Fraction)):
            return NotImplemented
        a, b = CycloNumber._common(self, CycloNumber.coerce(other))
        return _of(a.n, [x * b.den + y * a.den for x, y in zip(a.num, b.num)], a.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "CycloNumber":
        return _of(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other: Scalar) -> "CycloNumber":
        if not isinstance(other, (CycloNumber, int, Fraction)):
            return NotImplemented
        return self + (-CycloNumber.coerce(other))

    def __mul__(self, other: Scalar) -> "CycloNumber":
        if not isinstance(other, (CycloNumber, int, Fraction)):
            return NotImplemented
        a, b = self, CycloNumber.coerce(other)
        if a.n == 1 or b.n == 1:  # a rational factor scales the other's numerators
            q, b = (a, b) if a.n == 1 else (b, a)
            return _of(b.n, [q.num[0] * c for c in b.num], q.den * b.den)
        a, b = CycloNumber._common(a, b)
        return _reduce(_poly_mul(a.num, b.num), a.n, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.n == 1:
            return _of(1, (self.den,), self.num[0])
        # Extended Euclid against Phi_n in Q[t], all in Fraction, from r_1 = num
        # and s_1 = den: s_k * self = r_k mod Phi_n.  Phi_n is irreducible over
        # Q, so the remainders never vanish and the last one is a nonzero constant.
        r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(self.n)], list(map(Fraction, self.num))
        s0, s1 = [], [Fraction(self.den)]
        while True:
            while not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                return cyclo_reduce([c / r1[0] for c in s1], self.n)
            q, r = _divmod(r0, r1)
            t = _poly_mul(q, s1)  # deg q >= 1, so t is longer than s0
            s0, s1 = s1, [x - y for x, y in zip(s0 + [0] * (len(t) - len(s0)), t)]
            r0, r1 = r1, r

    def __truediv__(self, other: Scalar) -> "CycloNumber":
        return self * CycloNumber.coerce(other).inverse()

    def __rtruediv__(self, other: Scalar) -> "CycloNumber":
        return CycloNumber.coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "CycloNumber":
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, _of(1, (1,)))

    # -- predicates and canonical form ----------------------------------

    def __bool__(self) -> bool:
        """True for a nonzero element, as for int and Fraction."""
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.num[0] == self.den == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycloNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycloNumber.from_rational(other)
        a, b = CycloNumber._common(self, other)
        return a.num == b.num and a.den == b.den

    def __hash__(self) -> int:
        d = self.deflate()
        return hash((d.n, d.num, d.den))

    # -- deflation to the minimal conductor ------------------------------

    def deflate(self) -> "CycloNumber":
        """Rewrite over the smallest Q(zeta_m) with m | n containing self."""
        if self.is_rational():
            return _of(1, self.num[:1], self.den)
        cur = down = self
        while down is not None:
            cur = down
            down = next((d for p in prime_factors(cur.n)
                         if (d := _try_descend(cur, cur.n // p)) is not None), None)
        return cur

    def __repr__(self) -> str:
        return f"CycloNumber({self})"

    def __str__(self) -> str:
        """The deflated value, so equal numbers print alike at any conductor."""
        d = self.deflate()
        z = f"zeta({d.n})"
        return _join_terms(_term(c, _mono(z, i)) for i, c in enumerate(d.coeffs) if c)


# -- helpers shared with the modules built on this one ----------------------


def _power(base, k: int, one):
    """base**k for k >= 0 by square-and-multiply; one is returned for k = 0."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return one if result is None else result


class OverCap:
    """Sentinel for iteration that exceeded its cap."""

    _instance: Optional["OverCap"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OverCap"


OVER_CAP = OverCap()


def _order(x, cap: int, is_one, too_big=lambda acc: False):
    """Least k <= cap with is_one(x**k), by repeated multiplication;
    OVER_CAP past cap, or once too_big holds for a power that is not one."""
    acc = x
    for k in range(1, cap + 1):
        if is_one(acc):
            return k
        if too_big(acc):
            return OVER_CAP
        acc = acc * x
    return OVER_CAP


def _coeff_str(c) -> str:
    """str(c), parenthesized when it is a sum or a product."""
    s = str(c)
    return f"({s})" if ("+" in s[1:] or "-" in s[1:] or "*" in s) else s


def _mono(name: str, e: int) -> str:
    """name^e, written "" for e = 0 and name for e = 1."""
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def _term(c, mono: str) -> str:
    """The term c*mono for a nonzero scalar c; a unit coefficient is implicit
    unless mono is "" (the constant term)."""
    if not mono:
        return _coeff_str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{_coeff_str(c)}*{mono}"


def _join_terms(terms: Iterable[str]) -> str:
    """Join signed terms into a sum, writing "a - b" for "a + -b"; "0" if none."""
    parts = list(terms)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _row_reduce(rows: Sequence[Sequence], width: int) -> tuple[list[Sequence], list[int]]:
    """Gauss-Jordan elimination over a field on the first width columns.

    Entries need only != 0 and 1 / x, so Fraction and CycloNumber both work.
    Returns the reduced rows, pivot rows first, and the pivot columns.
    """
    rows = list(rows)  # row operations build new rows, so the caller's stay intact
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def _solve(aug: Sequence[Sequence], width: int, zero) -> Optional[list]:
    """A solution y of A y = b for the augmented rows [A | b], A of the given
    width, or None if the system is inconsistent; y is zero off the pivots."""
    rows, pivots = _row_reduce(aug, width)
    if any(row[width] != 0 for row in rows[len(pivots):]):
        return None
    y = [zero] * width
    for row, c in zip(rows, pivots):
        y[c] = row[width]
    return y


@lru_cache(maxsize=None)
def _descent(n: int, m: int) -> tuple[tuple, int, tuple]:
    """(L, d, K) for Q(zeta_m) in Q(zeta_n): x, in the power basis of zeta_n,
    lies in Q(zeta_m) iff K x = 0, and L x / d are then its coordinates.  One
    elimination of [E | I], E's columns being zeta_n^(j*n/m) for j < phi(m), of
    full rank: its phi(m) pivot rows give L, the others K, as sparse int rows."""
    k, size = euler_phi(m), euler_phi(n)
    cols = [CycloNumber.zeta(n, j * (n // m)).num for j in range(k)]
    rows = _row_reduce([[Fraction(c[i]) for c in cols] + [Fraction(int(i == j)) for j in range(size)]
                        for i in range(size)], k)[0]
    d = lcm(*(v.denominator for row in rows for v in row[k:]))
    rows = [tuple((i, int(v * d)) for i, v in enumerate(row[k:]) if v) for row in rows]
    return tuple(rows[:k]), d, tuple(rows[k:])


def _try_descend(x: CycloNumber, m: int) -> Optional[CycloNumber]:
    """x as an element of Q(zeta_m), m | x.n; None if it does not lie there."""
    L, d, K = _descent(x.n, m)
    if any(sum(v * x.num[i] for i, v in row) for row in K):
        return None
    return _of(m, [sum(v * x.num[i] for i, v in row) for row in L], x.den * d)


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def conductor_of(values: Iterable[Scalar]) -> int:
    """The conductor of the smallest Q(zeta_N) holding every value: the lcm of
    their deflated conductors, 1 for none."""
    return lcm(1, *(CycloNumber.coerce(v).deflate().n for v in values))


def is_square_constant(c: CycloNumber, field_conductor: Optional[int] = None) -> Optional[bool]:
    """Whether c is a square in Q(zeta_n): True or False for n in {1, 2, 3, 4, 6},
    else True or None (unknown).

    The answer depends on the ambient field: -3 is a square in Q(zeta_3) but
    not in Q.  By default the field is the smallest one holding c, whatever
    conductor c is stored at; pass field_conductor to test inside a larger
    field.  Conductors outside the resolved range would need number-field
    factorization, which is out of scope, so the answer there is True when c
    is a square in a resolved subfield and None otherwise.
    """
    c = CycloNumber.coerce(c)
    if c.is_zero():
        raise ValueError("square test of zero")
    d = c.deflate()
    n = field_conductor if field_conductor is not None else d.n
    if n % d.n != 0:
        raise ValueError(f"element of conductor {d.n} does not lie in Q(zeta_{n})")
    if n % 4 == 2:
        n //= 2  # Q(zeta_{2m}) = Q(zeta_m) for odd m
    if n in _QUADRATIC:
        return _square_test(d, n)
    # Unresolved field: certify squares found in a resolved subfield.
    return any(_square_test(d, sub) for sub in _QUADRATIC
               if sub % d.n == 0 and n % sub == 0) or None


# Q(zeta_n) = Q(sqrt(D)) for n in {1, 3, 4}: n -> (D, sqrt(D) in the power basis of zeta_n)
_QUADRATIC = {1: (1, (1,)), 3: (-3, (1, 2)), 4: (-1, (0, 1))}


def _square_test(c: CycloNumber, n: int) -> bool:
    """Whether c is a square in Q(zeta_n) = Q(sqrt(D)), n in _QUADRATIC and c.n | n.

    With c = A + B*sqrt(D), a root u + v*sqrt(D) has u^2 + D*v^2 = A and
    2uv = B, so m = u^2 - D*v^2 (nonnegative, as D < 0 or, over Q, v = 0) is
    the rational square root of the norm A^2 - D*B^2, and u^2 = (A + m)/2;
    when u = 0, c = A = D*v^2.
    """
    D, s = _QUADRATIC[n]
    cs = c.promote(n).coeffs
    b = cs[-1] / s[-1] if n > 1 else Fraction(0)
    a = cs[0] - b * s[0]
    m = _rational_sqrt(a * a - D * b * b)
    u = None if m is None else _rational_sqrt((a + m) / 2)
    if u is None:
        return False
    return bool(u) or _rational_sqrt(a / D) is not None
