"""Sparse multivariate polynomials over Q(zeta_N).

Terms map exponent tuples to nonzero coefficients: sums, products,
substitution and exact division all add into a term dict through one
kernel, `_add_into`, which drops entries that cancel.  The monomial order used
for leading terms and canonical scaling is lexicographic on exponent tuples,
which is stable across runs.  The gcd is a primitive pseudo-remainder
sequence in a main variable of least degree, recursing on the contents;
`gcd_many` runs it only when a univariate gcd mod p per variable, in
machine-size integers, does not already prove the inputs coprime.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import isqrt, lcm, prod
from typing import Iterable, Mapping, Optional, Sequence, Union

from .cyclo import CycloNumber, _divmod, _join_terms, _mono, _power, _term, prime_factors

Coeffish = Union[int, Fraction, CycloNumber]


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str],
                 terms: Optional[Mapping[tuple[int, ...], Coeffish]] = None):
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], CycloNumber] = {}
        for expo, c in (terms or {}).items():
            c = CycloNumber.coerce(c)
            if c.is_zero():
                continue
            expo = tuple(expo)
            if len(expo) != len(self.vars):
                raise ValueError("exponent arity does not match variable roster")
            clean[expo] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "MultiPoly":
        return MultiPoly(vars)

    @staticmethod
    def constant(vars: Sequence[str], c: Coeffish) -> "MultiPoly":
        return MultiPoly(vars, {tuple([0] * len(vars)): c})

    @staticmethod
    def variable(vars: Sequence[str], name: str) -> "MultiPoly":
        idx = list(vars).index(name)
        expo = [0] * len(vars)
        expo[idx] = 1
        return MultiPoly(vars, {tuple(expo): 1})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_value(self) -> CycloNumber:
        if self.is_zero():
            return CycloNumber.from_rational(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def weighted_degree(self, weights: Sequence[int]) -> int:
        if self.is_zero():
            return -1
        return max(sum(w * e for w, e in zip(weights, expo)) for expo in self.terms)

    def is_weighted_homogeneous(self, weights: Sequence[int]) -> bool:
        if self.is_zero():
            return True
        degs = {sum(w * e for w, e in zip(weights, expo)) for expo in self.terms}
        return len(degs) == 1

    def leading_monomial(self) -> tuple[int, ...]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def leading_coeff(self) -> CycloNumber:
        return self.terms[self.leading_monomial()]

    def coeff(self, expo: Sequence[int]) -> CycloNumber:
        return self.terms.get(tuple(expo), CycloNumber.from_rational(0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], CycloNumber]]:
        return sorted(self.terms.items(), reverse=True)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other: Union[Coeffish, "MultiPoly"]) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError(f"variable roster mismatch: {self.vars} vs {other.vars}")
            return other
        return MultiPoly.constant(self.vars, other)

    def __add__(self, other: Union[Coeffish, "MultiPoly"]) -> "MultiPoly":
        other = self._coerce(other)
        return _from_terms(self.vars, _add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _from_terms(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union[Coeffish, "MultiPoly"]) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union[Coeffish, "MultiPoly"]) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other: Union[Coeffish, "MultiPoly"]) -> "MultiPoly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], CycloNumber] = {}
        for e, c in self.terms.items():
            _add_into(out, other.terms, c, e)
        return _from_terms(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of polynomial")
        return _power(self, k, MultiPoly.constant(self.vars, 1))

    def scale(self, c: Coeffish) -> "MultiPoly":
        c = CycloNumber.coerce(c)
        if c.is_zero():
            return MultiPoly.zero(self.vars)
        return _from_terms(self.vars, {e: v * c for e, v in self.terms.items()})

    # -- substitution and evaluation ----------------------------------------

    def subs(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials (over a common target roster) for variables."""
        target_vars = next(iter(images.values())).vars if images else self.vars
        if any(img.vars != target_vars for img in images.values()):
            raise ValueError("images over different variable rosters")
        # Power tables, one per substituted variable: table[e - 1] is image^e.
        powers = {name: [images[name]] for name in self.vars if name in images}
        one = {(0,) * len(target_vars): CycloNumber.from_rational(1)}
        out: dict[tuple[int, ...], CycloNumber] = {}
        for expo, c in self.terms.items():
            term = None
            for i, e in enumerate(expo):
                if e == 0:
                    continue
                name = self.vars[i]
                if name in images:
                    table = powers[name]
                    while len(table) < e:
                        table.append(table[-1] * images[name])
                    factor = table[e - 1]
                else:
                    if name not in target_vars:
                        raise ValueError(f"no image for variable {name}")
                    factor = MultiPoly.variable(target_vars, name) ** e
                term = factor if term is None else term * factor
            _add_into(out, one if term is None else term.terms, c)
        return _from_terms(target_vars, out)

    def evaluate(self, values: Mapping[str, Coeffish]) -> CycloNumber:
        acc = CycloNumber.from_rational(0)
        vals = [CycloNumber.coerce(values[v]) for v in self.vars]
        for expo, c in self.terms.items():
            t = c
            for v, e in zip(vals, expo):
                if e:
                    t = t * v**e
            acc = acc + t
        return acc

    # -- division and gcd --------------------------------------------------

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact quotient; raises if the division leaves a remainder."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if other.is_constant():
            return self.scale(other.constant_value().inverse())
        rem = dict(self.terms)
        quo: dict[tuple[int, ...], CycloNumber] = {}
        lt = other.leading_monomial()
        lc_inv = None  # inverted once the first leading term divides
        while rem:
            rm = max(rem)
            diff = tuple(a - b for a, b in zip(rm, lt))
            if any(d < 0 for d in diff):
                raise ValueError("inexact multivariate division")
            if lc_inv is None:
                lc_inv = other.terms[lt].inverse()
            c = quo[diff] = rem[rm] * lc_inv
            _add_into(rem, other.terms, -c, diff)  # the term at rm cancels
        return _from_terms(self.vars, quo)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except (ValueError, ZeroDivisionError):
            return False

    def normalized(self) -> "MultiPoly":
        """Scale so the lexicographic leading coefficient is one."""
        if self.is_zero():
            return self
        return self.scale(self.leading_coeff().inverse())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset((e, c) for e, c in self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def __str__(self) -> str:
        return _join_terms(
            _term(c, "*".join(_mono(v, e) for v, e in zip(self.vars, expo) if e))
            for expo, c in self.sorted_terms()
        )


def _from_terms(vars: tuple[str, ...], terms: dict) -> MultiPoly:
    """Wrap a term dict that is already clean: nonzero CycloNumber values."""
    p = MultiPoly.__new__(MultiPoly)
    p.vars = vars
    p.terms = terms
    return p


def _add_into(out: dict, terms: Mapping[tuple[int, ...], CycloNumber],
              c: Optional[CycloNumber] = None, shift: Optional[tuple[int, ...]] = None) -> dict:
    """out += c * x^shift * terms, in place; an entry that cancels is dropped."""
    for e, v in terms.items():
        if shift is not None:
            e = tuple(a + b for a, b in zip(shift, e))
        if c is not None:
            v = c * v
        acc = out.get(e)
        if acc is None:
            out[e] = v
        elif (acc := acc + v).is_zero():
            del out[e]
        else:
            out[e] = acc
    return out


def multi_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd normalized to leading coefficient one; gcd(0, 0) = 0."""
    if a.vars != b.vars:
        raise ValueError("variable roster mismatch in gcd")
    return _gcd_rec(a, b).normalized()


def _gcd_rec(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """A gcd up to a nonzero constant: contents in the main variable recurse,
    primitive parts run Euclid with pseudo-remainders made primitive and
    normalized, so their coefficients do not grow.  The main variable is one
    of least degree in a and b (Geddes, Czapor & Labahn, ch. 7)."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.is_constant() or b.is_constant():
        return MultiPoly.constant(a.vars, 1)
    degs = [max(es) for es in zip(*a.terms, *b.terms)]
    var = a.vars[min((d, i) for i, d in enumerate(degs) if d)[1]]
    ca, pa = _content_pp(a, var)
    cb, pb = _content_pp(b, var)
    while not pb.is_zero():
        pa, pb = pb, _content_pp(_pseudo_rem(pa, pb, var), var)[1].normalized()
    return _gcd_rec(ca, cb) * pa


def _content_pp(p: MultiPoly, var: str) -> tuple[MultiPoly, MultiPoly]:
    """Content of p in var (a gcd of its coefficients) and its primitive part."""
    i = p.vars.index(var)
    coeffs: dict[int, dict[tuple[int, ...], CycloNumber]] = {}
    for e, c in p.terms.items():
        coeffs.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    g = MultiPoly.zero(p.vars)
    for d in sorted(coeffs, reverse=True):
        g = _gcd_rec(g, _from_terms(p.vars, coeffs[d]))
        if g.is_constant():
            break
    if g.is_constant():  # also when p is zero
        return MultiPoly.constant(p.vars, 1), p
    return g, p.exact_div(g)


def _pseudo_rem(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    i = a.vars.index(var)
    db, lead_b = _lead_in(b, i)
    xv = MultiPoly.variable(a.vars, var)
    rem = a
    while not rem.is_zero():
        dr, lead_r = _lead_in(rem, i)
        if dr < db:
            break
        rem = rem * lead_b - b * lead_r * xv ** (dr - db)
    return rem


def _lead_in(p: MultiPoly, i: int) -> tuple[int, MultiPoly]:
    """Degree of nonzero p in its i-th variable and the coefficient there."""
    d = max(e[i] for e in p.terms)
    return d, _from_terms(p.vars, {e[:i] + (0,) + e[i + 1:]: c
                                   for e, c in p.terms.items() if e[i] == d})


def gcd_many(polys: Iterable[MultiPoly]) -> MultiPoly:
    polys = list(polys)
    if not polys:
        raise ValueError("gcd of empty collection")
    if _coprime_mod_p(polys):
        return MultiPoly.constant(polys[0].vars, 1)
    g = polys[0].normalized()
    for p in polys[1:]:
        g = multi_gcd(g, p)
        if g.is_constant() and not g.is_zero():
            break
    return g


def _coprime_mod_p(polys: list[MultiPoly]) -> bool:
    """True only if the gcd G of polys is a nonzero constant, proved mod p.

    Lemma (Brown, JACM 1971; Geddes, Czapor & Labahn, ch. 7).  Let N be the
    lcm of the conductors, p = 1 (mod N) a prime and r of order N mod p, so
    zeta_N -> r reduces Z[zeta_N] onto F_p modulo a prime P over p.  Gauss's
    lemma holds over the DVR O_P: if p divides no denominator, G can be taken
    primitive in O_P[x] with every input A_i = G * H_i there.  Reduce mod P
    and set each variable but v to a point (variable i to i + 2).  If some
    A_i keeps its v-degree, so does G, and its image divides the F_p gcd of
    the images, so deg_v G is at most that gcd's degree.  If that is 0 for
    every used v, G is a constant.  Any other outcome returns False.
    """
    polys = [f for f in polys if f.terms]
    n = lcm(1, *(c.n for f in polys for c in f.terms.values()))
    p, r = _prime_root(n)
    try:  # zeta_m = zeta_N^(N/m) -> r^(N/m)
        images = [{e: pow(c.den, -1, p) * sum(a * pow(r, n // c.n * k, p) for k, a in enumerate(c.num))
                   for e, c in f.terms.items()} for f in polys]
    except ValueError:  # p divides a denominator
        return False
    for v in {i for img in images for e in img for i, k in enumerate(e) if k}:
        g, kept = [], False
        for img in images:
            uni = [0] * (max(e[v] for e in img) + 1)
            for e, c in img.items():
                uni[e[v]] += c * prod(pow(i + 2, k, p) for i, k in enumerate(e) if i != v)
            kept = kept or uni[-1] % p != 0
            g = _gcd_mod_p(g, [c % p for c in uni], p)
            if kept and len(g) == 1:
                break
        if not kept or len(g) > 1:
            return False
    return bool(polys)


def _gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd over F_p of dense ascending lists of residues; a has no trailing zeros."""
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return a
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, [c % p for c in _divmod(a, b)[1]]


@lru_cache(maxsize=None)
def _prime_root(n: int) -> tuple[int, int]:
    """The least prime p > 2^24 with p = 1 (mod n), and an r of exact order
    n mod p."""
    p = next(q for q in count(n * (2**24 // n + 1) + 1, n)
             if all(q % d for d in range(2, isqrt(q) + 1)))
    roots = (pow(g, (p - 1) // n, p) for g in count(2))
    return p, next(r for r in roots if all(pow(r, n // q, p) != 1 for q in prime_factors(n)))
