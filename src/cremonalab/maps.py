"""Rational self-maps of projective, product and weighted-projective spaces.

A map is a tuple of polynomials, grouped into one block per output factor.
Canonical form divides each block by the gcd of its components and fixes the
scalar; for weighted ambients the scalar acts through the coordinate weights
(mu^w_i on the component of weight w_i), so normalization solves for mu from
a weight-one component instead of extracting roots.  Equality of canonical
forms is equality of maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import mul
from typing import Optional, Sequence

from .cyclo import OVER_CAP, CycloNumber, _order, _solve
from .multipoly import MultiPoly, _from_terms, gcd_many

# Past this total degree a power or a closure element is taken as evidence of
# infinite order; finite groups in the corpus stay far below it.
DEGREE_CAP = 64


@dataclass(frozen=True)
class Ambient:
    """Product of weighted projective factors; vars is the full roster."""

    blocks: tuple[tuple[tuple[int, ...], tuple[str, ...]], ...]

    @staticmethod
    def projective(vars: Sequence[str]) -> "Ambient":
        vars = tuple(vars)
        return Ambient((((1,) * len(vars), vars),))

    @staticmethod
    def product(vars1: Sequence[str], vars2: Sequence[str]) -> "Ambient":
        v1, v2 = tuple(vars1), tuple(vars2)
        return Ambient((((1,) * len(v1), v1), ((1,) * len(v2), v2)))

    @staticmethod
    def weighted(weights: Sequence[int], vars: Sequence[str]) -> "Ambient":
        w = tuple(int(x) for x in weights)
        if any(x < 1 for x in w):
            raise ValueError("weights must be positive")
        vars = tuple(vars)
        if len(w) != len(vars):
            raise ValueError("weights and variables must have equal length")
        return Ambient(((w, vars),))

    @property
    def vars(self) -> tuple[str, ...]:
        out: list[str] = []
        for _, vs in self.blocks:
            out.extend(vs)
        return tuple(out)

    def block_slices(self) -> list[tuple[int, int]]:
        out = []
        start = 0
        for ws, _ in self.blocks:
            out.append((start, start + len(ws)))
            start += len(ws)
        return out

    def var_weights(self) -> tuple[int, ...]:
        out: list[int] = []
        for ws, _ in self.blocks:
            out.extend(ws)
        return tuple(out)


class BasePointError(ValueError):
    """Raised when evaluation or composition collapses a whole block, or
    when the weight-one components of one output factor all vanish."""


class ProjMap:
    """Self-map given by component polynomials over the ambient roster.

    Stored components are gcd-reduced per output factor but keep the scalar
    they were written with, so semi-invariance factors come out exactly as
    printed in source tables; equality and hashing go through the fully
    scalar-normalized canonical form.  Each output factor needs a nonzero
    weight-one component: it fixes the scalar, and a map whose weight-one
    components of one factor all vanish lands in a proper closed subset, so
    it is not dominant and is rejected.
    """

    __slots__ = ("ambient", "components")

    def __init__(self, ambient: Ambient, components: Sequence[MultiPoly]):
        comps = tuple(components)
        if len(comps) != len(ambient.vars):
            raise ValueError("component count must match the ambient roster")
        for c in comps:
            if c.vars != ambient.vars:
                raise ValueError("component polynomial over the wrong roster")
        self.ambient = ambient
        self.components = comps
        self._validate()
        self.components = _gcd_reduce(ambient, self.components)

    def _validate(self) -> None:
        factors = list(zip((ws for ws, _ in self.ambient.blocks), self.ambient.block_slices()))
        for ws, (lo, hi) in factors:
            block = self.components[lo:hi]
            if all(c.is_zero() for w, c in zip(ws, block) if w == 1):
                raise BasePointError("every weight-one component of an output factor"
                                     " vanishes: the map is not dominant")
            # A component of weight w is homogeneous in every input factor j,
            # under its weights, of degree w*d_j; the factor shares (d_1, ...).
            d: Optional[tuple[int, ...]] = None
            for w_out, comp in zip(ws, block):
                if comp.is_zero():
                    continue
                degs = {tuple(sum(map(mul, wj, expo[a:b])) for wj, (a, b) in factors)
                        for expo in comp.terms}
                if len(degs) > 1:
                    raise ValueError(f"component {comp} is not homogeneous in each factor")
                (deg,) = degs
                if any(x % w_out for x in deg):
                    raise ValueError("component degree incompatible with its weight")
                dd = tuple(x // w_out for x in deg)
                if d is not None and d != dd:
                    raise ValueError("inconsistent component degrees within a factor")
                d = dd

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(ambient: Ambient) -> "ProjMap":
        vars = ambient.vars
        comps = [MultiPoly.variable(vars, v) for v in vars]
        return ProjMap(ambient, comps)

    # -- canonical form and equality -----------------------------------------

    def is_degree_one(self) -> bool:
        """Every component's weighted degree equals its coordinate's weight."""
        weights = self.ambient.var_weights()
        return all(c.is_zero() or c.weighted_degree(weights) == w
                   for w, c in zip(weights, self.components))

    def degree_profile(self) -> int:
        return max(c.total_degree() for c in self.components)

    def canonical_components(self) -> tuple[MultiPoly, ...]:
        return _scalar_normalize(self.ambient, self.components)

    def canonical_key(self):
        out = []
        for comp in self.canonical_components():
            items = []
            for expo, c in comp.sorted_terms():
                d = c.deflate()
                items.append((expo, d.n, d.num, d.den))
            out.append(tuple(items))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjMap):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        return self.canonical_components() == other.canonical_components()

    def __hash__(self) -> int:
        return hash((self.ambient, self.canonical_key()))

    # -- composition -----------------------------------------------------

    def compose(self, other: "ProjMap") -> "ProjMap":
        """self after other, as rational maps."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch in composition")
        images = dict(zip(self.ambient.vars, other.components))
        comps = [c.subs(images) for c in self.components]
        slices = self.ambient.block_slices()
        for lo, hi in slices:
            if all(c.is_zero() for c in comps[lo:hi]):
                raise BasePointError("composition undefined: an output factor vanishes")
        return ProjMap(self.ambient, comps)

    def __mul__(self, other: "ProjMap") -> "ProjMap":
        return self.compose(other)

    def __repr__(self) -> str:
        slices = self.ambient.block_slices()
        blocks = []
        for lo, hi in slices:
            blocks.append("(" + " : ".join(str(c) for c in self.components[lo:hi]) + ")")
        return " x ".join(blocks)


def _gcd_reduce(ambient: Ambient, comps: tuple[MultiPoly, ...]) -> tuple[MultiPoly, ...]:
    out = list(comps)
    for lo, hi in ambient.block_slices():
        block = out[lo:hi]
        nonzero = [c for c in block if not c.is_zero()]
        # A component ell of total degree <= 1 is a unit or irreducible, so
        # the block gcd is 1 or ell; exact division tells which.
        ell = next((c for c in nonzero if c.total_degree() <= 1), None)
        if ell is not None and not all(ell.divides(c) for c in nonzero if c is not ell):
            continue
        g = _block_gcd(ambient, nonzero) if ell is None else ell.normalized()
        if not g.is_constant():
            out[lo:hi] = [c.exact_div(g) if not c.is_zero() else c for c in block]
    return tuple(out)


def _block_gcd(ambient: Ambient, polys: list[MultiPoly]) -> MultiPoly:
    """gcd_many of nonzero polys homogeneous in each input factor, taken in
    fewer variables.  With t_j a weight-one variable of factor j and m_j its
    least exponent in polys, the gcd is prod t_j^m_j times the
    re-homogenized gcd of the polys at every t_j = 1: setting t_j = 1 is a
    multiplicative bijection from the forms that t_j does not divide."""
    factors = [(ws, lo, lo + ws.index(1)) for (ws, _), (lo, _) in
               zip(ambient.blocks, ambient.block_slices())]
    low = {t: min(e[t] for p in polys for e in p.terms) for _, _, t in factors}
    g = gcd_many([_from_terms(p.vars, {tuple(0 if i in low else k for i, k in enumerate(e)): c
                                       for e, c in p.terms.items()}) for p in polys])
    top = [max(sum(map(mul, ws, e[lo:])) for e in g.terms) for ws, lo, _ in factors]
    terms = {}
    for e, c in g.terms.items():
        e = list(e)
        for (ws, lo, t), d in zip(factors, top):
            e[t] = d - sum(map(mul, ws, e[lo:])) + low[t]
        terms[tuple(e)] = c
    return _from_terms(g.vars, terms).normalized()


def _scalar_normalize(ambient: Ambient, comps: tuple[MultiPoly, ...]) -> tuple[MultiPoly, ...]:
    # The scalar acts by mu^{w_i}; making the first nonzero weight-one
    # component monic pins mu without root extraction.
    out = list(comps)
    for (ws, _), (lo, hi) in zip(ambient.blocks, ambient.block_slices()):
        block = out[lo:hi]
        lc = next(c for w, c in zip(ws, block) if w == 1 and not c.is_zero()).leading_coeff()
        if not lc.is_one():
            mu = lc.inverse()
            out[lo:hi] = [c.scale(mu**w) for w, c in zip(ws, block)]
    return tuple(out)


@dataclass(frozen=True)
class Hypersurface:
    """Weighted-homogeneous equation cutting a surface in the ambient."""

    ambient: Ambient
    equation: MultiPoly

    def __post_init__(self):
        if self.equation.is_zero():
            raise ValueError("hypersurface equation must be nonzero")
        if not self.equation.is_weighted_homogeneous(self.ambient.var_weights()):
            raise ValueError("equation is not weighted-homogeneous")


class NotInvariant:
    """Sentinel for a surface not semi-invariant under a map."""

    def __repr__(self) -> str:
        return "NotInvariant"


NOT_INVARIANT = NotInvariant()


def scalar_multiple(p: MultiPoly, q: MultiPoly):
    """p = lam * q exactly, returning lam, else NOT_INVARIANT."""
    if p.is_zero():
        return NOT_INVARIANT
    m = q.leading_monomial()
    c = p.coeff(m)
    if c.is_zero():
        return NOT_INVARIANT
    lam = c / q.coeff(m)
    if p == q.scale(lam):
        return lam
    return NOT_INVARIANT


def in_span(p: MultiPoly, basis: Sequence[MultiPoly]) -> Optional[list[CycloNumber]]:
    """Coordinates of p in the linear span of basis, or None.

    Used for surfaces cut by several equations, where a symmetry may permute
    the equations rather than scale each one.
    """
    monomials = sorted({m for q in basis for m in q.terms} | set(p.terms), reverse=True)
    rows = [[q.coeff(m) for q in basis] + [p.coeff(m)] for m in monomials]
    return _solve(rows, len(basis), CycloNumber.from_rational(0))


def order_of_map(f: ProjMap, order_cap: int = 5040, degree_cap: int = DEGREE_CAP):
    """Least k with f^k the identity; OVER_CAP past either cap."""
    if order_cap < 1 or degree_cap < 1:
        raise ValueError("caps must be positive")
    return _order(f, order_cap, ProjMap.identity(f.ambient).__eq__,
                  lambda acc: acc.degree_profile() > degree_cap)


def commute(f: ProjMap, g: ProjMap) -> bool:
    return f.compose(g) == g.compose(f)


# -- explicit geometric constructions ------------------------------------------


P2 = Ambient.projective(("x", "y", "z"))
P3 = Ambient.projective(("w", "x", "y", "z"))
P4 = Ambient.projective(("x1", "x2", "x3", "x4", "x5"))
P1xP1 = Ambient.product(("x1", "x2"), ("y1", "y2"))
P2xP2 = Ambient.product(("x", "y", "z"), ("u", "v", "w"))
WP2111 = Ambient.weighted((2, 1, 1, 1), ("w", "x", "y", "z"))
WP3112 = Ambient.weighted((3, 1, 1, 2), ("w", "x", "y", "z"))


@dataclass
class EmbeddingReport:
    residuals: tuple[MultiPoly, MultiPoly]
    passed: bool
    spot_checks: int


def dp4_embedding_cubics(vars: Sequence[str]) -> list[MultiPoly]:
    """The five cubics through the four reference points and (a:b:c),
    with a, b, c carried symbolically."""
    vs = tuple(vars)
    x, y, z, a, b, c = (MultiPoly.variable(vs, n) for n in ("x", "y", "z", "a", "b", "c"))
    two = MultiPoly.constant(vs, 2)
    f1 = b * (a - c) * x * x * z + c * (b - a) * x * x * y + a * (a - c) * y * y * z \
        + a * (b - a) * y * z * z + two * a * (c - b) * x * y * z
    f2 = a * (b - c) * y * y * z + c * (a - b) * y * y * x + b * (b - c) * x * x * z \
        + b * (a - b) * x * z * z + two * b * (c - a) * x * y * z
    f3 = b * (c - a) * z * z * x + a * (b - c) * z * z * y + c * (c - a) * y * y * x \
        + c * (b - c) * y * x * x + two * c * (a - b) * x * y * z
    f4 = b * c * x * x * (z - y) + a * b * z * z * (y - x) + a * c * y * y * (x - z)
    f5 = a * y * z * (y - z) + b * x * z * (z - x) + c * x * y * (x - y)
    return [f1, f2, f3, f4, f5]


def verify_dp4_embedding(samples: int = 50, seed: int = 0) -> EmbeddingReport:
    """Symbolic verification that the anticanonical image satisfies both
    quadric equations of the degree-4 surface, plus random specializations.
    """
    import random

    vs = ("x", "y", "z", "a", "b", "c")
    f = dp4_embedding_cubics(vs)
    a, b, c = (MultiPoly.variable(vs, n) for n in ("a", "b", "c"))
    q1 = c * f[0] * f[0] - a * f[2] * f[2] + (a - c) * f[3] * f[3] \
        - a * c * (a - c) * f[4] * f[4]
    q2 = c * f[1] * f[1] - b * f[2] * f[2] + (b - c) * f[3] * f[3] \
        - b * c * (b - c) * f[4] * f[4]
    passed = q1.is_zero() and q2.is_zero()
    rng = random.Random(seed)
    checks = 0
    from fractions import Fraction

    for _ in range(samples):
        vals = {
            "x": Fraction(rng.randint(-20, 20)),
            "y": Fraction(rng.randint(-20, 20)),
            "z": Fraction(rng.randint(-20, 20)),
            "a": Fraction(1),
            "b": Fraction(2),
            "c": Fraction(3),
        }
        if not (q1.evaluate(vals).is_zero() and q2.evaluate(vals).is_zero()):
            passed = False
        checks += 1
    return EmbeddingReport((q1, q2), passed, checks)


# -- group closure -------------------------------------------------------------


class ClosureOverflow(RuntimeError):
    pass


class Closure(list):
    """Group elements in breadth-first order, the identity first, and the
    group's invariant factors.  step[j][i] is the index of closure[j] * gens[i],
    so the right-multiplication table answers orders and commutation."""
    invariants: Optional[tuple[int, ...]] = None  # each > 1; None when not abelian
    step: list[list[int]]

    def order(self, i: int, order_cap: int, degree_cap: int = DEGREE_CAP):
        """order_of_map(gens[i], order_cap, degree_cap), walking i-edges."""
        j = self.step[0][i]
        for k in range(1, order_cap + 1):
            if j == 0:
                return k
            if self[j].degree_profile() > degree_cap:
                return OVER_CAP
            j = self.step[j][i]
        return OVER_CAP

    def commute(self, a: int, b: int) -> bool:
        """Whether gens[a] * gens[b] == gens[b] * gens[a]."""
        return self.step[self.step[0][a]][b] == self.step[self.step[0][b]][a]


def group_closure(gens: Sequence[ProjMap], cap: int = 256) -> Closure:
    """All products of the generators, by breadth-first multiplication.

    A product g*h_i landing on a known element gives the relation v + e_i - u
    between the exponent vectors of the paths that first reached them.  By
    Schreier's lemma Z^k modulo these relations is G's abelianization.
    ClosureOverflow past cap elements, or at an element of degree over
    DEGREE_CAP."""
    if not gens:
        raise ValueError("need at least one generator")
    k = len(gens)
    out = Closure([ProjMap.identity(gens[0].ambient)])
    index = {out[0].canonical_key(): 0}
    paths = [(0,) * k]
    out.step = []
    relations: list[list[int]] = []  # kept in echelon form, <= k rows
    for g, v in zip(out, paths):  # both grow as the queue is read
        row = []
        for i, h in enumerate(gens):
            gh = g.compose(h)
            w = v[:i] + (v[i] + 1,) + v[i + 1:]
            key = gh.canonical_key()
            if key in index:
                relations = _echelon(relations + [[a - b for a, b in zip(w, paths[index[key]])]])
            elif len(out) >= cap:
                raise ClosureOverflow(f"group closure exceeded {cap} elements")
            elif gh.degree_profile() > DEGREE_CAP:
                raise ClosureOverflow(f"group closure element of degree over {DEGREE_CAP}")
            else:
                index[key] = len(out)
                out.append(gh)
                paths.append(w)
            row.append(index[key])
        out.step.append(row)
    inv = tuple(d for d in smith_diagonal(relations + [[0] * k] * (k - len(relations))) if d != 1)
    out.invariants = inv if prod(inv) == len(out) else None  # |G^ab| = |G| iff G is abelian
    return out


def _echelon(rows) -> list[list[int]]:
    """Echelon basis of the span of integer rows, by Euclid on each pivot column."""
    basis: dict[int, list[int]] = {}
    for v in map(list, rows):
        for c in range(len(v)):
            if v[c] == 0:
                continue
            if c not in basis:
                basis[c] = v
                break
            row = basis[c]
            while v[c]:
                q = v[c] // row[c]
                v = [y - q * x for x, y in zip(row, v)]
                if v[c]:  # so a pivot that divides v[c] stays put
                    row, v = v, row
            basis[c] = row
    return [basis[c] for c in sorted(basis)]


def smith_diagonal(rows: Sequence[Sequence[int]]) -> list[int]:
    """Smith normal form diagonal of an integer matrix, min(rows, columns)
    entries each dividing the next (Cohen, Computational Algebraic Number
    Theory, 2.4).  Row and column echelon forms alternate until each row
    keeps one nonzero: the corner pivot only shrinks, and once it divides
    its row and column it clears both."""
    a = _echelon(rows)
    while any(sum(1 for x in r if x) > 1 for r in a):
        a = _echelon(zip(*a))
    d = [abs(next(x for x in r if x)) for r in a]
    for i in range(len(d)):  # gcd/lcm swaps make each entry divide the next
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d + [0] * (min(len(rows), len(rows[0]) if rows else 0) - len(d))


def cyclic_invariants(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors of Z/m1 x ... x Z/mk: (2, 2, 3) -> (2, 6), (2, 3) -> (6,)."""
    diag = [[m if i == j else 0 for j in range(len(orders))] for i, m in enumerate(orders)]
    return tuple(d for d in smith_diagonal(diag) if d != 1)


def abelian_structure_matches(closure: Closure, exponents: Sequence[int]) -> bool:
    """Whether the closure is an abelian group isomorphic to Z/m1 x ... x Z/mk:
    the invariant factors of its relation lattice are those of diag(m1..mk)."""
    return closure.invariants == cyclic_invariants(exponents)
