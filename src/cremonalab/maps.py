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
from typing import Optional, Sequence, Union

from .cyclo import CycloNumber, _solve
from .multipoly import MultiPoly, gcd_many

Coeffish = Union[int, "CycloNumber"]


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
    """Raised when evaluation or composition collapses a whole block."""


class ProjMap:
    """Self-map given by component polynomials over the ambient roster.

    Stored components are gcd-reduced per output factor but keep the scalar
    they were written with, so semi-invariance factors come out exactly as
    printed in source tables; equality and hashing go through the fully
    scalar-normalized canonical form.
    """

    __slots__ = ("ambient", "components", "_canon")

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
        self._canon = None

    def _validate(self) -> None:
        weights = self.ambient.var_weights()
        slices = self.ambient.block_slices()
        for (ws, _), (lo, hi) in zip(self.ambient.blocks, slices):
            block = self.components[lo:hi]
            if all(c.is_zero() for c in block):
                raise ValueError("all components of an output factor vanish")
            # Uniform block degree d: component of weight w has weighted degree w*d.
            d: Optional[int] = None
            for w_out, comp in zip(ws, block):
                if comp.is_zero():
                    continue
                if not comp.is_weighted_homogeneous(weights):
                    raise ValueError(f"component {comp} is not weighted-homogeneous")
                deg = comp.weighted_degree(weights)
                if deg % w_out != 0:
                    raise ValueError("component degree incompatible with its weight")
                dd = deg // w_out
                if d is None:
                    d = dd
                elif d != dd:
                    raise ValueError("inconsistent component degrees within a factor")
            # For products, also require per-input-block homogeneity.
            if len(self.ambient.blocks) > 1:
                for comp in block:
                    if comp.is_zero():
                        continue
                    for lo2, hi2 in slices:
                        degs = {
                            sum(e[lo2:hi2]) for e in comp.terms
                        }
                        if len(degs) > 1:
                            raise ValueError("component not multi-homogeneous")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(ambient: Ambient) -> "ProjMap":
        vars = ambient.vars
        comps = [MultiPoly.variable(vars, v) for v in vars]
        return ProjMap(ambient, comps)

    @staticmethod
    def diagonal(ambient: Ambient, scalars: Sequence[Coeffish]) -> "ProjMap":
        vars = ambient.vars
        if len(scalars) != len(vars):
            raise ValueError("need one scalar per coordinate")
        comps = [
            MultiPoly.variable(vars, v).scale(CycloNumber.coerce(s))
            for v, s in zip(vars, scalars)
        ]
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
        if self._canon is None:
            self._canon = _scalar_normalize(self.ambient, self.components)
        return self._canon

    def canonical_key(self):
        out = []
        for comp in self.canonical_components():
            items = []
            for expo, c in comp.sorted_terms():
                d = c.deflate()
                items.append((expo, d.n, d.coeffs))
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

    def is_identity(self) -> bool:
        return self == ProjMap.identity(self.ambient)

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

    def power(self, k: int, degree_cap: int = 4096) -> "ProjMap":
        if k < 0:
            raise ValueError("negative power of a rational map")
        result = ProjMap.identity(self.ambient)
        for _ in range(k):
            result = result.compose(self)
            if result.degree_profile() > degree_cap:
                raise ValueError("degree cap exceeded while raising to a power")
        return result

    def evaluate(self, point: "ProjPoint") -> "ProjPoint":
        if point.ambient != self.ambient:
            raise ValueError("point not in the map's ambient")
        values = dict(zip(self.ambient.vars, point.coords))
        coords = [c.evaluate(values) for c in self.components]
        slices = self.ambient.block_slices()
        for lo, hi in slices:
            if all(c.is_zero() for c in coords[lo:hi]):
                raise BasePointError("point lies in the base locus")
        return ProjPoint(self.ambient, coords)

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
        if ell is not None and not all(ell.divides(c) for c in nonzero):
            continue
        g = gcd_many(nonzero) if ell is None else ell.normalized()
        if not g.is_constant():
            out[lo:hi] = [c.exact_div(g) if not c.is_zero() else c for c in block]
    return tuple(out)


def _scalar_normalize(ambient: Ambient, comps: tuple[MultiPoly, ...]) -> tuple[MultiPoly, ...]:
    out = list(comps)
    slices = ambient.block_slices()
    for (ws, _), (lo, hi) in zip(ambient.blocks, slices):
        block = list(out[lo:hi])
        if all(w == 1 for w in ws):
            lead = next(c for c in block if not c.is_zero()).leading_coeff()
            inv = lead.inverse()
            block = [c.scale(inv) for c in block]
        else:
            # The scalar acts by mu^{w_i}; making the first nonzero
            # weight-one component monic pins mu without root extraction.
            pivot = next(
                (i for i, (w, c) in enumerate(zip(ws, block)) if w == 1 and not c.is_zero()),
                None,
            )
            if pivot is None:
                # No weight-one handle: uniform scaling fallback; maps with
                # every weight-one component zero may compare unequal even
                # when mu-related.
                j = next(i for i, c in enumerate(block) if not c.is_zero())
                inv = block[j].leading_coeff().inverse()
                block = [c.scale(inv) for c in block]
            else:
                mu = block[pivot].leading_coeff().inverse()
                block = [c.scale(mu**w) for w, c in zip(ws, block)]
        out[lo:hi] = block
    return tuple(out)


class ProjPoint:
    """Point of the ambient; equality is per-factor weighted equivalence."""

    __slots__ = ("ambient", "coords")

    def __init__(self, ambient: Ambient, coords: Sequence[Coeffish]):
        cs = tuple(CycloNumber.coerce(c) for c in coords)
        if len(cs) != len(ambient.vars):
            raise ValueError("coordinate count must match the ambient roster")
        for lo, hi in ambient.block_slices():
            if all(c.is_zero() for c in cs[lo:hi]):
                raise ValueError("zero coordinate block")
        self.ambient = ambient
        self.coords = cs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        slices = self.ambient.block_slices()
        for (ws, _), (lo, hi) in zip(self.ambient.blocks, slices):
            if not _points_block_equal(ws, self.coords[lo:hi], other.coords[lo:hi]):
                return False
        return True

    def __hash__(self) -> int:
        raise TypeError("ProjPoint is unhashable; use explicit equality")

    def __repr__(self) -> str:
        slices = self.ambient.block_slices()
        return " x ".join(
            "(" + " : ".join(str(c) for c in self.coords[lo:hi]) + ")" for lo, hi in slices
        )


def _points_block_equal(
    ws: Sequence[int], a: Sequence[CycloNumber], b: Sequence[CycloNumber]
) -> bool:
    for x, y in zip(a, b):
        if x.is_zero() != y.is_zero():
            return False
    nz = [i for i, x in enumerate(a) if not x.is_zero()]
    if len(nz) == 1:
        return True  # same single supporting coordinate
    lam: Optional[CycloNumber] = None
    for i in nz:
        if ws[i] == 1:
            lam = b[i] / a[i]
            break
    if lam is None:
        # Solve from two coprime weights, e.g. lambda = (b_i*a_j)/(a_i*b_j)
        # when w_i - w_j = 1.
        for i in nz:
            for j in nz:
                if i != j and ws[i] - ws[j] == 1:
                    lam = (b[i] * a[j]) / (a[i] * b[j])
                    break
            if lam is not None:
                break
    if lam is None:
        return False
    return all(b[i] == a[i] * lam ** ws[i] for i in nz)


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


def semi_invariance(surface: Hypersurface, f: ProjMap):
    """Scalar lam with F(f(x)) = lam * F(x), or NOT_INVARIANT.

    Requires f linear per weighted coordinate so the pullback has the same
    weighted degree as F.
    """
    ambient = surface.ambient
    if f.ambient != ambient:
        raise ValueError("map and surface live in different ambients")
    if not f.is_degree_one():
        raise ValueError("semi-invariance needs a degree-one map")
    pulled = surface.equation.subs(dict(zip(ambient.vars, f.components)))
    return scalar_multiple(pulled, surface.equation)


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


def is_fixed_point(f: ProjMap, point: ProjPoint) -> bool:
    return f.evaluate(point) == point


def order_of_map(f: ProjMap, order_cap: int = 5040, degree_cap: int = 64):
    """Least k with f^k the identity; OVER_CAP past either cap."""
    from .weyl import OVER_CAP

    if order_cap < 1 or degree_cap < 1:
        raise ValueError("caps must be positive")
    ident = ProjMap.identity(f.ambient)
    acc = f
    for k in range(1, order_cap + 1):
        if acc == ident:
            return k
        if acc.degree_profile() > degree_cap:
            return OVER_CAP
        acc = acc.compose(f)
    return OVER_CAP


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


def _mp(ambient: Ambient, name: str) -> MultiPoly:
    return MultiPoly.variable(ambient.vars, name)


@dataclass
class KappaRecord:
    map: ProjMap
    square: ProjMap
    preserves_surface: bool
    square_matches_formula: bool


def kappa(alpha: Coeffish, beta: Coeffish) -> KappaRecord:
    """The fiber-twisting automorphism of the degree-6 surface in P2 x P2.

    (x:y:z) x (u:v:w) -> (u : a*w : b*v) x (x : z/a : y/b); the record checks
    that the surface ux = vy = wz is preserved and that the square matches
    the diagonal closed form.
    """
    a = CycloNumber.coerce(alpha)
    b = CycloNumber.coerce(beta)
    if a.is_zero() or b.is_zero():
        raise ValueError("twisting parameters must be nonzero")
    x, y, z = (_mp(P2xP2, n) for n in ("x", "y", "z"))
    u, v, w = (_mp(P2xP2, n) for n in ("u", "v", "w"))
    k = ProjMap(
        P2xP2,
        [u, w.scale(a), v.scale(b), x, z.scale(a.inverse()), y.scale(b.inverse())],
    )
    # Surface ideal generators.
    e1 = u * x - v * y
    e2 = v * y - w * z
    sub = dict(zip(P2xP2.vars, k.components))
    ok = True
    for e in (e1, e2):
        if in_span(e.subs(sub), [e1, e2]) is None:
            ok = False
    k2 = k.compose(k)
    expected = ProjMap.diagonal(
        P2xP2,
        [
            CycloNumber.from_rational(1),
            a / b,
            b / a,
            CycloNumber.from_rational(1),
            b / a,
            a / b,
        ],
    )
    return KappaRecord(k, k2, ok, k2 == expected)


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


def discriminant_dp1(f4: MultiPoly, f6: MultiPoly) -> MultiPoly:
    """27*F6^2 + 4*F4^3 for binary forms of degrees 4 and 6."""
    if not f6.is_weighted_homogeneous([1] * len(f6.vars)) or f6.total_degree() != 6:
        raise ValueError("F6 must be a binary sextic form")
    if not f4.is_zero():
        if f4.total_degree() != 4 or not f4.is_weighted_homogeneous([1] * len(f4.vars)):
            raise ValueError("F4 must be a binary quartic form (or zero)")
    delta = f6 * f6 * 27 + f4 * f4 * f4 * 4
    if delta.is_zero():
        raise ValueError("discriminant vanishes identically: singular surface")
    return delta


def fiber_type(f4: MultiPoly, f6: MultiPoly, point: Sequence[Coeffish]) -> str:
    """'singular_rational' on a discriminant root, else 'smooth_elliptic'."""
    delta = discriminant_dp1(f4, f6)
    values = dict(zip(f6.vars, point))
    return "singular_rational" if delta.evaluate(values).is_zero() else "smooth_elliptic"


# -- group closure -------------------------------------------------------------


class ClosureOverflow(RuntimeError):
    pass


class Closure(list):
    """Group elements in breadth-first order, and the group's invariant factors."""
    invariants: Optional[tuple[int, ...]] = None  # each > 1; None when not abelian


def group_closure(gens: Sequence[ProjMap], cap: int = 256) -> Closure:
    """All products of the generators, by breadth-first multiplication.

    A product g*h_i landing on a known element gives the relation v + e_i - u
    between the exponent vectors of the paths that first reached them.  By
    Schreier's lemma Z^k modulo these relations is G's abelianization."""
    if not gens:
        raise ValueError("need at least one generator")
    k = len(gens)
    ident = ProjMap.identity(gens[0].ambient)
    seen: dict = {ident.canonical_key(): (ident, (0,) * k)}
    frontier = [(ident, (0,) * k)]
    relations: list[list[int]] = []  # kept in echelon form, <= k rows
    while frontier:
        nxt = []
        for g, v in frontier:
            for i, h in enumerate(gens):
                gh = g.compose(h)
                w = v[:i] + (v[i] + 1,) + v[i + 1:]
                key = gh.canonical_key()
                if key in seen:
                    relations = _echelon(relations + [[a - b for a, b in zip(w, seen[key][1])]])
                    continue
                if len(seen) >= cap:
                    raise ClosureOverflow(f"group closure exceeded {cap} elements")
                seen[key] = (gh, w)
                nxt.append((gh, w))
        frontier = nxt
    out = Closure(g for g, _ in seen.values())
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
