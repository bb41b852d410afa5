"""The group PGL(2, k(x)) x| PGL(2, k) of fiber-preserving birational maps.

An element is a pair (A, beta): a 2x2 matrix A over rational functions in x
acting on the second coordinate, and a constant 2x2 matrix beta acting on
the first, each taken up to scalar.  The action is
(x, y) -> (beta(x), A(x)(y)), so composition substitutes beta_2 into A_1:
(A_1, b_1) o (A_2, b_2) = (A_1(b_2(x)) * A_2(x), b_1 * b_2).

The square class of det(A) in k(x)*/k(x)*^2 detects twisting involutions;
its radical also carries the ramification data of the fixed curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence, Union

from .cyclo import CycloNumber, _order, _power, is_square_constant
from .maps import P1xP1, ProjMap
from .multipoly import MultiPoly
from .poly import RatFunc, UniPoly, squarefree_part

Mat2 = tuple[tuple[RatFunc, RatFunc], tuple[RatFunc, RatFunc]]
CMat2 = tuple[tuple[CycloNumber, CycloNumber], tuple[CycloNumber, CycloNumber]]


def _rf(value, var="x") -> RatFunc:
    return RatFunc.coerce(value, var)


def _cn(value) -> CycloNumber:
    return CycloNumber.coerce(value)


def _scale_matrix(m):
    """m divided by its last nonzero entry, for RatFunc and constant matrices.

    Pivoting on the last nonzero entry stores sigma forms ((0,g),(1,0)) and
    the identity verbatim.
    """
    entries = [m[1][1], m[1][0], m[0][1], m[0][0]]
    pivot = next((e for e in entries if not e.is_zero()), None)
    if pivot is None:
        raise ValueError("zero matrix")
    inv = pivot.inverse()
    return (
        (m[0][0] * inv, m[0][1] * inv),
        (m[1][0] * inv, m[1][1] * inv),
    )


def _mat2_mul(a, b):
    """The 2x2 product a*b, entries RatFunc or constants."""
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
    )


class JonqElement:
    """Element of PGL(2, k(x)) x| PGL(2, k), canonically scaled."""

    __slots__ = ("a", "beta")

    def __init__(self, a: Sequence[Sequence], beta: Optional[Sequence[Sequence]] = None):
        mat: Mat2 = (
            (_rf(a[0][0]), _rf(a[0][1])),
            (_rf(a[1][0]), _rf(a[1][1])),
        )
        if beta is None:
            beta = ((1, 0), (0, 1))
        bmat: CMat2 = (
            (_cn(beta[0][0]), _cn(beta[0][1])),
            (_cn(beta[1][0]), _cn(beta[1][1])),
        )
        if self._det(mat).is_zero():
            raise ValueError("fiber matrix must be invertible")
        if self._det(bmat).is_zero():
            raise ValueError("base matrix must be invertible")
        self.a = _scale_matrix(mat)
        self.beta = _scale_matrix(bmat)

    @staticmethod
    def _det(m: Mat2) -> RatFunc:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    @staticmethod
    def identity() -> "JonqElement":
        return JonqElement(((1, 0), (0, 1)))

    @staticmethod
    def sigma(g: Union[RatFunc, UniPoly, int]) -> "JonqElement":
        """The involution (x, y) -> (x, g(x)/y)."""
        g = _rf(g)
        if g.is_zero():
            raise ValueError("sigma requires nonzero g")
        return JonqElement(((0, g), (1, 0)))

    @staticmethod
    def base_only(beta: Sequence[Sequence]) -> "JonqElement":
        return JonqElement(((1, 0), (0, 1)), beta)

    def det(self) -> RatFunc:
        return self._det(self.a)

    def has_trivial_base(self) -> bool:
        return self.beta == ((_cn(1), _cn(0)), (_cn(0), _cn(1)))

    def substitute_base(self, beta: CMat2) -> Mat2:
        p, q = beta[0]
        r, s = beta[1]
        return tuple(
            tuple(entry.substitute_mobius(p, q, r, s) for entry in row) for row in self.a
        )

    def compose(self, other: "JonqElement") -> "JonqElement":
        """self after other: (A1(b2(x)) * A2(x), b1 * b2)."""
        a1 = self.substitute_base(other.beta)
        return JonqElement(_mat2_mul(a1, other.a), _mat2_mul(self.beta, other.beta))

    def __mul__(self, other: "JonqElement") -> "JonqElement":
        return self.compose(other)

    def inverse(self) -> "JonqElement":
        b = self.beta
        binv: CMat2 = ((b[1][1], -b[0][1]), (-b[1][0], b[0][0]))
        tmp = JonqElement(self.a, binv)
        a_at = tmp.substitute_base(binv)
        adj = ((a_at[1][1], -a_at[0][1]), (-a_at[1][0], a_at[0][0]))
        return JonqElement(adj, binv)

    def is_identity(self) -> bool:
        return self == JonqElement.identity()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JonqElement):
            return NotImplemented
        return self.a == other.a and self.beta == other.beta

    def __hash__(self) -> int:
        return hash((self.a, tuple(tuple(c.deflate().coeffs for c in row) for row in self.beta)))

    def __repr__(self) -> str:
        return f"JonqElement(A=[[{self.a[0][0]}, {self.a[0][1]}], [{self.a[1][0]}, {self.a[1][1]}]], beta=[[{self.beta[0][0]}, {self.beta[0][1]}], [{self.beta[1][0]}, {self.beta[1][1]}]])"


def order_j(e: JonqElement, cap: int = 5040, degree_cap: int = 512):
    """Least k with e^k = 1; OVER_CAP past either cap."""
    def too_big(acc: JonqElement) -> bool:
        return max(max(x.num.degree, x.den.degree) for row in acc.a for x in row) > degree_cap

    return _order(e, cap, JonqElement.identity().__eq__, too_big)


@dataclass
class SquareClass:
    """Class of a nonzero rational function modulo squares.

    radical is the monic square-free polynomial part; the constant carries
    the rest, with its squareness resolved only over fields where an exact
    test exists.  Over an algebraically closed field only the radical
    matters.
    """

    radical: UniPoly
    constant: CycloNumber
    constant_status: str  # resolved_square | resolved_nonsquare | indeterminate
    field_conductor: int

    def is_trivial_absolute(self) -> bool:
        """Triviality over C, where every constant is a square."""
        return self.radical.is_one()

    def is_trivial_effective(self) -> Optional[bool]:
        if not self.radical.is_one():
            return False
        if self.constant_status == "resolved_square":
            return True
        if self.constant_status == "resolved_nonsquare":
            return False
        return None

    def same_class(self, other: "SquareClass") -> Optional[bool]:
        """Equality as square classes over the effective field; None if the
        constant comparison is unresolved."""
        if self.radical != other.radical:
            return False
        t = is_square_constant(self.constant / other.constant,
                               lcm(self.field_conductor, other.field_conductor))
        if t.status == "square":
            return True
        if t.status == "nonsquare":
            return False
        return None

    def __repr__(self) -> str:
        return (
            f"SquareClass(radical={self.radical}, constant={self.constant}, "
            f"{self.constant_status})"
        )


def _field_conductor_of(e: JonqElement) -> int:
    ns = [1]
    for row in e.a:
        for entry in row:
            for p in (entry.num, entry.den):
                ns.extend(c.deflate().n for c in p.coeffs)
    for row in e.beta:
        ns.extend(c.deflate().n for c in row)
    return lcm(*ns)


def square_class(f: RatFunc, field_conductor: Optional[int] = None) -> SquareClass:
    if f.is_zero():
        raise ValueError("square class of zero")
    p = f.num * f.den
    dec = squarefree_part(p)
    n = field_conductor
    if n is None:
        ns = [c.deflate().n for c in p.coeffs]
        n = lcm(*ns) if ns else 1
    t = is_square_constant(dec.constant, lcm(n, dec.constant.n))
    status = {
        "square": "resolved_square",
        "nonsquare": "resolved_nonsquare",
        "indeterminate": "indeterminate",
    }[t.status]
    return SquareClass(dec.radical, dec.constant, status, n)


def det_class(e: JonqElement, field_conductor: Optional[int] = None) -> SquareClass:
    """Square class of det(A) for an element of PGL(2, k(x))."""
    if not e.has_trivial_base():
        raise ValueError("determinant class needs a trivial action on the base")
    n = field_conductor if field_conductor is not None else _field_conductor_of(e)
    return square_class(e.det(), n)


def is_involution(e: JonqElement) -> bool:
    return not e.is_identity() and e.compose(e).is_identity()


@dataclass
class TwistingVerdict:
    """Twisting test for an involution with trivial base action.

    absolute uses the algebraically-closed semantics (only the radical of
    the determinant class matters); effective keeps the ground field's
    constants and may be None when the constant test is indeterminate.
    """

    absolute: bool
    effective: Optional[bool]
    delta: SquareClass

    def __bool__(self) -> bool:
        return self.absolute


def is_twisting(e: JonqElement, field_conductor: Optional[int] = None) -> TwistingVerdict:
    if not is_involution(e):
        raise ValueError("twisting test requires a nontrivial involution")
    if not e.has_trivial_base():
        raise ValueError("twisting test requires a trivial action on the base")
    delta = det_class(e, field_conductor)
    absolute = not delta.is_trivial_absolute()
    trivial_eff = delta.is_trivial_effective()
    effective = None if trivial_eff is None else not trivial_eff
    return TwistingVerdict(absolute, effective, delta)


@dataclass
class RamificationData:
    branch_points: int  # 2k, including the point at infinity for odd radicals
    genus: int
    radical: UniPoly


def ramification_data(e: JonqElement) -> RamificationData:
    """Branch count and genus of the curve fixed by a twisting involution."""
    verdict = is_twisting(e)
    if not verdict.absolute:
        raise ValueError("element is not a twisting involution")
    deg = verdict.delta.radical.degree
    two_k = deg + (deg % 2)  # odd radicals ramify over infinity as well
    return RamificationData(two_k, two_k // 2 - 1, verdict.delta.radical)


@dataclass
class SigmaForm:
    """Antidiagonal normal form ((0, g), (1, 0)) of an involution."""

    g: RatFunc

    def element(self) -> JonqElement:
        return JonqElement.sigma(self.g)


@dataclass
class NormalizationRecord:
    sigma: SigmaForm
    conjugator: Mat2
    verified: bool


def _mat_vec2(m: Mat2, v: tuple[RatFunc, RatFunc]) -> tuple[RatFunc, RatFunc]:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def normalize_involution(e: JonqElement) -> NormalizationRecord:
    """Conjugate an involution of PGL(2, k(x)) to its antidiagonal form.

    In the basis (v, e(v)) for a non-eigenvector v the matrix becomes
    ((0, g), (1, 0)) with g the scalar of e^2.  Candidate vectors come from
    a fixed deterministic sequence so runs are reproducible.
    """
    if not e.has_trivial_base():
        raise ValueError("normalization requires a trivial action on the base")
    if not is_involution(e):
        raise ValueError("normalization requires an involution")
    m = e.a
    # e^2 is the scalar lam*I in GL(2, k(x)); with A scaled canonically,
    # lam = g of the antidiagonal form.
    prod = _mat2_mul(m, m)
    assert prod[0][1].is_zero() and prod[1][0].is_zero() and prod[0][0] == prod[1][1]
    lam = prod[0][0]
    var = "x"
    xpoly = UniPoly.x(var)
    candidates = [
        (RatFunc.coerce(1, var), RatFunc.coerce(0, var)),
        (RatFunc.coerce(0, var), RatFunc.coerce(1, var)),
        (RatFunc.coerce(1, var), RatFunc.coerce(1, var)),
        (RatFunc(xpoly), RatFunc.coerce(1, var)),
        (RatFunc(xpoly + 1), RatFunc.coerce(1, var)),
        (RatFunc(xpoly**2), RatFunc.coerce(1, var)),
    ]
    for v in candidates:
        w = _mat_vec2(m, v)
        detp = v[0] * w[1] - v[1] * w[0]
        if detp.is_zero():
            continue  # v is an eigenvector; try the next one
        conj: Mat2 = ((v[0], w[0]), (v[1], w[1]))
        sigma = SigmaForm(lam)
        verified = _conjugation_identity_holds(conj, sigma.element(), e)
        return NormalizationRecord(sigma, conj, verified)
    raise ValueError("no usable basis vector found in the deterministic sequence")


def _conjugation_identity_holds(p: Mat2, s: JonqElement, e: JonqElement) -> bool:
    # check p * s = e * p projectively
    return _scale_matrix(_mat2_mul(p, s.a)) == _scale_matrix(_mat2_mul(e.a, p))


@dataclass
class OddRootResult:
    """Root of even order built from an odd parameter n.

    When g(x^n) = g(-x^n) the printed matrix for alpha has determinant
    zero (so alpha is not a group element); the closed forms for alpha^2
    and alpha^{2n} still exist and are verified against each other by
    exact composition.
    """

    n: int
    alpha: Optional[JonqElement]
    alpha_squared: JonqElement  # (zeta_n x, G/y) with G = g(x^n) g(-x^n)
    sigma_target: JonqElement  # sigma_G with trivial base action
    degenerate: bool
    square_verified: Optional[bool]  # alpha o alpha == alpha_squared
    final_verified: bool  # the 2n-th power reaches sigma_target


def build_root_odd(n: int, g: RatFunc) -> OddRootResult:
    """2n-th root (n odd) of the involution sigma_{g(x^n)g(-x^n)}.

    alpha = (x -> zeta_2n * x, y -> -g(x^n) (y + g(-x^n)) / (y + g(x^n))),
    verified by exact composition: alpha^2 = (zeta_n x, g(x^n)g(-x^n)/y) and
    alpha^{2n} = sigma_{g(x^n) g(-x^n)}.  A verification mismatch raises,
    since it would mean the closed forms were transcribed wrongly.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    g = _rf(g)
    if g.is_zero():
        raise ValueError("g must be nonzero")
    var = g.var if not g.is_constant() else "x"
    xn = UniPoly.x(var) ** n
    g_xn = RatFunc(g.num.compose_poly(xn), g.den.compose_poly(xn))
    g_mxn = RatFunc(g.num.compose_poly(-xn), g.den.compose_poly(-xn))
    big_g = g_xn * g_mxn
    z2n = CycloNumber.zeta(2 * n)
    squared_form = JonqElement(
        ((_rf(0, var), big_g), (_rf(1, var), _rf(0, var))),
        ((z2n**2, 0), (0, 1)),
    )
    sigma_target = JonqElement(((_rf(0, var), big_g), (_rf(1, var), _rf(0, var))))
    degenerate = g_xn == g_mxn
    if degenerate:
        final_ok = _power(squared_form, n, JonqElement.identity()) == sigma_target
        if not final_ok:
            raise RuntimeError("closed forms inconsistent in degenerate root")
        return OddRootResult(n, None, squared_form, sigma_target, True, None, final_ok)
    alpha = JonqElement(
        ((-g_xn, -big_g), (_rf(1, var), g_xn)),
        ((z2n, 0), (0, 1)),
    )
    sq = alpha.compose(alpha)
    square_ok = sq == squared_form
    final_ok = _power(sq, n, JonqElement.identity()) == sigma_target
    if not (square_ok and final_ok):
        raise RuntimeError("root verification failed: closed forms do not match")
    return OddRootResult(n, alpha, sq, sigma_target, False, square_ok, final_ok)


def fourth_root_example() -> dict[str, JonqElement]:
    """The explicit 4th root of (x, y) -> (x, (x^4-1)/y) over Q(zeta_8).

    sqrt(2) is realized as zeta_8 + zeta_8^{-1}.
    """
    z8 = CycloNumber.zeta(8)
    i = z8**2
    sqrt2 = z8 + z8**7
    x = UniPoly.x()
    lead = (x + 1) * ((sqrt2 - 1) - x)  # (x+1)((sqrt2 - 1) - x)
    alpha = JonqElement(
        ((RatFunc(lead), RatFunc(x**4 - 1)), (RatFunc.coerce(1), RatFunc(lead))),
        ((i, 0), (0, 1)),
    )
    lead2 = (x + 1) * (x - i) * (-i)
    alpha2 = JonqElement(
        ((RatFunc(lead2), RatFunc(x**4 - 1)), (RatFunc.coerce(1), RatFunc(lead2))),
        ((-CycloNumber.from_rational(1), 0), (0, 1)),
    )
    alpha4 = JonqElement.sigma(RatFunc(x**4 - 1))
    return {"alpha": alpha, "alpha2": alpha2, "alpha4": alpha4}


def to_bihomogeneous(e: JonqElement) -> ProjMap:
    """The element as a bidegree-(d, 1) self-map of P1 x P1."""
    vars = P1xP1.vars  # (x1, x2, y1, y2)
    x1 = MultiPoly.variable(vars, "x1")
    x2 = MultiPoly.variable(vars, "x2")
    y1 = MultiPoly.variable(vars, "y1")
    y2 = MultiPoly.variable(vars, "y2")
    b = e.beta
    first = [x1.scale(b[0][0]) + x2.scale(b[0][1]), x1.scale(b[1][0]) + x2.scale(b[1][1])]
    # Clear denominators of A and homogenize entries to a common x-degree.
    lcm_den = UniPoly.constant(1)
    for row in e.a:
        for entry in row:
            from .poly import poly_gcd

            gcd_ = poly_gcd(lcm_den, entry.den)
            lcm_den = lcm_den * entry.den.exact_div(gcd_)
    cleared = [[(entry * RatFunc(lcm_den)) for entry in row] for row in e.a]
    polys = []
    maxdeg = 0
    for row in cleared:
        for entry in row:
            assert entry.den.is_one()
            polys.append(entry.num)
            maxdeg = max(maxdeg, entry.num.degree)
    homog = [_homogenize_binary(p, maxdeg, x1, x2) for p in polys]
    second = [
        homog[0] * y1 + homog[1] * y2,
        homog[2] * y1 + homog[3] * y2,
    ]
    return ProjMap(P1xP1, first + second)


def _homogenize_binary(p: UniPoly, deg: int, x1: MultiPoly, x2: MultiPoly) -> MultiPoly:
    out = MultiPoly.zero(x1.vars)
    for i in range(p.degree + 1):
        c = p[i]
        if not c.is_zero():
            out = out + (x1**i * x2 ** (deg - i)).scale(c)
    return out


def sigma_ab(a_roots: Sequence, b_roots: Sequence) -> JonqElement:
    """sigma_{a,b}: y -> g(x)/y with g = prod(x - b_i) / prod(x - a_i)."""
    num = UniPoly.from_roots([CycloNumber.coerce(r) for r in b_roots])
    den = UniPoly.from_roots([CycloNumber.coerce(r) for r in a_roots])
    return JonqElement.sigma(RatFunc(num, den))


def square_class_group(g: RatFunc, h: RatFunc) -> Union[int, str]:
    """Order (1, 2 or 4) of the subgroup of k(x)*/k(x)*^2 generated by the
    determinant classes of sigma_g and the commuting involution
    ((h, -g), (1, -h)); 'indeterminate' when constants cannot be resolved.

    The classes are taken with algebraically-closed semantics (radical only)
    except that trivially-radical classes fall back to the constant test.
    """
    g = _rf(g)
    h = _rf(h)
    if g.is_zero():
        raise ValueError("g must be nonzero")
    d1 = -g
    d2 = g - h * h
    if d2.is_zero():
        raise ValueError("degenerate pair: g = h^2")
    c1 = square_class(d1)
    c2 = square_class(d2)
    c12 = square_class(d1 * d2)
    flags = []
    for c in (c1, c2, c12):
        if not c.radical.is_one():
            flags.append(False)  # nontrivial
        else:
            eff = c.is_trivial_effective()
            if eff is None:
                return "indeterminate"
            flags.append(eff)
    t1, t2, t12 = flags
    nontrivial = sum(1 for t in (t1, t2, t12) if not t)
    if nontrivial == 0:
        return 1
    if nontrivial == 2:
        return 2
    if nontrivial == 3:
        return 4
    # Exactly one nontrivial class cannot happen in a Klein four quotient.
    raise AssertionError("inconsistent square classes")
