"""The group PGL(2, k(x)) x| PGL(2, k) of fiber-preserving birational maps.

An element is a pair (A, beta): a 2x2 matrix A over rational functions in x
acting on the second coordinate, and a constant 2x2 matrix beta acting on
the first, each taken up to scalar.  The action is
(x, y) -> (beta(x), A(x)(y)), so composition substitutes beta_2 into A_1:
(A_1, b_1) o (A_2, b_2) = (A_1(b_2(x)) * A_2(x), b_1 * b_2).

A is stored as a primitive matrix m over k[x] whose pivot, the last nonzero
entry in the order m11, m10, m01, m00, is monic: one representative of A up
to k(x)* scalars, so equality is equality of m and beta.

The square class of det(A) in k(x)*/k(x)*^2 detects twisting involutions;
its radical also carries the ramification data of the fixed curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence, Union

from .cyclo import (
    OVER_CAP,
    CycloNumber,
    _order,
    _power,
    conductor_of,
    euler_phi,
    is_square_constant,
)
from .maps import P1xP1, ProjMap
from .multipoly import MultiPoly
from .poly import RatFunc, UniPoly, poly_gcd, squarefree_part

PMat2 = tuple[tuple[UniPoly, UniPoly], tuple[UniPoly, UniPoly]]
CMat2 = tuple[tuple[CycloNumber, CycloNumber], tuple[CycloNumber, CycloNumber]]


def _pivot(m):
    """The last nonzero entry of m in the order m11, m10, m01, m00, so that
    sigma forms ((0,g),(1,0)) and the identity are stored verbatim."""
    return next(e for e in (m[1][1], m[1][0], m[0][1], m[0][0]) if not e.is_zero())


def _scale_matrix(m: CMat2) -> CMat2:
    """A constant matrix divided by its pivot."""
    inv = _pivot(m).inverse()
    return tuple(tuple(e * inv for e in row) for row in m)


def _primitive(m: PMat2) -> PMat2:
    """m divided by the gcd of its entries, with the pivot made monic."""
    g = UniPoly.zero()
    for e in (m[1][1], m[1][0], m[0][1], m[0][0]):
        g = poly_gcd(g, e)
        if g.is_one():
            break
    else:
        m = tuple(tuple(e.exact_div(g) for e in row) for row in m)
    # every coefficient is written over one Q(zeta_n), n the lcm of their conductors
    n = lcm(*(c.n for row in m for e in row for c in e.coeffs))
    inv = _pivot(m).leading().inverse().promote(n)
    return tuple(tuple(e * inv for e in row) for row in m)


def _mat2_mul(a, b):
    """The 2x2 product a*b, entries RatFunc, UniPoly or constants."""
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
    )


def _det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _adjugate(m):
    """The adjugate, the inverse of m up to the scalar det(m)."""
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def _substitute_base(m: PMat2, beta: CMat2) -> PMat2:
    """m(beta(x)) up to a common scalar: each entry e becomes
    e((px + q)/(rx + s)) * (rx + s)^n, with n the top degree of m."""
    if beta == ((1, 0), (0, 1)):
        return m
    (p, q), (r, s) = beta
    n = max(e.degree for row in m for e in row)
    num, den = UniPoly((q, p)), UniPoly((s, r))
    lifts = [num**i * den ** (n - i) for i in range(n + 1)]
    return tuple(
        tuple(sum((lift * c for lift, c in zip(lifts, e.coeffs)), UniPoly.zero()) for e in row)
        for row in m
    )


class JonqElement:
    """Element of PGL(2, k(x)) x| PGL(2, k): a primitive fiber matrix m over
    k[x] with monic pivot, and a base matrix beta with pivot 1."""

    __slots__ = ("m", "beta")

    def __init__(self, a: Sequence[Sequence], beta: Optional[Sequence[Sequence]] = None):
        entries = [RatFunc.coerce(a[i][j]) for i in range(2) for j in range(2)]
        den = UniPoly.constant(1)
        for f in entries:
            den = den * f.den.exact_div(poly_gcd(den, f.den))
        m00, m01, m10, m11 = (f.num * den.exact_div(f.den) for f in entries)
        mat: PMat2 = ((m00, m01), (m10, m11))
        bmat: CMat2 = tuple(tuple(CycloNumber.coerce(c) for c in row)
                            for row in beta or ((1, 0), (0, 1)))
        if _det(mat).is_zero():
            raise ValueError("fiber matrix must be invertible")
        if _det(bmat).is_zero():
            raise ValueError("base matrix must be invertible")
        self.m, self.beta = _primitive(mat), _scale_matrix(bmat)

    @staticmethod
    def _of(m: PMat2, beta: CMat2) -> "JonqElement":
        """The element of invertible polynomial and base matrices, made canonical."""
        e = object.__new__(JonqElement)
        e.m, e.beta = _primitive(m), _scale_matrix(beta)
        return e

    @staticmethod
    def identity() -> "JonqElement":
        return _IDENTITY

    @staticmethod
    def sigma(g: Union[RatFunc, UniPoly, int]) -> "JonqElement":
        """The involution (x, y) -> (x, g(x)/y)."""
        g = RatFunc.coerce(g)
        if g.is_zero():
            raise ValueError("sigma requires nonzero g")
        return JonqElement(((0, g), (1, 0)))

    @staticmethod
    def base_only(beta: Sequence[Sequence]) -> "JonqElement":
        return JonqElement(((1, 0), (0, 1)), beta)

    def det(self) -> UniPoly:
        """det(m), det(A) times a square with leading coefficient 1."""
        return _det(self.m)

    def has_trivial_base(self) -> bool:
        return self.beta == ((1, 0), (0, 1))

    def compose(self, other: "JonqElement") -> "JonqElement":
        """self after other: (A1(b2(x)) * A2(x), b1 * b2)."""
        a1 = _substitute_base(self.m, other.beta)
        return JonqElement._of(_mat2_mul(a1, other.m), _mat2_mul(self.beta, other.beta))

    def __mul__(self, other: "JonqElement") -> "JonqElement":
        return self.compose(other)

    def inverse(self) -> "JonqElement":
        """(A(b^-1(x))^-1, b^-1), both inverses taken as adjugates."""
        binv = _adjugate(self.beta)
        return JonqElement._of(_adjugate(_substitute_base(self.m, binv)), binv)

    def is_identity(self) -> bool:
        return self == _IDENTITY

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JonqElement):
            return NotImplemented
        return self.m == other.m and self.beta == other.beta

    def __hash__(self) -> int:
        return hash((self.m, self.beta))

    def __repr__(self) -> str:
        (m00, m01), (m10, m11) = self.m
        (b00, b01), (b10, b11) = self.beta
        return (f"JonqElement(m=[[{m00}, {m01}], [{m10}, {m11}]], "
                f"beta=[[{b00}, {b01}], [{b10}, {b11}]])")


_IDENTITY = JonqElement(((1, 0), (0, 1)))


def _root_order_bound(values) -> int:
    """8 phi(N)^2, N the conductor of values: a root of unity z of degree at
    most 2 over Q(zeta_N) has phi(ord z) <= 2 phi(N), and as
    phi(k) >= sqrt(k/2), ord z <= 8 phi(N)^2."""
    return 8 * euler_phi(conductor_of(values)) ** 2


def order_j(e: JonqElement, cap: int = 5040):
    """Least k <= cap with e^k = 1; OVER_CAP past cap or on proven infinite order.

    A finite order b of the base beta is the order of its eigenvalue ratio,
    a root of unity of degree at most 2 over the field of the entries of
    beta, so a base loop past `_root_order_bound` of those entries proves
    the order infinite.  Then e^b has trivial base.  Were its order finite,
    its eigenvalue ratio would be a root of unity z, and
    c = tr^2/det = 2 + z + 1/z algebraic over k, hence a constant of k(x); a
    nonconstant tr^2/det proves the order infinite.  For constant c, z is a
    root of z^2 - (c - 2) z + 1, of degree at most 2 over Q(c), and a fiber
    loop past `_root_order_bound([c])` proves the order infinite.
    """
    bound = _root_order_bound(c for row in e.beta for c in row)
    b = _order(JonqElement.base_only(e.beta), min(cap, bound), JonqElement.is_identity)
    if b is OVER_CAP:
        return OVER_CAP
    f = _power(e, b, _IDENTITY)
    tr = f.m[0][0] + f.m[1][1]
    c = RatFunc(tr * tr, f.det())
    if not c.is_constant():
        return OVER_CAP
    k = _order(f, min(cap // b, _root_order_bound([c.constant_value()])), JonqElement.is_identity)
    return OVER_CAP if k is OVER_CAP else b * k


@dataclass
class SquareClass:
    """Class of a nonzero rational function modulo squares.

    radical is the monic square-free polynomial part; the constant carries
    the rest.  square says whether the constant is a square over the field
    of conductor field_conductor, None where no exact test resolves it.
    Over an algebraically closed field only the radical matters.
    """

    radical: UniPoly
    constant: CycloNumber
    square: Optional[bool]
    field_conductor: int

    def is_trivial_absolute(self) -> bool:
        """Triviality over C, where every constant is a square."""
        return self.radical.is_one()

    def is_trivial_effective(self) -> Optional[bool]:
        return self.square if self.radical.is_one() else False

    def same_class(self, other: "SquareClass") -> Optional[bool]:
        """Equality as square classes over the effective field; None if the
        constant comparison is unresolved."""
        if self.radical != other.radical:
            return False
        return is_square_constant(self.constant / other.constant,
                                  lcm(self.field_conductor, other.field_conductor))

    def __repr__(self) -> str:
        return (
            f"SquareClass(radical={self.radical}, constant={self.constant}, "
            f"square={self.square})"
        )


def square_class(f: Union[RatFunc, UniPoly], field_conductor: Optional[int] = None) -> SquareClass:
    f = RatFunc.coerce(f)
    if f.is_zero():
        raise ValueError("square class of zero")
    p = f.num * f.den
    dec = squarefree_part(p)
    n = field_conductor if field_conductor is not None else conductor_of(p.coeffs)
    square = is_square_constant(dec.constant, lcm(n, conductor_of([dec.constant])))
    return SquareClass(dec.radical, dec.constant, square, n)


def det_class(e: JonqElement, field_conductor: Optional[int] = None) -> SquareClass:
    """Square class of det(A) for an element of PGL(2, k(x))."""
    if not e.has_trivial_base():
        raise ValueError("determinant class needs a trivial action on the base")
    if field_conductor is None:  # beta is trivial, so m holds every constant
        field_conductor = conductor_of(c for row in e.m for entry in row for c in entry.coeffs)
    return square_class(e.det(), field_conductor)


def is_involution(e: JonqElement) -> bool:
    """e^2 = 1 and e != 1.  With a trivial base, m^2 = tr(m) m - det(m) I
    (Cayley-Hamilton) is scalar iff tr(m) = 0, since a scalar m has trace 2c."""
    if e.has_trivial_base():
        return (e.m[0][0] + e.m[1][1]).is_zero()
    return not e.is_identity() and e.compose(e).is_identity()


@dataclass
class TwistingVerdict:
    """Twisting test for an involution with trivial base action.

    absolute uses the algebraically-closed semantics (only the radical of
    the determinant class matters); effective keeps the ground field's
    constants and may be None when the constant test is indeterminate.
    The radical's roots, with infinity for an odd degree, are the branch
    points of the fixed curve.
    """

    absolute: bool
    effective: Optional[bool]
    delta: SquareClass
    branch_points: int
    genus: int


def is_twisting(e: JonqElement, field_conductor: Optional[int] = None) -> TwistingVerdict:
    if not e.has_trivial_base():
        raise ValueError("twisting test requires a trivial action on the base")
    if not is_involution(e):
        raise ValueError("twisting test requires a nontrivial involution")
    delta = det_class(e, field_conductor)
    trivial_eff = delta.is_trivial_effective()
    deg = delta.radical.degree
    two_k = deg + deg % 2  # odd radicals ramify over infinity as well
    return TwistingVerdict(not delta.is_trivial_absolute(),
                           None if trivial_eff is None else not trivial_eff,
                           delta, two_k, two_k // 2 - 1)


def ramification_data(e: JonqElement) -> TwistingVerdict:
    """The verdict of a twisting involution, with the branch count and genus
    of its fixed curve."""
    verdict = is_twisting(e)
    if not verdict.absolute:
        raise ValueError("element is not a twisting involution")
    return verdict


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
    g = RatFunc.coerce(g)
    if g.is_zero():
        raise ValueError("g must be nonzero")
    xn = UniPoly.x() ** n
    g_xn = RatFunc(g.num.compose_poly(xn), g.den.compose_poly(xn))
    g_mxn = RatFunc(g.num.compose_poly(-xn), g.den.compose_poly(-xn))
    big_g = g_xn * g_mxn
    z2n = CycloNumber.zeta(2 * n)
    squared_form = JonqElement(((0, big_g), (1, 0)), ((z2n**2, 0), (0, 1)))
    sigma_target = JonqElement.sigma(big_g)
    degenerate = g_xn == g_mxn
    if degenerate:
        final_ok = _power(squared_form, n, JonqElement.identity()) == sigma_target
        if not final_ok:
            raise RuntimeError("closed forms inconsistent in degenerate root")
        return OddRootResult(n, None, squared_form, sigma_target, True, None, final_ok)
    alpha = JonqElement(((-g_xn, -big_g), (1, g_xn)), ((z2n, 0), (0, 1)))
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
    alpha = JonqElement(((lead, x**4 - 1), (1, lead)), ((i, 0), (0, 1)))
    lead2 = (x + 1) * (x - i) * (-i)
    alpha2 = JonqElement(((lead2, x**4 - 1), (1, lead2)), ((-1, 0), (0, 1)))
    alpha4 = JonqElement.sigma(x**4 - 1)
    return {"alpha": alpha, "alpha2": alpha2, "alpha4": alpha4}


def to_bihomogeneous(e: JonqElement) -> ProjMap:
    """The element as a bidegree-(d, 1) self-map of P1 x P1."""
    vars = P1xP1.vars  # (x1, x2, y1, y2)
    x1, x2, y1, y2 = (MultiPoly.variable(vars, v) for v in vars)
    b = e.beta
    first = [x1.scale(b[0][0]) + x2.scale(b[0][1]), x1.scale(b[1][0]) + x2.scale(b[1][1])]
    polys = [entry for row in e.m for entry in row]
    maxdeg = max(p.degree for p in polys)
    homog = [_homogenize_binary(p, maxdeg, x1, x2) for p in polys]
    second = [homog[0] * y1 + homog[1] * y2, homog[2] * y1 + homog[3] * y2]
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

