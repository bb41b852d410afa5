import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from cremonalab.cyclo import CycloNumber
from cremonalab.maps import (
    NOT_INVARIANT,
    BasePointError,
    Hypersurface,
    P1xP1,
    P2,
    P2xP2,
    P3,
    P4,
    ProjMap,
    ProjPoint,
    WP2111,
    WP3112,
    _gcd_reduce,
    abelian_structure_matches,
    commute,
    cyclic_invariants,
    discriminant_dp1,
    dp4_embedding_cubics,
    fiber_type,
    group_closure,
    in_span,
    is_fixed_point,
    kappa,
    order_of_map,
    semi_invariance,
    smith_diagonal,
    verify_dp4_embedding,
)
from cremonalab.multipoly import MultiPoly, gcd_many
from cremonalab.weyl import OVER_CAP


def mp(amb, name):
    return MultiPoly.variable(amb.vars, name)


def xyz():
    return (mp(P2, n) for n in ("x", "y", "z"))


def test_standard_quadratic_is_involution():
    x, y, z = xyz()
    std = ProjMap(P2, [y * z, x * z, x * y])
    assert std.compose(std).is_identity()
    assert order_of_map(std) == 2


def test_cs24_generators():
    x, y, z = xyz()
    g1 = ProjMap(P2, [y * z, x * y, -(x * z)])
    g2 = ProjMap(P2, [y * z * (y - z), x * z * (y + z), x * y * (y + z)])
    minus = ProjMap(P2, [-x, y, z])
    assert g1.compose(g1) == minus
    assert g2.compose(g2) == minus
    assert g1.compose(g2) == ProjMap(P2, [x * (y + z), z * (y - z), -(y * (y - z))])
    assert order_of_map(g1) == 4 and order_of_map(g2) == 4
    assert commute(g1, g2)
    closure = group_closure([g1, g2])
    assert len(closure) == 8
    assert abelian_structure_matches(closure, (2, 4))
    assert not abelian_structure_matches(closure, (2, 2, 2))


def test_order_examples():
    x, y, z = xyz()
    assert order_of_map(ProjMap(P2, [y, z, x])) == 3
    assert order_of_map(ProjMap.identity(P2)) == 1
    z9 = CycloNumber.zeta(9)
    w3 = CycloNumber.zeta(3)
    d = ProjMap.diagonal(P3, [z9, 1, w3, w3**2])
    assert order_of_map(d) == 9
    # a nonperiodic map runs over the degree cap
    h = ProjMap(P2, [x * x, x * y, z * z])
    assert order_of_map(h, order_cap=50, degree_cap=16) is OVER_CAP


def test_order_power_law():
    rng = random.Random(40)
    i = CycloNumber.zeta(4)
    w3 = CycloNumber.zeta(3)
    maps = [
        ProjMap.diagonal(P2, [1, i, w3]),
        ProjMap.diagonal(P2, [1, -1, i]),
        ProjMap(P2, [mp(P2, "y"), mp(P2, "z"), mp(P2, "x")]),
    ]
    for f in maps:
        n = order_of_map(f)
        for _ in range(6):
            k = rng.randint(1, 12)
            assert order_of_map(f.power(k)) == n // gcd(n, k)


def test_compose_associative_randomized():
    rng = random.Random(41)
    i = CycloNumber.zeta(4)
    pool = [
        ProjMap.diagonal(P2, [1, i, -1]),
        ProjMap(P2, [mp(P2, "y"), mp(P2, "x"), mp(P2, "z")]),
        ProjMap(P2, [mp(P2, "z"), mp(P2, "y"), mp(P2, "x")]),
        ProjMap.diagonal(P2, [1, 2, 3]),
    ]
    for _ in range(30):
        f, g, h = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert f.compose(g.compose(h)) == f.compose(g).compose(h)


def test_commute_examples():
    x, y, z = xyz()
    assert not commute(ProjMap(P2, [y, x, z]), ProjMap(P2, [x, z, y]))
    assert commute(ProjMap.diagonal(P2, [1, 2, 3]), ProjMap.diagonal(P2, [1, 5, 7]))


def test_canonical_idempotence():
    x, y, z = xyz()
    f = ProjMap(P2, [(y * z).scale(3), (x * z).scale(3), (x * y).scale(3)])
    canon = f.canonical_components()
    again = ProjMap(P2, list(canon))
    assert again.canonical_components() == canon
    assert f == again


def test_fixed_points():
    x, y, z = xyz()
    std = ProjMap(P2, [y * z, x * z, x * y])
    assert is_fixed_point(std, ProjPoint(P2, [1, 1, 1]))
    g3 = ProjMap(P2, [x * (y + z), z * (y - z), -(y * (y - z))])
    p = ProjPoint(P2, [0, 1, 0])
    assert not is_fixed_point(g3, p)
    assert g3.evaluate(p) == ProjPoint(P2, [0, 0, 1])
    with pytest.raises(BasePointError):
        std.evaluate(ProjPoint(P2, [1, 0, 0]))


def test_quadratic_fixed_points_with_parameters():
    # (a y z : b x z : c x y) fixes the four square-root points; at
    # a = b = c = 1 that includes (1 : 1 : 1)
    x, y, z = xyz()
    f = ProjMap(P2, [y * z, x * z, x * y])
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        pt = ProjPoint(P2, [1, signs[0], signs[1]])
        assert is_fixed_point(f, pt)


def test_semi_invariance():
    vs = P3.vars
    w, x, y, z = (mp(P3, n) for n in vs)
    w3 = CycloNumber.zeta(3)
    fermat = Hypersurface(P3, w**3 + x**3 + y**3 + z**3)
    assert semi_invariance(fermat, ProjMap.diagonal(P3, [w3, 1, 1, 1])) == 1
    assert semi_invariance(fermat, ProjMap.identity(P3)) == 1
    s39 = Hypersurface(P3, w**3 + x * z**2 + x**2 * y + y**2 * z)
    z9 = CycloNumber.zeta(9)
    lam = semi_invariance(s39, ProjMap.diagonal(P3, [z9, 1, w3, w3**2]))
    assert lam == w3
    assert semi_invariance(fermat, ProjMap.diagonal(P3, [1, 1, 1, 2])) is NOT_INVARIANT


def test_in_span_for_swapped_quadrics():
    x1, x2, x3, x4, x5 = (mp(P4, n) for n in P4.vars)
    q1 = 3 * x1**2 - x3**2 - 2 * x4**2 + 6 * x5**2
    q2 = 3 * x2**2 - 2 * x3**2 - x4**2 + 6 * x5**2
    beta = ProjMap(P4, [-x2, x1, x4, x3, -x5])
    sub = dict(zip(P4.vars, beta.components))
    c1 = in_span(q1.subs(sub), [q1, q2])
    c2 = in_span(q2.subs(sub), [q1, q2])
    assert c1 is not None and c2 is not None
    # beta swaps the two quadrics
    assert c1[0].is_zero() and not c1[1].is_zero()
    assert not c2[0].is_zero() and c2[1].is_zero()


def test_kappa():
    rec = kappa(1, 1)
    assert rec.square.is_identity()
    assert rec.preserves_surface and rec.square_matches_formula
    rec = kappa(1, -1)
    assert rec.square == ProjMap.diagonal(P2xP2, [1, -1, -1, 1, -1, -1])
    w3 = CycloNumber.zeta(3)
    rec = kappa(w3, 2)
    assert rec.preserves_surface and rec.square_matches_formula
    # alpha/beta not a root of unity: the square spirals, no finite order
    assert order_of_map(rec.map, order_cap=24) is OVER_CAP
    rec6 = kappa(w3, 1)
    assert rec6.preserves_surface and rec6.square_matches_formula
    assert order_of_map(rec6.map, order_cap=10) == 6
    with pytest.raises(ValueError):
        kappa(0, 1)


def test_weighted_identity_detection():
    i = CycloNumber.zeta(4)
    assert ProjMap.diagonal(WP2111, [1, -1, -1, -1]).is_identity()
    assert ProjMap.diagonal(WP3112, [-1, -1, -1, 1]).is_identity()
    assert not ProjMap.diagonal(WP3112, [-1, 1, 1, 1]).is_identity()
    assert order_of_map(ProjMap.diagonal(WP2111, [1, 1, 1, i])) == 4
    assert order_of_map(ProjMap.diagonal(WP2111, [-1, 1, 1, 1])) == 2


def test_weighted_group_closure():
    i = CycloNumber.zeta(4)
    sigma = ProjMap.diagonal(WP2111, [-1, 1, 1, 1])
    a = ProjMap.diagonal(WP2111, [1, 1, 1, i])
    b = ProjMap.diagonal(WP2111, [1, 1, i, 1])
    closure = group_closure([sigma, a, b], cap=64)
    assert len(closure) == 32
    assert abelian_structure_matches(closure, (2, 4, 4))


def test_weighted_point_equality_is_equivalence():
    rng = random.Random(55)
    pts = []
    for _ in range(12):
        coords = [
            CycloNumber.from_rational(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for _ in range(4)
        ]
        pts.append(ProjPoint(WP3112, coords))
    for p in pts:
        assert p == p  # reflexive
        lam = CycloNumber.from_rational(Fraction(rng.randint(1, 7), rng.randint(1, 5)))
        scaled = ProjPoint(
            WP3112,
            [c * lam**w for c, w in zip(p.coords, (3, 1, 1, 2))],
        )
        assert p == scaled and scaled == p  # symmetric
        lam2 = CycloNumber.from_rational(rng.randint(2, 5))
        scaled2 = ProjPoint(
            WP3112,
            [c * lam2**w for c, w in zip(scaled.coords, (3, 1, 1, 2))],
        )
        assert p == scaled2  # transitive through scaled


def test_weighted_point_degenerate_support():
    # all weight-one coordinates zero: solve the scalar from weights 3 and 2
    lam = CycloNumber.from_rational(Fraction(2, 3))
    p = ProjPoint(WP3112, [1, 0, 0, 1])
    q = ProjPoint(WP3112, [lam**3, 0, 0, lam**2])
    assert p == q
    assert p != ProjPoint(WP3112, [1, 0, 0, 2])
    # points supported on a single coordinate compare by support
    assert ProjPoint(WP3112, [1, 0, 0, 0]) == ProjPoint(WP3112, [5, 0, 0, 0])


def test_dp4_embedding_symbolic():
    rep = verify_dp4_embedding(samples=10, seed=3)
    assert rep.passed
    assert rep.residuals[0].is_zero() and rep.residuals[1].is_zero()


def test_dp4_embedding_f5_vanishes_at_base_point():
    f5 = dp4_embedding_cubics(("x", "y", "z", "a", "b", "c"))[4]
    assert f5.evaluate({"x": 1, "y": 0, "z": 0, "a": 1, "b": 2, "c": 3}).is_zero()


def test_discriminant_dp1():
    bx, by = (MultiPoly.variable(("x", "y"), n) for n in ("x", "y"))
    zero = MultiPoly.zero(("x", "y"))
    assert fiber_type(zero, bx**6 + by**6, [1, 1]) == "smooth_elliptic"
    assert discriminant_dp1(zero, bx**6 + by**6).evaluate({"x": 1, "y": 1}) == 108
    assert fiber_type(zero, bx * by**5, [0, 1]) == "singular_rational"
    assert fiber_type(bx**4, by**6, [0, 1]) == "smooth_elliptic"
    assert discriminant_dp1(bx**4, by**6).evaluate({"x": 0, "y": 1}) == 27
    with pytest.raises(ValueError):
        discriminant_dp1(zero, bx**4 * by**2 * 0)


def test_gcd_reduction_on_construction():
    x, y, z = xyz()
    f = ProjMap(P2, [x * x, x * y, x * z])  # identity after gcd reduction
    assert f.is_identity()


def test_smith_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(71)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 4)
        rows = [[rng.choice((0, rng.randint(-30, 30))) for _ in range(n)] for _ in range(m)]
        s = smith_normal_form(sympy.Matrix(rows))
        assert smith_diagonal(rows) == [abs(s[i, i]) for i in range(min(m, n))], rows


def test_cyclic_invariants():
    assert cyclic_invariants((2, 3)) == cyclic_invariants((6,)) == (6,)
    assert cyclic_invariants((2, 2, 3)) == cyclic_invariants((2, 6)) == (2, 6)
    assert cyclic_invariants((4, 6, 10)) == (2, 2, 60)
    assert cyclic_invariants((1,)) == cyclic_invariants(()) == ()


def _fingerprint_matches(elements, exponents) -> bool:
    """The solution-count test: the number of g with g^d = 1, for every d,
    fixes the type of a finite abelian group."""
    if len(elements) != prod(exponents):
        return False
    exponent = lcm(*exponents)
    orders = [order_of_map(g, order_cap=exponent + 1) for g in elements]
    if OVER_CAP in orders:
        return False
    return all(
        sum(1 for o in orders if d % o == 0) == prod(gcd(d, m) for m in exponents)
        for d in range(1, exponent + 1)
        if exponent % d == 0
    )


def test_structure_agrees_with_solution_count_fingerprint():
    z = CycloNumber.zeta
    # (generators as diagonal scalars on P3, the type they generate)
    groups = [
        ([[z(6), 1, 1, 1]], (6,)),
        ([[-1, 1, 1, 1], [1, z(3), 1, 1]], (2, 3)),
        ([[z(4), -1, 1, 1], [1, -1, 1, 1]], (2, 4)),
        ([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1]], (2, 2, 2)),
        ([[z(8), 1, 1, 1]], (8,)),
        ([[z(4), 1, 1, 1], [1, z(4), 1, 1]], (4, 4)),
        ([[-1, 1, 1, 1], [1, z(8), 1, 1]], (2, 8)),
        ([[z(3), 1, 1, 1], [1, z(3), 1, 1], [1, 1, -1, 1]], (3, 3, 2)),
    ]
    types = {
        6: [(6,), (2, 3), (3, 2)],
        8: [(8,), (2, 4), (4, 2), (2, 2, 2)],
        16: [(16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)],
        18: [(18,), (3, 6), (2, 9), (2, 3, 3), (9, 2)],
    }
    for scalars, known in groups:
        closure = group_closure([ProjMap.diagonal(P3, s) for s in scalars])
        n = prod(known)
        assert len(closure) == n
        verdicts = [abelian_structure_matches(closure, t) for t in types[n]]
        assert verdicts == [_fingerprint_matches(closure, t) for t in types[n]]
        assert abelian_structure_matches(closure, known)


def test_structure_rejects_nonabelian_group():
    x, y, z = xyz()
    closure = group_closure([ProjMap(P2, [y, x, z]), ProjMap(P2, [x, z, y])])
    assert len(closure) == 6
    assert closure.invariants is None
    assert not abelian_structure_matches(closure, (6,))
    assert not abelian_structure_matches(closure, (2, 3))


def _gcd_reduce_by_gcd_many(ambient, comps):
    out = list(comps)
    for lo, hi in ambient.block_slices():
        block = out[lo:hi]
        g = gcd_many([c for c in block if not c.is_zero()])
        if not g.is_constant():
            out[lo:hi] = [c.exact_div(g) if not c.is_zero() else c for c in block]
    return tuple(out)


def _random_poly(rng, vars, degree):
    """A product of `degree` nonzero random linear forms times a constant."""
    p = MultiPoly.constant(vars, rng.choice((1, -2, 3)))
    for _ in range(degree):
        form = MultiPoly.zero(vars)
        while form.is_zero():
            for v in vars:
                form = form + MultiPoly.variable(vars, v).scale(rng.choice((0, 0, 1, -1, 2)))
        p = p * form
    return p


def test_gcd_reduce_shortcut_matches_gcd_many():
    x, y, z = xyz()
    zero = MultiPoly.zero(P2.vars)
    one, two = (MultiPoly.constant(P2.vars, c) for c in (1, 2))
    assert _gcd_reduce(P2, (x + y, 2 * x + 2 * y, zero)) == (one, two, zero)
    rng = random.Random(77)
    reduced = 0
    for ambient in (P2, P1xP1, WP2111):
        vars = ambient.vars
        for _ in range(60):
            comps = []
            for lo, hi in ambient.block_slices():
                common = _random_poly(rng, vars, rng.choice((0, 1, 1, 2)))
                block = [common * _random_poly(rng, vars, rng.choice((0, 1, 1, 2)))
                         if rng.random() < 0.8 else MultiPoly.zero(vars) for _ in range(hi - lo)]
                if all(c.is_zero() for c in block):
                    block[0] = common
                comps.extend(block)
            got = _gcd_reduce(ambient, tuple(comps))
            want = _gcd_reduce_by_gcd_many(ambient, tuple(comps))
            assert got == want and [str(c) for c in got] == [str(c) for c in want], comps
            reduced += got != tuple(comps)
    assert reduced > 20  # blocks with a nonconstant gcd
