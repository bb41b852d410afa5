import itertools
import random
from functools import reduce
from math import gcd, lcm, prod
from operator import mul

import pytest

from cremonalab.corpus import _parse_component_tuples, load_bundled_corpus
from cremonalab.cyclo import CycloNumber
from cremonalab.maps import (
    DEGREE_CAP,
    ClosureError,
    P1xP1,
    P2,
    P2xP2,
    P3,
    P4,
    ProjMap,
    WP2111,
    WP3112,
    _echelon,
    _gcd_reduce,
    abelian_structure_matches,
    commute,
    cyclic_invariants,
    dp4_embedding_cubics,
    group_closure,
    in_span,
    order_of_map,
    scalar_multiple,
    smith_diagonal,
    verify_dp4_embedding,
)
from cremonalab.multipoly import MultiPoly, multi_gcd
from cremonalab.weyl import OVER_CAP


def mp(amb, name):
    return MultiPoly.variable(amb.vars, name)


def xyz():
    return (mp(P2, n) for n in ("x", "y", "z"))


def diagonal(ambient, scalars):
    """The map scaling each coordinate by its scalar."""
    return ProjMap(ambient, [mp(ambient, v).scale(CycloNumber.coerce(s))
                             for v, s in zip(ambient.vars, scalars)])


def image(f, point):
    """The components of f at a point of P2, as values."""
    values = dict(zip(f.ambient.vars, point))
    return [c.evaluate(values) for c in f.components]


def proportional(a, b):
    """Whether the nonzero vectors a and b span one line."""
    return all(a[i] * b[j] == a[j] * b[i] for i, j in itertools.combinations(range(len(a)), 2))


def test_standard_quadratic_is_involution():
    x, y, z = xyz()
    std = ProjMap(P2, [y * z, x * z, x * y])
    assert std.compose(std) == ProjMap.identity(P2)
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
    d = diagonal(P3, [z9, 1, w3, w3**2])
    assert order_of_map(d) == 9
    # a nonperiodic map runs over the degree cap
    h = ProjMap(P2, [x * x, x * y, z * z])
    assert order_of_map(h, order_cap=50, degree_cap=16) is OVER_CAP


def test_order_power_law():
    rng = random.Random(40)
    i = CycloNumber.zeta(4)
    w3 = CycloNumber.zeta(3)
    maps = [
        diagonal(P2, [1, i, w3]),
        diagonal(P2, [1, -1, i]),
        ProjMap(P2, [mp(P2, "y"), mp(P2, "z"), mp(P2, "x")]),
    ]
    for f in maps:
        n = order_of_map(f)
        for _ in range(6):
            k = rng.randint(1, 12)
            assert order_of_map(reduce(ProjMap.compose, [f] * k)) == n // gcd(n, k)


def test_compose_associative_randomized():
    rng = random.Random(41)
    i = CycloNumber.zeta(4)
    pool = [
        diagonal(P2, [1, i, -1]),
        ProjMap(P2, [mp(P2, "y"), mp(P2, "x"), mp(P2, "z")]),
        ProjMap(P2, [mp(P2, "z"), mp(P2, "y"), mp(P2, "x")]),
        diagonal(P2, [1, 2, 3]),
    ]
    for _ in range(30):
        f, g, h = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert f.compose(g.compose(h)) == f.compose(g).compose(h)


def test_commute_examples():
    x, y, z = xyz()
    assert not commute(ProjMap(P2, [y, x, z]), ProjMap(P2, [x, z, y]))
    assert commute(diagonal(P2, [1, 2, 3]), diagonal(P2, [1, 5, 7]))


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
    g3 = ProjMap(P2, [x * (y + z), z * (y - z), -(y * (y - z))])
    assert not proportional(image(g3, [0, 1, 0]), [0, 1, 0])
    assert proportional(image(g3, [0, 1, 0]), [0, 0, 1])
    # (1 : 0 : 0) is a base point of the standard quadratic map
    assert all(c.is_zero() for c in image(std, [1, 0, 0]))


def test_quadratic_fixed_points_with_parameters():
    # (a y z : b x z : c x y) fixes the four square-root points; at
    # a = b = c = 1 that includes (1 : 1 : 1)
    x, y, z = xyz()
    f = ProjMap(P2, [y * z, x * z, x * y])
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        pt = [1, signs[0], signs[1]]
        assert proportional(image(f, pt), pt)


def test_semi_invariance():
    vs = P3.vars
    w, x, y, z = (mp(P3, n) for n in vs)
    w3 = CycloNumber.zeta(3)

    def factor(F, f):  # lam with F(f(x)) = lam * F(x), as verify_row takes it
        return scalar_multiple(F.subs(dict(zip(P3.vars, f.components))), F)

    fermat = w**3 + x**3 + y**3 + z**3
    assert factor(fermat, diagonal(P3, [w3, 1, 1, 1])) == 1
    assert factor(fermat, ProjMap.identity(P3)) == 1
    s39 = w**3 + x * z**2 + x**2 * y + y**2 * z
    z9 = CycloNumber.zeta(9)
    lam = factor(s39, diagonal(P3, [z9, 1, w3, w3**2]))
    assert lam == w3
    assert factor(fermat, diagonal(P3, [1, 1, 1, 2])) is None


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
    # The fiber-twisting automorphism of the degree-6 surface ux = vy = wz in
    # P2 x P2, (x:y:z) x (u:v:w) -> (u : a*w : b*v) x (x : z/a : y/b): it
    # preserves the surface, and its square is the diagonal map
    # (1, a/b, b/a, 1, b/a, a/b).
    x, y, z, u, v, w = (mp(P2xP2, n) for n in P2xP2.vars)
    surface = [u * x - v * y, v * y - w * z]
    orders = []
    for a, b in ((1, 1), (1, -1), (CycloNumber.zeta(3), 2), (CycloNumber.zeta(3), 1)):
        a, b = CycloNumber.coerce(a), CycloNumber.coerce(b)
        k = _parse_component_tuples(f"(u : ({a})*w : ({b})*v) x (x : z/({a}) : y/({b}))", P2xP2)
        sub = dict(zip(P2xP2.vars, k.components))
        assert all(in_span(e.subs(sub), surface) is not None for e in surface)
        assert k.compose(k) == diagonal(P2xP2, [1, a / b, b / a, 1, b / a, a / b])
        orders.append(order_of_map(k, order_cap=24))
    # a/b not a root of unity: the square spirals, no finite order
    assert orders == [2, 4, OVER_CAP, 6]


def test_weighted_identity_detection():
    i = CycloNumber.zeta(4)
    assert diagonal(WP2111, [1, -1, -1, -1]) == ProjMap.identity(WP2111)
    assert diagonal(WP3112, [-1, -1, -1, 1]) == ProjMap.identity(WP3112)
    assert diagonal(WP3112, [-1, 1, 1, 1]) != ProjMap.identity(WP3112)
    assert order_of_map(diagonal(WP2111, [1, 1, 1, i])) == 4
    assert order_of_map(diagonal(WP2111, [-1, 1, 1, 1])) == 2


def test_weighted_group_closure():
    i = CycloNumber.zeta(4)
    sigma = diagonal(WP2111, [-1, 1, 1, 1])
    a = diagonal(WP2111, [1, 1, 1, i])
    b = diagonal(WP2111, [1, 1, i, 1])
    closure = group_closure([sigma, a, b], cap=64)
    assert len(closure) == 32
    assert abelian_structure_matches(closure, (2, 4, 4))


def test_map_without_a_weight_one_component_is_rejected():
    w, z = (MultiPoly.variable(WP3112.vars, n) for n in ("w", "z"))
    zero = MultiPoly.zero(WP3112.vars)
    with pytest.raises(ValueError, match="weight-one"):
        ProjMap(WP3112, [w, zero, zero, z])


def test_dp4_embedding_symbolic():
    rep = verify_dp4_embedding(samples=10, seed=3)
    assert rep.passed
    assert rep.residuals[0].is_zero() and rep.residuals[1].is_zero()


def test_dp4_embedding_f5_vanishes_at_base_point():
    f5 = dp4_embedding_cubics(("x", "y", "z", "a", "b", "c"))[4]
    assert f5.evaluate({"x": 1, "y": 0, "z": 0, "a": 1, "b": 2, "c": 3}).is_zero()


def test_gcd_reduction_on_construction():
    x, y, z = xyz()
    f = ProjMap(P2, [x * x, x * y, x * z])  # identity after gcd reduction
    assert f == ProjMap.identity(P2)


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


def _diagonal_groups():
    """(generators as diagonal scalars on P3, the type they generate)."""
    z = CycloNumber.zeta
    return [
        ([[z(6), 1, 1, 1]], (6,)),
        ([[-1, 1, 1, 1], [1, z(3), 1, 1]], (2, 3)),
        ([[z(4), -1, 1, 1], [1, -1, 1, 1]], (2, 4)),
        ([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1]], (2, 2, 2)),
        ([[z(8), 1, 1, 1]], (8,)),
        ([[z(4), 1, 1, 1], [1, z(4), 1, 1]], (4, 4)),
        ([[-1, 1, 1, 1], [1, z(8), 1, 1]], (2, 8)),
        ([[z(3), 1, 1, 1], [1, z(3), 1, 1], [1, 1, -1, 1]], (3, 3, 2)),
    ]


def test_structure_agrees_with_solution_count_fingerprint():
    types = {
        6: [(6,), (2, 3), (3, 2)],
        8: [(8,), (2, 4), (4, 2), (2, 2, 2)],
        16: [(16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)],
        18: [(18,), (3, 6), (2, 9), (2, 3, 3), (9, 2)],
    }
    for scalars, known in _diagonal_groups():
        closure = group_closure([diagonal(P3, s) for s in scalars])
        n = prod(known)
        assert len(closure) == n
        verdicts = [abelian_structure_matches(closure, t) for t in types[n]]
        assert verdicts == [_fingerprint_matches(closure, t) for t in types[n]]
        assert abelian_structure_matches(closure, known)


def _cs24():
    x, y, z = xyz()
    return [ProjMap(P2, [y * z, x * y, -(x * z)]),  # degree 2, order 4
            ProjMap(P2, [y * z * (y - z), x * z * (y + z), x * y * (y + z)])]  # degree 3


def _zeta8():
    return [diagonal(P2, [1, 1, CycloNumber.zeta(8)])]


def _s3():
    x, y, z = xyz()
    return [ProjMap(P2, [y, x, z]), ProjMap(P2, [x, z, y])]


def test_closure_orders_and_commutation_match_the_maps():
    # verify_row reads orders off the closure, at the order cap it uses, and
    # passes every commute check once the closure is built: the orders must
    # be what order_of_map computes, and the closure built just when commute
    # holds for every pair.
    cases = [(row.generators, max(row.gen_orders) * 2 + 2) for row in load_bundled_corpus()]
    assert len(cases) == 83
    for gens, cap in cases:
        closure = group_closure(gens, cap=128)
        assert [closure.order(i, cap) for i in range(len(gens))] == \
            [order_of_map(g, order_cap=cap) for g in gens]
        assert all(commute(gens[a], gens[b]) for a, b in itertools.combinations(range(len(gens)), 2))
    assert not commute(*_s3())
    with pytest.raises(ClosureError):
        group_closure(_s3())


def test_closure_order_keeps_both_caps():
    cs24, zeta8 = _cs24(), _zeta8()
    for gens in (cs24, zeta8):
        closure = group_closure(gens)
        for i, g in enumerate(gens):
            for order_cap, degree_cap in itertools.product(range(1, 10), (1, 2, 3)):
                assert closure.order(i, order_cap, degree_cap) == \
                    order_of_map(g, order_cap, degree_cap), (i, order_cap, degree_cap)
    closure = group_closure(cs24)
    assert [closure.order(0, 4), closure.order(0, 3), closure.order(0, 4, degree_cap=1)] == \
        [4, OVER_CAP, OVER_CAP]
    assert [closure.order(1, 4), closure.order(1, 4, degree_cap=2)] == [4, OVER_CAP]
    assert [group_closure(zeta8).order(0, 8), group_closure(zeta8).order(0, 7)] == [8, OVER_CAP]


def test_structure_rejects_nonabelian_group():
    # The first pair that does not commute is named; the enumeration never starts.
    with pytest.raises(ClosureError, match=r"^not abelian: gen1\*gen2 != gen2\*gen1$"):
        group_closure(_s3())
    with pytest.raises(ClosureError, match=r"^not abelian: gen2\*gen3 != gen3\*gen2$"):
        group_closure([ProjMap.identity(P2)] + _s3())


def _bfs_closure(gens, cap=256):
    """The closure by breadth-first multiplication of every element by every
    generator, an oracle for group_closure.  A product g*h_i landing on a
    known element gives the relation v + e_i - u between the exponent vectors
    of the paths that first reached them; by Schreier's lemma Z^k modulo
    these relations is G's abelianization.  Returns the elements, the
    invariant factors (None when not abelian) and the right-multiplication
    table: step[j][i] is the index of elements[j] * gens[i]."""
    k = len(gens)
    out = [ProjMap.identity(gens[0].ambient)]
    index = {out[0].canonical_key(): 0}
    paths = [(0,) * k]
    step = []
    relations = []  # kept in echelon form, <= k rows
    for g, v in zip(out, paths):  # both grow as the queue is read
        row = []
        for i, h in enumerate(gens):
            gh = g.compose(h)
            w = v[:i] + (v[i] + 1,) + v[i + 1:]
            key = gh.canonical_key()
            if key in index:
                relations = _echelon(relations + [[a - b for a, b in zip(w, paths[index[key]])]])
            else:
                assert len(out) < cap and gh.degree_profile() <= DEGREE_CAP
                index[key] = len(out)
                out.append(gh)
                paths.append(w)
            row.append(index[key])
        step.append(row)
    inv = tuple(d for d in smith_diagonal(relations + [[0] * k] * (k - len(relations))) if d != 1)
    return out, (inv if prod(inv) == len(out) else None), step  # |G^ab| = |G| iff G is abelian


def _bfs_order(elements, step, i, order_cap, degree_cap):
    """The order of gens[i], walking the i-edges of the table from the identity."""
    j = step[0][i]
    for k in range(1, order_cap + 1):
        if j == 0:
            return k
        if elements[j].degree_profile() > degree_cap:
            return OVER_CAP
        j = step[j][i]
    return OVER_CAP


def test_closure_matches_breadth_first_oracle():
    # Orders at every cap pair on cs24 and zeta8; elsewhere the true orders,
    # which are at most |G| <= 128.
    h, (g,) = _cs24()[0], _zeta8()
    g2 = g.compose(g)
    grid = list(itertools.product(range(1, 10), (1, 2, 3))) + [(129, DEGREE_CAP)]
    cases = [(_cs24(), grid), (_zeta8(), grid)]
    cases += [(row.generators, [(129, DEGREE_CAP)]) for row in load_bundled_corpus()]
    cases += [([diagonal(P3, s) for s in scalars], [(129, DEGREE_CAP)])
              for scalars, _ in _diagonal_groups()]
    cases += [(gens, [(129, DEGREE_CAP)]) for gens in (
        [h, h],  # a repeated generator
        [ProjMap.identity(P2), h],  # the identity as a generator
        [h, h.compose(h)],  # t = 1 with a nonzero carry
        [g2.compose(g2), g2, g],  # carries that carry again
    )]
    for gens, caps in cases:
        closure = group_closure(gens, cap=128)
        elements, invariants, step = _bfs_closure(gens, cap=128)
        assert {e.canonical_key() for e in closure} == {e.canonical_key() for e in elements}
        assert (len(closure), closure.invariants) == (len(elements), invariants)
        for i, (order_cap, degree_cap) in itertools.product(range(len(gens)), caps):
            assert closure.order(i, order_cap, degree_cap) == \
                _bfs_order(elements, step, i, order_cap, degree_cap), (i, order_cap, degree_cap)


def _plain_gcd_many(polys):
    """The gcd by the pseudo-remainder sequence alone, without the mod-p
    certificate or the dehomogenization."""
    return reduce(multi_gcd, polys, MultiPoly.zero(polys[0].vars))


def _gcd_reduce_by_gcd_many(ambient, comps):
    out = list(comps)
    for lo, hi in ambient.block_slices():
        block = out[lo:hi]
        g = _plain_gcd_many([c for c in block if not c.is_zero()])
        if not g.is_constant():
            out[lo:hi] = [c.exact_div(g) if not c.is_zero() else c for c in block]
    return tuple(out)


def _random_form(rng, vars, grading, degree, n):
    """A nonzero form over Q(zeta_n) of the given degree in each grading."""
    monos = [e for e in itertools.product(range(max(degree) + 1), repeat=len(vars))
             if all(sum(map(mul, g, e)) == d for g, d in zip(grading, degree))]
    terms = {}
    for e in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
        terms[e] = rng.choice((1, -1, 2, 3))
        if n > 1:
            terms[e] += rng.choice((0, 1, -2)) * CycloNumber.zeta(n)
    return MultiPoly(vars, terms)


def test_gcd_reduce_shortcut_matches_gcd_many():
    x, y, z = xyz()
    zero = MultiPoly.zero(P2.vars)
    one, two = (MultiPoly.constant(P2.vars, c) for c in (1, 2))
    assert _gcd_reduce(P2, (x + y, 2 * x + 2 * y, zero)) == (one, two, zero)
    rng = random.Random(77)
    reduced = 0
    for ambient in (P2, P1xP1, WP2111, WP3112):
        vars = ambient.vars
        # one grading per input factor: its weights on its slice, 0 elsewhere
        grading = [(0,) * lo + ws + (0,) * (len(vars) - hi)
                   for (ws, _), (lo, hi) in zip(ambient.blocks, ambient.block_slices())]
        ts = [MultiPoly.variable(vars, vs[ws.index(1)]) for ws, vs in ambient.blocks]
        for trial in range(60):
            n = 3 if trial % 4 == 3 else 1
            comps = []
            for lo, hi in ambient.block_slices():
                common = _random_form(rng, vars, grading, [rng.choice((0, 1, 1, 2)) for _ in ts], n)
                for t in ts:  # common factors that are powers of each t_j
                    common = common * t ** rng.choice((0, 0, 1, 2))
                block = [common * _random_form(rng, vars, grading,
                                               [rng.choice((0, 1, 1, 2)) for _ in ts], n)
                         if rng.random() < 0.8 else MultiPoly.zero(vars) for _ in range(hi - lo)]
                if all(c.is_zero() for c in block):
                    block[0] = common
                comps.extend(block)
            got = _gcd_reduce(ambient, tuple(comps))
            want = _gcd_reduce_by_gcd_many(ambient, tuple(comps))
            assert got == want and [str(c) for c in got] == [str(c) for c in want], comps
            reduced += got != tuple(comps)
    assert reduced > 20  # blocks with a nonconstant gcd


def _pivot_coeffs(f):
    """The leading coefficient of each block's first nonzero weight-one component."""
    out = []
    for (ws, _), (lo, hi) in zip(f.ambient.blocks, f.ambient.block_slices()):
        block = f.components[lo:hi]
        out.append(next(c for w, c in zip(ws, block) if w == 1 and not c.is_zero()).leading_coeff())
    return out


def _scale_every_block(f):
    """Canonical components as they were always computed: every block is
    scaled by its pivot, including a pivot that is already monic."""
    out = list(f.components)
    slices = f.ambient.block_slices()
    for (ws, _), (lo, hi), lc in zip(f.ambient.blocks, slices, _pivot_coeffs(f)):
        mu = lc.inverse()
        out[lo:hi] = [c.scale(mu**w) for w, c in zip(ws, out[lo:hi])]
    return tuple(out)


def test_canonical_components_match_scaling_every_block():
    rng = random.Random(78)
    monic = []
    for ambient in (P2, P1xP1, WP2111, WP3112):
        vars = ambient.vars
        grading = [(0,) * lo + ws + (0,) * (len(vars) - hi)
                   for (ws, _), (lo, hi) in zip(ambient.blocks, ambient.block_slices())]
        for trial in range(20):
            n = 3 if trial % 2 else 1
            comps = []
            for ws, _ in ambient.blocks:  # a factor's components share its degrees
                deg = [rng.choice((1, 1, 2)) for _ in grading]
                comps += [_random_form(rng, vars, grading, [w * d for d in deg], n) for w in ws]
            f = ProjMap(ambient, comps)
            got, want = f.canonical_components(), _scale_every_block(f)
            assert got == want and [str(c) for c in got] == [str(c) for c in want], comps
            monic += [lc.is_one() for lc in _pivot_coeffs(f)]
    assert any(monic) and not all(monic)


def test_gcd_reduce_of_birational_corpus_products():
    # The real traffic: every product of two generators of each row that
    # is not all degree one, reduced as ProjMap does and by the plain gcd.
    rows = [r for r in load_bundled_corpus() if not all(g.is_degree_one() for g in r.generators)]
    assert len(rows) == 10
    for row in rows:
        for f, g in itertools.product(row.generators, repeat=2):
            images = dict(zip(row.ambient.vars, g.components))
            comps = tuple(c.subs(images) for c in f.components)
            got = _gcd_reduce(row.ambient, comps)
            want = _gcd_reduce_by_gcd_many(row.ambient, comps)
            assert got == want and [str(c) for c in got] == [str(c) for c in want], row.name
            assert f.compose(g).components == got
