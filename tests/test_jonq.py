import random

import pytest

from cremonalab.cyclo import CycloNumber
from cremonalab.jonq import (
    JonqElement,
    build_root_odd,
    det_class,
    fourth_root_example,
    is_involution,
    is_twisting,
    order_j,
    ramification_data,
    sigma_ab,
    square_class,
    to_bihomogeneous,
)
from cremonalab.maps import P1xP1, ProjMap
from cremonalab.multipoly import MultiPoly
from cremonalab.poly import RatFunc, UniPoly


def x():
    return UniPoly.x()


def rf(p):
    return RatFunc.coerce(p)


def test_sigma_is_involution():
    s = JonqElement.sigma(rf(x()))
    assert is_involution(s)
    assert s.compose(s).is_identity()
    assert order_j(s) == 2


def test_is_involution_matches_composition():
    # the trace test holds for a trivial base only; an oracle composes e o e
    def oracle(e):
        return not e.is_identity() and e.compose(e).is_identity()

    z3 = CycloNumber.zeta(3)
    cases = [
        JonqElement.identity(),
        JonqElement(((rf(0), rf(x())), (rf(1), rf(0))), ((z3, 0), (0, 1))),  # base of order 3
        JonqElement(((rf(0), rf(x())), (rf(1), rf(0))), ((-1, 0), (0, 1))),  # sigma_x, x -> -x
        JonqElement(((rf(0), rf(x() ** 2 + 1)), (rf(1), rf(0))), ((-1, 0), (0, 1))),
    ]
    assert [is_involution(e) for e in cases] == [False, False, False, True]
    rng = random.Random(23)
    for unit in (1, CycloNumber.zeta(4), z3):
        scalars = [0, 1, -1, 2, unit, -unit]
        bases = [None, ((-1, 0), (0, 1)), ((0, 1), (1, 0)), ((unit, 0), (0, 1)), ((1, 1), (0, 1))]

        def rp():
            return rf(UniPoly([CycloNumber.coerce(rng.choice(scalars))
                               for _ in range(rng.randint(1, 3))]))

        for _ in range(40):
            a, b, c = rp(), rp(), rp()
            d = -a if rng.random() < 0.6 else rp()
            if (a * d - b * c).is_zero():
                continue
            cases.append(JonqElement(((a, b), (c, d)), rng.choice(bases)))
    involutions = 0
    for e in cases:
        assert is_involution(e) == oracle(e), e
        involutions += oracle(e)
    assert 10 < involutions < len(cases) - 10


def test_group_axioms_randomized():
    rng = random.Random(61)
    i = CycloNumber.zeta(4)
    pool = [
        JonqElement.sigma(rf(x())),
        JonqElement(((rf(x()), rf(x() ** 2 + 1)), (rf(1), rf(x()))), ((0, 1), (1, 0))),
        JonqElement.base_only(((i, 0), (0, 1))),
        JonqElement(((rf(1), rf(x() + 1)), (rf(0), rf(1))), ((1, 1), (0, 1))),
    ]
    ident = JonqElement.identity()
    for _ in range(25):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert a.compose(b.compose(c)) == a.compose(b).compose(c)
        assert a.compose(ident) == a and ident.compose(a) == a
        assert a.compose(a.inverse()).is_identity()


def test_compose_substitutes_the_base():
    # x -> 1/x fixes x/(x^2+1), and x -> x+1 sends x+1 to x+2
    g = RatFunc(x(), x() ** 2 + 1)
    flip = ((0, 1), (1, 0))
    fixed = JonqElement(((g, 0), (0, 1))).compose(JonqElement.base_only(flip))
    assert fixed == JonqElement(((g, 0), (0, 1)), flip)
    shift = ((1, 1), (0, 1))
    moved = JonqElement(((rf(x() + 1), 0), (0, 1))).compose(JonqElement.base_only(shift))
    assert moved.m[0][0] == x() + 2
    assert moved == JonqElement(((rf(x() + 2), 0), (0, 1)), shift)


def test_compose_and_inverse_match_sympy():
    sympy = pytest.importorskip("sympy")
    K = sympy.QQ.algebraic_field(sympy.I)
    R, u = sympy.ring("t", K)
    F, t = sympy.field("t", K)
    i = CycloNumber.zeta(4)

    def number(c):  # a + b*zeta(4) as a + b*I
        a, b = (sympy.QQ(q.numerator, q.denominator) for q in c.promote(4).coeffs)
        return K([b, a])

    def value(p, at):
        return sum((number(c) * at**k for k, c in enumerate(p.coeffs)), at * 0)

    # 2x2 matrices as lists [m00, m01, m10, m11]
    def fiber(e, at=t):
        return [value(p, at) for row in e.m for p in row]

    def base(e):
        return [number(c) for row in e.beta for c in row]

    def mul(a, b):
        return [a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]]

    def adjugate(a):
        return [a[3], -a[1], -a[2], a[0]]

    def same(got, expected):  # equal up to a scalar: each divided by its pivot
        gp, ep = (next(e for e in reversed(v) if e) for v in (got, expected))
        return all(not (g / gp - e / ep) for g, e in zip(got, expected))

    def mobius(b):
        return (b[0] * t + b[1]) / (b[2] * t + b[3])

    def canonical(e):  # primitive with a monic pivot
        m = [value(p, u) for row in e.m for p in row]
        content = m[0]
        for p in m[1:]:
            content = content.gcd(p)
        return content == R.one and next(p for p in reversed(m) if p).LC == K.one

    rng = random.Random(1729)

    def rp():
        return UniPoly([rng.choice((-2, -1, 0, 1, 2, i, -i + 1)) for _ in range(rng.randint(1, 3))])

    def element():
        base_choice = rng.choice((((1, 0), (0, 1)), ((i, 0), (0, 1)), ((0, 1), (1, 0)),
                                  ((1, 1), (0, 1)), ((2, i), (1, 1))))
        while True:
            a, b, c, d, den = rp(), rp(), rp(), rp(), rp()
            if not den.is_zero() and not (a * d * den - b * c).is_zero():
                return JonqElement(((RatFunc(a), RatFunc(b, den)), (RatFunc(c), RatFunc(d))),
                                   base_choice)

    for _ in range(12):
        e1, e2 = element(), element()
        product = e1.compose(e2)
        assert same(fiber(product), mul(fiber(e1, mobius(base(e2))), fiber(e2)))
        assert same(base(product), mul(base(e1), base(e2)))
        assert canonical(product)
        inverse = e1.inverse()
        binv = adjugate(base(e1))
        assert same(fiber(inverse), adjugate(fiber(e1, mobius(binv))))
        assert same(base(inverse), binv)
        assert canonical(inverse)


def test_order_j_stops_on_proven_infinite_order(monkeypatch):
    calls = 0
    compose = JonqElement.compose

    def counted(self, other):
        nonlocal calls
        calls += 1
        if calls > 10:
            raise AssertionError("order_j is still composing")
        return compose(self, other)

    def order(e):
        nonlocal calls
        calls = 0
        return order_j(e)

    monkeypatch.setattr(JonqElement, "compose", counted)
    # tr^2/det = -4x^2 is not constant, so no power is the identity
    assert order(JonqElement(((rf(x()), rf(x() ** 2 + 1)), (rf(1), rf(x()))))) is None
    # the base x -> -x has order 2; the square diag(-x^2, 1) has nonconstant tr^2/det
    assert order(JonqElement(((rf(x()), rf(0)), (rf(0), rf(1))), ((-1, 0), (0, 1)))) is None
    assert order(JonqElement.base_only(((0, 1), (1, 0)))) == 2
    # the base x -> x + 1 over Q: a finite base order would be at most 8 phi(1)^2 = 8
    assert order(JonqElement.base_only(((1, 1), (0, 1)))) is None
    # unipotent fibers over Q: tr^2/det = 4 is constant, and a finite order
    # would again be at most 8 phi(1)^2 = 8
    assert order(JonqElement(((rf(1), rf(x())), (rf(0), rf(1))))) is None
    assert order(JonqElement(((rf(1), rf(1)), (rf(0), rf(1))))) is None


def test_fourth_root_example():
    ex = fourth_root_example()
    a = ex["alpha"]
    a2 = a.compose(a)
    assert a2 == ex["alpha2"]
    a4 = a2.compose(a2)
    assert a4 == ex["alpha4"]
    assert order_j(a) == 8
    delta = det_class(a4)
    assert delta.radical == x() ** 4 - 1
    verdict = is_twisting(a4)
    assert verdict.absolute
    ram = ramification_data(a4)
    assert ram.branch_points == 4 and ram.genus == 1


def test_det_class_examples():
    s01 = sigma_ab([0], [1])
    d = det_class(s01)
    assert d.radical == x() * (x() - 1)
    assert d.constant == -1
    d1 = det_class(JonqElement.sigma(rf(1)))
    assert d1.radical.is_one() and d1.constant == -1
    assert d1.square is False
    d4 = det_class(JonqElement.sigma(rf(4)))
    assert d4.radical.is_one() and d4.constant == -4
    assert d4.square is False
    assert d4.same_class(d1) is True  # -4 = -1 * 2^2


def test_det_class_does_not_depend_on_how_the_element_was_computed():
    # alpha^4 by composition keeps its constants over Q(zeta_8); it equals
    # sigma_{x^4 - 1}, whose determinant constant -1 is not a square in Q
    ex = fourth_root_example()
    a2 = ex["alpha"].compose(ex["alpha"])
    a4 = a2.compose(a2)
    assert a4 == ex["alpha4"]
    composed, direct = det_class(a4), det_class(ex["alpha4"])
    assert composed.field_conductor == direct.field_conductor == 1
    assert composed.square is False and direct.square is False


def test_det_class_requires_trivial_base():
    i = CycloNumber.zeta(4)
    e = JonqElement(((rf(0), rf(x())), (rf(1), rf(0))), ((i, 0), (0, 1)))
    with pytest.raises(ValueError):
        det_class(e)


def test_twisting_verdicts():
    assert is_twisting(JonqElement.sigma(rf(x()))).absolute is True
    v = is_twisting(JonqElement.sigma(rf(1)))
    assert repr(JonqElement.sigma(rf(1))) == (
        "JonqElement(m=[[0, 1], [1, 0]], beta=[[1, 0], [0, 1]])")
    assert v.absolute is False and v.effective is True  # -1 not a square in Q
    v4 = is_twisting(JonqElement.sigma(rf(1)), field_conductor=4)
    assert v4.absolute is False and v4.effective is False
    vx2 = is_twisting(JonqElement.sigma(rf(x() ** 2)), field_conductor=4)
    assert vx2.absolute is False and vx2.effective is False
    with pytest.raises(ValueError):
        is_twisting(JonqElement.sigma(rf(x())).compose(JonqElement.sigma(rf(1))))


def test_ramification_examples():
    r = ramification_data(JonqElement.sigma(rf(x())))
    assert r.branch_points == 2 and r.genus == 0  # roots 0 and infinity
    g = (x() ** 2 - 1) * (x() ** 2 - 4) * (x() ** 2 - 9)
    r = ramification_data(JonqElement.sigma(rf(g)))
    assert r.branch_points == 6 and r.genus == 2
    with pytest.raises(ValueError):
        ramification_data(JonqElement.sigma(rf(1)))


def test_normalize_involution():
    # An involution e = (A, 1) is conjugate to sigma_g, g = -det(A): tr A = 0
    # gives A^2 = -det(A), so with p = (v | A v) for a non-eigenvector v,
    # p sigma_g = e p.
    h, g = rf(x() + 1), rf(x())
    cases = [
        (JonqElement.sigma(rf(x())), (1, 0)),  # p is the identity
        (JonqElement(((h, -g), (rf(1), -h))), (1, 0)),
        (JonqElement(((rf(1), rf(0)), (rf(0), rf(-1)))), (1, 1)),  # (1, 0) is an eigenvector
    ]
    for e, v in cases:
        assert is_involution(e)
        m = e.m
        p = JonqElement(((v[0], m[0][0] * v[0] + m[0][1] * v[1]),
                         (v[1], m[1][0] * v[0] + m[1][1] * v[1])))
        assert p.compose(JonqElement.sigma(-e.det())) == e.compose(p)
    dets = [-e.det() for e, _ in cases]
    assert dets[0] == x()
    assert square_class(dets[1]).radical == square_class(g - h * h).radical
    assert square_class(dets[2]).radical.is_one()


def test_det_class_conjugation_invariance():
    rng = random.Random(77)
    targets = [
        JonqElement.sigma(rf(x())),
        sigma_ab([0], [1]),
        JonqElement.sigma(rf(x() ** 3 - x())),
    ]
    def random_conjugator():
        def rp():
            return UniPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        while True:
            a, b, c, d = rp(), rp(), rp(), rp()
            det = a * d - b * c
            if not det.is_zero():
                return JonqElement(((RatFunc(a), RatFunc(b)), (RatFunc(c), RatFunc(d))))
    for _ in range(100):
        e = targets[rng.randrange(len(targets))]
        conj = random_conjugator()
        conjugated = conj.compose(e).compose(conj.inverse())
        d1 = det_class(e)
        d2 = det_class(conjugated)
        assert d1.radical == d2.radical
        assert d1.same_class(d2) is True


def test_same_class_tests_in_the_smallest_common_field():
    # Q(zeta_6) and Q(zeta_10) meet in Q(zeta_30), which does not contain i,
    # and whose squares are not decided; Q(zeta_60) would contain i.
    assert square_class(rf(-x()), 6).same_class(square_class(rf(x()), 10)) is None


def test_same_class_for_rational_g_from_conjugate_roots():
    # g = 2(x - 2w)(x - 2w^2) = 2x^2 + 4x + 8 with w = zeta_3: its
    # coefficients are rational, though built in Q(zeta_3).
    w = CycloNumber.zeta(3)
    g = UniPoly.from_roots([2 * w, 2 * w * w]) * 2
    sigma = JonqElement.sigma(rf(g))
    p = JonqElement(((rf(-(x() + 1)), rf(1)), (rf(-1), rf(x() + 1))))
    conj = p.compose(sigma).compose(p.inverse())
    assert det_class(sigma).same_class(det_class(conj)) is True


def test_squares_are_never_twisting():
    # roots of twisting involutions cannot live in the fiber group: the
    # determinant of a square is a square
    rng = random.Random(88)
    found_involution = False
    for _ in range(200):
        def rp():
            return UniPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        a, b, c, d = rp(), rp(), rp(), rp()
        det = a * d - b * c
        if det.is_zero():
            continue
        r = JonqElement(((RatFunc(a), RatFunc(b)), (RatFunc(c), RatFunc(d))))
        sq = r.compose(r)
        dsq = det_class(sq)
        assert dsq.radical.is_one()
        if is_involution(sq):
            found_involution = True
            assert is_twisting(sq).absolute is False
    assert found_involution


def test_odd_roots():
    for n, g in ((1, rf(x())), (3, rf(x() + 1))):
        res = build_root_odd(n, g)
        assert not res.degenerate
        assert res.square_verified and res.final_verified
        assert order_j(res.alpha, cap=4 * n + 1) == 4 * n
    r1 = build_root_odd(1, rf(x()))
    assert r1.alpha_squared == JonqElement.sigma(rf(-(x() ** 2)))
    r3 = build_root_odd(3, rf(x() + 1))
    assert r3.sigma_target == JonqElement.sigma(rf((x() ** 3 + 1) * (1 - x() ** 3)))


def test_odd_roots_degenerate():
    res = build_root_odd(3, rf(1))
    assert res.degenerate and res.alpha is None and res.final_verified
    assert res.sigma_target == JonqElement.sigma(rf(1))
    assert is_twisting(res.sigma_target).absolute is False
    res5 = build_root_odd(5, rf(x() ** 2 + 2))
    assert res5.degenerate and res5.final_verified
    with pytest.raises(ValueError):
        build_root_odd(2, rf(x()))


def test_to_bihomogeneous_normal_form():
    s01 = sigma_ab([0], [1])
    m = to_bihomogeneous(s01)
    vars4 = P1xP1.vars
    x1, x2, y1, y2 = (MultiPoly.variable(vars4, n) for n in vars4)
    assert m == ProjMap(P1xP1, [x1, x2, y2 * (x1 - x2), y1 * x1])
    assert to_bihomogeneous(JonqElement.identity()) == ProjMap.identity(P1xP1)


def test_to_bihomogeneous_homomorphism_randomized():
    rng = random.Random(123)
    i = CycloNumber.zeta(4)
    pool = [
        sigma_ab([0], [1]),
        JonqElement.sigma(rf(x())),
        JonqElement(((rf(x()), rf(x() ** 2 + 1)), (rf(1), rf(x()))), ((0, 1), (1, 0))),
        JonqElement.base_only(((i, 0), (0, 1))),
        JonqElement(((rf(1), rf(x())), (rf(0), rf(1))), ((1, 2), (0, 1))),
        JonqElement(((rf(x() + 1), rf(0)), (rf(0), rf(1))), ((-1, 0), (0, 1))),
    ]
    for _ in range(100):
        e1 = pool[rng.randrange(len(pool))]
        e2 = pool[rng.randrange(len(pool))]
        lhs = to_bihomogeneous(e1.compose(e2))
        rhs = to_bihomogeneous(e1).compose(to_bihomogeneous(e2))
        assert lhs == rhs


def test_to_bihomogeneous_injective_on_pool():
    pool = [
        JonqElement.identity(),
        sigma_ab([0], [1]),
        JonqElement.sigma(rf(x())),
        JonqElement.sigma(rf(x() + 1)),
        JonqElement.base_only(((0, 1), (1, 0))),
    ]
    images = [to_bihomogeneous(e) for e in pool]
    for a in range(len(pool)):
        for b in range(a + 1, len(pool)):
            assert images[a] != images[b]


def test_square_class_group():
    # sigma_g and tau = ((h, -g), (1, -h)) commute; the determinant classes of
    # sigma_g, tau and sigma_g tau generate a subgroup of k(x)*/k(x)*^2 of
    # order 4 when all three are nontrivial, 2 when exactly two are.
    cases = [
        (x(), x() + 1, [True, True, True]),  # radicals x and x^2+x+1: order 4
        (x() ** 2 + 4, x(), [True, False, True]),  # det(tau) = 4, a square: order 2
        (UniPoly.constant(-1), UniPoly.constant(2), [False, True, True]),  # -g = 1, -5
    ]
    for g, h, nontrivial in cases:
        sigma = JonqElement.sigma(g)
        tau = JonqElement(((h, -g), (1, -h)))
        assert sigma.compose(tau) == tau.compose(sigma)
        classes = [det_class(e) for e in (sigma, tau, sigma.compose(tau))]
        assert [c.is_trivial_effective() is False for c in classes] == nontrivial
