import itertools
import random

import pytest

from cremonalab.cyclo import CycloNumber
from cremonalab.poly import RatFunc, UniPoly, poly_gcd, squarefree_part


def x():
    return UniPoly.x()


def test_gcd_examples():
    assert poly_gcd(x() ** 4 - 1, x() ** 2 - 1) == x() ** 2 - 1
    assert poly_gcd(x(), x() + 1).is_one()
    i = CycloNumber.zeta(4)
    assert poly_gcd(x() ** 2 + 1, x() - i) == (x() - i).monic()
    assert poly_gcd(UniPoly.zero(), UniPoly.zero()).is_zero()
    assert poly_gcd(UniPoly.zero(), 3 * (x() + 2)) == (x() + 2).monic()


def test_gcd_divides_both():
    rng = random.Random(99)
    for _ in range(60):
        a = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        b = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        if a.is_zero() and b.is_zero():
            continue
        g = poly_gcd(a, b)
        if not a.is_zero():
            assert (a % g).is_zero()
        if not b.is_zero():
            assert (b % g).is_zero()


def _all_monic_polys(max_deg):
    # every monic polynomial of degree <= max_deg with coefficients in {-1,0,1}
    for deg in range(0, max_deg + 1):
        for coeffs in itertools.product((-1, 0, 1), repeat=deg):
            yield UniPoly(list(coeffs) + [1])


def test_gcd_is_greatest_by_brute_force():
    # any common divisor (from a small brute-force pool) divides the gcd
    rng = random.Random(5)
    pool = list(_all_monic_polys(2))
    for _ in range(25):
        a = UniPoly([rng.randint(-2, 2) for _ in range(4)] + [1])
        b = UniPoly([rng.randint(-2, 2) for _ in range(3)] + [1])
        g = poly_gcd(a, b)
        for d in pool:
            if (a % d).is_zero() and (b % d).is_zero():
                assert (g % d).is_zero(), f"{d} divides both but not gcd {g}"


def test_squarefree_examples():
    d = squarefree_part((x() - 1) ** 2 * (x() + 2))
    assert d.radical == x() + 2
    assert d.constant == 1
    d = squarefree_part(x() ** 2)
    assert d.radical.is_one() and d.constant == 1
    d = squarefree_part(x() ** 4 - 1)
    assert d.radical == x() ** 4 - 1
    with pytest.raises(ValueError):
        squarefree_part(UniPoly.zero())


def test_squarefree_cofactor_is_square():
    rng = random.Random(31)
    for _ in range(40):
        factors = [UniPoly([rng.randint(-2, 2), 1]) for _ in range(rng.randint(1, 4))]
        p = UniPoly.constant(rng.choice([1, 2, -3]))
        for f in factors:
            p = p * f ** rng.randint(1, 3)
        d = squarefree_part(p)
        cofactor = p.exact_div(d.radical * d.constant)
        # cofactor is a perfect square: its own odd-multiplicity radical is 1
        assert squarefree_part(cofactor).radical.is_one()
        assert d.constant * d.radical * d.square_root**2 == p


def test_ratfunc_reduction_and_ops():
    f = RatFunc(x() ** 2 - 1, x() - 1)
    assert f == RatFunc(x() + 1)
    assert f.den.is_one()
    g = RatFunc(x(), x() ** 2 + 1)
    assert (g + g) == RatFunc(2 * x(), x() ** 2 + 1)
    assert (g * g.inverse()) == RatFunc.coerce(1)
    with pytest.raises(ZeroDivisionError):
        RatFunc(x(), UniPoly.zero())


def _random_poly(rng, n, degree):
    def coeff():
        c = CycloNumber.from_rational(rng.randint(-2, 3))
        return c if n == 1 else c + rng.randint(-2, 2) * CycloNumber.zeta(4)
    return UniPoly([coeff() for _ in range(degree + 1)])


def test_gcd_and_squarefree_match_sympy():
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    K = sympy.QQ.algebraic_field(sympy.I)  # rational inputs have the same gcd and sqf over Q

    def number(c):  # a + b*zeta(4) as a + b*I
        a, b = (sympy.QQ(q.numerator, q.denominator) for q in c.promote(4).coeffs)
        return K([b, a])

    def sp(p):
        return sympy.Poly.from_list([number(c) for c in reversed(p.coeffs)], X, domain=K)

    rng = random.Random(2718)
    for n in (1, 4):
        for _ in range(20):
            common = _random_poly(rng, n, rng.randint(0, 2))
            a = common * _random_poly(rng, n, rng.randint(0, 3))
            b = common * _random_poly(rng, n, rng.randint(0, 3))
            if a.is_zero() or b.is_zero():
                continue
            assert sp(a * b) == sp(a) * sp(b)
            for num, den in ((a, b), (b, a)):
                assert tuple(map(sp, num.divmod(den))) == sp(num).div(sp(den))
            assert sp(poly_gcd(a, b)) == sp(a).gcd(sp(b)).monic()
            p = a * common**2  # common divides p three times
            dec = squarefree_part(p)
            lead, factors = sp(p).sqf_list()
            radical = root = sp(UniPoly.constant(1))
            for f, k in factors:
                radical = radical * f ** (k % 2)
                root = root * f ** (k // 2)
            assert sp(dec.radical) == radical.monic()
            assert sp(dec.square_root) == root.monic()
            assert number(dec.constant) == K.convert(lead)


def test_compose_poly():
    p = x() ** 2 + 1
    q = x() ** 3
    assert p.compose_poly(q) == x() ** 6 + 1
    assert p.compose_poly(-q) == x() ** 6 + 1
    assert (x() + 1).compose_poly(x() - 1) == x()
