import random
from fractions import Fraction
from math import gcd

import pytest

from cremonalab.cyclo import (
    CycloNumber,
    _row_reduce,
    _solve,
    _try_descend,
    cyclo_reduce,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    is_square_constant,
)


def test_cyclo_reduce():
    # zeta_4^2 = -1
    assert cyclo_reduce([0, 0, 1], 4) == -1
    # zeta_3^2 + zeta_3 + 1 = 0
    assert cyclo_reduce([1, 1, 1], 3).is_zero()
    # zeta_8^2 stays the element representing i
    assert cyclo_reduce([0, 0, 1], 8) == CycloNumber.zeta(4)
    assert cyclo_reduce([], 5).is_zero()


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_reduction_examples():
    z4 = CycloNumber.zeta(4)
    assert z4 * z4 == -1
    z3 = CycloNumber.zeta(3)
    assert z3 * z3 + z3 + 1 == 0
    z8 = CycloNumber.zeta(8)
    assert z8**2 == CycloNumber.zeta(4)
    assert CycloNumber.zeta(6) == -CycloNumber.zeta(3) ** 2


def test_zeta_n_is_nth_root():
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 24):
        z = CycloNumber.zeta(n)
        assert z**n == 1
        if n > 1:
            assert z != 1


def _random_element(rng, n, den=3):
    deg = euler_phi(n)
    return CycloNumber(
        n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(deg))
    )


def test_field_axioms_randomized():
    rng = random.Random(20240811)
    for n in (4, 3, 8, 12):
        for _ in range(40):
            a, b, c = (_random_element(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == 1


def test_mixed_conductor_promotion():
    z3 = CycloNumber.zeta(3)
    z4 = CycloNumber.zeta(4)
    prod = z3 * z4
    assert prod.n == 12
    assert prod == CycloNumber.zeta(12) ** 7  # zeta12^4 = zeta3, zeta12^3 = zeta4


def test_deflation():
    z8 = CycloNumber.zeta(8)
    assert (z8**2).deflate().n == 4
    assert (z8**4).deflate().n == 1
    assert (z8 + 1).deflate().n == 8
    # deflation is stable under representation
    a = CycloNumber.zeta(12) ** 4  # = zeta3
    assert a.deflate() == CycloNumber.zeta(3)
    assert hash(a) == hash(CycloNumber.zeta(3))


def _triple(x):
    return x.n, x.num, x.den


def test_canonical_form():
    # den > 0 and gcd(den, *num) = 1 whatever the route, so one value has one
    # (n, num, den) at each conductor.
    rng = random.Random(1811)
    for n in (1, 3, 4, 5, 8, 12):
        for _ in range(30):
            a, b = _random_element(rng, n, den=6), _random_element(rng, n, den=6)
            c = a * 4 - b / 3
            if b:
                assert _triple(a * b / b) == _triple(a)
            for x in (a, b, c, -c, a + b, a * b, c * Fraction(6, 5)):
                assert x.den > 0 and gcd(x.den, *x.num) == 1, _triple(x)
            big = a.promote(4 * n)
            assert _triple(big.deflate()) == _triple(a.deflate())
            assert _triple(big.promote(12 * n)) == _triple(a.promote(12 * n))
    for n in (2, 3, 6, 7, 8, 12):
        assert _triple(CycloNumber.zeta(n) ** n) == _triple(CycloNumber.from_rational(1).promote(n))
        assert _triple((CycloNumber.zeta(n) ** n).deflate()) == (1, (1,), 1)
    assert _triple(CycloNumber(3, (Fraction(2, 4), Fraction(-3, 6)))) == (3, (1, -1), 2)
    assert _triple(CycloNumber(4, (0, 0))) == (4, (0, 0), 1)


def test_descent_matches_a_solve_of_the_embedding():
    # _try_descend reads the cached projection (L, d, K); the reference solves
    # E y = x for the columns E of zeta_n^(j*n/m), j < phi(m), on every call.
    rng = random.Random(3607)
    for n in (4, 8, 9, 12, 15, 16, 20, 21, 24, 36):
        for m in divisors(n)[:-1]:
            cols = [CycloNumber.zeta(n, j * (n // m)).coeffs for j in range(euler_phi(m))]
            seen = set()
            for k in range(12):
                x = _random_element(rng, m, den=5).promote(n)
                if k % 3 == 1:
                    x = x + _random_element(rng, n)
                elif k % 3 == 2:
                    x = x + CycloNumber.zeta(n) * Fraction(1, 7)
                aug = [[col[i] for col in cols] + [xi] for i, xi in enumerate(x.coeffs)]
                y = _solve(aug, len(cols), Fraction(0))
                got = _try_descend(x, m)
                assert (got is None) == (y is None), (n, m, x)
                if y is not None:
                    assert _triple(got) == _triple(CycloNumber(m, y))
                seen.add(y is None)
            assert seen == {True, False}, (n, m)


def test_square_constants_rational():
    assert is_square_constant(CycloNumber.from_rational(4)) is True
    assert is_square_constant(CycloNumber.from_rational(2)) is False
    assert is_square_constant(CycloNumber.from_rational(Fraction(9, 4))) is True
    with pytest.raises(ValueError):
        is_square_constant(CycloNumber.from_rational(0))


def test_square_constants_gaussian():
    i = CycloNumber.zeta(4)
    assert is_square_constant(2 * i) is True  # (1 + i)^2
    assert is_square_constant(-CycloNumber.from_rational(1), 4) is True
    assert is_square_constant(CycloNumber.from_rational(2), 4) is False
    assert is_square_constant(3 + 4 * i) is True  # (2 + i)^2


def test_square_constants_eisenstein():
    w = CycloNumber.zeta(3)
    assert is_square_constant(CycloNumber.from_rational(-3), 3) is True
    assert is_square_constant(w) is True  # (w^2)^2
    assert is_square_constant(CycloNumber.from_rational(5), 3) is False


def test_square_constants_indeterminate_and_field_dependence():
    z8 = CycloNumber.zeta(8)
    assert is_square_constant(z8 + 1) is None
    # 2 is a square in Q(zeta_8) but the library will not claim either way
    assert is_square_constant(CycloNumber.from_rational(2), 8) is None
    # 4 stays recognizable in any field
    assert is_square_constant(CycloNumber.from_rational(4), 8) is True
    # -1 depends on the field
    assert is_square_constant(CycloNumber.from_rational(-1)) is False
    assert is_square_constant(CycloNumber.from_rational(-1), 4) is True


def test_square_default_field_is_the_smallest_holding_the_value():
    # -1 stored over Q(zeta_8) still lies in Q, where it is not a square
    minus_one = CycloNumber.from_rational(-1).promote(8)
    assert minus_one.n == 8
    assert is_square_constant(minus_one) is False
    assert is_square_constant(minus_one, 8) is True
    # -i stored over Q(zeta_8) lies in Q(i), where it is not a square
    assert is_square_constant(-CycloNumber.zeta(8, 2)) is False


def test_square_randomized_roundtrip():
    rng = random.Random(7)
    for n in (1, 3, 4):
        for _ in range(30):
            a = _random_element(rng, n)
            if a.is_zero():
                continue
            sq = a * a
            assert is_square_constant(sq, n if n > 1 else None) is True


def test_row_reduce_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4420)
    entries = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    solvable_seen = set()
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[Fraction(rng.choice(entries)) for _ in range(n)] for _ in range(m)]
        if m > 2 and rng.random() < 0.5:  # force a dependent row
            a[-1] = [x + 2 * y for x, y in zip(a[0], a[1])]
        b = [Fraction(rng.choice(entries)) for _ in range(m)]
        sa = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in a])
        sb = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b])
        assert len(_row_reduce(a, n)[1]) == sa.rank()
        try:
            sa.gauss_jordan_solve(sb)
            solvable = True
        except ValueError:
            solvable = False
        y = _solve([row + [bi] for row, bi in zip(a, b)], n, Fraction(0))
        assert (y is not None) == solvable
        if y is not None:
            assert all(sum(r * v for r, v in zip(row, y)) == bi for row, bi in zip(a, b))
        solvable_seen.add(solvable)
    assert solvable_seen == {True, False}


def _sympy_poly(sympy, t, c):
    """c as a polynomial in t = zeta_n over QQ."""
    return sympy.Poly([sympy.Rational(q.numerator, q.denominator) for q in reversed(c.coeffs)],
                      t, domain="QQ")


def test_field_operations_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(5331)
    for n in (3, 4, 8, 12, 1, 5, 7, 9, 16, 24):
        phi = sympy.Poly(sympy.cyclotomic_poly(n, t), t, domain="QQ")

        def reduced(p):
            coeffs = [Fraction(int(q.p), int(q.q)) for q in reversed(p.rem(phi).all_coeffs())]
            return coeffs + [Fraction(0)] * (euler_phi(n) - len(coeffs))

        for k in range(50):
            a = _random_element(rng, n, den=1 if k % 5 == 0 else 3)  # some integral
            b = _random_element(rng, n)
            pa, pb = _sympy_poly(sympy, t, a), _sympy_poly(sympy, t, b)
            assert list((a + b).coeffs) == reduced(pa + pb)
            assert list((a * b).coeffs) == reduced(pa * pb)
            if not a.is_zero():
                assert list(a.inverse().coeffs) == reduced(sympy.invert(pa, phi))


def test_square_test_matches_sympy():
    # c is a square in K exactly when t^2 - c has a linear factor over K.
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    zetas = {1: sympy.Integer(1), 3: (sympy.sqrt(-3) - 1) / 2, 4: sympy.I}
    extensions = {1: None, 3: sympy.sqrt(-3), 4: sympy.I}
    rng = random.Random(8861)
    cases = []
    for _ in range(20):
        q = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        cases += [(q, 1), (-q, 1), (q * q, 1), (-3 * q * q, rng.choice((1, 3))),
                  (-q * q, rng.choice((1, 4)))]
    for n in (3, 4):
        for _ in range(25):
            a = _random_element(rng, n)
            cases.append((a * a if rng.random() < 0.5 else a, n))
    for c, n in cases:
        c = CycloNumber.coerce(c)
        if c.is_zero():
            continue
        value = sum(sympy.Rational(q.numerator, q.denominator) * zetas[n] ** k
                    for k, q in enumerate(c.promote(n).coeffs))
        kwargs = {"extension": extensions[n]} if extensions[n] is not None else {}
        _, factors = sympy.factor_list(sympy.expand(t**2 - value), t, **kwargs)
        expected = any(sympy.degree(f, t) == 1 for f, _ in factors)
        got = is_square_constant(c, n)
        assert got is expected, (c, n)
