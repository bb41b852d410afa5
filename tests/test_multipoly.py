import itertools
import random
from fractions import Fraction

import pytest

from cremonalab.cyclo import CycloNumber
from cremonalab.multipoly import MultiPoly, _coprime_mod_p, _prime_root, gcd_many, multi_gcd

VARS = ("x", "y", "z")


def _vars():
    return tuple(MultiPoly.variable(VARS, v) for v in VARS)


def test_basic_arithmetic():
    x, y, z = _vars()
    p = (x + y) * (x - y)
    assert p == x**2 - y**2
    assert (p - p).is_zero()
    assert p.total_degree() == 2
    assert (x * y * z).coeff((1, 1, 1)) == 1


def test_weighted_homogeneity():
    w, x, y, z = (MultiPoly.variable(("w", "x", "y", "z"), n) for n in ("w", "x", "y", "z"))
    surface = w**2 - (z**3 + x**4 * z + y**6)
    assert surface.is_weighted_homogeneous((3, 1, 1, 2))
    assert surface.weighted_degree((3, 1, 1, 2)) == 6
    assert not (w + x).is_weighted_homogeneous((3, 1, 1, 2))


def test_substitution():
    x, y, z = _vars()
    f = x**2 + y * z
    g = f.subs({"x": y, "y": z, "z": x})
    assert g == y**2 + z * x
    # substitution composes
    h = g.subs({"x": y, "y": z, "z": x})
    assert h == z**2 + x * y


def _to_sympy(sympy, p):
    """p as a sympy expression in VARS, reading zeta_3 as (sqrt(-3) - 1)/2."""
    zeta3 = (sympy.sqrt(-3) - 1) / 2
    syms = sympy.symbols(VARS)

    def number(c):  # a + b*zeta_3
        a, b = (sympy.Rational(q.numerator, q.denominator) for q in c.promote(3).coeffs)
        return a + b * zeta3

    return sum(number(c) * sympy.Mul(*(v**k for v, k in zip(syms, e)))
               for e, c in p.terms.items())


def _random_poly(rng, n, most):
    """A nonzero poly in VARS over Q(zeta_n), n = 1 or 3, of at most `most` terms."""
    terms = {}
    for _ in range(rng.randint(1, most)):
        e = tuple(rng.randint(0, 2) for _ in VARS)
        terms[e] = rng.choice([1, -1, 2, Fraction(-3, 2)])
        if n > 1:
            terms[e] += rng.choice([0, 1, -2]) * CycloNumber.zeta(n)
    return MultiPoly(VARS, terms)


def test_substitution_matches_sympy():
    # Seeded polys over Q and Q(zeta_3) with constant terms, a variable left
    # without an image, and images whose terms cancel, against sympy.
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(VARS)
    x, y, z = _vars()
    rng = random.Random(515)
    cases = [((x + y) ** 2 - z**2 + 3, {"x": z - y}),  # all but the constant cancels
             (x * y + x - 5, {"x": y.scale(Fraction(1, 2)), "y": z, "z": x})]
    for trial in range(40):
        n = 3 if trial % 2 else 1
        images = {v: _random_poly(rng, n, 3) for v in VARS if rng.random() < 0.7}
        if len(images) > 1 and trial % 5 == 0:  # an image that cancels another's terms
            a, b = rng.sample(sorted(images), 2)
            images[b] = -images[a] + _random_poly(rng, n, 1)
        cases.append((_random_poly(rng, n, 5) + rng.choice([0, 2]), images))
    zeros = 0
    for p, images in cases:
        got = p.subs(images)
        want = sympy.expand(_to_sympy(sympy, p).subs(
            {syms[VARS.index(v)]: _to_sympy(sympy, q) for v, q in images.items()},
            simultaneous=True))
        assert sympy.expand(_to_sympy(sympy, got) - want) == 0, (p, images)
        zeros += got.is_constant()
    assert zeros  # the first case cancels down to a constant


def test_arithmetic_matches_sympy():
    # +, -, * and exact_div over Q and Q(zeta_3) against sympy, on inputs
    # built to cancel: b = r - a, so a + b = r, and (a + r)(a - r) loses its
    # cross terms.  sympy reads a stored zero as nothing, so every result is
    # also checked for zero coefficients.
    sympy = pytest.importorskip("sympy")

    def check(got, want):
        assert all(not c.is_zero() for c in got.terms.values()), got
        assert sympy.expand(_to_sympy(sympy, got) - want) == 0, got

    rng = random.Random(626)
    cancelled = 0
    for trial in range(30):
        n = 3 if trial % 2 else 1
        a, r, q = (_random_poly(rng, n, most) for most in (5, 3, 3))
        b = r - a
        A, R = (sympy.expand(_to_sympy(sympy, p)) for p in (a, r))
        check(a + b, R)
        check(b - r, -A)
        check(a - a, 0)
        check((a + r) * (a - r), A**2 - R**2)
        check(a * b, A * (R - A))
        check((b * q).exact_div(q), R - A)
        check((a * q - r * q).exact_div(q), A - R)
        cancelled += len((a + b).terms) < len(a.terms) + len(b.terms)
    assert cancelled == 30


def test_exact_division_and_gcd():
    x, y, z = _vars()
    p = (x + y) * (y + z) ** 2
    assert p.exact_div(y + z) == (x + y) * (y + z)
    with pytest.raises(ValueError):
        (x**2 + y).exact_div(x + y)  # x^2 divides, a later remainder term does not
    with pytest.raises(ValueError):
        (x * y + y).exact_div(x.scale(2) + 1)  # a non-monic divisor: y/2 is left
    assert (x.scale(6) - y.scale(3)).exact_div(MultiPoly.constant(VARS, 3)) == x.scale(2) - y
    g = multi_gcd((x + y) * (x + z), (x + y) * (y + z))
    assert g == (x + y).normalized()
    assert gcd_many([x * y, x * z, x * (y + z)]) == x.normalized()
    assert multi_gcd(MultiPoly.zero(VARS), x * y) == (x * y).normalized()


def test_gcd_randomized_products():
    rng = random.Random(17)
    x, y, z = _vars()
    lin = [x + y, x - y, y + z, x + z, x + y + z]
    for _ in range(25):
        common = lin[rng.randrange(len(lin))]
        a = common * lin[rng.randrange(len(lin))]
        b = common * lin[rng.randrange(len(lin))]
        g = multi_gcd(a, b)
        assert g.divides(a) and g.divides(b)
        assert common.divides(g)


def test_gcd_with_cyclotomic_coefficients():
    x, y, z = _vars()
    i = CycloNumber.zeta(4)
    a = (x + y.scale(i)) * (x - y)
    b = (x + y.scale(i)) * (y + z)
    assert multi_gcd(a, b) == (x + y.scale(i)).normalized()


def test_evaluation():
    x, y, z = _vars()
    f = x**3 + 2 * y - z
    assert f.evaluate({"x": 2, "y": 3, "z": 1}) == 13
    i = CycloNumber.zeta(4)
    assert (x**2).evaluate({"x": i, "y": 0, "z": 0}) == -1


def test_string_forms_are_deterministic():
    x, y, z = _vars()
    f = x * y - z**2 + 3
    assert str(f) == str(x * y - z**2 + 3)


# Blocks of the corpus ambients: a variable roster and the gradings each
# block component is homogeneous for.
BLOCKS = [
    (("x", "y", "z"), [(1, 1, 1)]),
    (("x", "y", "z", "w"), [(1, 1, 1, 1)]),
    (("x1", "x2", "y1", "y2"), [(1, 1, 0, 0), (0, 0, 1, 1)]),
    (("w", "x", "y", "z"), [(3, 1, 1, 2)]),
]


def _random_form(rng, roster, grading, degree, free, n):
    """A nonzero form of the given degrees over Q(zeta_n) in the variables free."""
    monos = [
        e for e in itertools.product(range(max(degree) + 1), repeat=len(roster))
        if all(sum(w * k for w, k in zip(g, e)) == d for g, d in zip(grading, degree))
        and all(k == 0 or v in free for v, k in zip(roster, e))
    ]
    terms = {}
    for e in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
        terms[e] = rng.choice([1, -1, 2, 3])
        if n > 1:
            terms[e] += rng.choice([0, 1, -2]) * CycloNumber.zeta(n)
    return MultiPoly(roster, terms)


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.sqrt(-3)
    rng = random.Random(909)
    one_sided = constant_common = 0
    for n, field in ((1, sympy.QQ), (3, sympy.QQ.algebraic_field(s))):

        def sp(p, roster):
            def number(c):  # a + b*zeta_3 = (a - b/2) + (b/2)*sqrt(-3)
                a, b = (sympy.QQ(q.numerator, q.denominator) for q in c.promote(3).coeffs)
                return a if n == 1 else field([b / 2, a - b / 2])

            return sympy.Poly.from_dict({e: number(c) for e, c in p.terms.items()},
                                        *sympy.symbols(roster), domain=field)

        for roster, grading in BLOCKS:
            for trial in range(6):
                # trials 0 and 3 keep the last variable out of the common
                # factor and of b; trial 1 has a constant common factor
                free = set(roster[:-1]) if trial % 3 == 0 else set(roster)
                deg = [rng.randint(1, 2) for _ in grading]
                cdeg = [0] * len(grading) if trial == 1 else [rng.randint(0, 1) for _ in grading]
                common = _random_form(rng, roster, grading, cdeg, free, n)
                a = common * _random_form(rng, roster, grading, deg, set(roster), n)
                b = common * _random_form(rng, roster, grading, deg[::-1], free, n)
                c = common * _random_form(rng, roster, grading, deg, set(roster), n)
                one_sided += a.degree_in(roster[-1]) > 0 and b.degree_in(roster[-1]) <= 0
                constant_common += common.is_constant()
                g = multi_gcd(a, b)
                assert g.leading_coeff() == 1
                assert sp(g, roster).monic() == sp(a, roster).gcd(sp(b, roster)).monic()
                h = gcd_many([a, b, c])
                expected = sp(a, roster).gcd(sp(b, roster)).gcd(sp(c, roster))
                assert sp(h, roster).monic() == expected.monic()
    assert one_sided and constant_common


def test_exact_div_recovers_the_cofactor():
    rng = random.Random(311)
    for n in (1, 3):  # over Q and over Q(zeta_3)
        for roster, grading in BLOCKS:
            for _ in range(4):
                forms = [
                    _random_form(rng, roster, grading, [rng.randint(0, 2) for _ in grading],
                                 set(roster), n)
                    for _ in range(3)
                ]
                p = forms[0] * forms[1] + forms[2]
                q = _random_form(rng, roster, grading, [rng.randint(1, 2) for _ in grading],
                                 set(roster), n)
                assert (p * q).exact_div(q) == p
                with pytest.raises(ValueError):
                    (p * q + 1).exact_div(q)


def test_coprimality_certificate_is_sound():
    # Each case is (g, h1, h2) with h1, h2 coprime: gcd_many must find g in
    # g*h1 and g*h2 whether or not the mod-p certificate may decide.
    x, y, z = _vars()
    p = _prime_root(1)[0]
    w3, w5 = CycloNumber.zeta(3), CycloNumber.zeta(5)
    cases = [
        # deg_x g and deg_y g drop at the certificate's points x = 2, y = 3
        # (variable i goes to i + 2): the leading coefficients vanish there
        ((x - 2) * (y - 3) + 1, x + z, y - z),
        # p divides a denominator; read as 0, 1/p leaves x^2 + y^2 and x*(y + z)
        (x + y.scale(Fraction(1, p)), x + y.scale(p), y + z),
        (x + y.scale(Fraction(2, 3)), x + z.scale(Fraction(3, 2)), y - z),
        (x + y.scale(w3), x + z.scale(w3**2), y - z.scale(w3)),
        (x + y.scale(w5**2) + z.scale(w5), x - z.scale(w5**3), y + z.scale(w5**4)),
        (x + y.scale(w3) + z.scale(w5), x + y.scale(w3**2), y + z.scale(w5)),  # N = 15
    ]
    for g, h1, h2 in cases:
        assert _coprime_mod_p([h1, h2]) and gcd_many([h1, h2]) == 1
        assert not _coprime_mod_p([g * h1, g * h2])
        assert gcd_many([g * h1, g * h2]) == g.normalized()
        assert gcd_many([g * h1 * h2, g * h2, g * h1]) == g.normalized()
    zero = MultiPoly.zero(VARS)
    assert gcd_many([zero, zero]).is_zero()
    assert gcd_many([zero, MultiPoly.constant(VARS, 3)]) == 1
