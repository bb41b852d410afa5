import random

import pytest

from cremonalab.lattice import BlowupLattice, enumerate_exceptional
from cremonalab.weyl import (
    PicAut,
    act_on_exceptional,
    charpoly,
    eigenvalue_multiplicities,
    fixed_rank,
    fixes_class,
    identity_aut,
    make_bertini,
    make_dp4_cubic,
    make_dp4_quadratic,
    make_geiser,
    orbit_divisibility,
    orbit_sizes,
    order,
)
from cremonalab.cyclo import euler_phi


def basis_permutation(r, images):
    """PicAut permuting the E_i (images[i] = j means E_{i+1} -> E_{j+1})."""
    m = [[0] * (r + 1) for _ in range(r + 1)]
    for i, j in enumerate(images):
        m[j][i] = 1
    m[r][r] = 1
    return PicAut(r, m)


def quadratic_reflection(r, points=(1, 2, 3)):
    """The standard quadratic transformation based at three blown-up points:
    L -> 2L - Ei - Ej - Ek and Ei -> L - Ej - Ek, in basis (E_1..E_r, L)."""
    i, j, k = (p - 1 for p in points)
    m = [[int(a == b) for b in range(r + 1)] for a in range(r + 1)]
    for a in (i, j, k):
        for row in range(r + 1):
            m[row][a] = 1 if row == r else -1 if row in (i, j, k) and row != a else 0
    for row in range(r + 1):
        m[row][r] = 2 if row == r else -1 if row in (i, j, k) else 0
    return PicAut(r, m)


def test_geiser():
    g = make_geiser()
    assert g.is_weyl()
    assert order(g) == 2
    assert eigenvalue_multiplicities(g) == {1: 1, 2: 7}
    assert fixed_rank([g]) == 1
    classes = enumerate_exceptional(7)
    k = BlowupLattice(7).canonical()
    perm = act_on_exceptional(g)
    for i, c in enumerate(classes):
        assert classes[perm[i]] == k.scale(-1) - c
    assert orbit_sizes([perm]) == [2] * 28


def test_bertini():
    b = make_bertini()
    assert order(b) == 2
    assert eigenvalue_multiplicities(b) == {1: 1, 2: 8}
    assert fixed_rank([b]) == 1
    classes = enumerate_exceptional(8)
    k = BlowupLattice(8).canonical()
    perm = act_on_exceptional(b)
    for i, c in enumerate(classes):
        assert classes[perm[i]] == k.scale(-2) - c
    assert orbit_sizes([perm]) == [2] * 120


def test_dp4_quadratic_eigenvalues_from_trace():
    q = make_dp4_quadratic()
    assert order(q) == 2
    # independent oracle: an involution on rank 6 with trace t has
    # eigenvalue 1 with multiplicity (6+t)/2
    t = sum(q.matrix[i][i] for i in range(6))
    assert eigenvalue_multiplicities(q) == {1: (6 + t) // 2, 2: (6 - t) // 2}
    assert eigenvalue_multiplicities(q) == {1: 4, 2: 2}


def test_dp4_cubic_fixed_sublattice():
    c = make_dp4_cubic()
    assert order(c) == 2
    assert fixed_rank([c]) == 2
    lat = BlowupLattice(5)
    assert fixes_class(c, lat.canonical())
    assert fixes_class(c, lat.line() - lat.e(1))
    rep = orbit_divisibility([c])
    assert rep.fixed_rank == 2 and not rep.lemma_applicable
    assert rep.orbit_sizes == [2] * 8


def test_is_weyl_examples():
    assert make_geiser().is_weyl()
    p = basis_permutation(5, [1, 0, 2, 3, 4])
    assert p.is_weyl() and order(p) == 2
    with pytest.raises(ValueError):
        PicAut(7, [[2 if i == j == 0 else int(i == j) for j in range(8)] for i in range(8)])
    for entry in (1.5, True, "1"):  # entries used to go through int(), which truncates 1.5
        with pytest.raises(ValueError, match="integers"):
            PicAut(1, [[entry, 0], [0, 1]])


def test_order_examples():
    assert order(identity_aut(5)) == 1
    rot = basis_permutation(5, [1, 2, 0, 3, 4])
    assert order(rot) == 3
    assert order(make_geiser(), cap=1) is None


def test_fixed_rank_identity():
    assert fixed_rank([identity_aut(5)]) == 6


def test_orbit_divisibility_reports():
    repg = orbit_divisibility([make_geiser()])
    assert repg.fixed_rank == 1 and repg.degree == 2
    assert repg.orbit_sizes == [2] * 28 and repg.lemma_applicable
    repb = orbit_divisibility([make_bertini()])
    assert repb.degree == 1 and repb.lemma_applicable


def test_charpoly_roundtrip():
    # characteristic polynomial degree and constant term (determinant sign)
    for m in (make_geiser(), make_bertini(), make_dp4_quadratic(), make_dp4_cubic()):
        chi = charpoly(m)
        n = m.r + 1
        assert len(chi) == n + 1
        assert chi[-1] == 1  # monic
        mults = eigenvalue_multiplicities(m)
        assert sum(k * euler_phi(d) for d, k in mults.items()) == n


def _random_weyl(rng, r):
    gens = [
        basis_permutation(r, [1, 0] + list(range(2, r))),
        basis_permutation(r, list(range(1, r)) + [0]),
        quadratic_reflection(r),
    ]
    m = identity_aut(r)
    for _ in range(rng.randint(1, 6)):
        m = m * gens[rng.randrange(len(gens))]
    return m


def test_action_is_homomorphism_randomized():
    rng = random.Random(2718)
    n = len(enumerate_exceptional(5))
    for _ in range(30):
        a = _random_weyl(rng, 5)
        b = _random_weyl(rng, 5)
        pa = act_on_exceptional(a)
        pb = act_on_exceptional(b)
        pab = act_on_exceptional(a * b)
        assert pab == tuple(pa[pb[i]] for i in range(n))


def test_random_weyl_preserves_invariants():
    rng = random.Random(11)
    for r in (3, 5, 7):
        for _ in range(10):
            m = _random_weyl(rng, r)
            assert m.is_weyl()
            o = order(m)
            assert isinstance(o, int)
            mults = eigenvalue_multiplicities(m)
            # the order divides the lcm of the cyclotomic orders present
            from math import lcm

            assert lcm(*mults.keys()) == o


def test_charpoly_and_multiplicities_match_sympy():
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    rng = random.Random(1729)
    named = [make_geiser(), make_bertini(), make_dp4_quadratic(), make_dp4_cubic()]
    cases = list(named)
    for _ in range(12):
        # words in one named matrix, a permutation of the exceptional curves
        # and a quadratic reflection, all on the same lattice
        m = rng.choice(named)
        images = list(range(m.r))
        rng.shuffle(images)
        points = tuple(sorted(rng.sample(range(1, m.r + 1), 3)))
        word = [m, basis_permutation(m.r, images), quadratic_reflection(m.r, points)]
        for _ in range(rng.randint(2, 6)):
            m = m * rng.choice(word)
        cases.append(m)
    cyclotomic = {sympy.cyclotomic_poly(d, lam): d for d in range(1, 61)}
    assert len({c.r for c in cases}) == 3 and len(set(cases)) > 8
    for m in cases:
        chi = sympy.Matrix(m.matrix).charpoly(lam)
        assert charpoly(m) == tuple(int(c) for c in reversed(chi.all_coeffs()))
        _, factors = sympy.factor_list(chi.as_expr(), lam)
        assert eigenvalue_multiplicities(m) == dict(
            sorted((cyclotomic[f], k) for f, k in factors))
    assert len({order(m) for m in cases}) > 3
