import itertools
import random

import pytest

from cremonalab import lattice
from cremonalab.lattice import (
    BlowupLattice,
    _solve_sum_squares,
    DivClass,
    arcond_search,
    arithmetic_genus,
    cauchy_inequality_holds,
    enumerate_conic_classes,
    enumerate_exceptional,
    intersect,
    neighbor_profile,
)


def test_intersection_form():
    lat = BlowupLattice(6)
    L = lat.line()
    assert intersect(L, L) == 1
    e1 = lat.e(1)
    assert intersect(e1, e1) == -1
    assert intersect(L, e1) == 0
    k = lat.canonical()
    assert intersect(k, k) == 3  # degree 9 - 6


def test_genus_examples():
    for r in range(0, 9):
        lat = BlowupLattice(r)
        assert arithmetic_genus(lat.line()) == 0
        if r >= 1:
            assert arithmetic_genus(lat.e(1)) == 0
    assert arithmetic_genus(DivClass(3, ())) == 1  # plane cubic, r=0


def test_exceptional_counts():
    assert [len(enumerate_exceptional(r)) for r in range(1, 9)] == [
        1, 3, 6, 10, 16, 27, 56, 240,
    ]


def test_conic_counts_match_multiplicity_table():
    # the r=7 entry is the sum 7+35+42+35+7 of the multiplicity patterns
    assert [len(enumerate_conic_classes(r)) for r in range(1, 9)] == [
        1, 2, 3, 5, 10, 27, 126, 2160,
    ]


def test_class_invariants():
    for r in range(1, 9):
        k = BlowupLattice(r).canonical()
        for c in enumerate_exceptional(r):
            assert intersect(c, c) == -1
            assert intersect(c, k) == -1
            assert arithmetic_genus(c) == 0
        for f in enumerate_conic_classes(r):
            assert intersect(f, f) == 0
            assert intersect(f, k) == -2
            assert f.d >= 1 and all(a >= 0 for a in f.m)


def test_enumeration_is_sorted_and_deterministic():
    for r in (3, 7):
        first = enumerate_exceptional(r)
        assert list(first) == sorted(first, key=DivClass.key)
        assert first == enumerate_exceptional(r)


def test_neighbor_profiles():
    assert neighbor_profile(6) == {1: 10}
    assert neighbor_profile(7) == {1: 27, 2: 1}
    assert neighbor_profile(8) == {1: 126, 2: 56, 3: 1}
    assert neighbor_profile(3) == {1: 2}
    assert neighbor_profile(4) == {1: 3}
    assert neighbor_profile(5) == {1: 5}
    with pytest.raises(ValueError):
        neighbor_profile(2)


def _pairwise_profile(r):
    # every class against every other through intersect, counts compared as dicts
    classes = enumerate_exceptional(r)
    profile = None
    for c in classes:
        counts = {}
        for other in classes:
            if other is c:
                continue
            n = intersect(c, other)
            if n > 0:
                counts[n] = counts.get(n, 0) + 1
        if profile is None:
            profile = counts
        assert profile == counts, (r, c)
    return dict(sorted(profile.items()))


@pytest.mark.parametrize("r", range(3, 9))
def test_neighbor_profile_matches_pairwise_oracle(r):
    assert neighbor_profile(r) == _pairwise_profile(r)
    # neighbor_profile packs c.o into one byte as 128 + c.o; this bound on
    # |c.o| keeps every byte in [1, 255], so none carries into the next
    classes = enumerate_exceptional(r)
    max_d = max(abs(c.d) for c in classes)
    max_m = max(abs(a) for c in classes for a in c.m)
    bound = max(abs(c.d) * max_d + sum(abs(a) for a in c.m) * max_m for c in classes)
    assert bound < 128
    assert r < 8 or bound == 87


def test_neighbor_profile_rejects_non_uniform(monkeypatch):
    # one class missing leaves its neighbors one short, the others not
    classes = enumerate_exceptional(6)
    monkeypatch.setattr(lattice, "enumerate_exceptional", lambda r: classes[1:])
    with pytest.raises(ValueError, match="non-uniform neighbor profile"):
        neighbor_profile(6)


def test_r8_involutions():
    k8 = BlowupLattice(8).canonical()
    exc = set(enumerate_exceptional(8))
    for d in exc:
        assert k8.scale(-2) - d in exc
    con = set(enumerate_conic_classes(8))
    for f in con:
        assert k8.scale(-4) - f in con


def test_hexagon_at_r3():
    classes = enumerate_exceptional(3)
    adj = {c: [d for d in classes if d != c and intersect(c, d) == 1] for c in classes}
    assert all(len(v) == 2 for v in adj.values())
    start = classes[0]
    prev, cur, steps = None, start, 0
    while True:
        nxt = [d for d in adj[cur] if d != prev][0]
        prev, cur, steps = cur, nxt, steps + 1
        if cur == start:
            break
    assert steps == 6


def test_homaloidal():
    # The type (n; k_1..k_r) of a homaloidal net has sum k = 3n - 3 and
    # sum k^2 = n^2 - 1: its class H = nL - sum k_i E_i has H^2 = 1 and
    # H.K = -3, so a net of rational curves.
    def homaloidal(n, ks):
        h = DivClass(n, tuple(ks))
        return intersect(h, h) == 1 and intersect(h, BlowupLattice(len(ks)).canonical()) == -3

    assert homaloidal(1, [])
    assert homaloidal(2, [1, 1, 1])
    assert not homaloidal(2, [1, 1])
    assert homaloidal(5, [3, 2, 2, 2, 1, 1, 1])
    assert not homaloidal(3, [2, 2, 1])  # sums 5 != 6
    assert arithmetic_genus(DivClass(5, (3, 2, 2, 2, 1, 1, 1))) == 0


def test_arcond_unique_solution():
    assert arcond_search(1) == [(1, (0, 0, 0, 0))]
    with pytest.raises(ValueError):
        arcond_search(0)


def test_solve_sum_squares_matches_product_filter():
    # the pruned search against a plain filter over the whole box, order included
    rng = random.Random(4157)
    seen = {"solved": 0, "unsolved": 0, "empty_range": 0, "negative_lo": 0}
    cases = []
    for _ in range(500):
        count = rng.randint(0, 5)
        lo = rng.randint(-3, 2)
        hi = lo + rng.randint(-1, 4)  # hi < lo is an empty range
        if hi >= lo and rng.random() < 0.5:
            vec = [rng.randint(lo, hi) for _ in range(count)]
            total, total_sq = sum(vec), sum(v * v for v in vec)
        else:
            total, total_sq = rng.randint(-6, 6), rng.randint(-2, 25)
        cases.append((count, total, total_sq, lo, hi))
    # the calls arcond_search makes
    cases += [(4, 2 * (m - 1), m * m - 1, 0, m) for m in range(1, 9)]
    for count, total, total_sq, lo, hi in cases:
        want = [
            v for v in itertools.product(range(lo, hi + 1), repeat=count)
            if sum(v) == total and sum(a * a for a in v) == total_sq
        ]
        assert list(_solve_sum_squares(count, total, total_sq, lo, hi)) == want, (
            count, total, total_sq, lo, hi)
        seen["solved" if want else "unsolved"] += 1
        seen["empty_range"] += hi < lo
        seen["negative_lo"] += lo < 0 and bool(want)
    assert all(seen.values()), seen


def test_cauchy_randomized():
    rng = random.Random(12345)
    for _ in range(1000):
        k = rng.randint(1, 5)
        vals = [rng.randint(-40, 40) for _ in range(k)]
        holds, equality = cauchy_inequality_holds(vals)
        assert holds
        assert equality == (len(set(vals)) == 1)
