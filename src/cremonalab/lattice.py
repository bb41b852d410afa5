"""Picard lattice of a blow-up of r points of the plane, r <= 8.

A class d*L - sum(m_i * E_i) is stored as (d, m).  The intersection form is
diag(-1, ..., -1, 1) in the basis (E_1, ..., E_r, L) and the canonical class
is -3L + sum(E_i).  Exceptional and conic-fiber classes and the sum lemmas
come from one exact sum-of-squares search (each entry clipped to the values
whose remainder still passes Cauchy, the last two entries from a quadratic, a
lone entry forced), so the counts are exact and the output order is
reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterator, Sequence


@dataclass(frozen=True)
class DivClass:
    """Integer divisor class d*L - sum(m_i * E_i)."""

    d: int
    m: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.m)

    def key(self) -> tuple:
        return (self.d,) + self.m

    def __add__(self, other: "DivClass") -> "DivClass":
        self._check(other)
        return DivClass(self.d + other.d, tuple(a + b for a, b in zip(self.m, other.m)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        self._check(other)
        return DivClass(self.d - other.d, tuple(a - b for a, b in zip(self.m, other.m)))

    def scale(self, k: int) -> "DivClass":
        return DivClass(k * self.d, tuple(k * a for a in self.m))

    def _check(self, other: "DivClass") -> None:
        if self.r != other.r:
            raise ValueError(f"rank mismatch: r={self.r} vs r={other.r}")

    def __str__(self) -> str:
        return f"{self.d}L - ({', '.join(map(str, self.m))})"


class BlowupLattice:
    """Lattice Z^{r+1} with basis (E_1..E_r, L) and Gram diag(-1,...,-1,1)."""

    def __init__(self, r: int):
        if not 0 <= r <= 8:
            raise ValueError("r must be between 0 and 8")
        self.r = r

    def line(self) -> DivClass:
        return DivClass(1, (0,) * self.r)

    def e(self, i: int) -> DivClass:
        if not 1 <= i <= self.r:
            raise ValueError(f"no exceptional basis vector E_{i} for r={self.r}")
        m = [0] * self.r
        m[i - 1] = -1
        return DivClass(0, tuple(m))

    def canonical(self) -> DivClass:
        return DivClass(-3, (-1,) * self.r)


def intersect(a: DivClass, b: DivClass) -> int:
    """Intersection number d_a*d_b - sum(m_a_i * m_b_i)."""
    a._check(b)
    return a.d * b.d - sum(x * y for x, y in zip(a.m, b.m))


def arithmetic_genus(c: DivClass) -> int:
    """Genus from adjunction: 1 + (c.c + c.K)/2."""
    k = BlowupLattice(c.r).canonical()
    twice = intersect(c, c) + intersect(c, k)
    if twice % 2 != 0:
        raise ValueError(f"class {c} has odd self-intersection plus canonical degree")
    return 1 + twice // 2


def _solve_sum_squares(
    count: int, total: int, total_sq: int, lo: int, hi: int
) -> Iterator[tuple[int, ...]]:
    """All integer vectors of given length with prescribed sum and sum of
    squares, entries in [lo, hi], emitted in lexicographic order.

    Three exact cuts: each entry v is clipped to what the entries after it can
    still sum to and to the v whose remainder passes Cauchy, (s - v)^2 <=
    (k - 1)(q - v^2); the last two entries solve v + w = s, (v - w)^2 =
    2q - s^2; a lone entry is s."""
    if count < 2:
        if total_sq == total * total and (lo <= total <= hi if count else total == 0):
            yield (total,) * count
        return
    vec: list[int] = []

    def rec(k: int, s: int, q: int) -> Iterator[tuple[int, ...]]:
        if k == 2:  # t^2 = 2q - s^2 forces t = s (mod 2), so (s -+ t)/2 are exact
            disc = 2 * q - s * s
            t = isqrt(disc) if disc >= 0 else -1
            if t * t == disc and lo <= (s - t) // 2 and (s + t) // 2 <= hi:
                yield (*vec, (s - t) // 2, (s + t) // 2)
                if t:
                    yield (*vec, (s + t) // 2, (s - t) // 2)
            return
        # (s - v)^2 <= (k - 1)(q - v^2) <=> (k*v - s)^2 <= disc; disc < 0 is
        # Cauchy failing for these k entries, and the clip implies |v| <= sqrt(q).
        disc = (k - 1) * (k * q - s * s)
        if disc < 0:
            return
        root = isqrt(disc)
        top = min(hi, s - (k - 1) * lo, (s + root) // k)
        for val in range(max(lo, s - (k - 1) * hi, -((root - s) // k)), top + 1):
            vec.append(val)
            yield from rec(k - 1, s - val, q - val * val)
            vec.pop()

    yield from rec(count, total, total_sq)


def _degree_bound(r: int, sum_coeff: int, sum_offset: int, sq_offset: int) -> int:
    # Largest d with (sum_coeff*d + sum_offset)^2 <= r*(d^2 + sq_offset).
    d = 0
    while (sum_coeff * (d + 1) + sum_offset) ** 2 <= r * ((d + 1) ** 2 + sq_offset):
        d += 1
    return d


@lru_cache(maxsize=None)
def enumerate_exceptional(r: int) -> tuple[DivClass, ...]:
    """All classes with C.C = -1 and C.K = -1, sorted on (d, m)."""
    if not 1 <= r <= 8:
        raise ValueError("r must be between 1 and 8")
    out: list[DivClass] = []
    dmax = _degree_bound(r, 3, -1, 1)
    for d in range(0, dmax + 1):
        total = 3 * d - 1
        total_sq = d * d + 1
        bound = max(d, 1)
        for m in _solve_sum_squares(r, total, total_sq, -bound, bound):
            out.append(DivClass(d, m))
    out.sort(key=DivClass.key)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_conic_classes(r: int) -> tuple[DivClass, ...]:
    """All fiber classes with f.f = 0, f.K = -2, d >= 1 and m_i >= 0."""
    if not 1 <= r <= 8:
        raise ValueError("r must be between 1 and 8")
    out: list[DivClass] = []
    dmax = _degree_bound(r, 3, -2, 0)
    for d in range(1, dmax + 1):
        for m in _solve_sum_squares(r, 3 * d - 2, d * d, 0, d):
            out.append(DivClass(d, m))
    out.sort(key=DivClass.key)
    return tuple(out)


def neighbor_profile(r: int) -> dict[int, int]:
    """Distribution of positive intersection numbers of one exceptional class
    with the others; asserts the distribution is the same for every class.

    Byte k of d_col holds d of the k-th class o and byte k of m_cols[i] its
    -m_i, so byte k of 128 + c.d*d_col + sum(c.m_i*m_cols[i]) is 128 + c.o: one
    integer combination gives c's whole Gram row.  No byte carries into the
    next: |c.o| <= |d_c|*max|d| + sum|m_c,i|*max|m| is at most 87 for r <= 8
    (the true maximum is 3), so each byte lies in [41, 215].  c.c = -1 reads
    127 and is not counted."""
    if not 3 <= r <= 8:
        raise ValueError("neighbor profile requires 3 <= r <= 8")
    classes = enumerate_exceptional(r)
    n = len(classes)
    d_col = sum(c.d << 8 * k for k, c in enumerate(classes))
    m_cols = [sum(-c.m[i] << 8 * k for k, c in enumerate(classes)) for i in range(r)]
    offset = int.from_bytes(b"\x80" * n, "little")
    profile: dict[int, int] | None = None
    for c in classes:
        row = offset + c.d * d_col + sum(a * col for a, col in zip(c.m, m_cols))
        seen = Counter(row.to_bytes(n, "little"))
        counts = {b - 128: k for b, k in sorted(seen.items()) if b > 128}
        if profile is None:
            profile = counts
        elif profile != counts:
            raise ValueError(f"non-uniform neighbor profile at r={r}: {profile} vs {counts}")
    assert profile is not None
    return profile


def arcond_search(m_max: int) -> list[tuple[int, tuple[int, int, int, int]]]:
    """All (m, s_1..s_4) with sum s_i^2 = m^2 - 1, sum s_i = 2(m-1) and
    s_i + s_j <= m for i != j.  The sum-of-squares search clips each s_i to
    what the others can reach and solves s_3, s_4 from a quadratic."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    solutions = []
    for m in range(1, m_max + 1):
        for s in _solve_sum_squares(4, 2 * (m - 1), m * m - 1, 0, m):
            if all(s[i] + s[j] <= m for i in range(4) for j in range(i + 1, 4)):
                solutions.append((m, s))
    return solutions


def cauchy_inequality_holds(values: Sequence[int]) -> tuple[bool, bool]:
    """(inequality holds, equality) for (sum a)^2 <= k * sum a^2."""
    k = len(values)
    lhs = sum(values) ** 2
    rhs = k * sum(v * v for v in values)
    return lhs <= rhs, lhs == rhs
