"""Integer-matrix automorphisms of the Picard lattice.

Matrices act on column coefficient vectors in the basis (E_1..E_r, L) and
must preserve the intersection form and fix the canonical class.  The named
constructors return the involutions of the degree-1, degree-2 and degree-4
surfaces exactly as printed, so identities about their actions on the
exceptional classes can be checked verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cyclo import (OVER_CAP, _divmod, _order, _poly_mul, _row_reduce, cyclotomic_polynomial,
                    divisors)
from .lattice import DivClass, enumerate_exceptional

Matrix = tuple[tuple[int, ...], ...]


def _gram(r: int) -> Matrix:
    n = r + 1
    return tuple(
        tuple((-1 if i == j else 0) if i < r else (1 if i == j else 0) for j in range(n))
        for i in range(n)
    )


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_vec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def _transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class PicAut:
    """Automorphism of Pic preserving the form and the canonical class."""

    __slots__ = ("r", "matrix")

    def __init__(self, r: int, matrix: Sequence[Sequence[int]], check: bool = True):
        self.r = r
        self.matrix = tuple(map(tuple, matrix))
        if any(type(x) is not int for row in self.matrix for x in row):  # not bool, not 1.5
            raise ValueError("matrix entries must be integers")
        n = r + 1
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError(f"matrix must be {n}x{n}")
        if check and not self.is_weyl():
            raise ValueError("matrix does not preserve the form and canonical class")

    def is_weyl(self) -> bool:
        g = _gram(self.r)
        m = self.matrix
        if _mat_mul(_mat_mul(_transpose(m), g), m) != g:
            return False
        k = self._k_vector()
        return _mat_vec(m, k) == k

    def _k_vector(self) -> tuple[int, ...]:
        # K = -3L + sum(E_i): coefficients (1,...,1,-3) in basis (E.., L).
        return tuple([1] * self.r + [-3])

    def apply(self, c: DivClass) -> DivClass:
        if c.r != self.r:
            raise ValueError("lattice rank mismatch")
        vec = tuple(-mi for mi in c.m) + (c.d,)
        out = _mat_vec(self.matrix, vec)
        return DivClass(out[-1], tuple(-x for x in out[:-1]))

    def __mul__(self, other: "PicAut") -> "PicAut":
        if self.r != other.r:
            raise ValueError("lattice rank mismatch")
        return PicAut(self.r, _mat_mul(self.matrix, other.matrix), check=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PicAut) and self.r == other.r and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.r, self.matrix))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(map(str, row)) for row in self.matrix)
        return f"PicAut(r={self.r}, [{rows}])"


def identity_aut(r: int) -> PicAut:
    return PicAut(r, _identity(r + 1), check=False)


GEISER_MATRIX = (
    (-2, -1, -1, -1, -1, -1, -1, -3),
    (-1, -2, -1, -1, -1, -1, -1, -3),
    (-1, -1, -2, -1, -1, -1, -1, -3),
    (-1, -1, -1, -2, -1, -1, -1, -3),
    (-1, -1, -1, -1, -2, -1, -1, -3),
    (-1, -1, -1, -1, -1, -2, -1, -3),
    (-1, -1, -1, -1, -1, -1, -2, -3),
    (3, 3, 3, 3, 3, 3, 3, 8),
)

BERTINI_MATRIX = (
    (-3, -2, -2, -2, -2, -2, -2, -2, -6),
    (-2, -3, -2, -2, -2, -2, -2, -2, -6),
    (-2, -2, -3, -2, -2, -2, -2, -2, -6),
    (-2, -2, -2, -3, -2, -2, -2, -2, -6),
    (-2, -2, -2, -2, -3, -2, -2, -2, -6),
    (-2, -2, -2, -2, -2, -3, -2, -2, -6),
    (-2, -2, -2, -2, -2, -2, -3, -2, -6),
    (-2, -2, -2, -2, -2, -2, -2, -3, -6),
    (6, 6, 6, 6, 6, 6, 6, 6, 17),
)

DP4_QUADRATIC_MATRIX = (
    (0, -1, -1, 0, 0, -1),
    (-1, 0, -1, 0, 0, -1),
    (-1, -1, 0, 0, 0, -1),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0),
    (1, 1, 1, 0, 0, 2),
)

DP4_CUBIC_MATRIX = (
    (-1, -1, -1, -1, -1, -2),
    (-1, -1, 0, 0, 0, -1),
    (-1, 0, -1, 0, 0, -1),
    (-1, 0, 0, -1, 0, -1),
    (-1, 0, 0, 0, -1, -1),
    (2, 1, 1, 1, 1, 3),
)


def make_geiser() -> PicAut:
    """Degree-2 double-cover involution on the r=7 lattice."""
    return PicAut(7, GEISER_MATRIX)


def make_bertini() -> PicAut:
    """Degree-1 double-cover involution on the r=8 lattice."""
    return PicAut(8, BERTINI_MATRIX)


def make_dp4_quadratic() -> PicAut:
    """Quadratic involution of the degree-4 surface (r=5)."""
    return PicAut(5, DP4_QUADRATIC_MATRIX)


def make_dp4_cubic() -> PicAut:
    """Cubic involution of the degree-4 surface (r=5)."""
    return PicAut(5, DP4_CUBIC_MATRIX)


def order(m: PicAut, cap: int = 5040):
    """Least k >= 1 with m^k = 1, or OVER_CAP."""
    return _order(m, cap, identity_aut(m.r).__eq__)


def charpoly(m: PicAut) -> tuple[int, ...]:
    """Characteristic polynomial of the matrix, ascending coefficients.

    Berkowitz's division-free algorithm, so everything stays in Z.
    """
    a = m.matrix
    n = len(a)
    # vector of charpoly coefficients, descending degree, starts with (1,)
    poly = [1]
    for k in range(1, n + 1):
        # principal k x k minor machinery via Toeplitz products
        sub = [row[:k] for row in a[:k]]
        # column vectors
        r_row = sub[k - 1][: k - 1]
        c_col = [sub[i][k - 1] for i in range(k - 1)]
        akk = sub[k - 1][k - 1]
        minor = [row[: k - 1] for row in sub[: k - 1]]
        # entries t_0..t_k of the Toeplitz column
        t = [1, -akk]
        vec = c_col[:]
        for _ in range(k - 1):
            t.append(-sum(x * y for x, y in zip(r_row, vec)))
            vec = [sum(minor[i][j] * vec[j] for j in range(k - 1)) for i in range(k - 1)]
        poly = _poly_mul(poly, t)[: k + 1]
    return tuple(reversed(poly))  # ascending


def eigenvalue_multiplicities(m: PicAut, cap: int = 5040) -> dict[int, int]:
    """Multiplicity of each cyclotomic factor Phi_d of the characteristic
    polynomial, keyed by d; requires m of finite order."""
    k = order(m, cap)
    if k is OVER_CAP:
        raise ValueError("matrix does not have finite order within the cap")
    chi = list(charpoly(m))
    out: dict[int, int] = {}
    for d in divisors(k):
        phi = cyclotomic_polynomial(d)
        while len(chi) - 1 >= len(phi) - 1:
            quo, rem = _divmod(chi, phi)
            if any(rem):
                break
            out[d] = out.get(d, 0) + 1
            chi = quo
    if len(chi) != 1:
        raise ValueError("characteristic polynomial has a non-cyclotomic factor")
    return dict(sorted(out.items()))


def fixed_rank(gens: Sequence[PicAut]) -> int:
    """Rank of the common fixed sublattice of the generators, over Q."""
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].r + 1
    rows: list[list[Fraction]] = []
    for g in gens:
        if g.r != gens[0].r:
            raise ValueError("mixed lattice ranks")
        for i in range(n):
            rows.append(
                [Fraction(g.matrix[i][j] - (1 if i == j else 0)) for j in range(n)]
            )
    return n - len(_row_reduce(rows, n)[1])


def fixes_class(m: PicAut, c: DivClass) -> bool:
    return m.apply(c) == c


def act_on_exceptional(m: PicAut) -> tuple[int, ...]:
    """Permutation induced on the sorted exceptional classes, one-line form."""
    classes = enumerate_exceptional(m.r)
    index = {c: i for i, c in enumerate(classes)}
    images = []
    for c in classes:
        img = m.apply(c)
        if img not in index:
            raise ValueError(f"image {img} of {c} is not an exceptional class")
        images.append(index[img])
    if sorted(images) != list(range(len(classes))):
        raise ValueError("action on exceptional classes is not a permutation")
    return tuple(images)


def permutation_cycles(perm: Sequence[int]) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(tuple(cyc))
    return cycles


@dataclass
class OrbitReport:
    """lemma_applicable: the fixed rank is 1, and every orbit size was found
    divisible by the degree (orbit_divisibility raises otherwise)."""

    fixed_rank: int
    orbit_sizes: list[int]
    degree: int
    lemma_applicable: bool


def orbit_divisibility(gens: Sequence[PicAut]) -> OrbitReport:
    """Orbit sizes of the generated group on exceptional classes; when the
    fixed rank is 1 every orbit size must be divisible by the degree 9-r."""
    if not gens:
        raise ValueError("need at least one generator")
    r = gens[0].r
    classes = enumerate_exceptional(r)
    perms = []
    for g in gens:
        perms.append(act_on_exceptional(g))
    n = len(classes)
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        size = 0
        while stack:
            cur = stack.pop()
            size += 1
            for p in perms:
                nxt = p[cur]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        sizes.append(size)
    sizes.sort()
    fr = fixed_rank(gens)
    degree = 9 - r
    applicable = fr == 1
    if applicable and any(s % degree for s in sizes):
        raise ValueError(
            f"orbit sizes {sizes} not all divisible by degree {degree} despite fixed rank 1"
        )
    return OrbitReport(fr, sizes, degree, applicable)
