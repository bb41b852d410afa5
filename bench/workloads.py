"""The benchmark's workloads: inputs, one pass over the items, and checks.

Each workload imports cremonalab afresh (`load`) and builds its inputs
(`inputs`): together that is the set-up a `cremona-lab` process pays.  It
then runs one pass over its items (`run_pass`) and checks every output
against values the benchmark derives itself: the classification values
written in corpus.txt, answers known by construction for the de Jonquieres
cases, and the classical table values.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PACKAGE = "cremonalab"


@dataclass
class Sample:
    """One item of one pass: its latency and what went wrong, if anything."""

    key: str
    seconds: float
    failed: bool = False  # the call raised
    wrong: str = ""  # the call returned an output that disagrees with the expectation


def fresh_import(*names: str):
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return [importlib.import_module(f"{PACKAGE}.{n}") for n in names]


def cache_clearers() -> list:
    """cache_clear of every lru_cache in the imported package."""
    out = []
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            out += [obj.cache_clear for obj in vars(module).values() if hasattr(obj, "cache_clear")]
    return out


class Workload:
    """load() imports cremonalab afresh, inputs(seed) builds the items,
    run_pass(items) runs and checks one pass over them."""

    def setup_check(self, root: Path, items) -> str:
        """What is wrong with the inputs themselves, or ""."""
        return ""


def _timed(key: str, fn, check) -> Sample:
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as e:  # a raising item is a failed operation, not a crash of the run
        return Sample(key, time.perf_counter() - t0, failed=True, wrong=f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - t0
    return Sample(key, seconds, wrong=check(out))


# -- corpus ---------------------------------------------------------------


def corpus_expectations(text: str) -> dict[str, tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """name -> (generator orders, group order, structure), read straight from
    the corpus file's fields without the program's parser."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        values = dict(f.split("=", 1) for f in fields[2:] if "=" in f)
        values = {k.strip(): v.strip() for k, v in values.items()}
        out[fields[0]] = (
            tuple(int(v) for v in values["gen_orders"].split(",")),
            int(values["group"]),
            tuple(int(v) for v in values["structure"].split(",")),
        )
    return out


def _degree_one(g) -> bool:
    """Every component's weighted degree equals its weight."""
    weights = g.ambient.var_weights()
    return all(
        c.is_zero() or c.weighted_degree(weights) == w for w, c in zip(weights, g.components)
    )


class Corpus(Workload):
    """Bundled corpus rows verified with corpus.verify_row in file order."""

    def __init__(self, linear: bool, rows: int):
        self.linear = linear
        self.rows = rows
        self.expect: dict = {}

    def load(self) -> None:
        (self.corpus,) = fresh_import("corpus")

    def inputs(self, seed: int):
        return [
            r
            for r in self.corpus.load_bundled_corpus()
            if all(_degree_one(g) for g in r.generators) == self.linear
        ]

    def setup_check(self, root: Path, rows) -> str:
        text = (root / "src" / PACKAGE / "data" / "corpus.txt").read_text()
        self.expect = corpus_expectations(text)
        if len(rows) != self.rows:
            return f"expected {self.rows} rows, the split gives {len(rows)}"
        return ""

    def run_pass(self, rows) -> list[Sample]:
        verify = self.corpus.verify_row
        return [
            _timed(row.name, lambda row=row: verify(row), lambda rep, row=row: self.check(row, rep))
            for row in rows
        ]

    def check(self, row, rep) -> str:
        orders, group, structure = self.expect[row.name]
        checks = {c.label: c for c in rep.checks}
        bad = [c.label for c in rep.checks if not c.passed]
        if bad:
            return f"{row.name}: failing checks {bad}"
        if tuple(row.structure) != structure or len(row.generators) != len(orders):
            return f"{row.name}: parsed expectations differ from the file"
        want = {f"gen{k + 1} order": f"computed {o}" for k, o in enumerate(orders)}
        want["group order"] = f"computed {group}"
        for label, detail in want.items():
            if label not in checks or checks[label].detail != detail:
                return f"{row.name}: {label} is not {detail!r}"
        k = len(orders)
        pairs = [f"gen{a + 1},gen{b + 1} commute" for a in range(k) for b in range(a + 1, k)]
        missing = [p for p in pairs + ["structure"] if p not in checks]
        return f"{row.name}: missing checks {missing}" if missing else ""


# -- de Jonquieres cases ------------------------------------------------------

# Exact arithmetic in Q(zeta_n), n in (1, 3, 4), kept apart from the program:
# a pair (a, b) is a + b*zeta_n, with zeta_4^2 = -1 and zeta_3^2 = -1 - zeta_3.


def _mul(n: int, u, v):
    (a, b), (c, d) = u, v
    if n == 3:
        return (a * c - b * d, a * d + b * c - b * d)
    return (a * c - b * d, a * d + b * c)


def _monic_from_roots(n: int, roots) -> list:
    """Coefficients, constant term first, of prod (x - r)."""
    coeffs = [(Fraction(1), Fraction(0))]
    for r in roots:
        neg = (-r[0], -r[1])
        nxt = [(Fraction(0), Fraction(0))] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            hi, lo = nxt[i + 1], _mul(n, c, neg)
            nxt[i + 1] = (hi[0] + c[0], hi[1] + c[1])
            nxt[i] = (nxt[i][0] + lo[0], nxt[i][1] + lo[1])
        coeffs = nxt
    return coeffs


# One pass: the same slots every seed, so the seed draws coefficients, not
# the amount of work.  (conductor, exponents e_i of g = c * prod (x - a_i)^e_i)
# Sixteen cases over Q, four over Q(i), four over Q(zeta_3).
JONQ_SLOTS = [
    (1, (1,)), (1, (1,)), (1, (1,)), (1, (2,)), (1, (2,)), (1, (2,)),
    (1, (1, 1)), (1, (1, 1)), (1, (1, 1)), (1, (1, 2)), (1, (1, 2)),
    (1, (3,)), (1, (2, 2)), (1, (1, 1, 1)), (1, (1, 1, 2)), (1, (2, 1, 1)),
    (4, (1,)), (4, (1,)), (4, (1, 1)), (4, (2,)),
    (3, (1,)), (3, (1,)), (3, (1, 1)), (3, (2,)),
]
NONZERO = (-2, -1, 1, 2)


@dataclass
class JonqCase:
    key: str
    sigma: object  # sigma_g
    conj: object  # the conjugating element
    radical: object  # expected radical of the determinant class, a UniPoly
    odd: int  # number of odd exponents
    square_of: object  # a random element r whose square r o r has radical 1


class Jonq(Workload):
    """Seeded conjugates of sigma_g with known answers, each with a square r o r."""

    def load(self) -> None:
        self.cyclo, self.poly, self.jonq = fresh_import("cyclo", "poly", "jonq")

    def inputs(self, seed: int):
        rng = random.Random(seed)
        return [self._sigma_case(rng, i, n, exps) for i, (n, exps) in enumerate(JONQ_SLOTS)]

    def _number(self, n: int, pair):
        if n == 1:
            return self.cyclo.CycloNumber.from_rational(pair[0])
        return self.cyclo.CycloNumber(n, pair)

    def _element(self, rng: random.Random, degree: int):
        """((a, b0 + b1 x + ...), (c, d)) with nonzero constants a, c, d and
        b of the given degree; its determinant ad - bc has that degree too,
        so it is invertible."""
        RatFunc = self.poly.RatFunc
        a, c, d = (RatFunc(self.poly.UniPoly([rng.choice(NONZERO)])) for _ in range(3))
        b = RatFunc(self.poly.UniPoly([rng.choice(NONZERO) for _ in range(degree + 1)]))
        return self.jonq.JonqElement(((a, b), (c, d)))

    def _sigma_case(self, rng: random.Random, i: int, n: int, exps) -> JonqCase:
        # Over Q(i) and Q(zeta_3) the coefficients of g must not all be
        # rational, so that g's field is the stated one.
        while True:
            roots: list = []
            while len(roots) < len(exps):
                r = (Fraction(rng.choice(NONZERO)), Fraction(rng.choice(NONZERO) if n > 1 else 0))
                if r not in roots:
                    roots.append(r)
            expanded = [r for r, e in zip(roots, exps) for _ in range(e)]
            if n == 1 or any(b for _, b in _monic_from_roots(n, expanded)):
                break
        c = Fraction(rng.choice(NONZERO), rng.choice((1, 2)))
        UniPoly = self.poly.UniPoly
        g = UniPoly.from_roots([self._number(n, r) for r in expanded]) * self._number(1, (c, 0))
        odd = [r for r, e in zip(roots, exps) if e % 2]
        radical = UniPoly([self._number(n, p) for p in _monic_from_roots(n, odd)])
        sigma = self.jonq.JonqElement.sigma(self.poly.RatFunc(g))
        key = f"Q{n}:{','.join(map(str, exps))}#{i}"
        return JonqCase(key, sigma, self._element(rng, 1), radical, len(odd), self._element(rng, 2))

    def run_pass(self, cases) -> list[Sample]:
        return [_timed(c.key, lambda c=c: self._run(c), lambda problem: problem) for c in cases]

    def _run(self, c: JonqCase) -> str:
        jonq = self.jonq
        square = c.square_of.compose(c.square_of)
        rad = jonq.det_class(square).radical
        if not rad.is_one():
            return f"{c.key}: square has radical {rad}"
        p = c.conj
        conj = p.compose(c.sigma).compose(p.inverse())
        d0, d1 = jonq.det_class(c.sigma), jonq.det_class(conj)
        if not (d0.radical == c.radical and d1.radical == c.radical):
            return f"{c.key}: radicals {d0.radical} / {d1.radical}, expected {c.radical}"
        if d0.same_class(d1) is not True:
            return f"{c.key}: same_class is not True"
        order = jonq.order_j(conj)
        if order != 2:
            return f"{c.key}: order {order}, expected 2"
        if jonq.is_twisting(conj).absolute != (c.odd > 0):
            return f"{c.key}: twisting verdict wrong for {c.odd} odd exponents"
        if c.odd:
            ram = jonq.ramification_data(conj)
            two_k = c.odd + c.odd % 2
            if (ram.branch_points, ram.genus) != (two_k, two_k // 2 - 1):
                return f"{c.key}: ramification {ram.branch_points}, genus {ram.genus}"
        return ""


# -- verify-tables --------------------------------------------------------------

# The classical values, written out here apart from tables.py.  Items not
# listed must pass with any detail.
TABLE_ITEMS = [
    "exceptional-counts", "conic-counts", "neighbor-profiles", "class-invariants",
    "r8-involutions", "hexagon-r3", "geiser", "bertini", "dp4-involutions", "cs24",
    "fourth-root", "odd-roots", "dp4-embedding", "sum-lemmas",
]
TABLE_DETAILS = {
    # exceptional curves on the blow-up of r points, r = 1..8
    "exceptional-counts": "[1, 3, 6, 10, 16, 27, 56, 240]",
    # conic classes, r = 1..8
    "conic-counts": "[1, 2, 3, 5, 10, 27, 126, 2160];",
    # exceptional curves meeting a given one with multiplicity k, r = 6, 7, 8
    "neighbor-profiles": str({6: {1: 10}, 7: {1: 27, 2: 1}, 8: {1: 126, 2: 56, 3: 1}}),
    "hexagon-r3": "cycle length 6",
    "sum-lemmas": "unique solution up to m=100: True;",
}


class Tables(Workload):
    """One call of tables.run_verify_tables(include_corpus=False)."""

    def load(self) -> None:
        (self.tables,) = fresh_import("tables")

    def inputs(self, seed: int):
        return TABLE_ITEMS

    def run_pass(self, names) -> list[Sample]:
        items = self.tables.run_verify_tables(include_corpus=False)
        got = [i.name for i in items]
        if got != names:
            return [Sample("items", sum(i.seconds for i in items), wrong=f"items {got}")]
        out = []
        for item in items:
            want = TABLE_DETAILS.get(item.name, "")
            wrong = ""
            if not item.passed or not item.detail.startswith(want):
                wrong = f"{item.name}: passed={item.passed}, detail {item.detail!r}"
            out.append(Sample(item.name, item.seconds, item.detail.startswith("error:"), wrong))
        return out


WORKLOADS = {
    "corpus-linear": lambda: Corpus(linear=True, rows=73),
    "corpus-birational": lambda: Corpus(linear=False, rows=10),
    "jonq": Jonq,
    "tables": Tables,
}
