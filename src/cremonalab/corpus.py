"""Corpus of classified abelian groups: parsing and re-verification.

Each record carries an ambient, optional surface equations, generator maps
and the expected orders, group cardinality and abelian structure.  The
verifier replays every claim by exact symbolic computation: equation
preservation, generator orders, commutativity, group closure and the
abelian structure, read as invariant factors off the relation lattice that
the relative orders and carries of the closure, built coset by coset, span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from math import lcm
from typing import Optional, Sequence

from .cyclo import CycloNumber, _order, euler_phi
from .expr import parse_expression, parse_tuples
from .maps import (
    Ambient,
    BasePointError,
    ClosureError,
    P1xP1,
    P2,
    P2xP2,
    P3,
    P4,
    ProjMap,
    WP2111,
    WP3112,
    abelian_structure_matches,
    commute,
    cyclic_invariants,
    group_closure,
    in_span,
    order_of_map,
    scalar_multiple,
)
from .multipoly import MultiPoly

AMBIENTS: dict[str, Ambient] = {
    "P2": P2,
    "P3": P3,
    "P4": P4,
    "P1xP1": P1xP1,
    "P2xP2": P2xP2,
    "W2111": WP2111,
    "W3112": WP3112,
}
# A row is verified in Q(zeta_N), N the lcm of the conductors its generators
# and equations are written in.  Past this degree phi(N) the row fails one
# check instead of running for minutes; bundled rows need at most phi(24) = 8.
FIELD_DEGREE_CAP = 64


@dataclass
class CorpusRow:
    name: str
    ambient_name: str
    ambient: Ambient
    equations: list[MultiPoly]
    generators: list[ProjMap]
    gen_orders: list[int]
    group_order: int
    structure: tuple[int, ...]
    line_number: int = 0


class CorpusFormatError(ValueError):
    pass


def _parse_component_tuples(text: str, ambient: Ambient) -> ProjMap:
    """Parse "(..:..)" or "(..:..) x (..:..)" into a map on the ambient."""
    tuples = parse_tuples(text, ambient.vars)
    if len(tuples) != len(ambient.blocks):
        raise CorpusFormatError(
            f"expected {len(ambient.blocks)} component tuples, found {len(tuples)}"
        )
    comps: list[MultiPoly] = []
    for k, (parts, (lo, hi)) in enumerate(zip(tuples, ambient.block_slices()), start=1):
        if len(parts) != hi - lo:
            raise CorpusFormatError(
                f"expected {hi - lo} components in tuple {k}, found {len(parts)}"
            )
        comps.extend(parts)
    try:
        return ProjMap(ambient, comps)
    except ValueError as e:  # the components do not define a map of the ambient
        raise CorpusFormatError(str(e)) from e


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"expected a positive integer, not {n}")
    return n


def parse_corpus(text: str) -> list[CorpusRow]:
    rows: list[CorpusRow] = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        name = fields[0]
        if not name:
            raise CorpusFormatError(f"line {lineno}: empty row name")
        if name in names:
            raise CorpusFormatError(f"line {lineno}: duplicate row name {name!r}")
        names.add(name)
        if len(fields) < 2 or fields[1] not in AMBIENTS:
            raise CorpusFormatError(f"line {lineno}: unknown ambient in row {name!r}")
        ambient = AMBIENTS[fields[1]]
        equations: list[MultiPoly] = []
        generators: list[ProjMap] = []
        gen_orders: list[int] = []
        group_order: Optional[int] = None
        structure: Optional[tuple[int, ...]] = None
        for fld in fields[2:]:
            if "=" not in fld:
                raise CorpusFormatError(f"line {lineno}: malformed field {fld!r}")
            key, _, value = fld.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "F":
                    equation = parse_expression(value, ambient.vars)
                    if equation.is_zero():
                        raise ValueError("hypersurface equation must be nonzero")
                    if not equation.is_weighted_homogeneous(ambient.var_weights()):
                        raise ValueError("equation is not weighted-homogeneous")
                    equations.append(equation)
                elif key == "gen":
                    generators.append(_parse_component_tuples(value, ambient))
                elif key == "gen_orders":
                    gen_orders = [_positive(v) for v in value.split(",")]
                elif key == "group":
                    group_order = _positive(value)
                elif key == "structure":
                    structure = tuple(_positive(v) for v in value.split(","))
                else:
                    raise CorpusFormatError(f"unknown key {key!r}")
            except ValueError as e:  # ParseError, CorpusFormatError, an invalid F or integer
                raise CorpusFormatError(f"line {lineno} ({name}): {e}") from e
        if not generators:
            raise CorpusFormatError(f"line {lineno}: row {name!r} has no generators")
        if group_order is None or structure is None or len(gen_orders) != len(generators):
            raise CorpusFormatError(f"line {lineno}: row {name!r} missing expectations")
        rows.append(
            CorpusRow(
                name, fields[1], ambient, equations, generators, gen_orders,
                group_order, structure, lineno,
            )
        )
    return rows


def load_bundled_corpus() -> list[CorpusRow]:
    text = resources.files("cremonalab.data").joinpath("corpus.txt").read_text()
    return parse_corpus(text)


@dataclass
class Check:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class RowReport:
    name: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(label, passed, detail))


def verify_row(row: CorpusRow) -> RowReport:
    rep = RowReport(row.name)
    gens = row.generators
    polys = row.equations + [c for g in gens for c in g.components]
    n = lcm(1, *(c.n for p in polys for c in p.terms.values()))
    if (degree := euler_phi(n)) > FIELD_DEGREE_CAP:
        rep.add("field degree", False, f"phi({n}) = {degree} over cap {FIELD_DEGREE_CAP}")
        return rep
    # Orders are read off the closure, which is proved a group of commuting
    # generators and stops past the claimed group order; without one, orders
    # and commutation are computed from the generators, up to a cap.
    try:
        closure = group_closure(gens, cap=row.group_order)
    except (ClosureError, BasePointError) as e:
        closure, failure = None, str(e)
    for k, g in enumerate(gens):
        label = f"gen{k + 1}"
        if row.equations:
            if not g.is_degree_one():
                rep.add(f"{label} invariance", False, "generator is not degree one")
            else:
                details = []
                scalars = []
                ok = True
                images = dict(zip(row.ambient.vars, g.components))
                for F in row.equations:
                    pulled = F.subs(images)
                    lam = scalar_multiple(pulled, F)
                    if lam is not None:
                        details.append(str(lam))
                        scalars.append(lam)
                    elif len(row.equations) > 1 and in_span(pulled, row.equations) is not None:
                        details.append("mixes equations")
                    else:
                        ok = False
                        details.append(f"not semi-invariant: F = {F}")
                rep.add(f"{label} invariance", ok, "; ".join(details))
                # Semi-invariance factors of as-written generators are roots
                # of unity of order dividing the generator order.
                for lam in scalars:
                    if (lam ** row.gen_orders[k]).is_one():
                        rep.add(f"{label} factor order", True, f"lambda={lam}")
                        continue
                    # a root of unity of Q(zeta_n) has an order dividing lcm(2, n)
                    o = _order(lam, lcm(2, lam.n), CycloNumber.is_one)
                    o = "infinite order" if o is None else f"order {o}"
                    rep.add(f"{label} factor order", False,
                            f"lambda={lam} of {o} / expected order dividing {row.gen_orders[k]}")
        # a base point met in the fallback is a failed check, like a wrong claim
        try:
            o = closure.order(k) if closure else order_of_map(g, max(row.gen_orders) * 2 + 2)
            rep.add(f"{label} order", *_compare(o or "over-cap", row.gen_orders[k]))
        except BasePointError as e:
            rep.add(f"{label} order", False, str(e))
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            try:
                ok = closure is not None or commute(gens[a], gens[b])
                detail = "" if ok else f"gen{a + 1}*gen{b + 1} != gen{b + 1}*gen{a + 1}"
            except BasePointError as e:
                ok, detail = False, str(e)
            rep.add(f"gen{a + 1},gen{b + 1} commute", ok, detail)
    if closure is None:
        rep.add("group order", False, failure)
        return rep
    rep.add("group order", *_compare(len(closure), row.group_order))
    if len(closure) == row.group_order:
        expected = _structure_str(cyclic_invariants(row.structure))
        rep.add("structure", abelian_structure_matches(closure, row.structure),
                f"computed {_structure_str(closure.invariants)} / expected {expected}")
    return rep


def _compare(computed, expected) -> tuple[bool, str]:
    """(passed, detail): a failed detail names the expected value too."""
    if computed == expected:
        return True, f"computed {computed}"
    return False, f"computed {computed} / expected {expected}"


def _structure_str(invariants: Sequence[int]) -> str:
    return ",".join(map(str, invariants)) or "1"


def run_corpus(rows: Sequence[CorpusRow], jobs: int = 1) -> list[RowReport]:
    """Verify all rows; with jobs > 1 rows fan out across processes.

    The report order always follows the input order, so output is stable
    regardless of worker scheduling.
    """
    if jobs <= 1 or len(rows) <= 1:
        return [verify_row(row) for row in rows]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(rows))) as pool:
        return list(pool.map(verify_row, rows))
