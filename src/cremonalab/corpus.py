"""Corpus of classified abelian groups: parsing and re-verification.

Each record carries an ambient, optional surface equations, generator maps
and the expected orders, group cardinality and abelian structure.  The
verifier replays every claim by exact symbolic computation: equation
preservation, generator orders, commutativity, group closure and the
abelian structure, read as invariant factors off the relation lattice the
closure meets among the generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from .cyclo import CycloNumber
from .expr import parse_expression, _split_top
from .maps import (
    NOT_INVARIANT,
    Ambient,
    BasePointError,
    ClosureOverflow,
    Hypersurface,
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
    semi_invariance,
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
    groups: list[str] = []
    depth = 0
    cur: list[str] = []
    between: list[str] = []
    for ch in text:
        if ch == "(":
            if depth == 0:
                if any(c not in " x\t" for c in between):
                    raise CorpusFormatError(f"unexpected separator {''.join(between)!r}")
                between = []
                cur = []
            else:
                cur.append(ch)
            depth += 1
            continue
        if ch == ")":
            depth -= 1
            if depth == 0:
                groups.append("".join(cur))
            else:
                cur.append(ch)
            continue
        if depth == 0:
            between.append(ch)
        else:
            cur.append(ch)
    if depth != 0:
        raise CorpusFormatError(f"unbalanced parentheses in {text!r}")
    slices = ambient.block_slices()
    if len(groups) != len(ambient.blocks):
        raise CorpusFormatError(
            f"expected {len(ambient.blocks)} component tuples, found {len(groups)}"
        )
    comps: list[MultiPoly] = []
    for grp, (lo, hi) in zip(groups, slices):
        parts = _split_top(grp, ":")
        if len(parts) != hi - lo:
            raise CorpusFormatError(
                f"expected {hi - lo} components in tuple ({grp}), found {len(parts)}"
            )
        comps.extend(parse_expression(p, ambient.vars) for p in parts)
    try:
        return ProjMap(ambient, comps)
    except ValueError as e:  # the components do not define a map of the ambient
        raise CorpusFormatError(str(e)) from e


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
                    Hypersurface(ambient, equation)  # rejects a zero or non-homogeneous F
                    equations.append(equation)
                elif key == "gen":
                    generators.append(_parse_component_tuples(value, ambient))
                elif key == "gen_orders":
                    gen_orders = [int(v) for v in value.split(",")]
                elif key == "group":
                    group_order = int(value)
                elif key == "structure":
                    structure = tuple(int(v) for v in value.split(","))
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


def verify_row(row: CorpusRow, closure_cap: int = 128) -> RowReport:
    rep = RowReport(row.name)
    surfaces = [Hypersurface(row.ambient, F) for F in row.equations]
    for k, g in enumerate(row.generators):
        label = f"gen{k + 1}"
        if surfaces:
            if not g.is_degree_one():
                rep.add(f"{label} invariance", False, "generator is not degree one")
            else:
                details = []
                scalars = []
                ok = True
                for s in surfaces:
                    lam = semi_invariance(s, g)
                    if lam is not NOT_INVARIANT:
                        details.append(str(lam))
                        scalars.append(lam)
                    elif len(surfaces) > 1 and in_span(
                        s.equation.subs(dict(zip(row.ambient.vars, g.components))),
                        row.equations,
                    ) is not None:
                        details.append("mixes equations")
                    else:
                        ok = False
                rep.add(f"{label} invariance", ok, "; ".join(details))
                # Semi-invariance factors of as-written generators are roots
                # of unity of order dividing the generator order.
                for lam in scalars:
                    rep.add(
                        f"{label} factor order",
                        lam ** row.gen_orders[k] == CycloNumber.from_rational(1),
                        f"lambda={lam}",
                    )
        o = order_of_map(g, order_cap=max(row.gen_orders) * 2 + 2)
        rep.add(f"{label} order", o == row.gen_orders[k], f"computed {o}")
    for a in range(len(row.generators)):
        for b in range(a + 1, len(row.generators)):
            rep.add(
                f"gen{a + 1},gen{b + 1} commute",
                commute(row.generators[a], row.generators[b]),
            )
    try:
        closure = group_closure(row.generators, cap=closure_cap)
    except (ClosureOverflow, BasePointError) as e:
        rep.add("group order", False, str(e))
        return rep
    rep.add("group order", len(closure) == row.group_order, f"computed {len(closure)}")
    if len(closure) == row.group_order:
        expected = _structure_str(cyclic_invariants(row.structure))
        rep.add("structure", abelian_structure_matches(closure, row.structure),
                f"computed {_structure_str(closure.invariants)} / expected {expected}")
    return rep


def _structure_str(invariants: Optional[Sequence[int]]) -> str:
    return "non-abelian" if invariants is None else ",".join(map(str, invariants)) or "1"


def run_corpus(rows: Sequence[CorpusRow], jobs: int = 1) -> list[RowReport]:
    """Verify all rows; with jobs > 1 rows fan out across processes.

    The report order always follows the input order, so output is stable
    regardless of worker scheduling.
    """
    if jobs <= 1 or len(rows) <= 1:
        return [verify_row(row) for row in rows]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(verify_row, rows))
