"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error.
Exact values are emitted as strings ("3/2", "zeta(8)^3") so JSON output is
lossless; reports are deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import corpus as corpus_mod
from . import tables
from .expr import ParseError, parse_ratfunc
from .jonq import JonqElement, det_class, is_involution, is_twisting, order_j
from .lattice import enumerate_conic_classes, enumerate_exceptional
from .maps import DEGREE_CAP, BasePointError, order_of_map
from .weyl import (
    OVER_CAP,
    PicAut,
    act_on_exceptional,
    eigenvalue_multiplicities,
    fixed_rank,
    make_bertini,
    make_dp4_cubic,
    make_dp4_quadratic,
    make_geiser,
    order as weyl_order,
    permutation_cycles,
)


def _emit(payload, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _emit_text(payload)


def _emit_text(payload, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
            else:
                print(f"{pad}{v}")
    else:
        print(f"{pad}{payload}")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return int(text)


def cmd_enumerate(args) -> int:
    fn = enumerate_exceptional if args.kind == "exc" else enumerate_conic_classes
    classes = fn(args.r)
    if args.format == "json":
        _emit([{"d": c.d, "m": list(c.m)} for c in classes], True)
    else:
        for c in classes:
            print(c)
        print(f"total: {len(classes)}")
    return 0


_BUILTIN_WEYL = {
    "geiser": make_geiser,
    "bertini": make_bertini,
    "dp4quad": make_dp4_quadratic,
    "dp4cubic": make_dp4_cubic,
}


def cmd_weyl(args) -> int:
    if args.builtin:
        m = _BUILTIN_WEYL[args.builtin]()
    else:
        try:
            rows = json.loads(args.matrix)
        except json.JSONDecodeError as e:
            print(f"bad matrix JSON: {e}", file=sys.stderr)
            return 2
        n = len(rows) if isinstance(rows, list) else 0
        if not 2 <= n <= 9 or any(not isinstance(row, list) or len(row) != n
                                  or any(type(x) is not int for x in row) for row in rows):
            print("--matrix must be n rows of n integers, 2 <= n <= 9", file=sys.stderr)
            return 2
        try:
            m = PicAut(len(rows) - 1, rows)
        except ValueError as e:
            print(f"not a lattice automorphism: {e}", file=sys.stderr)
            return 1
    o = weyl_order(m)
    report = {
        "r": m.r,
        "weyl": m.is_weyl(),
        "order": o if o is not OVER_CAP else "over-cap",
        "fixed_rank": fixed_rank([m]),
    }
    if isinstance(o, int):
        report["cyclotomic_multiplicities"] = {
            str(d): k for d, k in eigenvalue_multiplicities(m).items()
        }
        perm = act_on_exceptional(m)
        report["orbit_sizes"] = sorted(len(c) for c in permutation_cycles(perm))
    _emit(report, args.json)
    return 0


def _parse_map(text: str, ambient_name: str):
    amb = corpus_mod.AMBIENTS[ambient_name]
    return corpus_mod._parse_component_tuples(text, amb), amb


def cmd_compose(args) -> int:
    try:
        f, amb = _parse_map(args.f, args.ambient)
        g, _ = _parse_map(args.g, args.ambient)
    except (ParseError, corpus_mod.CorpusFormatError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    try:
        print(repr(f.compose(g)))
    except BasePointError as e:
        print(e, file=sys.stderr)
        return 2
    return 0


def cmd_order(args) -> int:
    try:
        f, _ = _parse_map(args.map, args.ambient)
    except (ParseError, corpus_mod.CorpusFormatError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    try:
        o = order_of_map(f, order_cap=args.order_cap, degree_cap=args.degree_cap)
    except BasePointError as e:
        print(e, file=sys.stderr)
        return 2
    print(o if isinstance(o, int) else "over-cap")
    return 0


def _parse_jonq(text: str) -> JonqElement:
    parts, at = [], 0  # per part: each entry without leading blanks, at its offset
    for part in text.split(";"):
        parts.append([])
        for entry in part.split(","):
            parts[-1].append((at + len(entry) - len(entry.lstrip()), entry.lstrip()))
            at += len(entry) + 1
    if len(parts) > 2:
        raise ParseError("expected '<4 A entries> [; <4 beta entries>]'", parts[2][0][0])
    matrices = []
    for name, entries in zip(("A", "beta"), parts):
        if len(entries) != 4:
            at = entries[4][0] if len(entries) > 4 else entries[-1][0] + len(entries[-1][1])
            raise ParseError(f"{name} needs exactly 4 comma-separated entries", at)
        # blanks for the text in front keep the parser's offsets in the text as written
        m = [parse_ratfunc(" " * at + entry) for at, entry in entries]
        if name == "beta":
            for (at, _), e in zip(entries, m):
                if not e.is_constant():
                    raise ParseError("beta needs 4 constant entries", at)
            m = [e.constant_value() for e in m]
        matrices.append(((m[0], m[1]), (m[2], m[3])))
    return JonqElement(*matrices)


def cmd_jonq(args) -> int:
    try:
        e = _parse_jonq(args.element)
    except (ParseError, ValueError) as e_:
        print(f"parse error: {e_}", file=sys.stderr)
        return 2
    o = order_j(e)
    report = {"order": o if isinstance(o, int) else "over-cap"}
    report["involution"] = is_involution(e)
    if e.has_trivial_base():
        verdict = is_twisting(e) if report["involution"] else None
        delta = det_class(e) if verdict is None else verdict.delta
        report["delta"] = {
            "radical": str(delta.radical),
            "constant": str(delta.constant),
            "status": {True: "resolved_square", False: "resolved_nonsquare",
                       None: "indeterminate"}[delta.square],
        }
        if verdict is not None:
            report["twisting"] = {
                "absolute": verdict.absolute,
                "effective": verdict.effective,
            }
            if verdict.absolute:
                report["branch_points"] = verdict.branch_points
                report["genus"] = verdict.genus
    _emit(report, args.json)
    return 0


def cmd_corpus(args) -> int:
    try:
        if args.file:
            with open(args.file, "r", encoding="utf-8") as handle:
                rows = corpus_mod.parse_corpus(handle.read())
        else:
            rows = corpus_mod.load_bundled_corpus()
    except (OSError, UnicodeDecodeError, corpus_mod.CorpusFormatError) as e:
        print(f"corpus error: {e}", file=sys.stderr)
        return 2
    reports = corpus_mod.run_corpus(rows, jobs=args.jobs)
    payload = []
    failed = 0
    for rep in reports:
        entry = {"name": rep.name, "passed": rep.passed}
        if not rep.passed or args.verbose:
            entry["checks"] = [
                {"label": c.label, "passed": c.passed, "detail": c.detail}
                for c in rep.checks
            ]
        if not rep.passed:
            failed += 1
        payload.append(entry)
    summary = {"rows": len(reports), "failed": failed, "results": payload}
    _emit(summary, args.json)
    return 0 if failed == 0 else 1


def cmd_verify_tables(args) -> int:
    items = tables.run_verify_tables()
    payload = []
    ok = True
    for it in items:
        payload.append({"name": it.name, "passed": it.passed, "detail": it.detail})
        ok = ok and it.passed
    if args.json:
        _emit({"passed": ok, "items": payload}, True)
    else:
        for it in items:
            print(f"[{'PASS' if it.passed else 'FAIL'}] {it.name:22s} {it.detail}")
        print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cremona-lab",
        description="Exact lattice enumeration, symbolic map composition and "
        "classification-table verification for plane birational geometry.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="enumerate exceptional or fiber classes")
    pe.add_argument("--r", type=int, required=True, choices=range(1, 9))
    pe.add_argument("--kind", choices=("exc", "conic"), default="exc")
    pe.add_argument("--format", choices=("json", "text"), default="text")
    pe.set_defaults(func=cmd_enumerate)

    pw = sub.add_parser("weyl", help="analyze a lattice automorphism")
    src = pw.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=sorted(_BUILTIN_WEYL))
    src.add_argument("--matrix", help="JSON rows of an integer matrix in basis (E..,L)")
    pw.add_argument("--json", action="store_true")
    pw.set_defaults(func=cmd_weyl)

    pc = sub.add_parser("compose", help="compose two self-maps")
    pc.add_argument("--ambient", default="P2", choices=sorted(corpus_mod.AMBIENTS))
    pc.add_argument("f")
    pc.add_argument("g")
    pc.set_defaults(func=cmd_compose)

    po = sub.add_parser("order", help="order of a self-map")
    po.add_argument("--ambient", default="P2", choices=sorted(corpus_mod.AMBIENTS))
    po.add_argument("--order-cap", type=_positive_int, default=5040)
    po.add_argument("--degree-cap", type=_positive_int, default=DEGREE_CAP)
    po.add_argument("map")
    po.set_defaults(func=cmd_order)

    pj = sub.add_parser("jonq", help="analyze a fiber-preserving element")
    pj.add_argument(
        "--element",
        required=True,
        help="'a11, a12, a21, a22 [; b11, b12, b21, b22]' in the expression grammar",
    )
    pj.add_argument("--json", action="store_true")
    pj.set_defaults(func=cmd_jonq)

    pco = sub.add_parser("corpus", help="run the verification corpus")
    pco.add_argument("--file", help="corpus file (defaults to the bundled one)")
    pco.add_argument("--verbose", action="store_true")
    pco.add_argument("--json", action="store_true")
    pco.add_argument("--jobs", type=_positive_int, default=1, help="parallel row verification")
    pco.set_defaults(func=cmd_corpus)

    pv = sub.add_parser("verify-tables", help="re-verify all tables and identities")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify_tables)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
