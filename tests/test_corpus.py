import dataclasses
import random
import signal
from importlib import resources

import pytest

from cremonalab import corpus
from cremonalab.corpus import (
    CorpusFormatError,
    load_bundled_corpus,
    parse_corpus,
    verify_row,
)
from cremonalab.maps import ProjMap, abelian_structure_matches, group_closure
from cremonalab.multipoly import MultiPoly


def test_bundled_corpus_parses():
    rows = load_bundled_corpus()
    assert len(rows) >= 60
    names = [r.name for r in rows]
    assert len(names) == len(set(names))
    for r in rows:
        assert r.generators
        assert len(r.gen_orders) == len(r.generators)


def test_duplicate_names_rejected():
    text = (
        "a | P2 | gen = (x : y : -z) | gen_orders = 2 | group = 2 | structure = 2\n"
        "a | P2 | gen = (x : y : -z) | gen_orders = 2 | group = 2 | structure = 2\n"
    )
    with pytest.raises(CorpusFormatError):
        parse_corpus(text)


# Row 1.B of the bundled corpus with 2*y^6 changed to 2*y^7.
ROW_1B_NOT_HOMOGENEOUS = (
    "1.B | W3112 | F = w^2 - z^3 - (x^4 + x*y^3 + y^4)*z - (x^6 + x*y^5 + 2*y^7) "
    "| gen = (-w : x : y : z) | gen_orders = 2 | group = 2 | structure = 2"
)


def test_malformed_rows_rejected():
    with pytest.raises(CorpusFormatError):
        parse_corpus("bad | P9 | gen = (x : y) | gen_orders = 1 | group = 1 | structure = 1")
    with pytest.raises(CorpusFormatError):
        parse_corpus("bad | P2 | gen = (x : y) | gen_orders = 2 | group = 2 | structure = 2")
    with pytest.raises(CorpusFormatError):
        parse_corpus("bad | P2 | gen = (x : y : z) | group = 1 | structure = 1")
    with pytest.raises(CorpusFormatError, match="line 1"):
        parse_corpus(ROW_1B_NOT_HOMOGENEOUS)
    with pytest.raises(CorpusFormatError, match="line 1"):
        parse_corpus("bad | P2 | gen = (x : y^2 : z) | gen_orders = 2 | group = 2 | structure = 2")
    # an order that is not positive used to reach order_of_map and raise there
    for claims in ("gen_orders = -6 | group = 2 | structure = 2",
                   "gen_orders = 2 | group = 0 | structure = 2",
                   "gen_orders = 2 | group = 2 | structure = 2,-1"):
        with pytest.raises(CorpusFormatError, match="positive"):
            parse_corpus(f"bad | P2 | gen = (x : y : -z) | {claims}")


def test_verify_detects_wrong_expectations():
    rows = parse_corpus(
        "wrong | P2 | gen = (x : y : -z) | gen_orders = 3 | group = 2 | structure = 2"
    )
    rep = verify_row(rows[0])
    assert not rep.passed
    rows = parse_corpus(
        "wrong2 | P2 | gen = (x : y : -z) | gen_orders = 2 | group = 4 | structure = 2,2"
    )
    assert not verify_row(rows[0]).passed


def test_verify_detects_noninvariant_surface():
    rows = parse_corpus(
        "bad-surface | P3 | F = w^3 + x^3 + y^3 + z^3 | gen = (w : x : y : 2*z) "
        "| gen_orders = 1 | group = 1 | structure = 1"
    )
    rep = verify_row(rows[0])
    assert not rep.passed
    failing = [(c.label, c.detail) for c in rep.checks if not c.passed]
    assert failing[0] == ("gen1 invariance", "not semi-invariant: F = w^3 + x^3 + y^3 + z^3")


def test_failed_checks_name_both_sides():
    # A passing detail is only what was computed, as the bench reads it.
    rows = parse_corpus(
        "small | P2 | gen = (x : y : -z) | gen_orders = 2 | group = 4 | structure = 4\n"
        "sign | P3 | F = w^3 + x^3 + y^3 + z^3 | gen = (-w : -x : -y : -z) | gen_orders = 1 "
        "| group = 1 | structure = 1\n"
        "scale | P3 | F = w^3 + x^3 + y^3 + z^3 | gen = (2*w : 2*x : 2*y : 2*z) "
        "| gen_orders = 1 | group = 1 | structure = 1"
    )
    checks = [[(c.label, c.passed, c.detail) for c in verify_row(row).checks] for row in rows]
    assert checks[0] == [("gen1 order", True, "computed 2"),
                         ("group order", False, "computed 2 / expected 4")]
    assert checks[1][:2] == [
        ("gen1 invariance", True, "-1"),
        ("gen1 factor order", False, "lambda=-1 of order 2 / expected order dividing 1")]
    assert checks[2][1] == (
        "gen1 factor order", False, "lambda=8 of infinite order / expected order dividing 1")


def test_verify_second_equation_kept_first_not():
    # The generator scales the second equation but maps the first outside
    # the span of both: a failed invariance check, not an exception.
    rows = parse_corpus(
        "kept-second | P3 | F = w^2 + x^2 + y^2 + y*z | F = w*x + y^2 "
        "| gen = (w : x : y : -z) | gen_orders = 2 | group = 2 | structure = 2"
    )
    rep = verify_row(rows[0])
    failing = [c for c in rep.checks if not c.passed]
    assert [c.label for c in failing] == ["gen1 invariance"]
    assert failing[0].detail == "not semi-invariant: F = w^2 + x^2 + y^2 + y*z; 1"
    assert [c.detail for c in rep.checks if c.label == "gen1 factor order"] == ["lambda=1"]


def test_spotlight_row_2g44():
    rows = {r.name: r for r in load_bundled_corpus()}
    rep = verify_row(rows["2.G44"])
    assert rep.passed
    assert rows["2.G44"].group_order == 32
    assert rows["2.G44"].structure == (2, 4, 4)


def test_spotlight_row_442():
    rows = {r.name: r for r in load_bundled_corpus()}
    row = rows["4.42"]
    assert row.gen_orders == [4, 2]
    assert verify_row(row).passed


def test_spotlight_row_1b():
    rows = {r.name: r for r in load_bundled_corpus()}
    assert verify_row(rows["1.B"]).passed


def _abelian_types(n: int) -> list[tuple[int, ...]]:
    """Every way to write n as a product of cyclic orders > 1, nondecreasing."""

    def rec(n: int, least: int):
        if n == 1:
            yield ()
        for m in range(least, n + 1):
            if n % m == 0:
                for rest in rec(n // m, m):
                    yield (m,) + rest

    return list(rec(n, 2))


def _primary_parts(orders) -> list[int]:
    """The prime-power cyclic factors of Z/m1 x ... x Z/mk, sorted."""
    parts = []
    for m in orders:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m, q = m // p, q * p
            if q > 1:
                parts.append(q)
            p += 1
    return sorted(parts)


def test_structure_check_separates_every_abelian_type_on_degree_one_rows():
    rows = [r for r in load_bundled_corpus() if all(g.is_degree_one() for g in r.generators)]
    assert len(rows) == 73
    for row in rows:
        closure = group_closure(row.generators, cap=128)
        assert len(closure) == row.group_order, row.name
        types = _abelian_types(row.group_order)
        accepted = [t for t in types if abelian_structure_matches(closure, t)]
        assert accepted == [
            t for t in types if _primary_parts(t) == _primary_parts(row.structure)
        ], row.name
    assert _primary_parts((6,)) == _primary_parts((2, 3))
    assert _primary_parts((2, 4)) != _primary_parts((8,))


def test_structure_detail_names_both_sides():
    rows = parse_corpus(
        "r | P1xP1 | gen = (-x1 : x2) x (y1 : y2) | gen = (x1 : x2) x (zeta(4)*y1 : y2) "
        "| gen_orders = 2,4 | group = 8 | structure = 8"
    )
    checks = {c.label: c for c in verify_row(rows[0]).checks}
    assert not checks["structure"].passed
    assert checks["structure"].detail == "computed 2,4 / expected 8"
    rows = parse_corpus(
        "r | P2 | gen = (x : y : -z) | gen = (x : zeta(3)*y : z) | gen_orders = 2,3 "
        "| group = 6 | structure = 2,3"
    )
    checks = {c.label: c for c in verify_row(rows[0]).checks}
    assert checks["structure"].passed
    assert checks["structure"].detail == "computed 6 / expected 6"


def test_noncommuting_pair_fails_its_row():
    rows = parse_corpus(
        "s3 | P2 | gen = (y : x : z) | gen = (x : z : y) | gen_orders = 2,3 "
        "| group = 6 | structure = 6"
    )
    rep = verify_row(rows[0])
    assert not rep.passed
    checks = {c.label: c for c in rep.checks}
    assert not checks["gen1,gen2 commute"].passed
    assert checks["gen1,gen2 commute"].detail == "gen1*gen2 != gen2*gen1"
    # no closure is built, so the structure goes unchecked
    assert not checks["group order"].passed
    assert checks["group order"].detail == "not abelian: gen1*gen2 != gen2*gen1"
    assert "structure" not in checks


def test_closure_overflow_is_a_failed_group_order():
    # The closure stops past the claimed group order, or before its first
    # element when two generators do not commute.  Without a closure, orders
    # and commutation are computed from the generators, with the same checks
    # and details.
    rows = parse_corpus(
        "big | P2 | gen = (x : y : zeta(8)*z) | gen_orders = 8 | group = 4 | structure = 8\n"
        "over | P2 | gen = (x : y : zeta(8)*z) | gen_orders = 2 | group = 4 | structure = 8\n"
        "pair | P2 | gen = (x : y : -z) | gen = (x : -y : z) | gen_orders = 2,3 | group = 2 "
        "| structure = 2\n"
        "s3 | P2 | gen = (y : x : z) | gen = (x : z : y) | gen_orders = 2,3 | group = 4 "
        "| structure = 6"
    )
    overflow = ("group order", False, "group closure exceeded 4 elements")
    checks = [[(c.label, c.passed, c.detail) for c in verify_row(row).checks] for row in rows]
    assert checks == [
        [("gen1 order", True, "computed 8"), overflow],
        [("gen1 order", False, "computed OverCap / expected 2"), overflow],
        [("gen1 order", True, "computed 2"), ("gen2 order", False, "computed 2 / expected 3"),
         ("gen1,gen2 commute", True, ""),
         ("group order", False, "group closure exceeded 2 elements")],
        [("gen1 order", True, "computed 2"), ("gen2 order", False, "computed 2 / expected 3"),
         ("gen1,gen2 commute", False, "gen1*gen2 != gen2*gen1"),
         ("group order", False, "not abelian: gen1*gen2 != gen2*gen1")],
    ]


def _checks_within(row, seconds):
    """(label, passed, detail) of each check of row; a repeating timer fails
    the test rather than let a runaway row hang it."""

    def over_budget(signum, frame):
        raise TimeoutError(f"row {row.name} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
    try:
        return [(c.label, c.passed, c.detail) for c in verify_row(row).checks]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_runaway_degree_is_a_failed_group_order():
    # g^k has degree 2^k.  Claiming 2 elements, the closure stops at its
    # third; claiming 8, only the closure's degree bound ends the row, at g^7.
    rows = parse_corpus(
        "h | P2 | gen = (x*y : y^2 : z^2) | gen_orders = 2 | group = 2 | structure = 2\n"
        "h8 | P2 | gen = (x*y : y^2 : z^2) | gen_orders = 2 | group = 8 | structure = 8"
    )
    assert [_checks_within(row, 1.0) for row in rows] == [
        [("gen1 order", False, "computed OverCap / expected 2"),
         ("group order", False, "group closure exceeded 2 elements")],
        [("gen1 order", False, "computed OverCap / expected 2"),
         ("group order", False, "group closure element of degree over 64")],
    ]


def test_closure_stops_past_the_claimed_order():
    # One character of C.22,22 breaks the commutation of gen2 and gen4; the
    # closure stops at that pair, before its first element.
    text = resources.files("cremonalab.data").joinpath("corpus.txt").read_text()
    line = next(t for t in text.splitlines() if t.startswith("C.22,22 "))
    row = parse_corpus(line.replace("(x2 : x1) x (y1 : y2)", "(x2 : x1) x (y1 :-y2)"))[0]
    assert [c for c in _checks_within(row, 1.0) if not c[1]] == [
        ("gen2,gen4 commute", False, "gen2*gen4 != gen4*gen2"),
        ("group order", False, "not abelian: gen2*gen4 != gen4*gen2"),
    ]


def test_base_point_in_the_fallback_is_a_failed_check():
    # The closure meets a base point, and so do the fallback's products:
    # (y : z : 0) o (x : 0 : 0) vanishes, and so does g o g for the weighted
    # g, whose square keeps no weight-one component.
    rows = parse_corpus(
        "a | P2 | gen = (y : z : 0) | gen = (x : 0 : 0) | gen_orders = 2,2 | group = 4 "
        "| structure = 2,2\n"
        "b | W2111 | gen = (w : 0 : 0 : x) | gen_orders = 2 | group = 2 | structure = 2"
    )
    undefined = "composition undefined: an output factor vanishes"
    not_dominant = ("every weight-one component of an output factor vanishes:"
                    " the map is not dominant")
    assert [_checks_within(row, 1.0) for row in rows] == [
        [("gen1 order", False, "computed OverCap / expected 2"),
         ("gen2 order", False, "computed OverCap / expected 2"),
         ("gen1,gen2 commute", False, undefined), ("group order", False, undefined)],
        [("gen1 order", False, not_dominant), ("group order", False, not_dominant)],
    ]


def test_internal_error_in_closure_propagates(monkeypatch):
    def broken_closure(gens, cap):
        raise ZeroDivisionError("internal fault")

    monkeypatch.setattr(corpus, "group_closure", broken_closure)
    rows = parse_corpus(
        "0.2 | P2 | gen = (x : y : -z) | gen_orders = 2 | group = 2 | structure = 2"
    )
    with pytest.raises(ZeroDivisionError):
        verify_row(rows[0])


def test_run_corpus_starts_no_more_workers_than_rows(monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    rows = parse_corpus(
        "a | P2 | gen = (x : y : -z) | gen_orders = 2 | group = 2 | structure = 2\n"
        "b | P2 | gen = (x : -y : z) | gen_orders = 2 | group = 2 | structure = 2"
    )
    assert [r.name for r in corpus.run_corpus(rows, jobs=64)] == ["a", "b"]
    assert started == [2]


def _conjugate(row, seed):
    """The row conjugated by A = 1 + u*v^T for seeded integer vectors with
    v.u = 0, so (u*v^T)^2 = 0: A is unipotent and A^-1 = 1 - u*v^T exactly.
    Generators become A*g*A^-1 and equations F(A^-1 x)."""
    rng = random.Random(seed)
    names = row.ambient.vars
    v = [rng.choice((-1, 0, 1, 2)) for _ in names]
    i, j = rng.sample(range(len(names)), 2)
    v[i] = 1
    u = [0] * len(names)
    u[i], u[j] = v[j], -1
    xs = [MultiPoly.variable(names, name) for name in names]
    vx = sum((c * x for c, x in zip(v, xs)), MultiPoly.zero(names))
    a = ProjMap(row.ambient, [x + c * vx for x, c in zip(xs, u)])
    a_inv = ProjMap(row.ambient, [x - c * vx for x, c in zip(xs, u)])
    images = dict(zip(names, a_inv.components))
    return dataclasses.replace(
        row,
        generators=[a.compose(g).compose(a_inv) for g in row.generators],
        equations=[F.subs(images) for F in row.equations],
    )


def test_conjugate_rows_give_the_same_checks():
    # Every claim of a row is invariant under conjugation in Cr(2), so a row
    # and its conjugate must give the same checks, printed values included:
    # under seed 3 row 3.9 computes lambda = zeta(3) stored over Q(zeta_9).
    # This slice covers every row on P2, P3 and P4; P1xP1 and the weighted
    # ambients need other automorphism families.
    rows = [r for r in load_bundled_corpus() if r.ambient_name in ("P2", "P3", "P4")]
    assert len(rows) == 20
    differ = []
    for row in rows:
        conj = _conjugate(row, seed=3)
        assert conj.generators != row.generators, row.name
        if verify_row(conj).checks != verify_row(row).checks:
            differ.append(row.name)
    assert differ == []


def test_conjugate_row_with_a_wrong_order_still_fails():
    row = {r.name: r for r in load_bundled_corpus()}["3.9"]
    conj = _conjugate(dataclasses.replace(row, gen_orders=[3]), seed=3)
    failing = [c.label for c in verify_row(conj).checks if not c.passed]
    assert failing == ["gen1 order"]
