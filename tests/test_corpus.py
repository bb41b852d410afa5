import pytest

from cremonalab import corpus
from cremonalab.corpus import (
    CorpusFormatError,
    load_bundled_corpus,
    parse_corpus,
    run_corpus,
    verify_row,
)
from cremonalab.maps import abelian_structure_matches, group_closure


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
    labels = [c.label for c in rep.checks if not c.passed]
    assert any("invariance" in l for l in labels)


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
    assert failing[0].detail == "1"
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


def test_full_corpus_passes():
    reports = run_corpus(load_bundled_corpus())
    failing = [r.name for r in reports if not r.passed]
    assert not failing, f"failing rows: {failing}"


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
    assert checks["group order"].passed
    assert not checks["structure"].passed
    assert checks["structure"].detail == "computed non-abelian / expected 6"


def test_closure_overflow_is_a_failed_group_order():
    rows = parse_corpus(
        "big | P2 | gen = (x : y : zeta(8)*z) | gen_orders = 8 | group = 8 | structure = 8"
    )
    failing = [c for c in verify_row(rows[0], closure_cap=4).checks if not c.passed]
    assert [(c.label, c.detail) for c in failing] == [
        ("group order", "group closure exceeded 4 elements")
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
