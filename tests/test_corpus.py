import pytest

from cremonalab.corpus import (
    CorpusFormatError,
    load_bundled_corpus,
    parse_corpus,
    run_corpus,
    verify_row,
)


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
