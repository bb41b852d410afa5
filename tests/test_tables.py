from cremonalab.tables import _sub_checks, run_verify_tables


def test_verify_tables_conic_item_passes_and_names_misprint():
    items = {it.name: it for it in run_verify_tables(include_corpus=False)}
    conic = items["conic-counts"]
    assert conic.passed, conic.detail
    assert "126" in conic.detail and "146" in conic.detail
    failing = [(it.name, it.detail) for it in items.values() if not it.passed]
    assert not failing


def test_failing_sub_check_is_named():
    assert _sub_checks({"order 2": True, "fixed rank 1": False, "weyl": False}) == (
        False,
        "failed: fixed rank 1, weyl",
    )
    assert _sub_checks({"order 2": True, "weyl": True}) == (True, "all pass: order 2, weyl")
