import json

import pytest

from cremonalab import tables
from cremonalab.cli import main
from cremonalab.tables import _sub_checks, run_verify_tables

from test_golden import assert_golden


def test_verify_tables_conic_item_passes_and_names_misprint(capsys):
    """The report without its timings matches the golden; regenerate it with
    `PYTHONPATH=src python -m cremonalab.cli verify-tables --json |
    sed 's/,"seconds":[0-9.]*//g' > tests/golden/verify-tables.json`."""
    assert main(["verify-tables", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for item in report["items"]:
        del item["seconds"]
    assert_golden("verify-tables.json",
                  json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    items = {it["name"]: it for it in report["items"]}
    conic = items["conic-counts"]
    assert conic["passed"], conic["detail"]
    assert "126" in conic["detail"] and "146" in conic["detail"]
    failing = [(it["name"], it["detail"]) for it in items.values() if not it["passed"]]
    assert not failing


def test_failing_sub_check_is_named():
    assert _sub_checks({"order 2": True, "fixed rank 1": False, "weyl": False}) == (
        False,
        "failed: fixed rank 1, weyl",
    )
    assert _sub_checks({"order 2": True, "weyl": True}) == (True, "all pass: order 2, weyl")


def test_internal_error_in_an_item_propagates(monkeypatch):
    def broken():
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(tables, "_exceptional_counts", broken)
    with pytest.raises(ZeroDivisionError, match="planted"):
        run_verify_tables(include_corpus=False)
