"""Golden reports: CLI output compared byte for byte with tests/golden/.

Each file holds the standard output of one command, run in-process through
`cli.main`.  A golden changes only with an intended output change, in the
same commit, with every changed byte listed in CHANGES.md; it is never
rewritten to make an unintended difference pass.  The corpus report's golden
is checked by `test_cli.py::test_corpus_json_deterministic`, and the
`verify-tables` report's by
`test_tables.py::test_verify_tables_conic_item_passes_and_names_misprint`.
"""

from pathlib import Path

import pytest

from cremonalab.cli import main

GOLDEN = Path(__file__).parent / "golden"

_FOURTH_ROOT = ("(x+1)*(zeta(8)+zeta(8)^7-1-x), x^4-1, 1, (x+1)*(zeta(8)+zeta(8)^7-1-x);"
                " zeta(8)^2, 0, 0, 1")
# file name -> (argv, exit code)
CASES = {
    **{f"enumerate-exc-r{r}.json": (("enumerate", "--r", str(r), "--kind", "exc",
                                     "--format", "json"), 0) for r in range(1, 9)},
    **{f"enumerate-conic-r{r}.json": (("enumerate", "--r", str(r), "--kind", "conic",
                                       "--format", "json"), 0) for r in range(1, 8)},
    **{f"weyl-{name}.json": (("weyl", "--builtin", name, "--json"), 0)
       for name in ("geiser", "bertini", "dp4quad", "dp4cubic")},
    "weyl-geiser.txt": (("weyl", "--builtin", "geiser"), 0),
    "compose-readme.txt": (("compose", "(y*z : x*z : x*y)", "(y*z : x*z : x*y)"), 0),
    "order-readme.txt": (("order", "--ambient", "P3",
                          "(zeta(9)*w : x : zeta(3)*y : zeta(3)^2*z)"), 0),
    **{f"jonq-{i}.json": (("jonq", "--element", element, "--json"), 0)
       for i, element in enumerate((
           "0, x^4-1, 1, 0",
           "0, (x-1)/x, 1, 0",
           "x+1, -x, 1, -x-1",
           "0, zeta(3)*x^2 + 2, 1, 0",
           "0, -1, 1, 0",
           "0, -3, 1, 0",
           _FOURTH_ROOT,
           "x, x^2+1, 1, x",
           "x, 0, 0, 1; 1, 1, 0, 1",
           "1, x, 0, 1",
           "0, zeta(8)^2*x^2, 1, 0",
           "zeta(3)+2, 0, 0, 1",
       ), 1)},
}


def assert_golden(name: str, out: str) -> None:
    want = (GOLDEN / name).read_text()
    if out == want:
        return
    got_lines, want_lines = out.splitlines(), want.splitlines()
    for i, (got_line, want_line) in enumerate(zip(got_lines, want_lines), 1):
        if got_line != want_line:
            break
    else:
        i = min(len(got_lines), len(want_lines)) + 1
        got_line = got_lines[i - 1] if i <= len(got_lines) else "<end of output>"
        want_line = want_lines[i - 1] if i <= len(want_lines) else "<end of output>"
    pytest.fail(f"{name} differs at line {i}:\n  got:    {got_line[:300]}\n"
                f"  golden: {want_line[:300]}", pytrace=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    """Regenerate with `PYTHONPATH=src python -m cremonalab.cli <argv> >
    tests/golden/<name>`, the argv of CASES[name]."""
    argv, code = CASES[name]
    assert main(list(argv)) == code
    assert_golden(name, capsys.readouterr().out)

