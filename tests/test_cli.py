import json

from cremonalab.cli import main

from test_golden import assert_golden


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "--r", "3", "--kind", "exc", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 6
    assert data[0] == {"d": 0, "m": [-1, 0, 0]}


def test_enumerate_deterministic(capsys):
    _, out1 = run(capsys, "enumerate", "--r", "5", "--kind", "conic", "--format", "json")
    _, out2 = run(capsys, "enumerate", "--r", "5", "--kind", "conic", "--format", "json")
    assert out1 == out2
    assert len(json.loads(out1)) == 10


def test_weyl_builtin(capsys):
    code, out = run(capsys, "weyl", "--builtin", "geiser", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    assert data["fixed_rank"] == 1
    assert data["cyclotomic_multiplicities"] == {"1": 1, "2": 7}
    assert data["orbit_sizes"] == [2] * 28


def test_weyl_matrix_rejects_non_weyl(capsys):
    bad = json.dumps([[2, 0], [0, 1]])
    code, _ = run(capsys, "weyl", "--matrix", bad)
    assert code == 1


def test_compose(capsys):
    code, out = run(capsys, "compose", "(y*z : x*z : x*y)", "(y*z : x*z : x*y)")
    assert code == 0
    assert out.strip() == "(x : y : z)"


def test_order_cmd(capsys):
    code, out = run(capsys, "order", "(y : z : x)")
    assert code == 0 and out.strip() == "3"
    code, out = run(capsys, "order", "--ambient", "P3",
                    "(zeta(9)*w : x : zeta(3)*y : zeta(3)^2*z)")
    assert code == 0 and out.strip() == "9"


def test_order_parse_error(capsys):
    code, _ = run(capsys, "order", "(y : z : q)")
    assert code == 2
    code, _ = run(capsys, "order", "(x : y^2 : z)")  # not homogeneous
    assert code == 2


def test_jonq_analysis(capsys):
    code, out = run(capsys, "jonq", "--element", "0, x^4-1, 1, 0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    assert data["involution"] is True
    assert data["delta"]["radical"] == "x^4 - 1"
    assert data["twisting"]["absolute"] is True
    assert data["branch_points"] == 4 and data["genus"] == 1
    square = {"constant": "1", "radical": "1", "status": "resolved_square"}
    reports = {
        # y -> -1/y: det 1 is a square, so not twisting
        "0, -1, 1, 0": {"delta": square, "involution": True, "order": 2,
                        "twisting": {"absolute": False, "effective": False}},
        # an odd radical ramifies over infinity too
        "0, x, 1, 0": {"branch_points": 2, "genus": 0, "involution": True, "order": 2,
                       "delta": {"constant": "-1", "radical": "x",
                                 "status": "resolved_nonsquare"},
                       "twisting": {"absolute": True, "effective": True}},
        "1, x, 0, 1": {"delta": square, "involution": False, "order": "over-cap"},
        # 1 + zeta(8) lies in no field with an exact square test
        "0, zeta(8)+1, 1, 0": {"delta": {"constant": "-1 - zeta(8)", "radical": "1",
                                         "status": "indeterminate"},
                               "involution": True, "order": 2,
                               "twisting": {"absolute": False, "effective": None}},
    }
    for element, report in reports.items():
        code, out = run(capsys, "jonq", "--element", element, "--json")
        assert code == 0 and json.loads(out) == report, element


def test_jonq_with_base(capsys):
    code, out = run(capsys, "jonq", "--element", "1, 0, 0, 1; 0, 1, 1, 0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2 and data["involution"] is True
    assert "delta" not in data  # base action nontrivial


def test_jonq_bad_input(capsys):
    # Each shape error points into the --element text as written.
    cases = {
        "1, 2, 3": "A needs exactly 4 comma-separated entries at offset 7",
        "1, 0, 0, 1, 5": "A needs exactly 4 comma-separated entries at offset 12",
        "1, 0, 0, 1; 1, 0": "beta needs exactly 4 comma-separated entries at offset 16",
        "1, 0, 0, 1; x, 0, 0, 1": "beta needs 4 constant entries at offset 12",
        "1, 0, 0, 1; 1, 0, 0, 1; 2": "expected '<4 A entries> [; <4 beta entries>]' at offset 24",
        "1, 0, 0, q": "unknown variable 'q' (expected 'x') at offset 9",
    }
    for element, message in cases.items():
        assert main(["jonq", "--element", element]) == 2, element
        assert capsys.readouterr().err == f"parse error: {message}\n"


def test_corpus_json_deterministic(capsys):
    """The serial and the parallel report both match the golden; regenerate it with
    `PYTHONPATH=src python -m cremonalab.cli corpus --json --verbose >
    tests/golden/corpus-verbose.json`."""
    code1, out1 = run(capsys, "corpus", "--json", "--verbose")
    code2, out2 = run(capsys, "corpus", "--json", "--verbose", "--jobs", "2")
    assert code1 == code2 == 0
    assert_golden("corpus-verbose.json", out1)
    assert out1 == out2
    data = json.loads(out1)
    assert data["failed"] == 0
    names = [r["name"] for r in data["results"]]
    assert len(names) == len(set(names)) == data["rows"]


def test_corpus_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "broken | P2 | gen = (x : y : -z) | gen_orders = 3 | group = 3 | structure = 3\n"
    )
    code, out = run(capsys, "corpus", "--file", str(bad), "--json")
    assert code == 1
    assert json.loads(out)["failed"] == 1


def test_usage_error_exit_code(capsys):
    assert main(["enumerate", "--r", "11"]) == 2


def test_corpus_format_error_exit_code(tmp_path, capsys):
    # Row 1.B with 2*y^6 changed to 2*y^7: the equation is not weighted-homogeneous.
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "1.B | W3112 | F = w^2 - z^3 - (x^4 + x*y^3 + y^4)*z - (x^6 + x*y^5 + 2*y^7) "
        "| gen = (-w : x : y : z) | gen_orders = 2 | group = 2 | structure = 2\n"
    )
    code = main(["corpus", "--file", str(bad)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err
    # Every weight-one component of the generator vanishes: not a birational map.
    bad.write_text(
        "1.B | W3112 | F = w^2 - z^3 - (x^4 + x*y^3 + y^4)*z - (x^6 + x*y^5 + 2*y^6) "
        "| gen = (w : 0 : 0 : z) | gen_orders = 2 | group = 2 | structure = 2\n"
    )
    assert main(["corpus", "--file", str(bad)]) == 2
    assert "weight-one" in capsys.readouterr().err
    # Bidegrees (1, 1) and (2, 0) in one output factor: not a map of P1 x P1.
    bad.write_text(
        "P1.bad | P1xP1 | gen = (x1 : x2) x (x1*y1 : x1*x2) | gen_orders = 2 | group = 2 "
        "| structure = 2\n"
    )
    assert main(["corpus", "--file", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err
    assert main(["compose", "--ambient", "P1xP1", "(x1 : x2) x (x1*y1 : x1*x2)",
                 "(x1 : x2) x (y1 : y2)"]) == 2
    assert "inconsistent component degrees" in capsys.readouterr().err
    # Only whitespace and one x may stand between component tuples.
    for bad_map in ("x(x : y : z)", "(x : y : z) x"):
        assert main(["compose", bad_map, "(x : y : z)"]) == 2
        assert "component tuples" in capsys.readouterr().err


def test_corpus_file_not_utf8_is_a_corpus_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a | P2 | gen = (x : y : z) \xff| gen_orders = 1 | group = 1 "
                    b"| structure = 1\n")
    assert main(["corpus", "--file", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "corpus error: 'utf-8' codec can't decode byte 0xff in position 27: invalid start byte\n"
    )


def test_base_point_on_the_command_line_is_an_error(capsys):
    assert main(["compose", "(x*y : x*z : y*z)", "(x : 0 : 0)"]) == 2
    assert capsys.readouterr().err == "composition undefined: an output factor vanishes\n"
    # g o g keeps no weight-one component in P(2,1,1,1): it is not dominant
    assert main(["order", "--ambient", "W2111", "(w : 0 : 0 : x)"]) == 2
    assert capsys.readouterr().err == (
        "every weight-one component of an output factor vanishes: the map is not dominant\n"
    )


def test_zero_divisors_are_parse_errors(tmp_path, capsys):
    cases = {
        ("order", "(0^-1*x : y : z)"): 2,
        ("order", "(x : y : (1-1)^-2*z)"): 14,
        ("jonq", "--element", "1/0, 0, 0, 1"): 1,
        ("jonq", "--element", "0^-1, 0, 0, 1"): 1,
        ("jonq", "--element", "x/(x-x), 1, 1, 1"): 1,
        ("jonq", "--element", "1, 0, 0, 1/0"): 10,
    }
    for argv, offset in cases.items():
        assert main(list(argv)) == 2, argv
        assert capsys.readouterr().err == f"parse error: division by zero at offset {offset}\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("z | P2 | F = x^3 + 0^-1*y^3 + z^3 | gen = (x : y : z) | gen_orders = 1 "
                   "| group = 1 | structure = 1\n")
    assert main(["corpus", "--file", str(bad)]) == 2
    assert capsys.readouterr().err == "corpus error: line 1 (z): division by zero at offset 7\n"


def test_bad_caps_and_matrices_are_usage_errors(capsys):
    for argv in (("--order-cap", "0"), ("--order-cap", "x")):
        assert main(["order", *argv, "(x : y : z)"]) == 2
        assert "must be a positive integer" in capsys.readouterr().err
    assert run(capsys, "order", "--order-cap", "1", "(x : y : z)") == (0, "1\n")
    assert main(["order", "--degree-cap", "16", "(x : y : z)"]) == 2
    assert "unrecognized arguments: --degree-cap" in capsys.readouterr().err
    for jobs in ("0", "-3", "x"):
        assert main(["corpus", "--jobs", jobs]) == 2
        assert "must be a positive integer" in capsys.readouterr().err
    # r = 0, not an array, a float entry, a ragged row, r = 9
    for bad in ("[[1]]", "5", "[[1.5, 0], [0, 1]]", "[[1, 0], [0]]", json.dumps([[1] * 10] * 10)):
        assert main(["weyl", "--matrix", bad]) == 2
        assert "--matrix must be" in capsys.readouterr().err
    code, out = run(capsys, "weyl", "--matrix", "[[1, 0], [0, 1]]", "--json")
    assert code == 0 and json.loads(out)["r"] == 1
