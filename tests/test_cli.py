import json

import pytest

from mathieu_kit import GF, matrix_algebra, verify_witness, witness_from_dict
from mathieu_kit.cli import main
from mathieu_kit.serialize import parse_subspace_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_space_check_trace_plane(capsys):
    code, out, _ = run_cli(
        capsys,
        "space",
        "check",
        "--algebra",
        "mat:2:3",
        "--basis",
        "1,0,0,2;0,1,0,0;0,0,1,0",
        "--theta",
        "two_sided",
    )
    assert code == 0
    assert out.strip() == "true"


def test_space_check_false_with_witness_and_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "--json",
        "space",
        "check",
        "--algebra",
        "mat:2:2",
        "--basis",
        "1,0,0,1;0,1,0,0;0,0,1,0",
        "--theta",
        "left",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["is_mathieu"] is False
    assert doc["witness"]["e"] == ["1", "0", "0", "1"]


def test_json_witness_replays_through_the_exported_reader(capsys):
    # E_11 = 0 in M_3(F_5): the right witness is the 177th idempotent
    basis = ";".join(",".join("1" if j == i else "0" for j in range(9)) for i in range(1, 9))
    code, out, _ = run_cli(
        capsys, "--json", "space", "check", "--algebra", "mat:3:5", "--basis", basis,
        "--theta", "right",
    )
    assert code == 1
    doc = json.loads(out)
    a = matrix_algebra(3, GF(5))
    v = parse_subspace_spec(a, basis)
    witness = witness_from_dict(a.field, doc["witness"])
    assert witness.e == (0, 0, 1, 0, 0, 0, 0, 0, 1) and witness.b is None
    assert verify_witness(v, "right", witness)
    assert not verify_witness(v, "left", witness)


def test_codim1_report(capsys):
    code, out, _ = run_cli(capsys, "--json", "mat", "codim1", "--n", "2", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 15
    assert all(v == 0 for v in doc["per_theta"].values())


def test_elem_pofa_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "--json", "elem", "pofa", "--algebra", "mat:2:0", "--elem", "1,0,0,0"
    )
    assert code == 0
    assert json.loads(out) == ["1/1", "0/1", "0/1", "0/1"]
    # the emitted document feeds back through --elem @file
    path = tmp_path / "e.json"
    path.write_text(out)
    code, out2, _ = run_cli(
        capsys, "--json", "elem", "classify", "--algebra", "mat:2:0", "--elem", f"@{path}"
    )
    assert code == 0
    assert json.loads(out2)["idempotent"] is True


def test_algebra_info_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--json", "algebra", "info", "--algebra", "polyq:2:1,1,1")
    assert code == 0
    path = tmp_path / "f4.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "--json", "algebra", "info", "--algebra", f"@{path}")
    assert code == 0
    assert json.loads(out)["table"] == json.loads(out2)["table"]


def test_subspace_documents_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "--json",
        "space",
        "theta-ideal",
        "--algebra",
        "mat:2:2",
        "--elem",
        "1,0,0,0",
        "--theta",
        "left",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [["1", "0", "0", "0"], ["0", "0", "1", "0"]]
    path = tmp_path / "v.json"
    path.write_text(out)
    code, out2, _ = run_cli(
        capsys,
        "--json",
        "space",
        "max-ideal",
        "--algebra",
        "mat:2:2",
        "--basis",
        f"@{path}",
        "--theta",
        "left",
    )
    assert code == 0
    assert json.loads(out2)["basis"] == doc["basis"]  # left ideals are fixed points


def test_byte_identical_reruns(capsys):
    args = (
        "--json",
        "space",
        "radical-enum",
        "--algebra",
        "polyq:2:0,0,0,1",
        "--basis",
        "0,1,0",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["count"] == 4


def test_alg_verbs(capsys):
    code, out, _ = run_cli(capsys, "alg", "quasi-stable", "--algebra", "polyq:2:1,1,1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "alg", "quasi-stable", "--algebra", "mat:2:2")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run_cli(capsys, "alg", "stable", "--algebra", "dsum:mat:1:2+mat:1:2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "--json", "alg", "find-ms", "--algebra", "mat:2:2")
    assert code == 0
    assert json.loads(out)["basis"] == [["0", "0", "1", "0"]]


def test_find_ms_charges_its_subspace_enumeration_to_max_scan(capsys):
    # M_2(F_2) has 15 lines, each one evaluation of the enumeration
    code, out, err = run_cli(capsys, "--max-scan", "5", "alg", "find-ms", "--algebra", "mat:2:2")
    assert (code, out) == (2, "")
    assert "subspace enumeration over M_2(F(2)) needs 15 evaluations, budget is 5" in err
    # M_4(F_3) has 21,523,360 lines: past the default budget, inside this one
    code, out, _ = run_cli(
        capsys, "--max-scan", "100000000", "alg", "find-ms", "--algebra", "mat:4:3"
    )
    assert code == 0 and out.strip() == "dim 1: [" + "0, " * 14 + "1, 0]"
    # M_3(F_7) has 6,725,601 lines, inside the default budget
    code, out, _ = run_cli(capsys, "alg", "find-ms", "--algebra", "mat:3:7")
    assert code == 0 and out.strip() == "dim 1: [0, 0, 0, 0, 0, 0, 0, 1, 0]"


def test_mat_dual_and_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "--json",
        "mat",
        "dual",
        "--algebra",
        "mat:2:3",
        "--basis",
        "1,0,0,2;0,1,0,0;0,0,1,0",
    )
    assert code == 0
    assert json.loads(out)["canonical"] == ["1", "0", "0", "1"]
    code, out, _ = run_cli(
        capsys, "--json", "mat", "witness", "--algebra", "mat:2:3", "--elem", "0,1,0,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == ["1", "0", "0", "0"]  # case 1 with a = 0


def test_validate_reports_bad_algebra(capsys, tmp_path):
    bad = {
        "field": {"p": 2},
        "dim": 2,
        "table": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        "unit": ["1", "0"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "algebra", "validate", "--algebra", f"@{path}")
    assert code == 1
    assert "invalid" in out


def test_usage_errors_exit_2(capsys):
    assert main(["space", "check", "--algebra", "nonsense:spec"]) == 2
    assert main(["--jobs", "2", "algebra", "info", "--algebra", "mat:2:2"]) == 2
    assert main(["--seed", "5", "suite", "run", "stable"]) == 2
    code, _, err = run_cli(
        capsys, "space", "check", "--algebra", "bogus", "--basis", "1", "--theta", "left"
    )
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(
        capsys, "elem", "classify", "--algebra", "mat:2:5", "--elem", "7,-1,0,12"
    )
    assert code == 2
    assert "out of range" in err
    for spec in (
        "dsum:dsum:mat:1:2+mat:1:2+mat:1:2", "mat:1:2+mat:1:2", "mat:2", "polyq:5", "mat:2:x"
    ):
        code, _, err = run_cli(capsys, "algebra", "info", "--algebra", spec)
        assert code == 2
        assert "unrecognized algebra spec" in err
    # coordinate counts that do not match the dimension (4) of mat:2:5
    for argv in (
        ["--json", "elem", "classify", "--algebra", "mat:2:5", "--elem", "1,2"],
        ["space", "radical-member", "--algebra", "mat:2:5", "--basis", "1,0,0,0",
         "--elem", "0,1"],
        ["elem", "minpoly", "--algebra", "mat:2:5", "--elem", "1,2,3,4,0"],
        ["mat", "witness", "--algebra", "mat:2:5", "--elem", "1,2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "expected 4 coordinates" in err
    # a zero denominator over the rationals, in an element and in a modulus
    for argv in (
        ["elem", "minpoly", "--algebra", "mat:2:0", "--elem", "1/0,0,0,0"],
        ["algebra", "info", "--algebra", "polyq:0:1/0,1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "zero denominator" in err


def test_input_errors_are_reported_algebra_then_basis_then_element(capsys):
    # a malformed basis and a malformed element: the basis is parsed first
    for verb, theta in (("radical-member", []), ("certify", ["--theta", "two_sided"])):
        code, out, err = run_cli(
            capsys, "space", verb, "--algebra", "mat:2:5", "--basis", "1,0,0", *theta,
            "--elem", "1,2",
        )
        assert (code, out) == (2, ""), verb
        assert "spanning vector length" in err and "expected 4 coordinates" not in err
    code, _, err = run_cli(
        capsys, "space", "certify", "--algebra", "bogus", "--basis", "1,0,0",
        "--theta", "left", "--elem", "1,2",
    )
    assert code == 2 and "unrecognized algebra spec" in err
    # verbs without a basis, or without an algebra, still run
    code, out, _ = run_cli(
        capsys, "space", "theta-ideal", "--algebra", "mat:2:2", "--elem", "1,0,0,0",
        "--theta", "left",
    )
    assert code == 0 and out.strip() == "[1, 0, 0, 0]; [0, 0, 1, 0]"
    code, out, _ = run_cli(capsys, "mat", "codim1", "--n", "2", "--q", "3")
    assert code == 0 and out.startswith("M_2(F_3): ")


MALFORMED_ALGEBRAS = (
    {"direct_sum": [1, 2]},
    [1, 2],
    {"opposite": None},
    {"field": {"p": 3}, "table": 5, "unit": ["1"]},
    {"field": {"p": 3}, "table": [[5]], "unit": ["1"]},
    {"matrix": {"n": None}, "field": {"p": 3}},
    {"matrix": {"n": 2}, "field": {"p": [3]}},
    {"matrix": 2},
    {"poly_quotient": {"modulus": 7}, "field": {"p": 3}},
    # floats and booleans are refused, not truncated to M_2(F_3) and M_1
    {"matrix": {"n": 2.9}, "field": {"p": 3.7}},
    {"matrix": {"n": True}, "field": {"p": 3}},
)


BASIS = ["space", "radical-member", "--algebra", "mat:2:3", "--elem", "0,0,0,0", "--basis"]


@pytest.mark.parametrize(
    "argv, doc",
    [pytest.param(["algebra", verb, "--algebra"], doc, id=f"{verb}:{json.dumps(doc)}")
     for verb in ("info", "validate") for doc in MALFORMED_ALGEBRAS]
    + [
        pytest.param(BASIS, {"basis": 5}, id="basis:5"),
        pytest.param(BASIS, {"basis": [5]}, id="basis:[5]"),
        pytest.param(["elem", "classify", "--algebra", "mat:2:3", "--elem"], {"coords": 5},
                     id="elem:5"),
    ],
)
def test_malformed_documents_are_usage_errors(capsys, tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv, f"@{path}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_env_var_mirrors_max_scan(capsys, monkeypatch):
    monkeypatch.setenv("MATHIEU_KIT_MAX_SCAN", "3")
    code, _, err = run_cli(
        capsys,
        "space",
        "radical-enum",
        "--algebra",
        "mat:2:2",
        "--basis",
        "0,1,0,0",
    )
    assert code == 2
    assert "budget" in err


def test_malformed_env_max_scan_is_a_usage_error(capsys, monkeypatch):
    # a negative budget is malformed too, and 0 is a budget
    code, out, err = run_cli(capsys, "--max-scan", "-1", "alg", "find-ms", "--algebra", "mat:2:2")
    assert (code, out) == (2, "") and "'-1'" in err
    assert run_cli(capsys, "--max-scan", "0", "algebra", "info", "--algebra", "mat:2:2")[0] == 0
    for raw in ("abc", "1e7", "-5"):
        monkeypatch.setenv("MATHIEU_KIT_MAX_SCAN", raw)
        code, out, err = run_cli(capsys, "algebra", "info", "--algebra", "mat:2:2")
        assert code == 2
        assert out == ""
        assert "error:" in err and "MATHIEU_KIT_MAX_SCAN" in err and raw in err
        # help never reads the budget, and an explicit --max-scan wins
        assert run_cli(capsys, "--help")[0] == 0
        code, out, err = run_cli(
            capsys, "--max-scan", "100", "algebra", "info", "--algebra", "mat:2:2"
        )
        assert code == 0 and out and err == ""


def test_suite_run_json_lines(capsys):
    code, out, _ = run_cli(capsys, "--json", "suite", "run", "stable")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(line["pass"] for line in lines)
    assert {line["suite"] for line in lines} == {"stable"}
    assert all({"suite", "check", "instance", "pass", "millis"} <= set(line) for line in lines)


def test_suite_run_text(capsys):
    code, out, _ = run_cli(capsys, "suite", "run", "lines")
    assert code == 0
    assert "checks passed" in out


def test_suite_failures_exit_nonzero(capsys):
    # an absurd scan budget turns guardrail refusals into recorded failures
    code, out, _ = run_cli(capsys, "--max-scan", "2", "suite", "run", "lines")
    assert code == 1
    assert "FAIL" in out and "TooLarge" in out


def test_trailing_seed_flag(capsys):
    code, out, _ = run_cli(capsys, "suite", "run", "stable", "--seed", "77")
    assert code == 0
    assert "(seed 77)" in out
