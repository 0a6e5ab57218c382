import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ldk
from conftest import two_parallel_edges_json
from ldk.cli import main
from ldk.decision import build_problem
from ldk.pbg import problem_to_json
from ldk.terms import parse_identity

R1_TEXT = (r"(((x3 \/ (x3 /\ (x1 \/ x1))) \/ (x2 \/ x4)) /\ x1)"
           r" <= (x1 /\ x1)")
MODULAR_TEXT = r"x1 /\ (x2 \/ (x1 /\ x3)) <= (x1 /\ x2) \/ (x1 /\ x3)"
R_TEXT = r"(x1 \/ (x2 /\ (x3 \/ x4)) \/ x5) /\ (((x6 \/ x7) /\ (x8 \/ x9)) \/ x10)"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured


def test_normalize_distributive(capsys):
    code, report, _ = run(capsys, [
        "normalize", r"x1 /\ (x2 \/ x3) <= (x1 /\ x2) \/ (x1 /\ x3)"])
    assert code == 0 and report["status"] == "ok"
    (entry,) = report["outputs"]
    assert "x4" in entry["balanced"] and "x5" in entry["balanced"]
    assert entry["trace"][0]["kind"] == "split"


def test_normalize_no_op(capsys):
    code, report, _ = run(capsys, ["normalize", "x1 <= x1"])
    assert code == 0
    (entry,) = report["outputs"]
    assert entry["balanced"] == entry["original"] == "x1 <= x1"
    assert entry["trace"] == []


def test_normalize_parse_failure(capsys):
    code, report, _ = run(capsys, ["normalize", r"x1 \/ <= x2"])
    assert code == 2
    assert report["status"] == "error"
    assert isinstance(report["error"]["position"], int)


def test_graph_example_term(capsys):
    code, report, captured = run(capsys, ["graph", R_TEXT])
    assert code == 0
    stats = report["outputs"]["stats"]
    assert (stats["vertices"], stats["edges"], stats["facets"]) == (8, 10, 5)
    assert stats["euler"] == 3
    assert "8 vertices, 10 edges, 5 facets" in captured.err


def test_graph_dual_of_meet_matches_join(capsys):
    code, dual_report, _ = run(capsys, ["graph", r"x1 /\ x2", "--dual"])
    code2, join_report, _ = run(capsys, ["graph", r"x1 \/ x2"])
    assert code == code2 == 0
    assert dual_report["outputs"]["stats"] == join_report["outputs"]["stats"]


def test_graph_repeated_variable_exits_3(capsys):
    code, report, _ = run(capsys, ["graph", r"x1 /\ x1"])
    assert code == 3 and report["status"] == "error"


def test_graph_writes_dot(capsys, tmp_path):
    target = tmp_path / "out.dot"
    code, report, _ = run(capsys, ["graph", r"x1 \/ x2", "--dot", str(target)])
    assert code == 0 and report["outputs"]["dot_written"] == str(target)
    assert 'label="1"' in target.read_text()


def test_paths_example_term(capsys):
    code, report, _ = run(capsys, ["paths", R_TEXT])
    assert code == 0
    assert report["outputs"]["paths"] == [[1, 2, 5], [1, 3, 4, 5],
                                          [6, 7, 10], [8, 9, 10]]


def test_path_limit_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LDK_PATH_LIMIT", "2")
    code, report, _ = run(capsys, ["paths", r"x1 /\ x2 /\ x3"])
    assert code == 5 and report["status"] == "error"
    monkeypatch.setenv("LDK_PATH_LIMIT", "50")
    code, report, _ = run(capsys, ["paths", r"x1 /\ x2 /\ x3"])
    assert code == 0 and report["outputs"]["count"] == 3


@pytest.mark.parametrize("argv, env", [
    (["paths", "x1", "--path-limit", "-1"], None),
    (["paths", "x1"], "-3"),
    (["solve", "--problem", "unread.json", "--path-limit", "-2"], None),
    (["solve", "--problem", "unread.json", "--enum-cap", "-1"], None),
], ids=["paths-flag", "paths-env", "solve-path-limit", "solve-enum-cap"])
def test_negative_limits_exit_2(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("LDK_PATH_LIMIT", raising=False)
    else:
        monkeypatch.setenv("LDK_PATH_LIMIT", env)
    code, report, _ = run(capsys, argv)
    assert code == 2 and report["status"] == "error"
    assert "must be >= 0" in report["error"]["message"]


def test_check_never_enumerates_control_paths(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check enumerated control paths")

    monkeypatch.setattr("ldk.linsolve.maximal_paths", refuse)
    code, report, _ = run(capsys, ["check", R1_TEXT, "--mod", "0,2,3,4,6",
                                   "--self-dual"])
    assert code == 0
    assert [entry["modulus"] for entry in report["outputs"]] == [0, 2, 3, 4, 6]
    assert all(entry["holds"] for entry in report["outputs"])


def test_importing_the_cli_loads_no_numpy():
    src = str(Path(ldk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ldk.cli; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True)
    assert proc.stdout.strip() == "False"


def test_check_modular_self_dual(capsys):
    code, report, _ = run(capsys, [
        "check", MODULAR_TEXT, "--mod", "0,2,3", "--self-dual"])
    assert code == 0
    assert [entry["modulus"] for entry in report["outputs"]] == [0, 2, 3]
    for entry in report["outputs"]:
        assert entry["holds"] is True
        assert set(entry["self_duality"].values()) == {True}


def test_check_distributive_with_oracle(capsys):
    code, report, _ = run(capsys, [
        "check", r"x1 /\ (x2 \/ x3) <= (x1 /\ x2) \/ (x1 /\ x3)",
        "--mod", "2", "--oracle", "2"])
    assert code == 0
    (entry,) = report["outputs"]
    assert entry["holds"] is False
    assert entry["oracle"] == {"dimension": 2, "holds": False}


def test_check_trivial_modulus(capsys):
    code, report, _ = run(capsys, ["check", r"x1 \/ x2 <= x1 /\ x2",
                                   "--mod", "1"])
    assert code == 0
    assert report["outputs"][0]["holds"] is True


def test_check_custom_target_element(capsys):
    code, report, _ = run(capsys, ["check", "x1 <= x1", "--mod", "0", "-b", "4"])
    assert code == 0
    (entry,) = report["outputs"]
    assert entry["holds"] is True
    assert entry["solution"]["particular"] == [4]


def test_check_equality_expands_to_both_directions(capsys):
    code, report, _ = run(capsys, ["check", r"x1 /\ x2 = x2 /\ x1",
                                   "--mod", "2"])
    assert code == 0
    assert len(report["outputs"]) == 2
    assert all(entry["holds"] for entry in report["outputs"])


def test_check_is_deterministic(capsys):
    argv = ["check", r"x1 /\ x2 <= x1 \/ x2", "--mod", "0,2", "--self-dual"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1.encode() == out2.encode()


def _write_problem(tmp_path, ident_text, modulus, b=1):
    ident = parse_identity(ident_text)[0]
    problem = build_problem(ident, modulus, b)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    return path


def test_solve_meet_join_file(capsys, tmp_path):
    path = _write_problem(tmp_path, r"x1 /\ x2 <= x1 \/ x2", 2)
    code, report, _ = run(capsys, ["solve", "--problem", str(path),
                                   "--enumerate"])
    assert code == 0
    out = report["outputs"]
    assert out["report"]["solvable"] is True
    assert out["dual_solvable"] is True
    assert out["solutions"] == [[0, 1], [1, 0]]


def test_solve_unsolvable_doubled_control(capsys, tmp_path):
    # chain flow with parallel control: each one-edge control path would
    # have to move b across the whole chain, which is impossible
    path = _write_problem(tmp_path, r"x1 \/ x2 <= x1 /\ x2", 0)
    code, report, _ = run(capsys, ["solve", "--problem", str(path)])
    assert code == 0
    assert report["outputs"]["report"]["solvable"] is False
    assert report["outputs"]["dual_solvable"] is False


def test_solve_facet_reduced_mode(capsys, tmp_path):
    path = _write_problem(tmp_path, r"x1 /\ x2 <= x1 \/ x2", 3)
    code, report, _ = run(capsys, ["solve", "--problem", str(path),
                                   "--mode", "facet_reduced"])
    assert code == 0 and report["outputs"]["report"]["solvable"] is True


def test_solve_rejects_bad_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, report, _ = run(capsys, ["solve", "--problem", str(path)])
    assert code == 2 and report["status"] == "error"


def test_solve_rejects_invalid_graph(capsys, tmp_path):
    graph = two_parallel_edges_json()
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"flow": graph, "control": graph,
                                "modulus": 2, "b": 1}))
    code, report, _ = run(capsys, ["solve", "--problem", str(path)])
    assert code == 3 and report["status"] == "error"
    assert report["error"]["violations"]


def test_compiled_graphs_are_not_validated_again(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a compiled graph was validated")

    monkeypatch.setattr("ldk.planegraph.validate", refuse)
    code, _, _ = run(capsys, ["check", MODULAR_TEXT, "--mod", "0,2", "--self-dual"])
    assert code == 0
    code, _, _ = run(capsys, ["graph", R_TEXT, "--dual"])
    assert code == 0


def test_solve_enumeration_cap(capsys, tmp_path):
    path = _write_problem(tmp_path, r"x1 /\ x2 <= x1 \/ x2", 5)
    code, report, _ = run(capsys, ["solve", "--problem", str(path),
                                   "--enumerate", "--enum-cap", "3"])
    assert code == 5 and report["status"] == "error"


def test_check_duality_disagreement_exits_4(capsys, monkeypatch):
    from ldk import cli
    from ldk.decision import DualityError

    def explode(*args, **kwargs):
        raise DualityError("forced disagreement")

    monkeypatch.setattr(cli, "check_self_duality", explode)
    code, report, _ = run(capsys, ["check", "x1 <= x1", "--self-dual"])
    assert code == 4 and report["status"] == "error"
