"""Command line behavior: output formats, exit codes, round trips."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphtorsion
from graphtorsion import CrossCheckMismatch, NoConvergence, load
from graphtorsion.bounds import ERROR, VIOLATED, BoundRecord, BoundsReport
from graphtorsion import families
from graphtorsion.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def child_env():
    """Environment in which ``python -m graphtorsion.cli`` imports the same
    package as this test process, whatever the working directory."""
    env = os.environ.copy()
    pkg_parent = str(Path(graphtorsion.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_parent + (os.pathsep + rest if rest else "")
    return env


def run_cli(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def path_dn_file(tmp_path, capsys):
    f = tmp_path / "path_dn.json"
    rc, _, _ = run_cli(["gen", "path_DN", "--out", str(f)], capsys)
    assert rc == 0
    return str(f)


@pytest.fixture
def lasso_file(tmp_path, capsys):
    f = tmp_path / "lasso.json"
    rc, _, _ = run_cli(["gen", "lasso", "--out", str(f)], capsys)
    assert rc == 0
    return str(f)


# -- output formats -------------------------------------------------------


def test_rigidity_default_precision(path_dn_file, capsys):
    rc, out, _ = run_cli(["rigidity", path_dn_file], capsys)
    assert rc == 0
    assert out == "0.333333333333\n"


def test_rigidity_precision_flag(path_dn_file, capsys):
    rc, out, _ = run_cli(["rigidity", path_dn_file, "--precision", "6"], capsys)
    assert rc == 0
    assert out == "0.333333\n"


def test_rigidity_json(path_dn_file, capsys):
    rc, out, _ = run_cli(["rigidity", path_dn_file, "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["rigidity"] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_torsion_payload(lasso_file, capsys):
    rc, out, _ = run_cli(["torsion", lasso_file], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["rigidity"] == pytest.approx(29.0 / 12.0, rel=1e-12)
    assert "edges" in payload and "vertex_values" in payload


def test_gen_writes_valid_graph(tmp_path, capsys):
    f = tmp_path / "star.json"
    rc, _, _ = run_cli(["gen", "star:3", "--out", str(f)], capsys)
    assert rc == 0
    g = load(f)
    assert len(g.edges) == 3
    assert len(g.dirichlet_vertices) == 3


def test_gen_with_lengths(tmp_path, capsys):
    f = tmp_path / "star.json"
    rc, _, _ = run_cli(
        ["gen", "star:3", "--lengths", "0.5,1.0,2.0", "--out", str(f)], capsys
    )
    assert rc == 0
    assert sorted(e.length for e in load(f).edges) == [0.5, 1.0, 2.0]


def test_spectrum_text(tmp_path, capsys):
    f = tmp_path / "star.json"
    run_cli(["gen", "star:3", "--out", str(f)], capsys)
    rc, out, _ = run_cli(
        ["spectrum", str(f), "--modes", "2", "--h", "0.0625"], capsys
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("lambda_1 = ")
    assert lines[1].startswith("lambda_2 = ")
    assert lines[2].startswith("h_eff = ")


def test_spectrum_json_values_are_exact_floats(lasso_file, capsys):
    # values go out through ndarray.tolist(); the text is byte for byte the one
    # float() of every entry gives
    rc, out, _ = run_cli(["spectrum", lasso_file, "--modes", "3", "--h", "0.3", "--json"], capsys)
    assert rc == 0
    res = graphtorsion.lowest_eigenpairs(load(lasso_file), 3, h_target=0.3)
    payload = res.to_payload()
    payload["values"] = [list(map(float, row)) for row in res.values]
    assert out == json.dumps(payload, indent=2) + "\n"


def test_grad_check_output(lasso_file, capsys):
    rc, out, _ = run_cli(["grad-check", lasso_file, "--json"], capsys)
    assert rc == 0
    rows = json.loads(out)
    assert {r["edge"] for r in rows} == {"e1", "e2"}
    for r in rows:
        assert 3.5 <= r["halving_ratio"] <= 4.5


def test_grad_check_text_rows(lasso_file, capsys):
    rc, out, _ = run_cli(["grad-check", lasso_file, "--precision", "6"], capsys)
    assert rc == 0
    rows = graphtorsion.grad_check(load(lasso_file))
    assert out.splitlines() == [
        f"{r['edge']}: analytic {r['analytic']:.6g}  fd {r['fd']:.6g}  error {r['abs_error']:.6g}  "
        f"ratio {r['halving_ratio']:.6g}" for r in rows]
    assert [line.split(":")[0] for line in out.splitlines()] == ["e1", "e2"]


def test_optimize_json_lines(tmp_path, capsys):
    f = tmp_path / "star.json"
    run_cli(["gen", "star:3", "--lengths", "0.5,0.5,2.0", "--out", str(f)], capsys)
    rc, out, _ = run_cli(["optimize", str(f), "--iters", "3"], capsys)
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert "stop_reason" in rows[-1]
    assert set(rows[0]) == {"iteration", "lengths", "T"}


def test_heat_check_text(tmp_path, capsys):
    f = tmp_path / "dd.json"
    run_cli(["gen", "path_DD", "--out", str(f)], capsys)
    rc, out, _ = run_cli(
        ["heat-check", str(f), "--modes", "3", "--h", "0.05"], capsys
    )
    assert rc == 0
    assert out.startswith("K=1")
    assert "rigidity = 0.0833333333333" in out


def test_heat_check_json(tmp_path, capsys):
    f = tmp_path / "dd.json"
    run_cli(["gen", "path_DD", "--out", str(f)], capsys)
    rc, out, _ = run_cli(["heat-check", str(f), "--modes", "3", "--h", "0.05", "--json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert list(payload) == ["eigenvalues", "terms", "partial_sums", "rigidity", "h_eff"]
    want = graphtorsion.integrated_heat_content(load(f), modes=3, h_target=0.05).to_payload()
    assert payload == want
    assert len(payload["eigenvalues"]) == 3 and payload["rigidity"] == pytest.approx(1.0 / 12.0, rel=1e-12)
    # the first term of the DD interval, 8/pi^4, from P1 modes at h = 0.05
    assert payload["partial_sums"][0] == pytest.approx(8.0 / math.pi ** 4, rel=1e-2)


@pytest.mark.parametrize("argv, graph", [
    (["stower:2,2"], lambda: families.stower(2, 2)),
    (["pumpkin_chain:2,3"], lambda: families.pumpkin_chain([2, 3])),
    (["caterpillar:3"], lambda: families.caterpillar(3)),
    (["random", "--seed", "0"], lambda: families.random_graph(0)),
])
def test_gen_matches_family_function(argv, graph, capsys):
    rc, out, _ = run_cli(["gen", *argv], capsys)
    assert rc == 0
    assert out == graph().dumps() + "\n"


@pytest.mark.parametrize("spec", ["star:x", "stower:1"])
def test_gen_bad_family_spec(spec, capsys):
    rc, out, err = run_cli(["gen", spec], capsys)
    assert rc == 1 and out == ""
    assert "bad family spec" in err


def test_out_flag_suppresses_stdout(path_dn_file, tmp_path, capsys):
    target = tmp_path / "out.txt"
    rc, out, _ = run_cli(["rigidity", path_dn_file, "--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    assert target.read_text() == "0.333333333333\n"


def test_stdin_dash(path_dn_file, capsys, monkeypatch):
    payload = open(path_dn_file).read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    rc, out, _ = run_cli(["rigidity", "-"], capsys)
    assert rc == 0
    assert out == "0.333333333333\n"


def test_round_trip_bit_identical(tmp_path):
    env = child_env()
    gen = subprocess.run(
        [sys.executable, "-m", "graphtorsion.cli", "gen", "flower:2"],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    assert gen.returncode == 0, gen.stderr
    f = tmp_path / "flower.json"
    f.write_text(gen.stdout)
    from_file = subprocess.run(
        [sys.executable, "-m", "graphtorsion.cli", "torsion", str(f)],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    from_pipe = subprocess.run(
        [sys.executable, "-m", "graphtorsion.cli", "torsion", "-"],
        input=gen.stdout, capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    assert from_file.returncode == 0, from_file.stderr
    assert from_pipe.returncode == 0, from_pipe.stderr
    assert from_file.stdout == from_pipe.stdout


# -- exit codes -----------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    rc, _, err = run_cli([], capsys)
    assert rc == 1


def test_unknown_subcommand(capsys):
    rc, _, _ = run_cli(["transmogrify"], capsys)
    assert rc == 1


def test_missing_file(tmp_path, capsys):
    rc, _, err = run_cli(["rigidity", str(tmp_path / "no_such_file.json")], capsys)
    assert rc == 1
    assert "graphtorsion:" in err


def test_invalid_graph_payload(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"vertices": [], "edges": []}))
    rc, _, err = run_cli(["rigidity", str(f)], capsys)
    assert rc == 1


@pytest.mark.parametrize("end, length", [('"a"', "1" + "0" * 400), ('["a"]', "1.0")],
                         ids=["huge-integer-length", "list-endpoint"])
def test_malformed_edge_is_one_error_line(end, length):
    # an integer length too large for a float and an unhashable end: typed errors, no traceback
    text = ('{"vertices": [{"id": "a", "bc": "dirichlet"}, {"id": "b", "bc": "natural"}], '
            f'"edges": [{{"id": "e", "from": {end}, "to": "b", "length": {length}}}]}}')
    proc = subprocess.run(
        [sys.executable, "-m", "graphtorsion.cli", "torsion", "-"],
        input=text, capture_output=True, text=True, cwd=REPO_ROOT, env=child_env(),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("graphtorsion: edge 'e'")


def test_unknown_family(capsys):
    rc, _, err = run_cli(["gen", "mystery"], capsys)
    assert rc == 1
    assert "unknown family" in err


def test_bad_lengths_csv(capsys):
    rc, _, _ = run_cli(["gen", "star:3", "--lengths", "1,zap,3"], capsys)
    assert rc == 1


def test_unknown_edge_in_grad_check(lasso_file, capsys):
    rc, _, _ = run_cli(["grad-check", lasso_file, "--edge", "zz"], capsys)
    assert rc == 1


def test_solver_failure_exit_2(path_dn_file, capsys, monkeypatch):
    import graphtorsion.cli as cli_mod

    def boom(g):
        raise NoConvergence("synthetic failure")

    monkeypatch.setattr(cli_mod, "torsion_function", boom)
    rc, _, err = run_cli(["rigidity", path_dn_file], capsys)
    assert rc == 2
    assert "solver failure" in err


@pytest.mark.parametrize("command", ["rigidity", "torsion"])
def test_energy_route_runs_on_cli(command, path_dn_file, capsys, monkeypatch):
    import graphtorsion.cli as cli_mod

    def mismatch(sol):
        raise CrossCheckMismatch("synthetic energy mismatch")

    monkeypatch.setattr(cli_mod, "rigidity", mismatch)
    rc, out, err = run_cli([command, path_dn_file], capsys)
    assert rc == 2
    assert out == ""
    assert "synthetic energy mismatch" in err


def test_negative_precision_is_usage_error(path_dn_file, capsys):
    rc, out, err = run_cli(["rigidity", path_dn_file, "--precision", "-1"], capsys)
    assert rc == 1
    assert out == ""
    assert "--precision" in err


@pytest.mark.parametrize("tol, code", [("nan", 1), ("0", 0)])
def test_spectrum_tol(tol, code, path_dn_file, capsys):
    rc, out, err = run_cli(["spectrum", path_dn_file, "--h", "0.25", "--tol", tol], capsys)
    assert rc == code, err
    assert out.startswith("lambda_1 = ") == (code == 0)


@pytest.mark.parametrize("option", [["--tol", "nan"], ["--h", "inf"], ["--h", "0"]])
def test_bounds_bad_option_is_usage_error(option, path_dn_file, capsys):
    # the same exit code and message as spectrum, not a solver error per record
    rc, out, err = run_cli(["bounds", path_dn_file, *option], capsys)
    assert rc == 1
    assert out == ""
    assert "solver error" not in err
    spectrum_rc, _, spectrum_err = run_cli(["spectrum", path_dn_file, *option], capsys)
    assert spectrum_rc == 1
    assert err == spectrum_err


@pytest.mark.parametrize("option", [
    ["--floor", "nan"], ["--floor", "inf"], ["--iters", "0"], ["--iters", "-1"],
])
def test_optimize_bad_option_is_usage_error(option, path_dn_file, capsys):
    rc, out, err = run_cli(["optimize", path_dn_file, *option], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("graphtorsion: ")


def short_edge_star(capsys, monkeypatch):
    """stdin holding star:2 with edges 1e-6 and 1, where a mesh at the default
    h = l_min/16 would need 16,000,017 nodes."""
    rc, graph, _ = run_cli(["gen", "star:2", "--lengths", "0.000001,1"], capsys)
    assert rc == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(graph))


def test_bounds_short_edge_needs_no_mesh(capsys, monkeypatch):
    short_edge_star(capsys, monkeypatch)
    rc, out, err = run_cli(["bounds", "-", "--json"], capsys)
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["lambda1"] == pytest.approx(math.pi ** 2 / (1.0 + 1e-6) ** 2, rel=1e-12)
    assert payload["h_eff"] is None


@pytest.mark.parametrize("h", ["0", "inf"])
def test_bounds_still_checks_h(h, capsys, monkeypatch):
    short_edge_star(capsys, monkeypatch)
    rc, out, err = run_cli(["bounds", "-", "--h", h], capsys)
    assert rc == 1
    assert out == ""
    assert "h_target" in err


def test_bounds_tol_zero_terminates(lasso_file, capsys):
    rc, out, err = run_cli(["bounds", lasso_file, "--tol", "0", "--json"], capsys)
    assert rc == 0, err
    assert json.loads(out)["lambda1"] > 0.0


def fake_report(status):
    rec = BoundRecord(
        "saint_venant", "label", "<=", 1.0, 2.0, 1.0, status, "always", 1e-8,
        True, "synthetic" if status == ERROR else ""
    )
    return BoundsReport((rec,), 1.0, 1, 1.0, 1.0, None, None)


def test_bounds_ok_exit_0(tmp_path, capsys):
    f = tmp_path / "star.json"
    run_cli(["gen", "star:3", "--out", str(f)], capsys)
    rc, out, _ = run_cli(["bounds", str(f), "--h", "0.25"], capsys)
    assert rc == 0
    assert "saint_venant" in out


def test_bounds_violation_exit_3(path_dn_file, capsys, monkeypatch):
    import graphtorsion.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "audit", lambda g, h_target=None, tol=1e-10: fake_report(VIOLATED)
    )
    rc, _, err = run_cli(["bounds", path_dn_file], capsys)
    assert rc == 3
    assert "violated bound saint_venant" in err


def test_bounds_error_exit_2(path_dn_file, capsys, monkeypatch):
    import graphtorsion.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "audit", lambda g, h_target=None, tol=1e-10: fake_report(ERROR)
    )
    rc, _, err = run_cli(["bounds", path_dn_file], capsys)
    assert rc == 2
    assert "solver error in record" in err


@pytest.mark.parametrize("seed", [132, 161])
def test_bounds_unreadable_pivots_exit_2(seed, tmp_path, capsys):
    # lambda_1 raises NoConvergence (SuperLU pivoted), so four records are errors
    f = tmp_path / "wide.json"
    f.write_text(families.random_graph(seed, length_range=(1e-7, 1e7)).dumps())
    rc, out, err = run_cli(["bounds", str(f), "--json"], capsys)
    assert rc == 2
    assert json.loads(out)["lambda1"] is None
    assert err.count("inertia cannot be read") == 4


def test_bounds_needs_graph_or_batch(capsys):
    rc, _, _ = run_cli(["bounds"], capsys)
    assert rc == 1


def test_bounds_batch(tmp_path, capsys):
    run_cli(["gen", "path_DN", "--out", str(tmp_path / "a.json")], capsys)
    run_cli(["gen", "lasso", "--out", str(tmp_path / "b.json")], capsys)
    rc, out, _ = run_cli(["bounds", "--batch", str(tmp_path), "--h", "0.25"], capsys)
    assert rc == 0
    assert out.count("== ") == 2


def test_bounds_batch_empty_dir(tmp_path, capsys):
    rc, _, _ = run_cli(["bounds", "--batch", str(tmp_path)], capsys)
    assert rc == 1
