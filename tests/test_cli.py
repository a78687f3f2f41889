"""CLI surface: scenario runs, bundles, reports, determinism, golden file."""

import json
import os
import subprocess
import sys

import pytest

from odirac.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")
GOLDEN = os.path.join(REPO, "tests", "golden")


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "odirac.cli", *args],
                          capture_output=True, text=True, **kw)


def test_run_sl3_example(tmp_path):
    res = run_cli("run", os.path.join(SCENARIOS, "sl3_paper_example.json"),
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    bundle_path = tmp_path / "sl3-paper-example.bundle.json"
    assert bundle_path.exists()
    bundle = json.loads(bundle_path.read_text())
    assert bundle["ok"]
    assert bundle["manifest"]["scenario"] == "sl3-paper-example"
    assert "no floating point" in bundle["manifest"]["exact_arithmetic"]
    # the worked-example content: H_D one-dimensional down the subsystem string
    per_weight = bundle["tasks"]["dirac"]["per_weight"]
    hd_weights = sorted(k for k, r in per_weight.items() if r["dims"]["HD"])
    assert len(hd_weights) == 9
    assert all(per_weight[k]["dims"]["HD"] == 1 for k in hd_weights)
    assert bundle["tasks"]["simple_verma"]["ok"]
    nv = bundle["tasks"]["dirac"]["nonvanishing"]
    assert nv["in_kernel"] and nv["not_in_image"]


def test_golden_bundle(tmp_path):
    res = run_cli("run", os.path.join(SCENARIOS, "sl3_paper_example.json"),
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    got = json.loads((tmp_path / "sl3-paper-example.bundle.json").read_text())
    want = json.loads(open(os.path.join(GOLDEN, "sl3_paper_example.bundle.json")).read())
    got["manifest"].pop("version")
    want["manifest"].pop("version")
    assert got == want


def test_manifest_only_bundle(tmp_path):
    scn = {"name": "empty", "cartan_type": "A1", "delta_h": [],
           "module": {"kind": "verma", "lambda": [0], "depth": 4}, "tasks": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(scn))
    res = run_cli("run", str(path), "--out", str(tmp_path))
    assert res.returncode == 0
    bundle = json.loads((tmp_path / "empty.bundle.json").read_text())
    assert bundle["tasks"] == {} and bundle["ok"]
    rep = run_cli("report", str(tmp_path / "empty.bundle.json"))
    assert "manifest-only" in rep.stdout


def test_malformed_lambda_exits_2(tmp_path):
    scn = {"name": "bad", "cartan_type": "A2", "delta_h": [],
           "module": {"kind": "verma", "lambda": ["x/y", 0], "depth": 4},
           "tasks": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scn))
    res = run_cli("run", str(path), "--out", str(tmp_path))
    assert res.returncode == 2
    assert "x/y" in res.stderr


def test_unparseable_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = run_cli("run", str(path), "--out", str(tmp_path))
    assert res.returncode == 2


A1_VERMA = {"kind": "verma", "lambda": [0], "depth": 4}


@pytest.mark.parametrize("field, value, message", [
    ("module", {"kind": "verma", "lambda": [0]}, "needs depth"),
    ("module", {"kind": "verma", "lambda": [0], "depth": "x"}, "depth must be"),
    ("module", {"kind": "verma", "lambda": [0], "depth": -1}, "depth must be"),
    ("module", {"kind": "finite", "lambda": [-1]}, "not dominant integral"),
    ("tasks", "dirac", "tasks must be a list"),
], ids=["missing_depth", "depth_not_int", "negative_depth", "finite_not_dominant",
        "tasks_not_list"])
def test_invalid_scenario_fields_exit_2(tmp_path, capsys, field, value, message):
    scn = {"name": "bad", "cartan_type": "A1", "delta_h": [], "module": A1_VERMA,
           "tasks": ["dirac"], field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and message in err
    assert not (tmp_path / "bad.bundle.json").exists()


def test_name_cannot_leave_out_dir(tmp_path, capsys):
    scn = {"name": "../escaped", "cartan_type": "A1", "delta_h": [],
           "module": A1_VERMA, "tasks": []}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--out", str(tmp_path / "out" / "deep")]) == 2
    assert "scenario error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scn.json"]


def test_depth_cap_enforced(tmp_path):
    scn = {"name": "deep", "cartan_type": "A1", "delta_h": [],
           "module": {"kind": "verma", "lambda": [0], "depth": 11}, "tasks": []}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(scn))
    res = run_cli("run", str(path), "--out", str(tmp_path))
    assert res.returncode == 2
    scn["max_depth"] = 12
    path.write_text(json.dumps(scn))
    assert run_cli("run", str(path), "--out", str(tmp_path)).returncode == 0


def test_depth_override(tmp_path):
    scn = {"name": "shallow", "cartan_type": "A1", "delta_h": [],
           "module": {"kind": "verma", "lambda": [0], "depth": 6},
           "depth_below_top": 2, "tasks": ["dirac"]}
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(scn))
    res = run_cli("run", str(path), "--out", str(tmp_path), "--depth", "8")
    assert res.returncode == 0


def test_determinism_across_jobs(tmp_path):
    src = os.path.join(SCENARIOS, "jordan_tensor.json")
    out1, out4 = tmp_path / "one", tmp_path / "four"
    assert run_cli("run", src, "--out", str(out1), "--jobs", "1").returncode == 0
    assert run_cli("run", src, "--out", str(out4), "--jobs", "4").returncode == 0
    b1 = (out1 / "jordan-tensor.bundle.json").read_bytes()
    b4 = (out4 / "jordan-tensor.bundle.json").read_bytes()
    assert b1 == b4


def test_report_tables(tmp_path):
    res = run_cli("run", os.path.join(SCENARIOS, "a2_kostant_adjoint.json"),
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    rep = run_cli("report", str(tmp_path / "a2-kostant-adjoint.bundle.json"),
                  "--csv", str(tmp_path / "csv"))
    assert rep.returncode == 0
    assert "|W^1| = 3" in rep.stdout
    assert "constituents" in rep.stdout
    # the index table shows the two independent columns
    assert "signed Htop sum" in rep.stdout and "S+/S- difference" in rep.stdout
    assert (tmp_path / "csv" / "index.csv").exists()


def test_hodge_scenarios(tmp_path):
    res = run_cli("run", os.path.join(SCENARIOS, "a2_hodge_unitary.json"),
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    bundle = json.loads((tmp_path / "a2-hodge-unitary.bundle.json").read_text())
    assert bundle["tasks"]["hodge"]["unitary_on_window"]
    res = run_cli("run", os.path.join(SCENARIOS, "a1_hodge_nonunitary.json"),
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    bundle = json.loads((tmp_path / "a1-hodge-nonunitary.bundle.json").read_text())
    assert not bundle["tasks"]["hodge"]["unitary_on_window"]
    assert bundle["tasks"]["hodge"]["ok"]  # the failure is the expected outcome


def test_circle_scenario(tmp_path):
    res = run_cli("run", os.path.join(SCENARIOS, "a1_circle.json"),
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    bundle = json.loads((tmp_path / "a1-circle.bundle.json").read_text())
    recs = bundle["tasks"]["circle"]["per_weight"]
    assert all(r["exact"] for r in recs.values())
