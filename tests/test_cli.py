"""CLI surface: scenario runs, bundles, reports, determinism, golden file."""

import glob
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from odirac import cli
from odirac.cli import main
from odirac.dirac import LiftFailure
from odirac.scenarios import ScenarioError

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")
GOLDEN = os.path.join(REPO, "tests", "golden")
# the child imports odirac from this checkout, whether or not it is installed
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")])))


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "odirac.cli", *args],
                          capture_output=True, text=True, env=CHILD_ENV, **kw)


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


# Scenario.sha256 takes CPython's builtin SHA-256 module where the build has
# one; only without it does a run load hashlib and OpenSSL's libcrypto.
BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))
NEVER_LOADED = ("hashlib", "_hashlib") if BUILTIN_SHA256 else ()
ONLY_FOR_HODGE_OR_REPORT = ("odirac.hodge", "odirac.reporting", "odirac.acceptance", "csv",
                            "traceback", "linecache", "tokenize", "textwrap", *NEVER_LOADED)


@pytest.mark.parametrize("path, loaded", [
    (os.path.join(SCENARIOS, "sl3_paper_example.json"), ()),
    (os.path.join(REPO, "perfbench", "workloads", "a3_hodge.json"), ("odirac.hodge",)),
])
def test_run_imports_only_what_its_tasks_use(tmp_path, path, loaded):
    """A run without a hodge task loads neither hodge nor the report and
    error-report modules; a hodge run loads hodge."""
    code = ("import sys\nfrom odirac import cli\n"
            f"assert cli.main(['run', {path!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            f"print(' '.join(m for m in {ONLY_FOR_HODGE_OR_REPORT!r} if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=CHILD_ENV)
    assert res.returncode == 0, res.stderr
    # the first line is the bundle path printed by the run
    assert res.stdout.splitlines()[-1].split() == list(loaded)


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no builtin SHA-256 module in this build")
def test_no_run_loads_openssl(tmp_path):
    """Every sample scenario and benchmark workload runs without hashlib's
    OpenSSL binding."""
    paths = sorted(glob.glob(os.path.join(SCENARIOS, "*.json")) +
                   glob.glob(os.path.join(REPO, "perfbench", "workloads", "*.json")))
    assert len(paths) == 18
    code = ("import sys\nfrom odirac import cli\n"
            f"for path in {paths!r}:\n"
            f"    assert cli.main(['run', path, '--out', {str(tmp_path)!r}]) == 0, path\n"
            "print(' '.join(m for m in ('hashlib', '_hashlib') if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=CHILD_ENV)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 19 and res.stdout.splitlines()[-1] == ""


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


@pytest.mark.parametrize("command, out_flag", [("run", "--out"), ("report", "--csv")])
def test_undecodable_file_exits_2(tmp_path, capsys, command, out_flag):
    """A file that is not UTF-8 is bad input for both commands."""
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    out = tmp_path / "out"
    assert main([command, str(path), out_flag, str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    [1, 2], "text", 3, None,
    {"tasks": ["dirac"]},
    {"tasks": {"dirac": 3}},
    {"tasks": {"dirac": {"per_weight": {"[0]": {}}}}},
])
def test_report_on_non_object_json_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "list.bundle.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path), "--csv", str(tmp_path / "csv")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cannot read bundle: not a bundle (")
    if not isinstance(doc, dict):
        assert err.splitlines() == ["cannot read bundle: not a bundle "
                                    "(the top level is not a JSON object)"]
    assert not (tmp_path / "csv").exists()


def test_out_is_existing_file_exits_2(tmp_path, capsys, monkeypatch):
    def run(scn):
        raise AssertionError("the run must not start")

    monkeypatch.setattr(cli, "run_scenario", run)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"name": "scn", "cartan_type": "A1",
                                "module": {"kind": "verma", "lambda": [0], "depth": 4}}))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["run", str(path), "--out", str(taken)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot create output directory:")
    assert taken.read_text() == "not a directory"


def test_report_csv_is_existing_file_exits_2(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"name": "scn", "cartan_type": "A1", "module": A1_VERMA,
                                "tasks": ["dirac"]}))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["report", str(tmp_path / "scn.bundle.json"), "--csv", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cannot write CSV tables:")
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("target", ["dir", "missing/results.json"])
def test_selftest_json_path_checked_before_the_suite(tmp_path, capsys, monkeypatch, target):
    from odirac import acceptance

    def run_all(verbose=False):
        raise AssertionError("the suite must not start")

    monkeypatch.setattr(acceptance, "run_all", run_all)
    (tmp_path / "dir").mkdir()
    assert main(["selftest", "--json", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot write results:")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir"]


def test_unwritable_bundle_path_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", lambda scn: {"manifest": {}, "tasks": {}, "ok": True})
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"name": "scn", "cartan_type": "A1",
                                "module": {"kind": "verma", "lambda": [0], "depth": 4}}))
    (tmp_path / "out" / "scn.bundle.json").mkdir(parents=True)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cannot write bundle:")


A1_VERMA = {"kind": "verma", "lambda": [0], "depth": 4}


@pytest.mark.parametrize("fields, message", [
    ({"module": {"kind": "verma", "lambda": [0]}}, "needs depth"),
    ({"module": {"kind": "verma", "lambda": [0], "depth": "x"}}, "depth must be"),
    ({"module": {"kind": "verma", "lambda": [0], "depth": -1}}, "depth must be"),
    ({"module": {"kind": "finite", "lambda": [-1]}}, "not dominant integral"),
    ({"tasks": "dirac"}, "tasks must be a list"),
    ({"delta_h": [[2]]}, "NotASubsystem: (2) is not a positive root of A1"),
    ({"delta_h": 1}, "delta_h must be a list"),
    ({"tasks": ["kostant"]}, "task kostant needs module kind finite, got 'verma'"),
    ({"tasks": ["circle"]}, "task circle needs module kind ses or ses_split, got 'verma'"),
    ({"module": {"kind": "finite", "lambda": [1]}, "tasks": ["hodge"]},
     "task hodge needs module kind verma or simple, got 'finite'"),
    ({"cartan_type": "A2", "module": {"kind": "verma", "lambda": [0, 0], "depth": 4},
      "tasks": ["hodge"]}, "task hodge needs a Hermitian pair: q is not abelian"),
    ({"options": []}, "options must be an object, got []"),
    ({"options": {"expect_nonunitary": "false"}},
     "options.expect_nonunitary must be true or false, got 'false'"),
    ({"options": {"expect_nonunitry": True}}, "unknown option 'expect_nonunitry'"),
    ({"cartan_type": "A2", "tasks": ["circle"],
      "module": {"kind": "ses_split", "lambda": [0, 0], "lambda2": [1, -1], "depth": 6}},
     "ses_split tops [0, 0] and [1, -1] differ by no sum of positive roots"),
    ({"tasks": ["circle"],
      "module": {"kind": "ses", "lambda": ["1/2"], "sub_weight": ["-3/2"], "depth": 1}},
     "sub_weight [-3/2] lies below the window of depth 1"),
    ({"expect_nonunitary": True}, "unknown scenario key 'expect_nonunitary'"),
    ({"depth_below_tp": 2}, "unknown scenario key 'depth_below_tp'"),
    ({"module": {**A1_VERMA, "factor_lambda": [1]}},
     "unknown key 'factor_lambda' for module kind 'verma'"),
    ({"module": {"kind": "finite", "lambda": [1], "lamda": [2]}},
     "unknown key 'lamda' for module kind 'finite'"),
    ({"cartan_type": "A2", "module": {"kind": "verma", "lambda": [0, 0], "depth": 2},
      "depth_below_top": 100000},
     "depth_below_top 100000 exceeds the configured maximum 10"),
    ({"tasks": [["dirac"]]}, "unknown task ['dirac']"),
], ids=["missing_depth", "depth_not_int", "negative_depth", "finite_not_dominant",
        "tasks_not_list", "delta_h_not_subsystem", "delta_h_not_list",
        "kostant_not_finite", "circle_without_ses", "hodge_not_highest_weight",
        "hodge_not_hermitian", "options_not_object", "option_not_boolean",
        "option_misspelt", "ses_split_tops_not_comparable", "ses_sub_weight_below_window",
        "option_at_top_level", "top_level_key_misspelt", "module_key_of_another_kind",
        "module_key_misspelt", "depth_below_top_over_cap", "task_not_a_string"])
def test_invalid_scenario_fields_exit_2(tmp_path, capsys, fields, message):
    scn = {"name": "bad", "cartan_type": "A1", "delta_h": [], "module": A1_VERMA,
           "tasks": ["dirac"], **fields}
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


def test_scenario_cannot_choose_out_dir(tmp_path, monkeypatch, capsys):
    scn = {"name": "placed", "cartan_type": "A1", "delta_h": [],
           "module": A1_VERMA, "tasks": [], "out_dir": str(tmp_path / "elsewhere")}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    monkeypatch.setenv("ODIRAC_OUT", str(tmp_path / "env"))
    assert main(["run", str(path)]) == 2  # an unknown key, rejected before any run
    assert "unknown scenario key 'out_dir'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scn.json"]
    del scn["out_dir"]
    path.write_text(json.dumps(scn))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "env" / "placed.bundle.json").exists()
    assert not (tmp_path / "elsewhere").exists()


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


def test_simple_verma_reports_only_weights_inside_the_window(tmp_path):
    """depth_below_top may reach past a shallow window: the check keeps to the
    block weights whose components the window holds."""
    scn = {"name": "shallow", "cartan_type": "A1", "delta_h": [],
           "module": {"kind": "verma", "lambda": [-1], "depth": 2},
           "depth_below_top": 8, "tasks": ["simple_verma"]}
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(scn))
    res = run_cli("run", str(path), "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    sv = json.loads((tmp_path / "shallow.bundle.json").read_text())["tasks"]["simple_verma"]
    assert sv["hd_character"] == sv["expected_character"] == {"[-1/2]": 1}


def test_selftest_json_end_to_end(tmp_path):
    res = run_cli("selftest", "--json", str(tmp_path / "results.json"))
    assert res.returncode == 0, res.stdout + res.stderr
    results = json.loads((tmp_path / "results.json").read_text())["results"]
    assert [r["name"] for r in results] == [
        "sl(3) worked example", "Kostant kernel formula", "square formula",
        "simple Verma theorem", "nonvanishing", "higher Dirac index", "exact circle",
        "Hodge comparison", "Vogan audit", "structural properties"]
    assert all(r["ok"] for r in results)


@pytest.mark.parametrize("exc, code", [
    (TypeError("unsupported operand"), 3),
    (AssertionError("2 D^2 != Casimir"), 1),
    (LiftFailure("tail left the sub block"), 1),
], ids=["internal", "assertion", "lift_failure"])
def test_selftest_exit_codes(tmp_path, capsys, monkeypatch, exc, code):
    """A criterion that raises is a FAIL line and a failed entry in --json; the
    selftest exits 1 for a failed check and 3 for an internal error."""
    from odirac import acceptance

    def passing():
        return acceptance._result("passing", True, 0.0, {})

    def raising():
        raise exc

    monkeypatch.setattr(acceptance, "CRITERIA", [passing, raising])
    path = tmp_path / "results.json"
    assert main(["selftest", "--json", str(path)]) == code
    results = json.loads(path.read_text())["results"]
    assert [(r["name"], r["ok"]) for r in results] == [("passing", True), ("raising", False)]
    assert results[1]["details"]["exception"] == f"{type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    assert "FAIL  raising" in out.splitlines()[1]
    assert ("internal error: raising: TypeError" in err) == (code == 3)
    assert ("Traceback" in err) == (code == 3)


def test_depth_override(tmp_path):
    scn = {"name": "shallow", "cartan_type": "A1", "delta_h": [],
           "module": {"kind": "verma", "lambda": [0], "depth": 6},
           "depth_below_top": 2, "tasks": ["dirac"]}
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(scn))
    res = run_cli("run", str(path), "--out", str(tmp_path), "--depth", "8")
    assert res.returncode == 0


def test_determinism_run_to_run(tmp_path):
    src = os.path.join(SCENARIOS, "jordan_tensor.json")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run_cli("run", src, "--out", str(out1)).returncode == 0
    assert run_cli("run", src, "--out", str(out2)).returncode == 0
    b1 = (out1 / "jordan-tensor.bundle.json").read_bytes()
    b2 = (out2 / "jordan-tensor.bundle.json").read_bytes()
    assert b1 == b2


@pytest.mark.parametrize("exc, code, last_line", [
    (None, 1, "failed tasks: square"),
    (AssertionError("2 D^2 != Casimir"), 1,
     "assertion failure: AssertionError: 2 D^2 != Casimir"),
    (LiftFailure("tail left the sub block"), 1,
     "assertion failure: LiftFailure: tail left the sub block"),
    (ScenarioError("no singular vector"), 2, "scenario error: no singular vector"),
    (KeyError("x"), 3, "internal error: KeyError: 'x'"),
], ids=["task_not_ok", "assertion", "lift_failure", "scenario_error", "internal"])
def test_run_exit_codes(tmp_path, capsys, monkeypatch, exc, code, last_line):
    def run(scn):
        if exc is not None:
            raise exc
        return {"manifest": {}, "tasks": {"square": {"ok": False}}, "ok": False}

    monkeypatch.setattr(cli, "run_scenario", run)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"name": "scn", "cartan_type": "A1", "module": A1_VERMA}))
    assert main(["run", str(path), "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == last_line
    assert ("Traceback" in err) == (code == 3)
    assert (tmp_path / "scn.bundle.json").exists() == (exc is None)


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
