"""odirac benchmark: scenario workloads run through the CLI, every bundle checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the checkout's own `src/` is put on
the children's PYTHONPATH.  The load is a closed loop from this process:
one `odirac run` child at a time, the next spawned after the previous one
exits.  A pass runs every scenario of the workload once; passes repeat
until S seconds have gone by, and timings are the median over passes.

--trace 0 measures the end-to-end metrics with tracing off.
--trace 1 runs each scenario untraced and then again in process under
perfbench/tracer.py, and reports the per-layer metrics.

Every bundle must exit 0, carry ok=true and hash, after dropping
manifest.version and manifest.kernel_backend, to the reference recorded
in perfbench/reference.json; a traced bundle must equal its untraced one
byte for byte.  Any failure makes `correct` false and the exit code 1.
The last stdout line is the result object.  See perfbench/README.md.
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"
GOLDEN_SL3 = ("scenarios/sl3_paper_example.json",
              ROOT / "tests" / "golden" / "sl3_paper_example.bundle.json")
RUN_BUDGET_S = 170  # hard stop for one invocation, children included

# Pinned by name so that a scenario added to scenarios/ later does not
# change the workload.
SWEEP = ["scenarios/a1_circle.json", "scenarios/a1_hodge_nonunitary.json",
         "scenarios/a1_kostant_ladder.json", "scenarios/a2_hodge_unitary.json",
         "scenarios/a2_kostant_adjoint.json", "scenarios/jordan_tensor.json"]

# `expect` is the traced run's self-check: structural zeros and nonzeros that
# hold for these inputs whatever the implementation, so a binding that
# silently stopped seeing calls shows up as a failure.
WORKLOADS = {
    "sl3_spectral": {
        "scenarios": ["scenarios/sl3_paper_example.json"],
        "expect": {"dirac.eigen.calls": ">0", "dirac.block.builds": ">0",
                   "exactla.rref.calls": ">0", "cato.gram.calls": 0,
                   "hodge.positive_definite.calls": 0, "spinor.dim": 4},
    },
    "b3_spin": {
        "scenarios": ["perfbench/workloads/b3_spin.json"],
        "expect": {"spinor.cubic.total_s": ">0", "dirac.eigen.calls": ">0",
                   "exactla.elementwise.self_s": ">0", "cato.gram.calls": 0,
                   "hodge.positive_definite.calls": 0, "spinor.dim": 128},
    },
    "a3_hodge": {
        "scenarios": ["perfbench/workloads/a3_hodge.json"],
        "expect": {"cato.gram.calls": ">0", "hodge.positive_definite.calls": ">0",
                   "hodge.weight_checks.self_s": ">0", "dirac.eigen.calls": 0,
                   "exactla.charpoly.calls": 0, "spinor.dim": 8},
    },
    "samples_sweep": {
        "scenarios": SWEEP,
        "expect": {"dirac.eigen.calls": ">0", "hodge.positive_definite.calls": ">0",
                   "scenarios.task.circle.total_s": ">0",
                   "scenarios.task.kostant.total_s": ">0", "spinor.dim": 4},
    },
}

TASKS = ("dirac", "square", "kostant", "simple_verma", "higher", "index",
         "circle", "hodge", "vogan")
LAYERS = ("exactla", "dirac", "spinor", "cato", "roots", "liealg", "hodge", "scenarios")

# Per-layer metrics: name -> unit.  Most read the tracer's key of the same
# name; the others are derived in layer_metrics().
PER_LAYER = {
    "exactla.rref.calls": "count", "exactla.rref.self_s": "s",
    "exactla.rref.entries": "count", "exactla.matmul.calls": "count",
    "exactla.matmul.self_s": "s", "exactla.matmul.products": "count",
    "exactla.power.calls": "count", "exactla.charpoly.calls": "count",
    "exactla.charpoly.self_s": "s", "exactla.mat_new.calls": "count",
    "exactla.mat_new.self_s": "s", "exactla.elementwise.self_s": "s",
    "exactla.max_bits": "bits",
    "dirac.block.builds": "count", "dirac.block.dim_max": "count",
    "dirac.block.dim_sum": "count", "dirac.block.self_s": "s",
    "dirac.eigen.calls": "count", "dirac.eigen.self_s": "s",
    "dirac.eigen.repeat_ratio": "ratio", "dirac.eigen.hit_ratio": "ratio",
    "dirac.square.self_s": "s", "dirac.nilpotent.self_s": "s",
    "dirac.checks.self_s": "s",
    "spinor.dim": "count", "spinor.build.self_s": "s", "spinor.cubic.total_s": "s",
    "spinor.cubic.self_s": "s", "spinor.h_action.calls": "count",
    "spinor.h_action.self_s": "s",
    "cato.action.calls": "count", "cato.action.computed": "count",
    "cato.action.self_s": "s", "cato.materialized.calls": "count",
    "cato.gram.calls": "count", "cato.gram.self_s": "s",
    "cato.quotient.self_s": "s", "cato.window_build.self_s": "s",
    "roots.weight_new.calls": "count", "roots.self_s": "s",
    "liealg.chevalley.self_s": "s", "liealg.bracket.calls": "count",
    "hodge.unitarity.self_s": "s", "hodge.positive_definite.calls": "count",
    "hodge.weight_checks.self_s": "s",
    "scenarios.workspace.self_s": "s", "scenarios.workspace.total_s": "s",
    "scenarios.block_weights.self_s": "s", "scenarios.bundle_json.self_s": "s",
    **{f"scenarios.task.{t}.total_s": "s" for t in TASKS},
    **{f"{layer}.cover_s": "s" for layer in LAYERS},
    "cli.import_s": "s", "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
}
MAX_KEYS = ("exactla.max_bits", "dirac.block.dim_max", "spinor.dim")


class Refused(Exception):
    """The benchmark cannot run meaningfully here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                     if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, log_stem, deadline):
    """Run one child to completion; return (exit code, wall s, peak RSS MB, spawn time)."""
    env = child_env()
    ready = []
    with open(f"{log_stem}.out", "w") as out, open(f"{log_stem}.err", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], max(0.0, deadline - t0))
            finally:
                os.close(fd)
        finally:
            if not ready:  # out of time, or interrupted: never leave the child behind
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - t0
    return proc.returncode, wall, usage.ru_maxrss / 1024, t0


def normalized_sha256(bundle):
    """Canonical hash, ignoring the same manifest fields as the golden test."""
    doc = copy.deepcopy(bundle)
    doc["manifest"].pop("version", None)
    doc["manifest"].pop("kernel_backend", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def record_count(bundle):
    return sum(len(t.get("per_weight", {})) for t in bundle["tasks"].values())


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / workload
        self.start = time.monotonic()
        self.deadline = self.start + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = json.loads(REFERENCE.read_text())
        self.n = 0
        self.samples = {}

    def fail(self, what, run=False):
        """Record a problem; `run` marks it as one failed child run."""
        self.problems.append(what)
        self.failed += run
        print(f"FAIL {self.name}: {what}", file=sys.stderr)

    # -- one child ------------------------------------------------------------

    def run_cli(self, scenario):
        """Untraced `odirac run` through perfbench/launch.py; checks the bundle."""
        self.n += 1
        stem = self.work / f"{self.n:04d}"
        timing = Path(f"{stem}.timing.json")
        rc, wall, rss, t0 = spawn(
            [sys.executable, str(BENCH / "launch.py"), str(timing), "run",
             str(ROOT / scenario), "--out", str(self.work / "bundles")],
            stem, self.deadline)
        self.attempted += 1
        got = self.check_bundle(scenario, rc, stem)
        if got is None:
            return None
        data, bundle = got
        t = json.loads(timing.read_text())
        if len(t["workspace_built"]) != 1:
            self.fail(f"{scenario}: {len(t['workspace_built'])} Workspace builds, expected 1",
                      run=True)
            return None
        return {"wall_s": wall, "setup_s": t["workspace_built"][0] - t0, "rss_mb": rss,
                "records": record_count(bundle), "import_s": t["import_s"],
                "main_s": t["main_s"], "bytes": data}

    def run_traced(self, scenario):
        self.n += 1
        stem = self.work / f"{self.n:04d}"
        result = Path(f"{stem}.trace.json")
        rc, _, _, _ = spawn(
            [sys.executable, str(BENCH / "tracer.py"), str(result), "run",
             str(ROOT / scenario), "--out", str(self.work / "bundles")],
            stem, self.deadline)
        self.attempted += 1
        got = self.check_bundle(scenario, rc, stem)
        if got is None:
            return None
        return got[0], json.loads(result.read_text())

    def check_bundle(self, scenario, rc, stem):
        if rc != 0:
            err = Path(f"{stem}.err").read_text().strip().splitlines()
            self.fail(f"{scenario}: exit {rc}: {err[-1] if err else ''}", run=True)
            return None
        printed = Path(f"{stem}.out").read_text().split()
        path = Path(printed[-1]) if printed else None
        if path is None or not path.is_file():
            self.fail(f"{scenario}: the CLI named no bundle file", run=True)
            return None
        data = path.read_bytes()
        path.unlink()
        bundle = json.loads(data)
        if not bundle["ok"]:
            self.fail(f"{scenario}: bundle ok is false", run=True)
            return None
        want = self.reference["bundles"][scenario]
        if normalized_sha256(bundle) != want:
            self.fail(f"{scenario}: bundle differs from the reference", run=True)
            return None
        return data, bundle

    # -- passes -----------------------------------------------------------------

    def passes(self):
        """Yield the scenario order of each pass until the time is up."""
        first = True
        while first or time.monotonic() - self.start < self.seconds:
            first = False
            order = list(self.spec["scenarios"])
            self.rng.shuffle(order)
            yield order

    def measure(self):
        walls, setups, rates, rss = [], [], [], 0.0
        for order in self.passes():
            runs = [self.run_cli(s) for s in order]
            if None in runs:
                continue
            wall = sum(r["wall_s"] for r in runs)
            walls.append(wall)
            setups.append(sum(r["setup_s"] for r in runs))
            rates.append(sum(r["records"] for r in runs) / wall)
            rss = max([rss] + [r["rss_mb"] for r in runs])
        self.samples = {"wall_s": walls, "setup_s": setups}
        if not walls:
            return {}
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "weights_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (rss, "MB"),
            "success_rate": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }

    def run_pair(self, scenario):
        """Untraced run, then traced run; the two bundles must be byte-identical."""
        plain = self.run_cli(scenario)
        traced = self.run_traced(scenario)
        if plain is None or traced is None:
            return None
        if traced[0] != plain["bytes"]:
            self.fail(f"{scenario}: traced bundle differs from the untraced one", run=True)
            return None
        return plain, traced[1]

    def measure_traced(self):
        per_pass = []
        for order in self.passes():
            runs = [self.run_pair(s) for s in order]
            if None in runs:
                continue
            merged = {}
            for _, stats in runs:
                for k, v in stats.items():
                    merged[k] = max(merged.get(k, 0), v) if k in MAX_KEYS else merged.get(k, 0) + v
            merged["cli.import_s"] = statistics.median(p["import_s"] for p, _ in runs)
            merged["trace.overhead_ratio"] = (merged["trace.wall_s"]
                                              / sum(p["main_s"] for p, _ in runs))
            per_pass.append(layer_metrics(merged))
        if not per_pass:
            return {}
        # median_low keeps counts whole and reports a value some pass measured
        out = {k: (statistics.median_low(p[k] for p in per_pass), PER_LAYER[k])
               for k in PER_LAYER}
        for key, want in self.spec["expect"].items():
            got = out[key][0]
            if not (got > 0 if want == ">0" else got == want):
                self.fail(f"self-check {key} = {got}, expected {want}")
        return out

    def run(self):
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "bundles").mkdir(parents=True)
        context = run_context(self.work, self.reference)
        golden = json.loads(GOLDEN_SL3[1].read_text())
        if normalized_sha256(golden) != self.reference["bundles"][GOLDEN_SL3[0]]:
            self.fail("reference for sl3 does not match tests/golden")
        metrics = self.measure_traced() if self.trace else self.measure()
        context["loadavg_after"] = os.getloadavg()
        context["passes_s"] = time.monotonic() - self.start
        context["samples"] = self.samples
        (self.work / "context.json").write_text(json.dumps(context, indent=1) + "\n")
        print("context " + json.dumps(context, sort_keys=True))
        for k, (v, unit) in metrics.items():
            print(f"{self.name}  {k:34s} {v:14.6g} {unit}")
        correct = not self.problems and bool(metrics)
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
        }))
        return 0 if correct else 1


def layer_metrics(s):
    """Project the tracer's keys onto the PER_LAYER names."""
    out = {}
    for name in PER_LAYER:
        if name in s:
            out[name] = s[name]
    eigen, distinct = s["dirac.eigen.calls"], s["dirac.eigen.distinct_blocks"]
    out["dirac.eigen.repeat_ratio"] = eigen / distinct if distinct else 0.0
    cands = s["dirac.eigen.candidates"]
    out["dirac.eigen.hit_ratio"] = s["dirac.eigen.values"] / cands if cands else 0.0
    out["roots.self_s"] = sum(v for k, v in s.items()
                              if k.startswith("roots.") and k.endswith(".self_s"))
    missing = [k for k in PER_LAYER if k not in out]
    if missing:
        raise KeyError(f"tracer reported no value for {missing}")
    return out


def run_context(work, reference):
    """Machine and backend facts; refuses a backend the reference was not made on."""
    load_before = os.getloadavg()
    probe = work / "probe"
    rc, _, _, _ = spawn([sys.executable, "-c",
                         "import odirac.cli, odirac.acceptance, odirac.exactla as x; "
                         "print(getattr(x, 'BACKEND', 'pure'))"],
                        probe, time.monotonic() + 60)
    if rc != 0:
        raise Refused(f"cannot import odirac from {SRC}: "
                      + Path(f"{probe}.err").read_text()[-400:])
    backend = Path(f"{probe}.out").read_text().strip()
    if backend != reference["backend"]:
        raise Refused(f"kernel backend is {backend!r}; the reference and the recorded "
                      f"numbers are {reference['backend']!r}, so they do not compare")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "backend": backend,
            "loadavg_before": load_before}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    needed = [SRC / "odirac" / "cli.py", REFERENCE, GOLDEN_SL3[1]] + \
        [ROOT / s for s in WORKLOADS[args.workload]["scenarios"]]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"not an odirac checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        return Bench(args.workload, args.seed, args.seconds, args.trace).run()
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
