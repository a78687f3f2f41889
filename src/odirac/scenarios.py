"""Scenario files, the per-weight runner and deterministic result bundles.

A scenario names a Cartan type, a root subsystem, one module
construction and a list of tasks.  The runner fans per-weight block
work out to a bounded thread pool, collects JSON-able records, sorts
them by weight and wraps everything in a manifest carrying the scenario
hash and the exact-arithmetic attestation.  Identical scenarios produce
byte-identical bundles regardless of the worker count.
"""

import hashlib
import json
import re
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import __version__
from .roots import (Weight, build_root_system, is_dominant_integral,
                    killing_form_on_dual)
from .liealg import chevalley_basis, validate_pair
from .cato import (_cone_coords, finite_dim_simple, ses_from_embedding,
                   ses_split, shapovalov_grams, simple_quotient_window,
                   singular_vectors, sort_weights, tensor_with_finite_dim,
                   verma_window)
from .spinor import build_spin_module
from .dirac import (DiracBlock, check_square, exact_circle, index_identity_check,
                    kostant_kernel_check, nonvanishing_check,
                    simple_verma_theorem_check, singular_cohomology_weights,
                    vogan_audit)
from .hodge import (NotHermitian, detect_hermitian, hodge_decomposition_check,
                    identification_check, theorem52_comparison, unitarity_check)

DEFAULT_MAX_DEPTH = 10

KNOWN_TASKS = ("dirac", "square", "kostant", "simple_verma", "higher", "index",
               "circle", "hodge", "vogan")


# The fields each module kind reads besides "kind"; Workspace relies on them.
MODULE_FIELDS = {
    "verma": ("lambda", "depth"),
    "simple": ("lambda", "depth"),
    "finite": ("lambda",),
    "tensor": ("lambda", "factor_lambda", "depth"),
    "ses": ("lambda", "sub_weight", "depth"),
    "ses_split": ("lambda", "lambda2", "depth"),
}
_WEIGHT_FIELDS = ("lambda", "factor_lambda", "sub_weight", "lambda2")

# A bundle is written to <out>/<name>.bundle.json, so a name must not leave <out>.
_FILE_STEM = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


class ScenarioError(ValueError):
    """The scenario file does not parse or violates its invariants."""


def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise ScenarioError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ScenarioError(f"not a rational: {x!r} ({e})")
    raise ScenarioError(f"not a rational: {x!r}")


def parse_weight(vals, rank) -> Weight:
    if not isinstance(vals, (list, tuple)) or len(vals) != rank:
        raise ScenarioError(f"weight needs {rank} coordinates, got {vals!r}")
    return Weight([parse_rational(v) for v in vals])


def parse_count(doc, key, default=None):
    """The non-negative integer `doc[key]`, or `default` if the key is absent."""
    v = doc.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ScenarioError(f"{key} must be a non-negative integer, got {v!r}")
    return v


def wkey(w: Weight) -> str:
    return "[" + ", ".join(str(c) for c in w) + "]"


class Scenario:
    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be a JSON object")
        self.doc = doc
        self.name = doc.get("name", "scenario")
        if not isinstance(self.name, str) or not _FILE_STEM.fullmatch(self.name):
            raise ScenarioError(f"name {self.name!r} is not a file stem "
                                "(letters, digits, '.', '_', '-'; no leading dot)")
        try:
            self.cartan_type = doc["cartan_type"]
        except KeyError:
            raise ScenarioError("missing cartan_type")
        try:
            self.rs = build_root_system(self.cartan_type)
        except ValueError as e:
            raise ScenarioError(str(e))
        rank = self.rs.rank
        self.delta_h = [parse_weight(v, rank) for v in doc.get("delta_h", [])]
        module = doc.get("module")
        if not isinstance(module, dict) or "kind" not in module:
            raise ScenarioError("missing module spec")
        self.module = module
        kind = module["kind"]
        if not isinstance(kind, str) or kind not in MODULE_FIELDS:
            raise ScenarioError(f"unknown module kind {kind!r}")
        missing = [key for key in MODULE_FIELDS[kind] if key not in module]
        if missing:
            raise ScenarioError(f"module kind {kind!r} needs {', '.join(missing)}")
        self.weights = {key: parse_weight(module[key], rank)
                        for key in _WEIGHT_FIELDS if key in module}
        finite = {"finite": "lambda", "tensor": "factor_lambda"}.get(kind)
        if finite:
            lam, form = self.weights[finite], killing_form_on_dual(self.rs)
            if not is_dominant_integral(lam, self.rs.positive_roots, form):
                raise ScenarioError(f"{finite} {wkey(lam)} is not dominant integral")
        self.max_depth = parse_count(doc, "max_depth", DEFAULT_MAX_DEPTH)
        self.depth = parse_count(module, "depth") if "depth" in module else None
        if self.depth is not None and self.depth > self.max_depth:
            raise ScenarioError(
                f"depth {self.depth} exceeds the configured maximum {self.max_depth}")
        self.tasks = doc.get("tasks", [])
        if not isinstance(self.tasks, list):
            raise ScenarioError(f"tasks must be a list, got {self.tasks!r}")
        for t in self.tasks:
            if t not in KNOWN_TASKS:
                raise ScenarioError(f"unknown task {t!r}")
        self.depth_below_top = parse_count(doc, "depth_below_top", 6)
        self.options = doc.get("options", {})
        self.out_dir = doc.get("out_dir")

    def sha256(self):
        blob = json.dumps(self.doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ScenarioError(f"cannot parse scenario {path}: {e}")
    return Scenario(doc)


class Workspace:
    """Built context for one scenario: pair, spin module and the module."""

    def __init__(self, scn: Scenario):
        self.scenario = scn
        self.rs = scn.rs
        self.form = killing_form_on_dual(self.rs)
        self.cb = chevalley_basis(self.rs, self.form)
        self.pair = validate_pair(self.rs, self.form, scn.delta_h)
        self.sm = build_spin_module(self.pair, self.cb)
        self.ses = None
        self.module = self._build_module(scn)
        self._blocks = {}

    def _build_module(self, scn):
        pair, cb = self.pair, self.cb
        kind, lam, depth = scn.module["kind"], scn.weights["lambda"], scn.depth
        if kind == "finite":
            return finite_dim_simple(pair, cb, lam)
        vw = verma_window(pair, cb, lam, depth)
        if kind == "verma":
            return vw
        if kind == "simple":
            return simple_quotient_window(vw, shapovalov_grams(vw))
        if kind == "tensor":
            return tensor_with_finite_dim(
                vw, finite_dim_simple(pair, cb, scn.weights["factor_lambda"]))
        if kind == "ses":
            w0 = scn.weights["sub_weight"]
            sv = singular_vectors(vw, w0)
            if len(sv) != 1:
                raise ScenarioError(
                    f"expected one singular vector at {w0}, found {len(sv)}")
            self.ses = ses_from_embedding(vw, w0, sv[0])
            return vw
        # ses_split, the last kind in MODULE_FIELDS
        self.ses = ses_split(vw, verma_window(pair, cb, scn.weights["lambda2"], depth))
        return self.ses.modules()[1]

    def block(self, mu) -> DiracBlock:
        b = self._blocks.get(mu)
        if b is None:
            b = DiracBlock(self.pair, self.cb, self.sm, self.module, mu)
            self._blocks[mu] = b
        return b

    def block_weights(self, depth_below_top=None, margin=0):
        """Assemble-safe block weights within the reporting range of the top."""
        scn = self.scenario
        d = scn.depth_below_top if depth_below_top is None else depth_below_top
        top = self.module.top_weight + self.sm.top_weight
        out = []
        for c in _cone_coords(self.pair.rank, d):
            mu = top - Weight(c)
            if self._block_safe(mu, margin):
                out.append(mu)
        return sort_weights(out)

    def _block_safe(self, mu, margin):
        m = self.module
        for ws in self.sm.weights:
            w = mu - ws
            if not m.materialized(w):
                return False
            if margin:
                for c in _cone_coords(self.pair.rank, margin):
                    if not m.materialized(w - Weight(c)):
                        return False
        return True


def _sorted_record_list(records):
    return [records[k] for k in sorted(records)]


def run_scenario(scn: Scenario, jobs=1) -> dict:
    ws = Workspace(scn)
    tasks = {}
    ok = True
    for t in scn.tasks:
        doc = _TASK_FNS[t](ws, jobs)
        tasks[t] = doc
        ok = ok and doc.get("ok", True)
    bundle = {
        "manifest": {
            "engine": "odirac",
            "version": __version__,
            "scenario": scn.name,
            "scenario_sha256": scn.sha256(),
            "exact_arithmetic": "rational (Fraction); no floating point in the math core",
        },
        "tasks": tasks,
        "ok": ok,
    }
    return bundle


def _map_weights(ws, fn, weights, jobs):
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(fn, weights))
    else:
        results = [fn(mu) for mu in weights]
    return {wkey(mu): rec for mu, rec in zip(weights, results) if rec is not None}


def _task_dirac(ws, jobs):
    margin = 0
    weights = ws.block_weights(margin=margin)

    def one(mu):
        blk = ws.block(mu)
        if blk.dim == 0:
            return None
        hd = blk.dirac_cohomology()
        htop = blk.higher_cohomology()
        eigs = blk.eigenvalue_decomposition()
        return {
            "dim_block": blk.dim,
            "dims": {
                "ker": hd["ker"], "im": hd["im"], "gen0": hd["gen0"],
                "HD": hd["hd"], "HD_plus": hd["hd_plus"], "HD_minus": hd["hd_minus"],
                "Htop": {str(k): list(v) for k, v in sorted(htop.items())},
            },
            "eigenvalues": [str(c) for c in sorted(eigs)],
        }

    records = _map_weights(ws, one, weights, jobs)
    nv = nonvanishing_check(ws.pair, ws.cb, ws.sm, ws.module)
    return {
        "per_weight": records,
        "nonvanishing": {
            "weight": wkey(nv["weight"]),
            "in_kernel": nv["in_kernel"],
            "not_in_image": nv["not_in_image"],
        },
        "ok": nv["ok"],
    }


def _task_square(ws, jobs):
    margin = max(int(a.height) for a in ws.rs.positive_roots)
    weights = ws.block_weights(margin=margin)

    def one(mu):
        blk = ws.block(mu)
        if blk.dim == 0:
            return None
        rep = check_square(ws.pair, ws.cb, ws.sm, ws.module, blk)
        return {
            "matrix_identity": rep["matrix_identity"],
            "eigenvalues": {str(c): d for c, d in sorted(rep["eigenvalues"].items())},
        }

    records = _map_weights(ws, one, weights, jobs)
    ok = all(r["matrix_identity"] for r in records.values())
    return {"per_weight": records, "ok": ok, "first_failure": next(
        (k for k, r in sorted(records.items()) if not r["matrix_identity"]), None)}


def _task_kostant(ws, jobs):
    if not ws.module.complete:
        return {"ok": False, "error": "kostant task needs a finite-dimensional module"}
    rep = kostant_kernel_check(ws.pair, ws.cb, ws.sm, ws.module)
    return {
        "ok": rep["match"],
        "kernel_character": {wkey(w): d for w, d in sorted(rep["kernel_character"].items())},
        "expected_character": {wkey(w): d for w, d in sorted(rep["expected_character"].items())},
        "constituents": [wkey(w) for w in rep["constituents"]],
        "coset_size": len(ws.pair.weyl.coset_W1),
        "cubic_term_zero": ws.sm.cubic.is_zero(),
    }


def _task_simple_verma(ws, jobs):
    rep = simple_verma_theorem_check(ws.pair, ws.cb, ws.sm, ws.module,
                                     ws.scenario.depth_below_top)
    return {
        "ok": rep["antidominant"] and rep["target_antidominant"] and rep["match"],
        "antidominant": rep["antidominant"],
        "target_antidominant": rep["target_antidominant"],
        "hd_character": {wkey(w): d for w, d in sorted(rep["hd_character"].items())},
        "expected_character": {wkey(w): d for w, d in sorted(rep["expected_character"].items())},
    }


def _task_higher(ws, jobs):
    weights = ws.block_weights()

    def one(mu):
        blk = ws.block(mu)
        if blk.dim == 0:
            return None
        htop = blk.higher_cohomology()  # asserts both routes agree
        sizes = sorted(len(c) for c in blk.nilpotent().chains())
        return {
            "Htop": {str(k): list(v) for k, v in sorted(htop.items())},
            "jordan_sizes": sizes,
        }

    records = _map_weights(ws, one, weights, jobs)
    max_size = max((max(r["jordan_sizes"]) for r in records.values()
                    if r["jordan_sizes"]), default=0)
    return {"per_weight": records, "max_jordan_size": max_size, "ok": True}


def _task_index(ws, jobs):
    weights = ws.block_weights()

    def one(mu):
        blk = ws.block(mu)
        if blk.dim == 0:
            return None
        rep = index_identity_check(ws.pair, ws.cb, ws.sm, ws.module, mu)
        return {"signed_sum": rep["signed_sum"],
                "graded_difference": rep["graded_difference"],
                "ok": rep["ok"]}

    records = _map_weights(ws, one, weights, jobs)
    return {"per_weight": records, "ok": all(r["ok"] for r in records.values())}


def _task_circle(ws, jobs):
    if ws.ses is None:
        return {"ok": False, "error": "circle task needs an ses module"}
    weights = ws.block_weights()

    def one(mu):
        cert = exact_circle(ws.pair, ws.cb, ws.sm, ws.ses, mu)
        return {"exact": cert.exact, "node_dims": cert.node_dims,
                "triples": [{"k": t["k"], "l": t["l"], "m": t["m"]}
                            for t in cert.triples]}

    records = _map_weights(ws, one, weights, jobs)
    return {"per_weight": records, "ok": all(r["exact"] for r in records.values())}


def _task_hodge(ws, jobs):
    pair, cb, sm, m = ws.pair, ws.cb, ws.sm, ws.module
    expect_nonunitary = bool(ws.scenario.options.get("expect_nonunitary", False))
    try:
        hp = detect_hermitian(pair)
    except NotHermitian as e:
        return {"ok": False, "error": str(e)}
    if m.kind == "simple":
        vw = m.parent
        form = shapovalov_grams(vw)
    elif m.kind == "verma":
        form = shapovalov_grams(m)
    else:
        return {"ok": False, "error": "hodge task needs a verma or simple module"}
    d = ws.scenario.depth_below_top
    test_ws = [m.top_weight - Weight(c)
               for c in _cone_coords(pair.rank, d + 2 * int((pair.rho - pair.rho_h).height))]
    test_ws = [w for w in test_ws if m.materialized(w)]
    urep = unitarity_check(hp, m, form, test_ws)
    doc = {"unitary_on_window": urep["unitary"],
           "positivity_per_weight": {wkey(w): v for w, v in sorted(urep["per_weight"].items())}}
    if expect_nonunitary:
        doc["ok"] = not urep["unitary"]
        doc["note"] = "negative test: positivity expected to fail"
        return doc
    if not urep["unitary"]:
        doc["ok"] = False
        return doc
    us = urep["structure"]
    weights = ws.block_weights(depth_below_top=d)

    def one(mu):
        ident = identification_check(hp, sm, m, mu)
        hdg = hodge_decomposition_check(hp, sm, m, us, mu)
        cmp = theorem52_comparison(hp, sm, m, mu)
        return {
            "identification": ident["ok"],
            "adjoint": hdg["adjoint"],
            "splitting": hdg["splitting"],
            "cplus_decomposition": hdg["cplus"],
            "hd": cmp["hd"],
            "ce_cohomology": cmp["ce_cohomology"],
            "ce_homology": cmp["ce_homology"],
            "comparison": cmp["ok"],
        }

    records = _map_weights(ws, one, weights, jobs)
    doc["per_weight"] = records
    doc["ok"] = all(r["identification"] and r["adjoint"] and r["splitting"]
                    and r["cplus_decomposition"] and r["comparison"]
                    for r in records.values())
    return doc


def _task_vogan(ws, jobs):
    weights = ws.block_weights()
    singular = singular_cohomology_weights(ws.pair, ws.cb, ws.sm, ws.module, weights)
    rep = vogan_audit(ws.pair, sorted(singular), ws.module.infchars)
    return {
        "ok": rep["ok"],
        "constituent_weights": {wkey(w): {k: (v if k != "htop" else
                                              {str(kk): vv for kk, vv in v.items()})
                                          for k, v in d.items()}
                                for w, d in sorted(singular.items())},
        "per_weight": {wkey(w): v for w, v in sorted(rep["per_weight"].items())},
        "infinitesimal_characters": [wkey(l) for l in ws.module.infchars],
    }


_TASK_FNS = {
    "dirac": _task_dirac,
    "square": _task_square,
    "kostant": _task_kostant,
    "simple_verma": _task_simple_verma,
    "higher": _task_higher,
    "index": _task_index,
    "circle": _task_circle,
    "hodge": _task_hodge,
    "vogan": _task_vogan,
}


def bundle_to_json(bundle) -> str:
    return json.dumps(bundle, sort_keys=True, indent=1) + "\n"
