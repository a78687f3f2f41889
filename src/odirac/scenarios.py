"""Scenario files, the per-weight runner and deterministic result bundles.

A scenario names a Cartan type, a root subsystem, one module
construction and a list of tasks.  Everything fixed by the Cartan type
and the subsystem lives in one `PairContext` per process, shared by the
runner, the acceptance suite and the tests.  The runner evaluates each
task weight by weight, collects JSON-able records, sorts them by weight
and wraps everything in a manifest carrying the scenario hash and the
exact-arithmetic attestation.  Identical scenarios produce byte-identical
bundles, whatever the process has cached before.
"""

import json
import re
from fractions import Fraction
from operator import add

# SHA-256 from CPython's own module: `hashlib` would load OpenSSL's libcrypto
# (several MB of resident memory) for one digest of a small document.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256  # a build without the builtin module

from . import __version__
from .roots import (NotASubsystem, Weight, build_root_system, is_dominant_integral,
                    killing_form_on_dual)
from .liealg import PairGH, chevalley_basis
from .cato import (comparable_tops, cone_coords, finite_dim_simple, ses_from_embedding,
                   ses_split, simple_quotient_window, singular_vectors,
                   sort_weights, tensor_with_finite_dim, verma_window)
from .spinor import SpinModule
from .dirac import (block, check_square, exact_circle, index_identity_check,
                    kostant_kernel_check, nonvanishing_check,
                    simple_verma_theorem_check, singular_cohomology_weights,
                    vogan_audit)

DEFAULT_MAX_DEPTH = 10

# The top-level keys of a scenario document; any other key is an error.
SCENARIO_KEYS = ("name", "comment", "cartan_type", "delta_h", "module", "max_depth",
                 "depth_below_top", "tasks", "options")

# The fields each module kind reads besides "kind"; Workspace relies on them.
# A module may also carry "depth" (a finite module ignores it); nothing else.
MODULE_FIELDS = {
    "verma": ("lambda", "depth"),
    "simple": ("lambda", "depth"),
    "finite": ("lambda",),
    "tensor": ("lambda", "factor_lambda", "depth"),
    "ses": ("lambda", "sub_weight", "depth"),
    "ses_split": ("lambda", "lambda2", "depth"),
}
_WEIGHT_FIELDS = ("lambda", "factor_lambda", "sub_weight", "lambda2")

# The module kinds a task can run on; tasks not listed run on every kind.
TASK_KINDS = {
    "kostant": ("finite",),
    "circle": ("ses", "ses_split"),
    "hodge": ("verma", "simple"),
}

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


class PairContext:
    """Root data, Chevalley basis, pair and spin module of one (g, h).

    Also caches the modules built on the pair (Verma windows, simple
    modules, finite modules and tensor products of a Verma window with a
    finite module).  What is built from a module (its Dirac blocks, block
    spaces, Casimirs and block weights) is memoized on the module window.
    """

    def __init__(self, pair: PairGH):
        self.rs = pair.rs
        self.form = pair.form
        self.cb = chevalley_basis(self.rs, self.form)
        self.pair = pair
        self._sm = None
        self._modules = {}

    @property
    def sm(self):
        # built on demand; it holds no table over its 2^{|q+|} basis vectors
        if self._sm is None:
            self._sm = SpinModule(self.pair, self.cb)
        return self._sm

    def _module(self, key, build):
        """The module cached under key = (kind, ...), built on first use."""
        m = self._modules.get(key)
        if m is None:
            m = self._modules[key] = build()
        return m

    def verma(self, lam, depth):
        lam = Weight(lam)
        return self._module(("verma", lam, depth),
                            lambda: verma_window(self.pair, self.cb, lam, depth))

    def simple(self, lam, depth):
        """The simple module L(lam) on the weights within depth of lam."""
        lam = Weight(lam)
        return self._module(("simple", lam, depth),
                            lambda: simple_quotient_window(self.pair, self.cb, lam, depth))

    def finite(self, lam):
        """The finite-dimensional simple module of dominant integral lam."""
        lam = Weight(lam)
        return self._module(("finite", lam),
                            lambda: finite_dim_simple(self.pair, self.cb, lam))

    def tensor(self, lam, depth, factor_lam):
        """The Verma window of (lam, depth) tensor the finite module of factor_lam."""
        lam, factor_lam = Weight(lam), Weight(factor_lam)
        return self._module(("tensor", lam, depth, factor_lam),
                            lambda: tensor_with_finite_dim(self.verma(lam, depth),
                                                           self.finite(factor_lam)))

    def block_weights(self, m, depth, margin=0):
        """Block weights within `depth` of the top of m (tensor S) whose
        components, and everything `margin` below them, lie in m's window.

        Computed once per (depth, margin) and kept on m; each call returns a
        fresh list.
        """
        out = m.block_weight_lists.get((depth, margin))
        if out is None:
            rank, sm = self.pair.rank, self.sm
            # In integer coordinates below the tops: the block weight
            # top(m) + top(S) - c, less the spin weight top(S) - drop and
            # `margin` more, is top(m) - (c - drop + e).  Only the vacuum's
            # rests c + e are tested: every other rest lies between c + e and
            # m's top, which every window materializes once it has c + e.
            margins = cone_coords(rank, margin)
            top = m.top_weight + sm.top_weight
            out = []
            for c in cone_coords(rank, depth):
                if all(m.materialized(m.weight_below_top(tuple(map(add, c, e))))
                       for e in margins):
                    out.append(top - Weight(c))
            out = m.block_weight_lists[(depth, margin)] = sort_weights(out)
        return list(out)


_CONTEXTS = {}


def pair_context(cartan_type, delta_h=(), rs=None) -> PairContext:
    """The process-wide context of (cartan_type, delta_h), built on first use.

    Looked up by delta_h as written, then by the validated subsystem, so
    every spelling of one pair shares one context; a new spelling costs
    one `PairGH`.  `rs` is the root system of cartan_type, if the caller
    has built it.
    """
    key = (cartan_type, tuple(Weight(v) for v in delta_h))
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        rs = rs or build_root_system(cartan_type)
        pair = PairGH(rs, killing_form_on_dual(rs), key[1])
        validated = (cartan_type, tuple(pair.delta_h_pos))
        ctx = _CONTEXTS.get(validated) or PairContext(pair)
        _CONTEXTS[key] = _CONTEXTS[validated] = ctx
    return ctx


class Scenario:
    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be a JSON object")
        unknown = sorted(set(doc) - set(SCENARIO_KEYS))
        if unknown:
            raise ScenarioError(f"unknown scenario key {unknown[0]!r}")
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
            rs = build_root_system(self.cartan_type)
        except ValueError as e:
            raise ScenarioError(str(e))
        rank = rs.rank
        delta_h = doc.get("delta_h", [])
        if not isinstance(delta_h, list):
            raise ScenarioError(f"delta_h must be a list, got {delta_h!r}")
        self.delta_h = [parse_weight(v, rank) for v in delta_h]
        try:
            self.ctx = pair_context(self.cartan_type, self.delta_h, rs)
        except NotASubsystem as e:
            raise ScenarioError(f"NotASubsystem: {e}")
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
        unknown = sorted(set(module) - {"kind", "depth", *MODULE_FIELDS[kind]})
        if unknown:
            raise ScenarioError(f"unknown key {unknown[0]!r} for module kind {kind!r}")
        self.weights = {key: parse_weight(module[key], rank)
                        for key in _WEIGHT_FIELDS if key in module}
        if kind == "ses_split":
            lam, lam2 = self.weights["lambda"], self.weights["lambda2"]
            if not comparable_tops(lam, lam2):
                raise ScenarioError(f"ses_split tops {wkey(lam)} and {wkey(lam2)} differ "
                                    "by no sum of positive roots in either direction")
        finite = {"finite": "lambda", "tensor": "factor_lambda"}.get(kind)
        if finite:
            lam = self.weights[finite]
            if not is_dominant_integral(lam, self.ctx.rs.positive_roots, self.ctx.form):
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
            if not isinstance(t, str) or t not in _TASK_FNS:
                raise ScenarioError(f"unknown task {t!r}")
            kinds = TASK_KINDS.get(t)
            if kinds and kind not in kinds:
                raise ScenarioError(
                    f"task {t} needs module kind {' or '.join(kinds)}, got {kind!r}")
        self.hermitian = None  # the validated HermitianPair, which `hodge` reads
        if "hodge" in self.tasks:
            from .hodge import HermitianPair, NotHermitian

            try:
                self.hermitian = HermitianPair(self.ctx.pair)
            except NotHermitian as e:
                raise ScenarioError(f"task hodge needs a Hermitian pair: {e}")
        # block_weights walks every cone point within depth_below_top of the top
        self.depth_below_top = parse_count(doc, "depth_below_top", 6)
        if self.depth_below_top > self.max_depth:
            raise ScenarioError(f"depth_below_top {self.depth_below_top} exceeds the "
                                f"configured maximum {self.max_depth}")
        options = doc.get("options", {})
        if not isinstance(options, dict):
            raise ScenarioError(f"options must be an object, got {options!r}")
        unknown = sorted(set(options) - {"expect_nonunitary"})
        if unknown:
            raise ScenarioError(f"unknown option {unknown[0]!r}")
        self.expect_nonunitary = options.get("expect_nonunitary", False)
        if not isinstance(self.expect_nonunitary, bool):
            raise ScenarioError("options.expect_nonunitary must be true or false, "
                                f"got {self.expect_nonunitary!r}")

    def sha256(self):
        blob = json.dumps(self.doc, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or not UTF-8
        raise ScenarioError(f"cannot parse scenario {path}: {e}")
    return Scenario(doc)


class Workspace:
    """A scenario's shared pair context plus its module (and SES, if any)."""

    def __init__(self, scn: Scenario):
        self.scenario = scn
        self.ctx = scn.ctx
        self.cb, self.pair = self.ctx.cb, self.ctx.pair
        self.sm = self.ctx.sm  # built here, so a run's set-up includes it
        self.ses = None
        self.module = self._build_module(scn)

    def _build_module(self, scn):
        ctx = self.ctx
        kind, lam, depth = scn.module["kind"], scn.weights["lambda"], scn.depth
        if kind == "finite":
            return ctx.finite(lam)
        if kind == "tensor":
            return ctx.tensor(lam, depth, scn.weights["factor_lambda"])
        if kind == "simple":
            return ctx.simple(lam, depth)
        vw = ctx.verma(lam, depth)
        if kind == "verma":
            return vw
        if kind == "ses":
            w0 = scn.weights["sub_weight"]
            if not vw.materialized(w0):
                raise ScenarioError(f"sub_weight {wkey(w0)} lies below the window "
                                    f"of depth {depth}")
            sv = singular_vectors(vw, w0)
            if sv.nrows != 1:
                raise ScenarioError(
                    f"expected one singular vector at {w0}, found {sv.nrows}")
            self.ses = ses_from_embedding(vw, w0, sv)
            return vw
        # ses_split, the last kind in MODULE_FIELDS
        self.ses = ses_split(vw, ctx.verma(scn.weights["lambda2"], depth))
        return self.ses.modules()[1]

    def block_weights(self, margin=0):
        """Assemble-safe block weights within the reporting range of the top."""
        return self.ctx.block_weights(self.module, self.scenario.depth_below_top, margin)


def run_scenario(scn: Scenario) -> dict:
    ws = Workspace(scn)
    tasks = {}
    ok = True
    for t in scn.tasks:
        doc = _TASK_FNS[t](ws)
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


def _map_weights(fn, weights):
    return {wkey(mu): fn(mu) for mu in weights}


def _map_blocks(fn, ws, margin=0):
    """{wkey(mu): fn(block at mu)} over the nonzero Dirac blocks at ws's block weights."""
    blocks = (block(ws.sm, ws.module, mu) for mu in ws.block_weights(margin=margin))
    return {wkey(blk.mu): fn(blk) for blk in blocks if blk.dim}


def _task_dirac(ws):
    def one(blk):
        # the spectrum first: a block without the eigenvalue 0 has no kernels
        eigs = blk.eigenvalue_decomposition()
        hd = blk.dirac_cohomology()
        htop = blk.higher_cohomology()
        return {
            "dim_block": blk.dim,
            "dims": {
                "ker": hd["ker"], "im": hd["im"], "gen0": hd["gen0"],
                "HD": hd["hd"], "HD_plus": hd["hd_plus"], "HD_minus": hd["hd_minus"],
                "Htop": {str(k): list(v) for k, v in sorted(htop.items())},
            },
            "eigenvalues": [str(c) for c in sorted(eigs)],
        }

    records = _map_blocks(one, ws)
    nv = nonvanishing_check(ws.sm, ws.module)
    return {
        "per_weight": records,
        "nonvanishing": {
            "weight": wkey(nv["weight"]),
            "in_kernel": nv["in_kernel"],
            "not_in_image": nv["not_in_image"],
        },
        "ok": nv["ok"],
    }


def _task_square(ws):
    margin = max(a.height for a in ws.pair.rs.positive_roots)

    def one(blk):
        rep = check_square(blk)
        return {
            "matrix_identity": rep["matrix_identity"],
            "eigenvalues": {str(c): d for c, d in sorted(rep["eigenvalues"].items())},
        }

    records = _map_blocks(one, ws, margin)
    ok = all(r["matrix_identity"] for r in records.values())
    return {"per_weight": records, "ok": ok, "first_failure": next(
        (k for k, r in sorted(records.items()) if not r["matrix_identity"]), None)}


def _task_kostant(ws):
    rep = kostant_kernel_check(ws.sm, ws.module)
    return {
        "ok": rep["match"],
        "kernel_character": {wkey(w): d for w, d in sorted(rep["kernel_character"].items())},
        "expected_character": {wkey(w): d for w, d in sorted(rep["expected_character"].items())},
        "constituents": [wkey(w) for w in rep["constituents"]],
        "coset_size": len(ws.pair.weyl.coset_W1),
        "cubic_term_zero": ws.sm.cubic.is_zero(),
    }


def _task_simple_verma(ws):
    rep = simple_verma_theorem_check(ws.sm, ws.module, ws.block_weights())
    return {
        "ok": rep["antidominant"] and rep["target_antidominant"] and rep["match"],
        "antidominant": rep["antidominant"],
        "target_antidominant": rep["target_antidominant"],
        "hd_character": {wkey(w): d for w, d in sorted(rep["hd_character"].items())},
        "expected_character": {wkey(w): d for w, d in sorted(rep["expected_character"].items())},
    }


def _task_higher(ws):
    def one(blk):
        htop = blk.higher_cohomology()  # asserts both routes agree
        sizes = sorted(c.nrows for c in blk.nilpotent().chains())
        return {
            "Htop": {str(k): list(v) for k, v in sorted(htop.items())},
            "jordan_sizes": sizes,
        }

    records = _map_blocks(one, ws)
    max_size = max((max(r["jordan_sizes"]) for r in records.values()
                    if r["jordan_sizes"]), default=0)
    return {"per_weight": records, "max_jordan_size": max_size, "ok": True}


def _task_index(ws):
    def one(blk):
        rep = index_identity_check(blk)
        return {"signed_sum": rep["signed_sum"],
                "graded_difference": rep["graded_difference"],
                "ok": rep["ok"]}

    records = _map_blocks(one, ws)
    return {"per_weight": records, "ok": all(r["ok"] for r in records.values())}


def _task_circle(ws):
    weights = ws.block_weights()

    def one(mu):
        cert = exact_circle(ws.sm, ws.ses, mu)
        return {"exact": cert.exact, "node_dims": cert.node_dims,
                "triples": [{"k": t["k"], "l": t["l"], "m": t["m"]}
                            for t in cert.triples]}

    records = _map_weights(one, weights)
    return {"per_weight": records, "ok": all(r["exact"] for r in records.values())}


def _task_hodge(ws):
    from .hodge import (hodge_decomposition_check, identification_check, theorem52_comparison,
                        unitarity_check)

    pair, sm, m = ws.pair, ws.sm, ws.module
    d = ws.scenario.depth_below_top
    test_ws = [m.top_weight - Weight(c)
               for c in cone_coords(pair.rank, d + 2 * int((pair.rho - pair.rho_h).height))]
    test_ws = [w for w in test_ws if m.materialized(w)]
    urep = unitarity_check(ws.scenario.hermitian, m, test_ws)
    doc = {"unitary_on_window": urep["unitary"],
           "positivity_per_weight": {wkey(w): v for w, v in sorted(urep["per_weight"].items())}}
    if ws.scenario.expect_nonunitary:
        doc["ok"] = not urep["unitary"]
        doc["note"] = "negative test: positivity expected to fail"
        return doc
    if not urep["unitary"]:
        doc["ok"] = False
        return doc
    us = urep["structure"]
    weights = ws.block_weights()
    oks = []

    def one(mu):
        blk = block(sm, m, mu)
        if not blk.dim:  # an empty weight: every check holds and every total is 0
            return {"identification": True, "adjoint": True, "splitting": True,
                    "cplus_decomposition": True, "hd": 0, "ce_cohomology": 0,
                    "ce_homology": 0, "comparison": True}
        ident = identification_check(blk)
        hdg = hodge_decomposition_check(blk, us)
        cmp = theorem52_comparison(blk)
        oks.append(ident["ok"] and hdg["ok"] and cmp["ok"])
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

    records = _map_weights(one, weights)
    doc["per_weight"] = records
    doc["ok"] = all(oks)
    return doc


def _task_vogan(ws):
    weights = ws.block_weights()
    singular = singular_cohomology_weights(ws.sm, ws.module, weights)
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
