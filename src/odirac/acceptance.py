"""The acceptance suite: one callable per criterion, all exact.

Criteria 1-9 are lists of scenario documents, the plain dicts a scenario
file holds.  Each document runs through `Scenario` and `run_scenario`,
the path `odirac run` takes, and the criterion reads its verdict off the
bundles, together with how many runs or blocks each check visited.
Criterion 10 checks structural properties below the runner.  Every check
reproduces an algebraic identity at zero tolerance; the only numeric
thresholds are the runtime targets.  `run_all` prints one PASS/FAIL line
per criterion and is what the CLI selftest runs; a criterion that raises
fails, and one that raises anything but a failed check (AssertionError,
LiftFailure) is marked as an internal error.
"""

import json
import os
import time
from fractions import Fraction

from .exactla import Mat
from .roots import Weight, eps_to_weight
from .cato import commutation_defect, cone_coords
from .spinor import SpinModule, cubic_term_rebased, to_mat
from .dirac import LiftFailure, block, h_equivariance_defect
from .scenarios import PairContext, Scenario, bundle_to_json, pair_context, run_scenario, wkey

_F = Fraction

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def _result(name, ok, seconds, details):
    return {"name": name, "ok": bool(ok), "seconds": round(seconds, 2),
            "details": details}


# -- scenario documents ---------------------------------------------------------
#
# Weights are in simple-root coordinates, as in scenario files: rho is [1/2]
# on A1 and [1, 1] on A2.

_SU21 = [[1, 0]]  # the one-string subsystem of sl(3), an su(2,1)-type pair


def _doc(cartan, dh, module, tasks, depth_below_top, **options):
    """A scenario document, named after its pair and module."""
    name = f"{cartan}-dh{len(dh)}-{module['kind']}" + "".join(
        f"_{c}" for v in module.values() if isinstance(v, list) for c in v).replace("/", "over")
    doc = {"cartan_type": cartan, "delta_h": dh, "module": module, "tasks": tasks,
           "depth_below_top": depth_below_top}
    if "depth" in module:
        name += f"-d{module['depth']}"
        doc["max_depth"] = module["depth"]
    if options:
        doc["options"] = options
    return dict(doc, name=name)


def _run(docs):
    """(name, bundle) of each document, run in order."""
    return [(doc["name"], run_scenario(Scenario(doc))) for doc in docs]


def _per_weight(runs, task):
    """(run name, weight key, record) of every per-weight record of a task."""
    return [(name, k, rec) for name, b in runs
            for k, rec in b["tasks"][task].get("per_weight", {}).items()]


# the finite modules of the Kostant check: (cartan type, delta_h, highest weights)
_FINITE_CASES = [
    ("A1", [], [[0], ["1/2"], [1], ["3/2"], [2]]),
    ("A2", _SU21, [[0, 0], ["2/3", "1/3"], [1, 1]]),
    ("A2", [], [[0, 0]]),
]

# antidominant Vermas of the simple-Verma theorem: (cartan type, delta_h,
# window depth, highest weights).  The depth is 8 + ht(sum of q+) + 1, so
# every block within 8 of the top lies in the window; [-1, -1] is -rho, the
# integral edge.
_THM41_CASES = [
    ("A1", [], 10, [["-1/2"], ["-1/4"], ["-4/3"]]),
    ("A2", _SU21, 12, [[-1, -1], ["-2/3", "-4/5"], ["-10/7", "-9/7"]]),
    ("A2", [], 13, [[-1, -1], ["-2/3", "-4/5"], ["-10/7", "-9/7"]]),
]


def _finite_docs(tasks):
    """The modules of _FINITE_CASES, 2 ht(lambda) + 6 deep: past their lowest block."""
    return [_doc(cartan, dh, {"kind": "finite", "lambda": lam}, tasks,
                 2 * int(sum(map(_F, lam))) + 6)
            for cartan, dh, lams in _FINITE_CASES for lam in lams]


def _simple_verma_docs(tasks, depth_below_top):
    return [_doc(cartan, dh, {"kind": "verma", "lambda": lam, "depth": depth}, tasks,
                 depth_below_top)
            for cartan, dh, depth, lams in _THM41_CASES for lam in lams]


def _sl3_doc(tasks, depth_below_top, depth=14):
    """The worked example: M(-rho) over the su(2,1)-type pair of sl(3)."""
    return _doc("A2", _SU21, {"kind": "verma", "lambda": [-1, -1], "depth": depth}, tasks,
                depth_below_top)


def _tensor_doc(lambda_h, factor_h, tasks, depth_below_top):
    """An A1 (h = t) Verma window of depth 16 tensor a finite module."""
    module = {"kind": "tensor", "lambda": [str(_F(lambda_h, 2))],
              "factor_lambda": [str(_F(factor_h, 2))], "depth": 16}
    return _doc("A1", [], module, tasks, depth_below_top)


def _jordan_doc(tasks, depth_below_top):
    fx = load_jordan_fixture()["fixture"]
    return _tensor_doc(fx["lambda_h"], fx["factor_h"], tasks, depth_below_top)


# -- criteria -------------------------------------------------------------------

def criterion_1_sl3_example():
    """Worked sl(3) example: H_D(M(-rho)) is the subsystem Verma M_h(-rho_h)."""
    t0 = time.time()
    [(_, b)] = _run([_sl3_doc(["simple_verma", "dirac"], 8)])
    sv, dirac = b["tasks"]["simple_verma"], b["tasks"]["dirac"]
    pair = pair_context("A2", _SU21).pair
    # the top block sits at -rho_h, the claimed highest weight in epsilon coordinates
    top_key = dirac["nonvanishing"]["weight"]
    top_ok = top_key == wkey(-pair.rho_h) == wkey(
        eps_to_weight(pair.rs, (_F(-1, 2), _F(1, 2), 0)))
    top = dirac["per_weight"][top_key]
    elapsed = time.time() - t0
    ok = (sv["ok"] and dirac["ok"] and top_ok and top["dim_block"] == 1
          and top["dims"]["ker"] == 1 and elapsed < 10)
    return _result("sl(3) worked example", ok, elapsed, {
        "character_match": sv["ok"],
        "top_space_dim": top["dim_block"],
        "d_kills_top": top["dims"]["ker"] == top["dim_block"],
        "weights_with_hd": len(sv["hd_character"]),
        "visited": {"simple_verma_runs": 1},
        "runtime_target": "< 10 s",
    })


def criterion_2_kostant():
    """Kostant kernel formula on finite modules across three pairs."""
    t0 = time.time()
    runs = _run(_finite_docs(["kostant"]))
    details = {name: b["tasks"]["kostant"]["ok"] for name, b in runs}
    # h = t in A2 (the last case): the cubic term is nonzero and kills the vacuum
    cubic_nonzero = not runs[-1][1]["tasks"]["kostant"]["cubic_term_zero"]
    kills_vacuum = not pair_context("A2").sm.cubic.column(0)
    elapsed = time.time() - t0
    ok = all(details.values()) and cubic_nonzero and kills_vacuum and elapsed < 30
    details["cubic_nonzero_h_eq_t"] = cubic_nonzero
    details["cubic_kills_vacuum"] = kills_vacuum
    details["visited"] = {"kostant_runs": len(runs)}
    details["runtime_target"] = "< 30 s total"
    return _result("Kostant kernel formula", ok, elapsed, details)


def criterion_3_square():
    """2D^2 equals the Casimir expression, eigenvalues as predicted."""
    t0 = time.time()
    # the worked example, and the finite modules of criterion 2
    runs = _run([_sl3_doc(["square"], 8)] + _finite_docs(["square"]))
    first_failure = next((b["tasks"]["square"]["first_failure"] for _, b in runs
                          if b["tasks"]["square"]["first_failure"]), None)
    return _result("square formula", all(b["ok"] for _, b in runs), time.time() - t0, {
        "first_failure": first_failure,
        "visited": {"square_blocks": len(_per_weight(runs, "square"))}})


def criterion_4_simple_verma():
    """Dirac cohomology of simple Vermas is the subsystem Verma, per weight."""
    t0 = time.time()
    runs = _run(_simple_verma_docs(["simple_verma"], 8))
    details = {name: b["ok"] for name, b in runs}
    ok = all(details.values())
    details["visited"] = {"simple_verma_runs": len(runs)}
    return _result("simple Verma theorem", ok, time.time() - t0, details)


def criterion_5_nonvanishing():
    """The top vector survives into Dirac cohomology in every scenario."""
    t0 = time.time()
    # the dirac task at the top block only reports the nonvanishing check
    runs = _run([
        _sl3_doc(["dirac"], 0),
        _doc("A2", _SU21, {"kind": "finite", "lambda": [1, 1]}, ["dirac"], 0),
        _doc("A1", [], {"kind": "verma", "lambda": ["-1/2"], "depth": 10}, ["dirac"], 0),
        _doc("A1", [], {"kind": "simple", "lambda": [0], "depth": 10}, ["dirac"], 0),
        _jordan_doc(["dirac"], 0),
    ])
    details = {name: b["ok"] for name, b in runs}
    ok = all(details.values())
    details["visited"] = {"nonvanishing_runs": len(runs)}
    return _result("nonvanishing", ok, time.time() - t0, details)


# -- pinned Jordan fixture --------------------------------------------------------

def search_jordan_scenario():
    """First small tensor scenario whose Dirac operator has a Jordan block >= 2.

    Deterministic scan over A1 (h = t) tensor modules, 9 below the top
    block, through the `higher` task; returns the pinned parameters and
    the witness weight.
    """
    for lam_h in (-2, -1, 0, 1, -3):
        for f_h in (1, 2):
            [(_, b)] = _run([_tensor_doc(lam_h, f_h, ["higher"], 9)])
            records = b["tasks"]["higher"]["per_weight"]
            top = next(iter(records))  # in block-weight order, so the top first
            for k, rec in records.items():
                if max(rec["jordan_sizes"], default=0) >= 2:
                    # A1 weights are multiples of the simple root: one coordinate
                    return {"lambda_h": lam_h, "factor_h": f_h,
                            "depth_below_top": int(_F(top[1:-1]) - _F(k[1:-1])),
                            "jordan_sizes": rec["jordan_sizes"]}
    raise AssertionError("no small tensor scenario with a nontrivial Jordan block")


def load_jordan_fixture():
    path = os.path.join(FIXTURE_DIR, "jordan_tensor_scenario.json")
    with open(path) as fh:
        fx = json.load(fh)
    ctx = pair_context("A1", [])
    # cached on the context, so every caller shares one module and its blocks
    module = ctx.tensor(Weight([_F(fx["lambda_h"], 2)]), 16,
                        Weight([_F(fx["factor_h"], 2)]))
    return {"ctx": ctx, "module": module, "fixture": fx}


def criterion_6_higher_index():
    """Higher Dirac index identity, including the pinned Jordan scenario."""
    t0 = time.time()
    # every Verma scenario of the suite: the worked example and the
    # simple-Verma cases of all three pairs
    vermas = _run([_sl3_doc(["index"], 6, depth=12)]
                  + _simple_verma_docs(["index"], 4))
    # the pinned tensor with a Jordan block of size >= 2; higher cross-asserts
    # the direct and Jordan routes to H_top
    [tensor] = _run([_jordan_doc(["index", "higher"], 8)])
    found = search_jordan_scenario()
    keys = ("lambda_h", "factor_h", "depth_below_top")
    pin_ok = {k: found[k] for k in keys} == {k: load_jordan_fixture()["fixture"][k]
                                             for k in keys}
    max_size = tensor[1]["tasks"]["higher"]["max_jordan_size"]
    records = _per_weight(vermas + [tensor], "index")
    failures = [f"{name} {k}" for name, k, rec in records if not rec["ok"]]
    ok = not failures and pin_ok and max_size >= 2
    return _result("higher Dirac index", ok, time.time() - t0, {
        "verma_scenario": all(b["ok"] for _, b in vermas),
        "failures": failures,
        "search_matches_fixture": pin_ok,
        "max_jordan_size": max_size,
        "visited": {"index_blocks": len(records)}})


def criterion_7_exact_circle():
    """Six-term exactness for Verma/simple SES and a split SES."""
    t0 = time.time()
    # M(s.lam) inside M(lam) for lam(h) = 0, 1, 2, then M(1/2) + M(-3/2)
    runs = _run([_doc("A1", [], {"kind": "ses", "lambda": lam, "sub_weight": sub, "depth": 12},
                      ["circle"], 8)
                 for lam, sub in (([0], [-1]), (["1/2"], ["-3/2"]), ([1], [-2]))]
                + [_doc("A1", [], {"kind": "ses_split", "lambda": ["1/2"], "lambda2": ["-3/2"],
                                   "depth": 12}, ["circle"], 6)])
    details = {}
    ok = True
    for n, (_, b) in enumerate(runs[:3]):
        nonzero = sum(1 for rec in b["tasks"]["circle"]["per_weight"].values()
                      if sum(rec["node_dims"].values()))
        details[f"ses lam(h)={n}"] = {"exact": b["ok"], "weights_with_cohomology": nonzero}
        ok = ok and b["ok"] and nonzero >= 2
    details["split ses"] = runs[3][1]["ok"]
    ok = ok and runs[3][1]["ok"]
    details["visited"] = {"circle_weights": len(_per_weight(runs, "circle"))}
    return _result("exact circle", ok, time.time() - t0, details)


def criterion_8_hodge():
    """Hodge chain on unitary modules for both Hermitian pairs, plus the negative test."""
    t0 = time.time()
    runs = _run([
        # A1, k = t, M(-rho) is unitary
        _doc("A1", [], {"kind": "verma", "lambda": ["-1/2"], "depth": 12}, ["hodge"], 8),
        # A2 su(2,1)-type pair: unitary simple module L(omega1 - 7/2 omega2)
        _doc("A2", _SU21, {"kind": "simple", "lambda": ["-1/2", -2], "depth": 14},
             ["hodge"], 8),
        # negative test: lam(h) = 1 fails positivity
        _doc("A1", [], {"kind": "verma", "lambda": ["1/2"], "depth": 10}, ["hodge"], 4,
             expect_nonunitary=True),
    ])
    (_, a1_run), (_, a2_run), (_, bad_run) = runs
    nonzero = sum(1 for rec in a2_run["tasks"]["hodge"]["per_weight"].values() if rec["hd"])
    bad = bad_run["tasks"]["hodge"]
    negative_ok = bad["ok"] and not bad["unitary_on_window"]
    ok = a1_run["ok"] and a2_run["ok"] and nonzero >= 2 and negative_ok
    return _result("Hodge comparison", ok, time.time() - t0, {
        "A1 M(-rho)": a1_run["ok"],
        "A2 su21 L(omega1-7/2omega2)": a2_run["ok"],
        "A2 weights_with_hd": nonzero,
        "negative test failed positivity": negative_ok,
        "visited": {"hodge_weights": len(_per_weight(runs, "hodge")),
                    "positivity_weights": sum(len(b["tasks"]["hodge"]["positivity_per_weight"])
                                              for _, b in runs)}})


def vogan_documents():
    """The scenario documents of the Vogan audit."""
    return ([_sl3_doc(["vogan"], 8)]
            + [_doc("A2", _SU21, {"kind": "finite", "lambda": lam}, ["vogan"], 6)
               for lam in (["2/3", "1/3"], [1, 1])]
            + [_jordan_doc(["vogan"], 8)]
            + _simple_verma_docs(["vogan"], 5)
            + [_doc("A1", [], {"kind": "simple", "lambda": [0], "depth": 10}, ["vogan"], 5)])


def criterion_9_vogan():
    """Infinitesimal-character audit wherever cohomology survives."""
    t0 = time.time()
    runs = _run(vogan_documents())
    details = {name: {"ok": b["ok"],
                      "constituent_weights": len(b["tasks"]["vogan"]["constituent_weights"])}
               for name, b in runs}
    ok = all(d["ok"] and d["constituent_weights"] for d in details.values())
    details["visited"] = {"vogan_runs": len(runs)}
    return _result("Vogan audit", ok, time.time() - t0, details)


def criterion_10_structural():
    """Structural property suites and bundle determinism."""
    t0 = time.time()
    details = {}
    ok = True
    # Jacobi on all supported small types
    for label in ("A1", "A2", "B2", "G2", "A1xA1", "A3"):
        res = pair_context(label).cb.jacobi_residual()
        details[f"jacobi {label}"] = res == 0
        ok = ok and res == 0
    # commutation fidelity on a Verma window
    ctx = pair_context("A2", [(1, 0)])
    vw = ctx.verma(-ctx.pair.rho, 14)
    cb = ctx.cb
    comm_ok = True
    for w in [vw.top_weight - Weight(c) for c in cone_coords(2, 3)]:
        for ix in range(cb.dim):
            for iy in range(ix + 1, cb.dim):
                dfc = commutation_defect(vw, w, ix, iy)
                if dfc is not None and not dfc.is_zero():
                    comm_ok = False
    details["commutation fidelity"] = comm_ok
    ok = ok and comm_ok
    # Clifford relations
    cliff_ok = True
    for c in (ctx, pair_context("A2", [])):
        sm = c.sm
        n = 2 * sm.nq
        gammas = [to_mat(sm.gamma_q(i), sm.dim) for i in range(n)]
        for i in range(n):
            for j in range(n):
                anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
                expect = c.cb.pairing(sm.q_basis[i], sm.q_basis[j])
                if anti != Mat.scalar(sm.dim, expect):
                    cliff_ok = False
    details["clifford relations"] = cliff_ok
    ok = ok and cliff_ok
    # h-equivariance of D
    heq_ok = True
    mu0 = -ctx.pair.rho_h - Weight([1, 1])
    for gen in ctx.pair.h_generators():
        if not h_equivariance_defect(ctx.sm, vw, mu0, gen).is_zero():
            heq_ok = False
    details["h-equivariance of D"] = heq_ok
    ok = ok and heq_ok
    # d^2 = 0 and del^2 = 0: the CE slice at nu is the block at nu + rho - rho_h,
    # with d = C+ and del = C-
    ce_ok = True
    for c in cone_coords(2, 3):
        blk = block(ctx.sm, vw, vw.top_weight - Weight(c) + ctx.pair.rho - ctx.pair.rho_h)
        if not (blk.d_plus @ blk.d_plus).is_zero() or not (blk.d_minus @ blk.d_minus).is_zero():
            ce_ok = False
    details["d^2 = 0 and del^2 = 0"] = ce_ok
    ok = ok and ce_ok
    # basis independence of the cubic term (rebased dual systems)
    cubic_ok = True
    for label, dh in (("A2", []), ("B2", [])):
        c = pair_context(label, dh)
        sm = c.sm
        n = 2 * sm.nq
        p = [[_F(0)] * n for _ in range(n)]
        perm = list(range(1, n)) + [0]
        scale = [_F(2), _F(1, 2), _F(3)] + [_F(1)] * (n - 3)
        for i in range(n):
            p[perm[i]][i] = scale[i % len(scale)]
        p[perm[0]][1] += _F(1, 3)
        rebased = cubic_term_rebased(sm, Mat(p, n))
        if rebased != to_mat(sm.cubic, sm.dim):
            cubic_ok = False
        if label == "B2" and sm.cubic.is_zero():
            cubic_ok = False  # h = t in B2 must have a nonzero cubic term
    details["cubic term basis independence"] = cubic_ok
    ok = ok and cubic_ok
    # basis independence of D's rank data under a permuted q-enumeration
    sm_perm = SpinModule(ctx.pair, cb, q_order=list(reversed(ctx.pair.q_positive)))
    rank_ok = True
    for c in cone_coords(2, 3):
        mu = -ctx.pair.rho_h - Weight(c)
        b1 = block(ctx.sm, vw, mu)
        b2 = block(sm_perm, vw, mu)
        if b1.dirac_cohomology() != b2.dirac_cohomology():
            rank_ok = False
        if b1.higher_cohomology() != b2.higher_cohomology():
            rank_ok = False
        if b1.eigenvalue_decomposition() != b2.eigenvalue_decomposition():
            rank_ok = False
    details["rank data basis independence"] = rank_ok
    ok = ok and rank_ok
    # bundle determinism: a cold context, then the same run on the warm one
    scn = Scenario({
        "name": "determinism-probe",
        "cartan_type": "A2",
        "delta_h": [[1, 0]],
        "module": {"kind": "verma", "lambda": [-1, -1], "depth": 10},
        "tasks": ["dirac", "vogan"],
        "depth_below_top": 4,
    })
    scn.ctx = PairContext(scn.ctx.pair)  # not shared: no window built yet
    cold = bundle_to_json(run_scenario(scn))
    det_ok = bundle_to_json(run_scenario(scn)) == cold  # windows and blocks reused
    details["determinism cold/warm context"] = det_ok
    ok = ok and det_ok
    return _result("structural properties", ok, time.time() - t0, details)


CRITERIA = [
    criterion_1_sl3_example,
    criterion_2_kostant,
    criterion_3_square,
    criterion_4_simple_verma,
    criterion_5_nonvanishing,
    criterion_6_higher_index,
    criterion_7_exact_circle,
    criterion_8_hodge,
    criterion_9_vogan,
    criterion_10_structural,
]


def run_all(verbose=True):
    results = []
    t0 = time.time()
    for fn in CRITERIA:
        start = time.time()
        try:
            res = fn()
        except Exception as e:  # fails the criterion; unless a check failed, an internal error
            details = {"exception": f"{type(e).__name__}: {e}"}
            if not isinstance(e, (AssertionError, LiftFailure)):
                import traceback

                traceback.print_exc()
                details["internal_error"] = True
            res = _result(fn.__name__, False, time.time() - start, details)
        results.append(res)
        if verbose:
            status = "PASS" if res["ok"] else "FAIL"
            print(f"{status}  {res['name']}  ({res['seconds']}s)")
    total = time.time() - t0
    if verbose:
        print(f"total: {total:.1f}s  "
              f"{sum(r['ok'] for r in results)}/{len(results)} criteria passed")
    return results, total
