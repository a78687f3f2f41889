"""The acceptance suite: one callable per criterion, all exact.

Every check here reproduces an algebraic identity at zero tolerance;
the only numeric thresholds are the runtime targets.  `run_all` prints
one PASS/FAIL line per criterion and is what the CLI selftest runs.
"""

import json
import os
import time
from fractions import Fraction

from .exactla import Mat
from .roots import Weight, eps_to_weight, is_antidominant, weight_from_fundamental
from .cato import (_cone_coords, commutation_defect, finite_dim_simple,
                   ses_from_embedding, ses_split, simple_quotient_window,
                   singular_vectors)
from .spinor import SpinModule, cubic_term_rebased, to_mat
from .dirac import (block, check_square, exact_circle, h_equivariance_defect,
                    index_identity_check, kostant_kernel_check, nonvanishing_check,
                    simple_verma_theorem_check, singular_cohomology_weights,
                    vogan_audit)
from .hodge import (CEComplex, detect_hermitian, hodge_decomposition_check,
                    identification_check, theorem52_comparison, unitarity_check)
from .scenarios import PairContext, Scenario, bundle_to_json, pair_context, run_scenario

_F = Fraction

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def _result(name, ok, seconds, details):
    return {"name": name, "ok": bool(ok), "seconds": round(seconds, 2),
            "details": details}


# -- criteria -------------------------------------------------------------------

def criterion_1_sl3_example():
    """Worked sl(3) example: H_D(M(-rho)) is the subsystem Verma M_h(-rho_h)."""
    t0 = time.time()
    ctx = pair_context("A2", [(1, 0)])
    pair, sm = ctx.pair, ctx.sm
    vw = ctx.verma(-pair.rho, 14)
    rep = simple_verma_theorem_check(pair, ctx.cb, sm, vw, 8)
    mu_top = rep["mu_top"]
    assert mu_top == -pair.rho_h
    # the claimed highest weight in epsilon coordinates
    assert mu_top == eps_to_weight(ctx.rs, (_F(-1, 2), _F(1, 2), 0))
    char_ok = rep["match"]
    top_blk = block(sm, vw, mu_top)
    top_ok = top_blk.dim == 1 and top_blk.d.is_zero()
    elapsed = time.time() - t0
    ok = char_ok and top_ok and elapsed < 10
    return _result("sl(3) worked example", ok, elapsed, {
        "character_match": char_ok,
        "top_space_dim": top_blk.dim,
        "d_kills_top": top_blk.d.is_zero(),
        "weights_with_hd": len(rep["hd_character"]),
        "runtime_target": "< 10 s",
    })


def _kostant_cases():
    a1, su21, a2 = pair_context("A1"), pair_context("A2", [(1, 0)]), pair_context("A2")
    return ([(a1, Weight([_F(n, 2)])) for n in range(5)]
            + [(su21, lam) for lam in (Weight([0, 0]), Weight([_F(2, 3), _F(1, 3)]),
                                       Weight([1, 1]))]
            + [(a2, Weight([0, 0]))])


def criterion_2_kostant():
    """Kostant kernel formula on finite modules across three pairs."""
    t0 = time.time()
    details = {}
    ok = True
    for ctx, lam in _kostant_cases():
        f = finite_dim_simple(ctx.pair, ctx.cb, lam)
        rep = kostant_kernel_check(ctx.pair, ctx.cb, ctx.sm, f)
        label = f"{ctx.pair.rs.cartan_type} dh={len(ctx.pair.delta_h_pos)} lam={lam}"
        details[label] = rep["match"]
        ok = ok and rep["match"]
    ctx3 = pair_context("A2", [])
    cubic = ctx3.sm.cubic
    cubic_nonzero = not cubic.is_zero()
    kills_vacuum = not cubic.column(0)
    ok = ok and cubic_nonzero and kills_vacuum
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    details["cubic_nonzero_h_eq_t"] = cubic_nonzero
    details["cubic_kills_vacuum"] = kills_vacuum
    details["runtime_target"] = "< 30 s total"
    return _result("Kostant kernel formula", ok, elapsed, details)


def criterion_3_square():
    """2D^2 equals the Casimir expression, eigenvalues as predicted."""
    t0 = time.time()
    checked = 0
    ok = True
    first_failure = None
    # Verma scenario of criterion 1, blocks safe for the Casimir round trips
    ctx = pair_context("A2", [(1, 0)])
    vw = ctx.verma(-ctx.pair.rho, 14)
    mu_top = -ctx.pair.rho_h
    for c in _cone_coords(2, 8):
        mu = mu_top - Weight(c)
        blk = block(ctx.sm, vw, mu)
        if blk.dim == 0:
            continue
        rep = check_square(ctx.pair, ctx.cb, ctx.sm, vw, blk)
        checked += 1
        if not rep["matrix_identity"]:
            ok = False
            first_failure = first_failure or str(mu)
    # finite module scenarios of criterion 2
    for cctx, lam in _kostant_cases():
        f = finite_dim_simple(cctx.pair, cctx.cb, lam)
        for mu in cctx.block_weights(f, 2 * int(f.top_weight.height) + 6):
            blk = block(cctx.sm, f, mu)
            if blk.dim == 0:
                continue
            rep = check_square(cctx.pair, cctx.cb, cctx.sm, f, blk)
            checked += 1
            if not rep["matrix_identity"]:
                ok = False
                first_failure = first_failure or str(mu)
    return _result("square formula", ok, time.time() - t0, {
        "blocks_checked": checked, "first_failure": first_failure})


_THM41_CASES = [
    ("A1", [], [Weight([_F(-1, 2)]), Weight([_F(-1, 4)]), Weight([_F(-4, 3)])]),
    ("A2", [(1, 0)], [None, Weight([_F(-2, 3), _F(-4, 5)]),
                      Weight([_F(-10, 7), _F(-9, 7)])]),
    ("A2", [], [None, Weight([_F(-2, 3), _F(-4, 5)]),
                Weight([_F(-10, 7), _F(-9, 7)])]),
]


def criterion_4_simple_verma():
    """Dirac cohomology of simple Vermas is the subsystem Verma, per weight."""
    t0 = time.time()
    details = {}
    ok = True
    for cartan, dh, lams in _THM41_CASES:
        ctx = pair_context(cartan, dh)
        pair = ctx.pair
        spread = sum(b.height for b in pair.q_positive)
        for lam in lams:
            if lam is None:
                lam = -pair.rho  # the integral-edge case
            assert is_antidominant(lam, pair.rs, pair.form, pair.rho), lam
            vw = ctx.verma(lam, 8 + spread + 1)
            rep = simple_verma_theorem_check(pair, ctx.cb, ctx.sm, vw, 8)
            good = rep["antidominant"] and rep["target_antidominant"] and rep["match"]
            details[f"{cartan} dh={len(dh)} lam={lam}"] = good
            ok = ok and good
    return _result("simple Verma theorem", ok, time.time() - t0, details)


def criterion_5_nonvanishing():
    """The top vector survives into Dirac cohomology in every scenario."""
    t0 = time.time()
    details = {}
    ok = True
    modules = []
    ctx1 = pair_context("A2", [(1, 0)])
    modules.append(("A2 su21 M(-rho)", ctx1, ctx1.verma(-ctx1.pair.rho, 14)))
    f = finite_dim_simple(ctx1.pair, ctx1.cb, Weight([1, 1]))
    modules.append(("A2 su21 F(adjoint)", ctx1, f))
    ctxa = pair_context("A1", [])
    modules.append(("A1 M(-1/2 alpha)", ctxa, ctxa.verma(Weight([_F(-1, 2)]), 10)))
    vw0 = ctxa.verma(Weight([0]), 10)
    modules.append(("A1 L(0)", ctxa, simple_quotient_window(vw0)))
    fixture = load_jordan_fixture()
    modules.append(("pinned tensor", fixture["ctx"], fixture["module"]))
    for name, ctx, m in modules:
        rep = nonvanishing_check(ctx.pair, ctx.cb, ctx.sm, m)
        details[name] = rep["ok"]
        ok = ok and rep["ok"]
    return _result("nonvanishing", ok, time.time() - t0, details)


# -- pinned Jordan fixture --------------------------------------------------------

def search_jordan_scenario():
    """First small tensor scenario whose Dirac operator has a Jordan block >= 2.

    Deterministic scan over A1 (h = t) tensor modules; returns the pinned
    parameters and the witness weight.
    """
    ctx = pair_context("A1", [])
    sm = ctx.sm
    for lam_h in (-2, -1, 0, 1, -3):
        lam = Weight([_F(lam_h, 2)])
        for f_h in (1, 2):
            t = ctx.tensor(lam, 16, Weight([_F(f_h, 2)]))
            mu_top = t.top_weight + sm.top_weight
            for mu in ctx.block_weights(t, 9):
                blk = block(sm, t, mu)
                if blk.dim == 0:
                    continue
                sizes = [len(c) for c in blk.nilpotent().chains()]
                if sizes and max(sizes) >= 2:
                    return {"lambda_h": lam_h, "factor_h": f_h,
                            "depth_below_top": int((mu_top - mu).height),
                            "jordan_sizes": sorted(sizes)}
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
    details = {}
    ok = True
    # (a) every Verma scenario of the suite: the worked example and the
    # simple-Verma cases of all three pairs
    verma_runs = [(pair_context("A2", [(1, 0)]), -pair_context("A2", [(1, 0)]).pair.rho, 6)]
    for cartan, dh, lams in _THM41_CASES:
        c = pair_context(cartan, dh)
        spread = sum(b.height for b in c.pair.q_positive)
        for lam in lams:
            verma_runs.append((c, lam if lam is not None else -c.pair.rho,
                               min(4, 8 + spread)))
    checked = 0
    for c, lam, depth in verma_runs:
        spread = sum(b.height for b in c.pair.q_positive)
        vw = c.verma(lam, 8 + spread + 1)
        for mu in c.block_weights(vw, depth):
            rep = index_identity_check(c.pair, c.cb, c.sm, vw, mu)
            checked += 1
            if not rep["ok"]:
                ok = False
                details.setdefault("verma_failures", []).append(str(mu))
    details["verma_blocks_checked"] = checked
    details["verma_scenario"] = ok
    # (b) pinned tensor fixture with a Jordan block of size >= 2
    found = search_jordan_scenario()
    fixture = load_jordan_fixture()
    pin_ok = {k: found[k] for k in ("lambda_h", "factor_h", "depth_below_top")} == \
        {k: fixture["fixture"][k] for k in ("lambda_h", "factor_h", "depth_below_top")}
    details["search_matches_fixture"] = pin_ok
    ok = ok and pin_ok
    fctx, t = fixture["ctx"], fixture["module"]
    max_size = 0
    for mu in fctx.block_weights(t, 8):
        blk = block(fctx.sm, t, mu)
        if blk.dim == 0:
            continue
        sizes = [len(c) for c in blk.nilpotent().chains()]
        max_size = max(max_size, max(sizes, default=0))
        rep = index_identity_check(fctx.pair, fctx.cb, fctx.sm, t, mu)
        # higher_cohomology cross-asserts the direct and Jordan routes
        blk.higher_cohomology()
        if not rep["ok"]:
            ok = False
            details.setdefault("tensor_failures", []).append(str(mu))
    details["max_jordan_size"] = max_size
    ok = ok and max_size >= 2
    return _result("higher Dirac index", ok, time.time() - t0, details)


def criterion_7_exact_circle():
    """Six-term exactness for Verma/simple SES and a split SES."""
    t0 = time.time()
    details = {}
    ok = True
    ctx = pair_context("A1", [])
    pair, cb, sm = ctx.pair, ctx.cb, ctx.sm
    alpha = pair.rs.simple_roots[0]
    for n in (0, 1, 2):
        lam = Weight([_F(n, 2)])
        vw = ctx.verma(lam, 12)
        w0 = lam - alpha * (n + 1)
        sv = singular_vectors(vw, w0)
        ses = ses_from_embedding(vw, w0, sv[0])
        mu_top = lam + pair.rho
        nonzero = 0
        for k in range(9):
            cert = exact_circle(pair, cb, sm, ses, mu_top - alpha * k)
            if not cert.exact:
                ok = False
            if sum(cert.node_dims.values()):
                nonzero += 1
        details[f"ses lam(h)={n}"] = {"exact": ok, "weights_with_cohomology": nonzero}
        ok = ok and nonzero >= 2
    m1 = ctx.verma(Weight([_F(1, 2)]), 12)
    m3 = ctx.verma(Weight([_F(-3, 2)]), 12)
    split = ses_split(m1, m3)
    mu_top = m1.top_weight + pair.rho
    split_ok = True
    for k in range(7):
        cert = exact_circle(pair, cb, sm, split, mu_top - alpha * k)
        split_ok = split_ok and cert.exact
    details["split ses"] = split_ok
    ok = ok and split_ok
    return _result("exact circle", ok, time.time() - t0, details)


def criterion_8_hodge():
    """Hodge chain on unitary modules for both Hermitian pairs, plus the negative test."""
    t0 = time.time()
    details = {}
    ok = True
    # A1, k = t, M(-rho) is unitary
    ctx = pair_context("A1", [])
    pair, cb, sm = ctx.pair, ctx.cb, ctx.sm
    hp = detect_hermitian(pair)
    lam = -pair.rho
    vw = ctx.verma(lam, 12)
    ws = [lam - pair.rs.simple_roots[0] * k for k in range(9)]
    urep = unitarity_check(hp, vw, ws)
    a1_ok = urep["unitary"]
    us = urep["structure"]
    mu_top = lam + pair.rho
    for k in range(7):
        mu = mu_top - pair.rs.simple_roots[0] * k
        a1_ok = a1_ok and identification_check(hp, sm, vw, mu)["ok"]
        a1_ok = a1_ok and hodge_decomposition_check(hp, sm, vw, us, mu)["ok"]
        a1_ok = a1_ok and theorem52_comparison(hp, sm, vw, mu)["ok"]
    details["A1 M(-rho)"] = a1_ok
    ok = ok and a1_ok
    # A2 su(2,1)-type pair: unitary simple quotient L(omega1 - 7/2 omega2)
    ctx2 = pair_context("A2", [(1, 0)])
    pair2, cb2, sm2 = ctx2.pair, ctx2.cb, ctx2.sm
    hp2 = detect_hermitian(pair2)
    lam2 = weight_from_fundamental(pair2.rs, (_F(1), _F(-7, 2)))
    vw2 = ctx2.verma(lam2, 14)
    quot = simple_quotient_window(vw2)
    test_ws = [quot.top_weight - Weight(c) for c in _cone_coords(2, 10)]
    urep2 = unitarity_check(hp2, quot, test_ws)
    a2_ok = urep2["unitary"]
    us2 = urep2["structure"]
    mu_top2 = lam2 + pair2.rho - pair2.rho_h
    nonzero = 0
    for c in _cone_coords(2, 6):
        mu = mu_top2 - Weight(c)
        a2_ok = a2_ok and identification_check(hp2, sm2, quot, mu)["ok"]
        a2_ok = a2_ok and hodge_decomposition_check(hp2, sm2, quot, us2, mu)["ok"]
        cmp = theorem52_comparison(hp2, sm2, quot, mu)
        a2_ok = a2_ok and cmp["ok"]
        if cmp["hd"]:
            nonzero += 1
    details["A2 su21 L(omega1-7/2omega2)"] = a2_ok
    details["A2 weights_with_hd"] = nonzero
    ok = ok and a2_ok and nonzero >= 2
    # negative test: lam(h) = 1 fails positivity
    lam_bad = Weight([_F(1, 2)])
    vw_bad = ctx.verma(lam_bad, 10)
    rep_bad = unitarity_check(hp, vw_bad,
                              [lam_bad - pair.rs.simple_roots[0] * k for k in range(5)])
    details["negative test failed positivity"] = not rep_bad["unitary"]
    ok = ok and not rep_bad["unitary"]
    return _result("Hodge comparison", ok, time.time() - t0, details)


def vogan_runs():
    """The (name, context, module, depth) runs of the Vogan audit."""
    runs = []
    ctx = pair_context("A2", [(1, 0)])
    runs.append(("A2 su21 M(-rho)", ctx, ctx.verma(-ctx.pair.rho, 14), 8))
    f = finite_dim_simple(ctx.pair, ctx.cb, Weight([_F(2, 3), _F(1, 3)]))
    runs.append(("A2 su21 F(omega1)", ctx, f, 6))
    fad = finite_dim_simple(ctx.pair, ctx.cb, Weight([1, 1]))
    runs.append(("A2 su21 F(adjoint)", ctx, fad, 6))
    fixture = load_jordan_fixture()
    runs.append(("pinned tensor", fixture["ctx"], fixture["module"], 8))
    for cartan, dh, lams in _THM41_CASES:
        c = pair_context(cartan, dh)
        spread = sum(b.height for b in c.pair.q_positive)
        for lam in lams:
            lam = lam if lam is not None else -c.pair.rho
            runs.append((f"{cartan} dh={len(dh)} M({lam})", c,
                         c.verma(lam, 8 + spread + 1), 5))
    ctx1 = pair_context("A1", [])
    vw0 = ctx1.verma(Weight([0]), 10)
    runs.append(("A1 L(0)", ctx1,
                 simple_quotient_window(vw0), 5))
    return runs


def criterion_9_vogan():
    """Infinitesimal-character audit wherever cohomology survives."""
    t0 = time.time()
    details = {}
    ok = True
    for name, c, m, depth in vogan_runs():
        weights = c.block_weights(m, depth)
        singular = singular_cohomology_weights(c.pair, c.cb, c.sm, m, weights)
        rep = vogan_audit(c.pair, sorted(singular), m.infchars)
        details[name] = {"ok": rep["ok"], "constituent_weights": len(singular)}
        ok = ok and rep["ok"] and bool(singular)
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
    for w in [vw.top_weight - Weight(c) for c in _cone_coords(2, 3)]:
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
                expect = c.cb.pairing(sm._qidx_to_cb[i], sm._qidx_to_cb[j])
                if anti != Mat.scalar(sm.dim, expect):
                    cliff_ok = False
    details["clifford relations"] = cliff_ok
    ok = ok and cliff_ok
    # h-equivariance of D
    heq_ok = True
    mu0 = -ctx.pair.rho_h - Weight([1, 1])
    for gen in ctx.pair.h_generators():
        if not h_equivariance_defect(ctx.pair, cb, ctx.sm, vw, mu0, gen).is_zero():
            heq_ok = False
    details["h-equivariance of D"] = heq_ok
    ok = ok and heq_ok
    # d^2 = 0 and boundary^2 = 0 on CE slices
    hp = detect_hermitian(ctx.pair)
    ce_ok = True
    for c in _cone_coords(2, 3):
        nu = vw.top_weight - Weight(c)
        ce = CEComplex(hp, ctx.sm, vw, nu)
        d = ce.differential()
        b = ce.boundary()
        if not (d @ d).is_zero() or not (b @ b).is_zero():
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
        rebased = cubic_term_rebased(c.pair, c.cb, sm, Mat(p, n))
        if rebased != to_mat(sm.cubic, sm.dim):
            cubic_ok = False
        if label == "B2" and sm.cubic.is_zero():
            cubic_ok = False  # h = t in B2 must have a nonzero cubic term
    details["cubic term basis independence"] = cubic_ok
    ok = ok and cubic_ok
    # basis independence of D's rank data under a permuted q-enumeration
    sm_perm = SpinModule(ctx.pair, cb, q_order=list(reversed(ctx.pair.q_positive)))
    rank_ok = True
    for c in _cone_coords(2, 3):
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
    scn.ctx = PairContext(scn.cartan_type, scn.delta_h)  # not shared: nothing built yet
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
        except Exception as e:  # a hard failure is a failed criterion
            res = _result(fn.__name__, False, time.time() - start,
                          {"exception": f"{type(e).__name__}: {e}"})
        results.append(res)
        if verbose:
            status = "PASS" if res["ok"] else "FAIL"
            print(f"{status}  {res['name']}  ({res['seconds']}s)")
    total = time.time() - t0
    if verbose:
        print(f"total: {total:.1f}s  "
              f"{sum(r['ok'] for r in results)}/{len(results)} criteria passed")
    return results, total
