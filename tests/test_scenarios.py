"""Scenario loading: PairContext.block_weights against the enumerations it
replaced, the scenario digest and what a pair context builds."""

import gc
import glob
import hashlib
import json
import os
import weakref
from collections import Counter
from functools import partial

import pytest

from odirac import liealg, roots, scenarios
from odirac.cato import cone_coords, sort_weights, verma_window
from odirac.dirac import block, check_square
from odirac.roots import Weight
from odirac.scenarios import (PairContext, Scenario, Workspace, load_scenario, pair_context,
                              run_scenario)
from conftest import spin_weights
from helpers import offset_filter_block_weights

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCUMENTS = sorted(glob.glob(os.path.join(REPO, "scenarios", "*.json")) +
                   glob.glob(os.path.join(REPO, "perfbench", "workloads", "*.json")))


def reference_block_weights(ctx, m, depth, margin=0):
    """Every spin offset tested, repeats included, on every call."""
    rank, sm = ctx.pair.rank, ctx.sm
    offsets = [ws + Weight(c) for ws in spin_weights(sm) for c in cone_coords(rank, margin)]
    top = m.top_weight + sm.top_weight
    out = []
    for c in cone_coords(rank, depth):
        mu = top - Weight(c)
        if all(m.materialized(mu - off) for off in offsets):
            out.append(mu)
    return sort_weights(out)


def test_block_weights_match_reference_once_per_key(monkeypatch):
    b3 = Workspace(load_scenario(os.path.join(REPO, "perfbench", "workloads", "b3_spin.json")))
    sl3 = Workspace(load_scenario(os.path.join(REPO, "scenarios", "sl3_paper_example.json")))
    square_margin = max(int(a.height) for a in sl3.pair.rs.positive_roots)
    weights = spin_weights(b3.sm)
    assert len(set(weights)) < len(weights)  # offsets do repeat there
    for ws, margin in ((b3, 0), (sl3, square_margin)):
        scn = ws.scenario
        depth = scn.depth_below_top
        want = reference_block_weights(ws.ctx, ws.module, depth, margin)
        ctx = PairContext(ws.ctx.pair)
        m = ctx.verma(scn.weights["lambda"], scn.depth)  # a fresh window: nothing enumerated yet
        assert type(m) is type(ws.module) and m is not ws.module
        calls = []
        materialized = type(m).materialized
        with monkeypatch.context() as mp:
            mp.setattr(type(m), "materialized",
                       lambda self, w: calls.append(w) or materialized(self, w))
            first = ctx.block_weights(m, depth, margin)
            assert first == want and calls
            enumerated = len(calls)
            first.clear()  # the caller's list is its own
            assert ctx.block_weights(m, depth, margin) == want
            assert len(calls) == enumerated  # one enumeration per (module, depth, margin)


def test_a_window_takes_what_is_built_from_it():
    """A window built outside the context memo, with a block, its Casimirs,
    its H_D and its block weights, is freed once the caller drops it: the
    spin module and the pair context keep nothing keyed by the window."""
    ctx = pair_context("A2")
    sm = ctx.sm
    vw = verma_window(ctx.pair, ctx.cb, -ctx.pair.rho, 4)
    blk = block(sm, vw, vw.top_weight + sm.top_weight - Weight([1, 1]))
    assert blk.dim > 1 and check_square(blk)["matrix_identity"]  # fills the Casimir memo
    blk.dirac_cohomology()
    assert ctx.block_weights(vw, 3)
    refs = [weakref.ref(vw), weakref.ref(blk)]
    del vw, blk
    gc.collect()
    assert [r() for r in refs] == [None, None]


def _scenario_module(path):
    ws = Workspace(load_scenario(path))
    return ws.ctx, ws.module, ws.scenario.depth_below_top


def _b4_one_root_probe():
    ctx = pair_context("B4", [(1, 0, 0, 0)])
    return ctx, ctx.verma((-1, -1, -1, -1), 6), 5


# every sample scenario's module, and the B4 one-root spin probe at depth 6
# (its F4 twin is scenarios/f4_spin_probe.json)
BLOCK_WEIGHT_MODULES = {
    **{os.path.basename(p): partial(_scenario_module, p)
       for p in glob.glob(os.path.join(REPO, "scenarios", "*.json"))},
    "B4 one-root probe": _b4_one_root_probe,
}


@pytest.mark.parametrize("label", sorted(BLOCK_WEIGHT_MODULES))
def test_block_weights_match_the_offset_filter(label):
    """Testing only the vacuum's rests c + e changes no block set, for any
    margin the tasks use: every other rest lies between c + e and m's top,
    and every window materializes what lies between a materialized weight
    and its top."""
    ctx, m, depth = BLOCK_WEIGHT_MODULES[label]()
    top_height = max(a.height for a in ctx.pair.rs.positive_roots)
    assert ctx.block_weights(m, depth)
    for margin in range(top_height + 1):
        want = offset_filter_block_weights(ctx, m, depth, margin)
        assert ctx.block_weights(m, depth, margin) == want, margin


def reference_sha256(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("path", DOCUMENTS, ids=os.path.basename)
def test_sha256_matches_hashlib(path):
    assert load_scenario(path).sha256() == reference_sha256(load_scenario(path).doc)


def test_sha256_matches_hashlib_on_generated_documents():
    """Names of every allowed length and comments with non-ASCII text (which
    json.dumps escapes), so the blobs cross several 64-byte block boundaries."""
    base = {"cartan_type": "A1", "module": {"kind": "verma", "lambda": [0], "depth": 2}}
    seen = set()
    for n in range(1, 150):
        for doc in (dict(base, name="n" * n),
                    dict(base, name=f"x{n}", comment="é—λ🜂" * n),
                    dict(base, name="a-b_c.d", comment="\u0000" + "ω" * n)):
            digest = Scenario(doc).sha256()
            assert digest == reference_sha256(doc)
            seen.add(digest)
    assert len(seen) == 3 * 149


def counted_weyl_group(monkeypatch):
    """Count liealg's calls to roots.weyl_group, on cold pair contexts."""
    calls = Counter()
    weyl_group = liealg.weyl_group

    def counted(rs, form, delta_h_pos):
        calls[(rs.cartan_type, tuple(delta_h_pos))] += 1
        return weyl_group(rs, form, delta_h_pos)

    monkeypatch.setattr(liealg, "weyl_group", counted)
    monkeypatch.setattr(scenarios, "_CONTEXTS", {})
    return calls


def test_delta_h_validated_once_per_pair(monkeypatch):
    """A cold pair context validates delta_h once, in PairGH: rho, rho_h
    and the Weyl data read the validated positive roots."""
    calls = []
    validate = roots.validate_delta_h

    def counted(rs, delta_h):
        calls.append(delta_h)
        return validate(rs, delta_h)

    monkeypatch.setattr(roots, "validate_delta_h", counted)
    monkeypatch.setattr(liealg, "validate_delta_h", counted)
    monkeypatch.setattr(scenarios, "_CONTEXTS", {})
    ctx = pair_context("A2", [(1, 0)])
    assert ctx.pair.weyl.coset_W1 and 2 * ctx.pair.rho_h == Weight([1, 0])
    assert len(calls) == 1


def test_spellings_of_one_pair_share_a_context(monkeypatch):
    """delta_h spelled with repeats or with both signs names the pair of its
    validated positive roots: one context, and each new spelling validates
    once without building a second Chevalley basis.  A list that names no
    subsystem still raises."""
    monkeypatch.setattr(scenarios, "_CONTEXTS", {})
    cbs = []
    chevalley = scenarios.chevalley_basis
    monkeypatch.setattr(scenarios, "chevalley_basis",
                        lambda rs, form: cbs.append(rs) or chevalley(rs, form))
    spellings = [[(1, 0)], [(1, 0), (1, 0)], [(-1, 0), (1, 0)]]
    ctxs = [pair_context("A2", d) for d in spellings]
    assert all(c is ctxs[0] for c in ctxs) and len(cbs) == 1
    assert [pair_context("A2", d) for d in spellings] == ctxs
    with pytest.raises(roots.NotASubsystem):
        pair_context("A2", [(-1, 0)])
    with pytest.raises(roots.NotASubsystem):
        pair_context("A2", [(1, 0), (0, 1)])


def test_spin_tasks_never_enumerate_the_weyl_group(monkeypatch):
    """dirac, index and higher on a Verma module read no Weyl group."""
    calls = counted_weyl_group(monkeypatch)
    scn = load_scenario(os.path.join(REPO, "scenarios", "b4_spin_probe.json"))
    assert sorted(scn.tasks) == ["dirac", "higher", "index"]
    assert run_scenario(scn)["ok"]
    assert not calls


@pytest.mark.parametrize("name, task", [("a1_kostant_ladder", "kostant"),
                                        ("a2_kostant_adjoint", "kostant"),
                                        ("sl3_paper_example", "vogan")])
def test_weyl_group_once_per_context(monkeypatch, name, task):
    calls = counted_weyl_group(monkeypatch)
    scn = load_scenario(os.path.join(REPO, "scenarios", f"{name}.json"))
    assert task in scn.tasks
    assert run_scenario(scn)["ok"] and run_scenario(scn)["ok"]
    assert list(calls.values()) == [1]
