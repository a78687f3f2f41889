"""PairContext.block_weights against the enumeration it replaced."""

import os

from odirac.cato import _cone_coords, sort_weights
from odirac.roots import Weight
from odirac.scenarios import PairContext, Workspace, load_scenario
from conftest import spin_weights

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_block_weights(ctx, m, depth, margin=0):
    """Every spin offset tested, repeats included, on every call."""
    rank, sm = ctx.pair.rank, ctx.sm
    offsets = [ws + Weight(c) for ws in spin_weights(sm) for c in _cone_coords(rank, margin)]
    top = m.top_weight + sm.top_weight
    out = []
    for c in _cone_coords(rank, depth):
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
        scn, m = ws.scenario, ws.module
        depth = scn.depth_below_top
        want = reference_block_weights(ws.ctx, m, depth, margin)
        ctx = PairContext(scn.cartan_type, scn.delta_h)  # nothing enumerated yet
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
