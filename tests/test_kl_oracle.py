"""Dirac cohomology of simple highest weight modules against the
Kazhdan-Lusztig polynomials of `helpers.KazhdanLusztig`."""

from odirac.dirac import block
from odirac.scenarios import Scenario, Workspace
from conftest import ctx
from helpers import KazhdanLusztig
from test_dirac import _scenario_file


def _kl_classes(ws, kl):
    """Check the windowed Kazhdan-Lusztig statement on the simple module of ws;
    return (H_D classes, weights carrying them).

    For the simple module L(w.0) of g with h = t, H_D(L(w.0)) is
    sum over x >= w of P_{w0 x, w0 w}(1) copies of the weight x.0 + rho,
    of spin parity l(x) - l(w) mod 2 (Kazhdan-Lusztig 1979, Invent. Math.
    53; Huang-Xiao 2012, Selecta Math. 18, which reduce H_D to
    n-cohomology, and n-cohomology of L(w.0) to these polynomials).  The
    window holds only some of these weights, so the check is windowed: at
    every block weight of the window, H_D is nonzero exactly at x.0 + rho
    with x >= w; there its dimension is P_{w0 x, w0 w}(1), all HD_plus
    when l(x) - l(w) is even and all HD_minus when it is odd; every other
    block weight has H_D = 0.
    """
    pair = ws.pair
    weyl = pair.weyl
    lengths, w0 = weyl.lengths, weyl.elements[weyl.longest]
    times_w0 = [weyl.index[w0 @ x] for x in weyl.elements]
    lam = ws.module.top_weight
    w = next(i for i in range(len(lengths)) if weyl.act(i, pair.rho) - pair.rho == lam)
    expected = {}
    for x in range(len(lengths)):
        if kl.leq(w, x):
            p1 = sum(kl.poly(times_w0[x], times_w0[w]))
            odd = (lengths[x] - lengths[w]) % 2
            expected[weyl.act(x, pair.rho)] = (0, p1) if odd else (p1, 0)
    classes = weights = 0
    for mu in ws.block_weights():
        blk = block(ws.sm, ws.module, mu)
        hd = blk.dirac_cohomology() if blk.dim else {"hd_plus": 0, "hd_minus": 0}
        got = hd["hd_plus"], hd["hd_minus"]
        assert got == expected.get(mu, (0, 0)), (lam, mu)
        classes += sum(got)
        weights += any(got)
    return classes, weights


def test_a2_simple_modules_match_kazhdan_lusztig():
    """All six A2 modules L(w.0), h = t, depth 6: 19 classes, one per
    Bruhat pair x >= w (every A2 polynomial is 1)."""
    c = ctx("A2", [])
    kl = KazhdanLusztig(c.pair.weyl, c.pair.rs)
    total = 0
    for w in range(len(c.pair.weyl.elements)):
        lam = c.pair.weyl.act(w, c.pair.rho) - c.pair.rho
        doc = {"name": f"a2-kl-{w}", "cartan_type": "A2", "delta_h": [],
               "module": {"kind": "simple", "lambda": [int(x) for x in lam], "depth": 6},
               "depth_below_top": 6, "tasks": ["dirac"]}
        total += _kl_classes(Workspace(Scenario(doc)), kl)[0]
    assert total == sum(len(below) for below in kl.below.values()) == 19


def test_a3_kl_scenarios_match_kazhdan_lusztig():
    """scenarios/a3_kl_s1s3.json (depth 6) and a3_kl_s2.json (depth 10)
    against the A3 polynomials, of which some are 1 + q: L(s2.0) has 24
    classes at 20 weights, four of them of dimension P(1) = 2."""
    c = ctx("A3", [])
    kl = KazhdanLusztig(c.pair.weyl, c.pair.rs)
    # P_{x,x} = 1, deg P_{x,w} <= (l(w) - l(x) - 1) / 2 for x < w, and the sum of
    # P(1) over the Bruhat pairs is the 219 classes of the 24 modules at full depth
    lengths = c.pair.weyl.lengths
    assert all(p[0] == 1 and (x == w or 2 * len(p) - 2 < lengths[w] - lengths[x])
               for (x, w), p in kl.p.items())
    assert sum(sum(p) for p in kl.p.values()) == 219
    assert _kl_classes(Workspace(_scenario_file("a3_kl_s1s3")), kl) == (10, 10)
    assert _kl_classes(Workspace(_scenario_file("a3_kl_s2")), kl) == (24, 20)
