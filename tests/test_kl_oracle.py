"""Dirac cohomology and weight multiplicities of simple highest weight
modules against the Kazhdan-Lusztig polynomials of `helpers.KazhdanLusztig`."""

import pytest

from odirac.cato import cone_coords, kostant_partition_counter
from odirac.dirac import block
from odirac.roots import Weight
from odirac.scenarios import Scenario, Workspace
from conftest import ctx
from helpers import KazhdanLusztig
from test_dirac import _scenario_file


def _kl_expansion(pair, kl, lam):
    """(w, {x: P_{w0 x, w0 w}(1) for every x >= w}) for L(lam) = L(w.0)."""
    weyl = pair.weyl
    w0 = weyl.elements[weyl.longest]
    times_w0 = [weyl.index[w0 @ x] for x in weyl.elements]
    w = next(i for i in range(len(weyl.elements)) if weyl.act(i, pair.rho) - pair.rho == lam)
    return w, {x: sum(kl.poly(times_w0[x], times_w0[w]))
               for x in range(len(weyl.elements)) if kl.leq(w, x)}


def _simple_workspaces(cartan_type, depth):
    """A Workspace of every simple module L(w.0) of cartan_type, h = t, at depth."""
    c = ctx(cartan_type, [])
    out = []
    for w in range(len(c.pair.weyl.elements)):
        lam = c.pair.weyl.act(w, c.pair.rho) - c.pair.rho
        doc = {"name": f"{cartan_type.lower()}-kl-{w}", "cartan_type": cartan_type,
               "delta_h": [],
               "module": {"kind": "simple", "lambda": [int(x) for x in lam], "depth": depth},
               "depth_below_top": depth, "tasks": ["dirac"]}
        out.append(Workspace(Scenario(doc)))
    return out


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
    lengths = pair.weyl.lengths
    lam = ws.module.top_weight
    w, p1s = _kl_expansion(pair, kl, lam)
    expected = {}
    for x, p1 in p1s.items():
        odd = (lengths[x] - lengths[w]) % 2
        expected[pair.weyl.act(x, pair.rho)] = (0, p1) if odd else (p1, 0)
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
    total = sum(_kl_classes(ws, kl)[0] for ws in _simple_workspaces("A2", 6))
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


@pytest.fixture(scope="module")
def a3_sweep():
    """The A3 polynomials and the 24 modules L(w.0), h = t, at depth 6."""
    c = ctx("A3", [])
    return KazhdanLusztig(c.pair.weyl, c.pair.rs), _simple_workspaces("A3", 6)


def test_a3_simple_modules_match_kazhdan_lusztig(a3_sweep):
    """All 24 A3 modules L(w.0), h = t, depth 6: 181 classes in the windows
    (219 at full depth)."""
    kl, workspaces = a3_sweep
    assert len(workspaces) == 24
    assert sum(_kl_classes(ws, kl)[0] for ws in workspaces) == 181


def _kl_character_check(ws, kl):
    """Check every weight space of the simple window of ws against
    ch L(w.0) = sum over x >= w of (-1)^(l(x) - l(w)) P_{w0 x, w0 w}(1) ch M(x.0)
    (Kazhdan-Lusztig 1979, Invent. Math. 53; Beilinson-Bernstein and
    Brylinski-Kashiwara 1981), with dim M(x.0)_nu the Kostant partition
    count of x.0 - nu; return (weight spaces checked, those where a term
    with P(1) > 1 is nonzero)."""
    pair, m = ws.pair, ws.module
    lengths = pair.weyl.lengths
    count = kostant_partition_counter(pair.rs.positive_roots)
    w, p1s = _kl_expansion(pair, kl, m.top_weight)
    terms = [(pair.weyl.act(x, pair.rho) - pair.rho, (-1) ** (lengths[x] - lengths[w]) * p1)
             for x, p1 in p1s.items()]
    seen = beyond_one = 0
    for coords in cone_coords(pair.rank, m.depth):
        nu = m.top_weight - Weight(coords)
        counts = [(coef, count(top - nu)) for top, coef in terms]
        assert m.dim(nu) == sum(coef * n for coef, n in counts), (m.top_weight, nu)
        seen += 1
        beyond_one += any(abs(coef) > 1 and n for coef, n in counts)
    return seen, beyond_one


def test_a3_simple_windows_match_kl_character_formula(a3_sweep):
    """Every weight space of the 24 A3 windows at depth 6, and of
    scenarios/a3_kl_s2.json at depth 10, against the KL character formula.
    No depth-6 weight space reaches a term with P(1) = 2; 20 of L(s2.0)'s
    at depth 10 do."""
    kl, workspaces = a3_sweep
    checked = [_kl_character_check(ws, kl) for ws in workspaces]
    assert sum(seen for seen, _ in checked) == 24 * 84
    assert not any(beyond for _, beyond in checked)
    assert _kl_character_check(Workspace(_scenario_file("a3_kl_s2")), kl) == (286, 20)
