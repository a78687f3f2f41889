"""Dirac blocks: assembly, square, cohomology, Jordan data, circle, audits."""

from fractions import Fraction

import pytest

from odirac.exactla import Mat
from odirac.roots import Weight, zero_weight
from odirac.cato import (cone_coords, finite_dim_simple, ses_from_embedding,
                         ses_split, singular_vectors, verma_character_h,
                         verma_window)
from odirac.spinor import SpinModule, to_mat
from odirac.dirac import (DiracBlock, GradedNilpotent, LiftFailure, block, check_square,
                          exact_circle, h_equivariance_defect, index_identity_check,
                          kostant_kernel_check, nonvanishing_check,
                          simple_verma_theorem_check, singular_cohomology_weights,
                          vogan_audit)
from conftest import ctx, full_drop, spin_parity, spin_weight, spin_weights
from helpers import (graded_kernel, greedy_chains, nullspace_on, parity_cols, preimage_subspace,
                     row_space, subset_sums, subspace_intersect)

F = Fraction


def test_sl3_top_block(a2_su21):
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    vw = verma_window(pair, cb, -pair.rho, 12)
    blk = DiracBlock(sm, vw, -pair.rho_h)
    assert blk.dim == 1
    assert blk.d.is_zero()
    assert blk.d_plus + blk.d_minus - blk.d == Mat.zero(1, 1)  # su(2,1) has no cubic part


def test_trivial_module_is_cubic(a2_t, a2_su21):
    # on the trivial module D = -gamma(c); for symmetric pairs D = 0
    for c in (a2_t, a2_su21):
        pair, cb, sm = c.pair, c.cb, c.sm
        triv = finite_dim_simple(pair, cb, zero_weight(2))
        weights = spin_weights(sm)
        for w in sorted(set(weights)):
            blk = DiracBlock(sm, triv, w)
            idx = [i for i in range(sm.dim) if weights[i] == w]
            cubic = to_mat(sm.cubic, sm.dim)
            sub = Mat([[cubic.rows[a][b] for b in idx] for a in idx], len(idx))
            assert blk.d == -sub
    triv = finite_dim_simple(a2_su21.pair, a2_su21.cb, zero_weight(2))
    for w in set(spin_weights(a2_su21.sm)):
        assert DiracBlock(a2_su21.sm, triv, w).d.is_zero()


def test_a1_blocks_two_by_two(a1):
    """h = t in sl2: the blocks square to the predicted diagonal scalars."""
    pair, cb, sm = a1.pair, a1.cb, a1.sm
    lam = Weight([F(2, 5)])
    vw = verma_window(pair, cb, lam, 9)
    form = pair.form
    alpha = pair.rs.simple_roots[0]
    for k in range(1, 7):
        mu = lam + sm.top_weight - alpha * k
        blk = DiracBlock(sm, vw, mu)
        sq = blk.d @ blk.d
        # every vector in the block has t-weight mu, so D^2 is the scalar
        # (|lam+rho|^2 - |mu+rho_h|^2)/2 with rho_h = 0 here
        expect = Mat.identity(blk.dim).scale(
            F(1, 2) * (form.norm2(lam + pair.rho) - form.norm2(mu)))
        assert sq == expect


def test_check_square_and_eigenvalues(a2_su21):
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    lam = -pair.rho
    vw = verma_window(pair, cb, lam, 12)
    form = pair.form
    for c in cone_coords(2, 4):
        mu = -pair.rho_h - Weight(c)
        blk = DiracBlock(sm, vw, mu)
        if blk.dim == 0:
            continue
        rep = check_square(blk)
        assert rep["matrix_identity"]
        for val, d in rep["eigenvalues"].items():
            # every eigenvalue has the predicted shape for some block weight nu
            found = False
            for cc in cone_coords(2, 10):
                nu = mu + Weight(cc)
                if F(1, 2) * (form.norm2(lam + pair.rho)
                              - form.norm2(nu + pair.rho_h)) == val:
                    found = True
                    break
            assert found, (mu, val)


def test_h_equivariance(a2_su21):
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    vw = verma_window(pair, cb, -pair.rho, 12)
    for gen in pair.h_generators():
        for c in cone_coords(2, 2):
            mu = -pair.rho_h - Weight(c)
            assert h_equivariance_defect(sm, vw, mu, gen).is_zero()


def test_dirac_cohomology_worked_example(a2_su21):
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    vw = verma_window(pair, cb, -pair.rho, 14)
    mu_top = -pair.rho_h
    weights = [mu_top - Weight(c) for c in cone_coords(2, 8)]
    actual = {}
    for mu in weights:
        blk = DiracBlock(sm, vw, mu)
        if blk.dim:
            hd = blk.dirac_cohomology()["hd"]
            if hd:
                actual[mu] = hd
    expected = {w: d for w, d in verma_character_h(pair, mu_top, weights).items() if d}
    assert actual == expected


def test_finite_module_hd_is_kernel(a2_su21):
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    f = finite_dim_simple(pair, cb, Weight([F(2, 3), F(1, 3)]))
    for wm in f.weights():
        for ws in set(spin_weights(sm)):
            mu = wm + ws
            blk = DiracBlock(sm, f, mu)
            if blk.dim == 0:
                continue
            rep = blk.dirac_cohomology()
            # im D meets ker D trivially on finite modules: H_D = ker D
            assert rep["hd"] == rep["ker"]


def test_kostant_a1_ladder(a1):
    pair, cb, sm = a1.pair, a1.cb, a1.sm
    alpha = pair.rs.simple_roots[0]
    for n in range(5):
        f = finite_dim_simple(pair, cb, Weight([F(n, 2)]))
        rep = kostant_kernel_check(sm, f)
        assert rep["match"]
        # brute-force shape: two lines at +-(n+1) alpha/2
        want = {alpha * F(n + 1, 2): 1, alpha * F(-(n + 1), 2): 1}
        assert rep["kernel_character"] == want


def test_kostant_a2_cases(a2_su21, a2_t):
    for c, lam in [(a2_su21, zero_weight(2)),
                   (a2_su21, Weight([F(2, 3), F(1, 3)])),
                   (a2_t, zero_weight(2))]:
        f = finite_dim_simple(c.pair, c.cb, lam)
        rep = kostant_kernel_check(c.sm, f)
        assert rep["match"]
        assert len(rep["constituents"]) == len(c.pair.weyl.coset_W1)
    # h = t gives |W| = 6 one-dimensional constituents and a nonzero cubic term
    f0 = finite_dim_simple(a2_t.pair, a2_t.cb, zero_weight(2))
    rep = kostant_kernel_check(a2_t.sm, f0)
    assert sum(rep["kernel_character"].values()) == 6
    assert not a2_t.sm.cubic.is_zero()
    # the w = 1 constituent F_{rho - rho_h} always contains the vacuum line
    assert a2_t.pair.rho in rep["constituents"]


def test_nonvanishing(a2_su21, a1):
    vw = verma_window(a2_su21.pair, a2_su21.cb, -a2_su21.pair.rho, 12)
    rep = nonvanishing_check(a2_su21.sm, vw)
    assert rep["ok"] and rep["top_dim"] == 1
    f = finite_dim_simple(a1.pair, a1.cb, Weight([1]))
    rep = nonvanishing_check(a1.sm, f)
    assert rep["ok"]


def test_simple_verma_theorem(a1, a2_su21):
    vw = verma_window(a1.pair, a1.cb, Weight([F(-3, 4)]), 12)
    rep = simple_verma_theorem_check(a1.sm, vw, a1.block_weights(vw, 8))
    assert rep["antidominant"] and rep["target_antidominant"] and rep["match"]
    # A1 h = t: H_D is the single line at lam + rho
    assert list(rep["hd_character"].values()) == [1]
    vw2 = verma_window(a2_su21.pair, a2_su21.cb, -a2_su21.pair.rho, 14)
    rep2 = simple_verma_theorem_check(a2_su21.sm, vw2, a2_su21.block_weights(vw2, 8))
    assert rep2["match"] and rep2["mu_top"] == -a2_su21.pair.rho_h


def graded_nilpotent(sizes):
    """Build a block nilpotent with the given chain sizes, alternating parity."""
    dim = sum(sizes)
    rows = [[F(0)] * dim for _ in range(dim)]
    parity = [0] * dim
    off = 0
    for s in sizes:
        for i in range(s):
            parity[off + i] = i % 2
            if i + 1 < s:
                rows[off + i + 1][off + i] = F(1)  # N maps top chain downward
        off += s
    return GradedNilpotent(Mat(rows, dim), parity)


def test_htop_of_plain_chains():
    # size 1 contributes to H_top^0, size 2 to nothing, size 3 to H_top^1;
    # every chain top is even
    assert graded_nilpotent([1]).htop_from_chains() == {0: (1, 0)}
    assert graded_nilpotent([2]).htop_from_chains() == {}
    assert graded_nilpotent([3]).htop_from_chains() == {1: (1, 0)}
    mixed = graded_nilpotent([1, 2, 3])
    assert sorted(c.nrows for c in mixed.chains()) == [1, 2, 3]
    assert mixed.htop_from_chains() == {0: (1, 0), 1: (1, 0)}
    assert graded_nilpotent([3, 1, 5]).htop_from_chains() == {0: (1, 0), 1: (1, 0), 2: (1, 0)}
    # zero operator: one size-1 block per basis vector
    z = graded_nilpotent([1, 1, 1])
    assert [c.nrows for c in z.chains()] == [1, 1, 1]
    assert z.htop_from_chains() == {0: (3, 0)}


def test_jordan_on_tensor_fixture():
    from odirac.acceptance import load_jordan_fixture

    fx = load_jordan_fixture()
    c, t = fx["ctx"], fx["module"]
    alpha = c.pair.rs.simple_roots[0]
    mu = t.top_weight + c.sm.top_weight - alpha * fx["fixture"]["depth_below_top"]
    blk = DiracBlock(c.sm, t, mu)
    sizes = sorted(ch.nrows for ch in blk.nilpotent().chains())
    assert sizes == fx["fixture"]["jordan_sizes"]
    assert max(sizes) >= 2
    blk.higher_cohomology()  # cross-asserts the two routes
    assert index_identity_check(blk)["ok"]


def test_index_identity_on_verma(a2_su21):
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    vw = verma_window(pair, cb, -pair.rho, 12)
    for c in cone_coords(2, 4):
        mu = -pair.rho_h - Weight(c)
        blk = DiracBlock(sm, vw, mu)
        if blk.dim:
            assert index_identity_check(blk)["ok"]
    # single infinitesimal character: H_top^k vanishes for k >= 1 and
    # H_top^0 matches H_D per weight
    for c in cone_coords(2, 4):
        mu = -pair.rho_h - Weight(c)
        blk = DiracBlock(sm, vw, mu)
        if blk.dim == 0:
            continue
        htop = blk.higher_cohomology()
        assert all(k == 0 for k in htop)
        hd = blk.dirac_cohomology()
        total0 = sum(dp + dm for dp, dm in htop.values())
        assert total0 == hd["hd"]


def test_exact_circle_cases(a1):
    pair, cb, sm = a1.pair, a1.cb, a1.sm
    alpha = pair.rs.simple_roots[0]
    for n in (0, 1, 2):
        lam = Weight([F(n, 2)])
        vw = verma_window(pair, cb, lam, 12)
        w0 = lam - alpha * (n + 1)
        ses = ses_from_embedding(vw, w0, singular_vectors(vw, w0))
        mu_top = lam + pair.rho
        interesting = 0
        for k in range(9):
            cert = exact_circle(sm, ses, mu_top - alpha * k)
            assert cert.exact
            if sum(cert.node_dims.values()):
                interesting += 1
        assert interesting >= 2
    split = ses_split(verma_window(pair, cb, Weight([F(1, 2)]), 10),
                      verma_window(pair, cb, Weight([F(-3, 2)]), 10))
    mu_top = Weight([F(1, 2)]) + pair.rho
    for k in range(6):
        cert = exact_circle(sm, split, mu_top - alpha * k)
        assert cert.exact
        # the split circle has zero connecting maps: no (k, l, m) with all odd-even mix
        for t in cert.triples:
            assert t["m"] == 0 or t["k"] == 0 or t["l"] == t["k"] + t["m"]


def test_exact_circle_empty_quotient_kernel(a2_su21):
    """A quotient block whose generalized kernel is zero next to a nonzero middle one."""
    c = a2_su21
    ses = ses_split(c.verma(Weight([0, 0]), 8), c.verma(Weight([-1, -1]), 8))
    _, m2, m3 = ses.modules()
    for x, dim3 in ((F(-1, 2), 2), (F(-3, 2), 4), (F(-5, 2), 4)):
        mu = Weight([x, -1])
        b3 = block(c.sm, m3, mu)
        assert b3.dim == dim3 and not b3.gen0()[0].nrows and block(c.sm, m2, mu).gen0()[0].nrows
        assert exact_circle(c.sm, ses, mu).exact


def six_matrix_circle(triples, parities):
    """The circle verdict from 0/1 matrices of the six maps and their ranks.

    The assembly `circle_nodes` replaced, kept as its reference: triples
    are (k, l, m) and parities (p1, p2, p3), read only for odd sizes.
    """
    node_basis = {(n, p): [] for n in ("H1", "H2", "H3") for p in (0, 1)}
    arrows = []  # (src_node, tgt_node, src_index, tgt_index)
    for tidx, ((k, l, msize), (p1, p2, p3)) in enumerate(zip(triples, parities)):
        if k % 2:
            node_basis[("H1", p1)].append(("J1", tidx))
        if l % 2:
            node_basis[("H2", p2)].append(("J2", tidx))
        if msize % 2:
            node_basis[("H3", p3)].append(("J3", tidx))
        if k % 2 and l % 2:
            arrows.append((("H1", p1), ("H2", p2), ("J1", tidx), ("J2", tidx)))
        elif l % 2 and msize % 2:
            arrows.append((("H2", p2), ("H3", p3), ("J2", tidx), ("J3", tidx)))
        elif k % 2 and msize % 2:
            arrows.append((("H3", p3), ("H1", p1), ("J3", tidx), ("J1", tidx)))
    order = [("H1", 0), ("H2", 0), ("H3", 0), ("H1", 1), ("H2", 1), ("H3", 1)]
    mats = {}
    for si in range(6):
        src, tgt = order[si], order[(si + 1) % 6]
        rows = [[0] * len(node_basis[src]) for _ in range(len(node_basis[tgt]))]
        for a, b, akey, bkey in arrows:
            if a == src and b == tgt:
                rows[node_basis[tgt].index(bkey)][node_basis[src].index(akey)] = 1
        mats[(src, tgt)] = Mat(rows, len(node_basis[src]))
    exact = True
    for si in range(6):
        prev, here, nxt = order[(si - 1) % 6], order[si], order[(si + 1) % 6]
        incoming, outgoing = mats[(prev, here)], mats[(here, nxt)]
        if incoming.ncols and outgoing.nrows and not (outgoing @ incoming).is_zero():
            exact = False
        if incoming.rank() != len(node_basis[here]) - outgoing.rank():
            exact = False
    node_dims = {f"{n}{'+' if p == 0 else '-'}": len(node_basis[(n, p)]) for n, p in order}
    return node_dims, exact


def test_circle_nodes_matches_six_matrix_assembly():
    """Every one- or two-triple list with k, m <= 3, under every parity assignment."""
    from itertools import product

    from odirac.dirac import circle_nodes

    cases = [((k, k + m, m), ps) for k in range(4) for m in range(4) if k + m
             for ps in product((0, 1), repeat=3)]
    lists = [[c] for c in cases] + [[c, d] for c in cases for d in cases]
    assert len(lists) == 14520
    verdicts = set()
    for lst in lists:
        triples = [t for t, _ in lst]
        parities = [{n: p for n, size, p in zip(("H1", "H2", "H3"), t, ps) if size % 2}
                    for t, ps in lst]
        got = circle_nodes(parities)
        assert got == six_matrix_circle(triples, [ps for _, ps in lst]), lst
        verdicts.add(got[1])
    assert verdicts == {True, False}


def test_circle_parity_case_pattern(a1):
    """At -(lam+rho) the connecting map crosses parity as the case analysis says."""
    pair, cb, sm = a1.pair, a1.cb, a1.sm
    alpha = pair.rs.simple_roots[0]
    lam = Weight([F(1, 2)])
    vw = verma_window(pair, cb, lam, 12)
    w0 = lam - alpha * 2
    ses = ses_from_embedding(vw, w0, singular_vectors(vw, w0))
    cert = exact_circle(sm, ses, -(lam + pair.rho))
    nd = cert.node_dims
    assert nd["H1+"] + nd["H1-"] == 1 and nd["H3+"] + nd["H3-"] == 1
    assert nd["H2+"] == nd["H2-"] == 0
    # the sub and quotient classes sit in opposite parities
    assert nd["H1+"] == nd["H3-"] and nd["H1-"] == nd["H3+"]


def test_vogan_audit_worked_example(a2_su21):
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    vw = verma_window(pair, cb, -pair.rho, 14)
    weights = [-pair.rho_h - Weight(c) for c in cone_coords(2, 6)]
    singular = singular_cohomology_weights(sm, vw, weights)
    assert list(singular) == [-pair.rho_h]
    rep = vogan_audit(pair, sorted(singular), vw.infchars)
    assert rep["ok"]
    assert rep["per_weight"][-pair.rho_h]["shifted"]


def test_vogan_audit_tensor():
    from odirac.acceptance import load_jordan_fixture

    fx = load_jordan_fixture()
    c, t = fx["ctx"], fx["module"]
    pair, cb, sm = c.pair, c.cb, c.sm
    alpha = pair.rs.simple_roots[0]
    top = t.top_weight + sm.top_weight
    weights = [top - alpha * k for k in range(8)]
    singular = singular_cohomology_weights(sm, t, weights)
    assert singular
    rep = vogan_audit(pair, sorted(singular), t.infchars)
    assert rep["ok"]


def test_rank_data_basis_independence(a2_su21):
    pair, cb = a2_su21.pair, a2_su21.cb
    vw = verma_window(pair, cb, -pair.rho, 12)
    sm1 = a2_su21.sm
    sm2 = SpinModule(pair, cb, q_order=list(reversed(pair.q_positive)))
    for c in cone_coords(2, 3):
        mu = -pair.rho_h - Weight(c)
        b1 = DiracBlock(sm1, vw, mu)
        b2 = DiracBlock(sm2, vw, mu)
        assert b1.dirac_cohomology() == b2.dirac_cohomology()
        assert b1.higher_cohomology() == b2.higher_cohomology()
        assert b1.eigenvalue_decomposition() == b2.eigenvalue_decomposition()


def test_kernel_filtration_stabilizes(a2_su21):
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    vw = verma_window(pair, cb, -pair.rho, 12)
    mu = -pair.rho_h - Weight([1, 1])
    blk = DiracBlock(sm, vw, mu)
    dims = []
    p = blk.d
    for k in range(1, blk.dim + 2):
        dims.append(blk.dim - p.rank())
        p = p @ blk.d
    assert dims == sorted(dims)
    vecs, _tags = blk.gen0()
    assert dims[-1] == vecs.nrows


def test_htop_quotient_well_formed(a2_su21):
    """The lower kernel and the image piece sit inside the next odd kernel."""
    from conftest import subspace_le
    from odirac.acceptance import load_jordan_fixture

    fx = load_jordan_fixture()
    c, t = fx["ctx"], fx["module"]
    alpha = c.pair.rs.simple_roots[0]
    mu = t.top_weight + c.sm.top_weight - alpha
    blk = DiracBlock(c.sm, t, mu)
    nil = blk.nilpotent()
    for k in range(0, 2):
        assert subspace_le(nil.kernel(2 * k), nil.kernel(2 * k + 1))


def test_index_identity_trivial_module(a2_su21):
    """Symmetric pair, trivial module: D = 0 and both index sides match."""
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    triv = finite_dim_simple(pair, cb, Weight([0, 0]))
    weights = spin_weights(sm)
    for w in sorted(set(weights)):
        rep = index_identity_check(block(sm, triv, w))
        assert rep["ok"]
        plus = sum(1 for i, ws in enumerate(weights)
                   if ws == w and spin_parity(i) == 0)
        minus = sum(1 for i, ws in enumerate(weights)
                    if ws == w and spin_parity(i) == 1)
        assert rep["graded_difference"] == plus - minus
        assert rep["signed_sum"] == plus - minus


def test_one_build_per_block(monkeypatch):
    """A scenario run builds and decomposes each block once, however often asked.

    Keys are (spin module, module, weight) for builds and the block for
    decompositions.
    """
    import os
    from collections import Counter
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    builds, asked, decomposed = Counter(), Counter(), Counter()
    init, eig = DiracBlock.__init__, DiracBlock.eigenvalue_decomposition
    cand = DiracBlock._candidate_eigenvalues

    def counted(self, sm, m, mu):
        builds[(sm, m, mu)] += 1
        init(self, sm, m, mu)

    def counted_eig(self):
        if self.dim:
            asked[self] += 1
        return eig(self)

    def counted_cand(self):
        decomposed[self] += 1
        return cand(self)

    monkeypatch.setattr(DiracBlock, "__init__", counted)
    monkeypatch.setattr(DiracBlock, "eigenvalue_decomposition", counted_eig)
    monkeypatch.setattr(DiracBlock, "_candidate_eigenvalues", counted_cand)
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "sl3_paper_example.json")
    assert scenarios.run_scenario(scenarios.load_scenario(path))["ok"]
    assert builds and set(builds.values()) == {1}
    assert set(decomposed.values()) == {1} and set(decomposed) == set(asked)
    assert max(asked.values()) == 2  # tasks dirac and square both ask


def test_one_block_space_per_key(monkeypatch):
    """A scenario run builds each (spin module, module, weight) BlockSpace once,
    and each lists its spin components as the per-basis-vector definition does."""
    import os
    from collections import Counter
    from odirac import dirac, scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    builds, spaces = Counter(), []
    init = dirac.BlockSpace.__init__

    def counted(self, sm, m, mu):
        builds[(sm, m, mu)] += 1
        init(self, sm, m, mu)
        spaces.append(self)

    monkeypatch.setattr(dirac.BlockSpace, "__init__", counted)
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "sl3_paper_example.json")
    assert scenarios.run_scenario(scenarios.load_scenario(path))["ok"]
    assert len(builds) > 50 and set(builds.values()) == {1}
    for sp in spaces:
        comp = [sp.mu - w for w in spin_weights(sp.sm)]
        dims = [sp.m.dim(w) for w in comp]
        slot, off = {}, 0
        for mask, (w, d) in enumerate(zip(comp, dims)):
            if d:
                slot[mask] = (off, w, d)
                off += d
        assert sp.slot == slot and list(sp.slot) == sorted(slot) and sp.dim == off


def test_one_casimir_per_module_weight(monkeypatch):
    """The square task builds the Casimir of g once per module weight, not once
    per block that holds it: on sl3 its 45 distinct weights recur 130 times."""
    import json
    import os
    from collections import Counter
    from odirac import dirac, scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    builds, uses = Counter(), Counter()
    casimir, check = dirac.casimir, dirac.check_square

    def counted(action, w, n, roots, form):
        m = getattr(action, "__self__", None)  # Omega_g acts by a window's `action`
        if m is not None:
            builds[(m, w)] += 1
        return casimir(action, w, n, roots, form)

    def counted_check(blk):
        uses.update((blk.m, w) for _, w, _ in blk.space.slot.values())
        return check(blk)

    monkeypatch.setattr(dirac, "casimir", counted)
    monkeypatch.setattr(scenarios, "check_square", counted_check)
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "sl3_paper_example.json")
    with open(path) as fh:
        doc = dict(json.load(fh), tasks=["square"])
    assert scenarios.run_scenario(scenarios.Scenario(doc))["ok"]
    assert set(builds) == set(uses) and set(builds.values()) == {1}
    assert (len(builds), sum(uses.values())) == (45, 130)


def test_each_h_block_built_once(monkeypatch):
    """On a cold sl3 context the square and vogan tasks assemble each diagonal
    h-generator map, keyed by (window, spin module, generator, weight), once:
    108 maps, which are asked for 188 times."""
    import json
    import os
    from collections import Counter
    from odirac import dirac, scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    builds, calls, inside = Counter(), Counter(), []
    h_block, assemble = dirac.h_generator_block, dirac.block_operator

    def counted(sm, m, gen, mu):
        calls[(m, sm, gen, mu)] += 1
        inside.append((m, sm, gen, mu))
        try:
            return h_block(sm, m, gen, mu)
        finally:
            inside.pop()

    def counted_assembly(tgt, src, terms):
        if inside:
            builds[inside[-1]] += 1
        return assemble(tgt, src, terms)

    monkeypatch.setattr(dirac, "h_generator_block", counted)
    monkeypatch.setattr(dirac, "block_operator", counted_assembly)
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "sl3_paper_example.json")
    with open(path) as fh:
        doc = dict(json.load(fh), tasks=["square", "vogan"])
    assert scenarios.run_scenario(scenarios.Scenario(doc))["ok"]
    assert set(builds) == set(calls) and set(builds.values()) == {1}
    assert (len(builds), sum(calls.values())) == (108, 188)


def test_h_casimir_commutes_with_h_generators(a2_su21):
    """(Omega_h)_Delta, built by `casimir` from the diagonal h-generator maps
    over Delta_h^+, commutes with every h-generator on sl3's M(-rho) (x) S:
    Omega_h at mu + wt(gen) after gen equals gen after Omega_h at mu, for
    every block weight within 6 of the top."""
    from functools import partial
    from odirac.dirac import block_space, casimir, h_generator_block

    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    m = a2_su21.verma(-pair.rho, 14)
    act = partial(h_generator_block, sm, m)

    def omega_h(mu):
        return casimir(act, mu, block_space(sm, m, mu).dim, pair.delta_h_pos, pair.form)

    checked = 0
    for mu in a2_su21.block_weights(m, 6):
        for gen in pair.h_generators():
            g = act(gen, mu)
            assert omega_h(mu + cb.generator_weight(gen)) @ g == g @ omega_h(mu), (mu, gen)
            checked += 1
    assert checked == 112


def test_hot_path_coerces_no_entries(monkeypatch):
    """On a cold sl3 context, block assembly, the eigen decomposition and the
    square check build every matrix from ints: the Fraction-coercing
    constructor is never called."""
    from odirac import dirac, scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    c = scenarios.pair_context("A2", [(1, 0)])
    pair, cb, sm = c.pair, c.cb, c.sm
    vw = c.verma((-1, -1), 14)
    weights = c.block_weights(vw, 8)
    coerced = []
    init = Mat.__init__

    def counted(self, rows, ncols=None):
        coerced.append(ncols)
        init(self, rows, ncols)

    monkeypatch.setattr(Mat, "__init__", counted)
    for mu in weights:
        blk = dirac.block(sm, vw, mu)
        assert blk.eigenvalue_decomposition()
        assert dirac.check_square(blk)["matrix_identity"]
    assert len(weights) > 40 and not coerced
    Mat([[1]])
    assert coerced  # the counter sees the constructor


def test_spin_weight_classes(a2_su21):
    """Each spin basis vector is listed once, under the drop of its weight."""
    c = ctx("B3", [(1, 0, 0), (0, 0, 1)])
    for sm in (a2_su21.sm, c.sm):
        classes = sm.drops_within(full_drop(sm))
        assert sorted(classes) == sorted(subset_sums(sm))  # the distinct drops
        listed = [(mask, d) for d, masks in classes.items() for mask in masks]
        assert sorted(mask for mask, _ in listed) == list(range(sm.dim))
        assert all(sm.top_weight - Weight(d) == spin_weight(sm, mask) for mask, d in listed)
    assert len(classes) < c.sm.dim


# -- spectral layer: eigen decomposition against a plain-Fraction reference ---

def _frac_matmul(a, b):
    return [[sum((x * b[t][j] for t, x in enumerate(row) if x), F(0))
             for j in range(len(b[0]))] for row in a]


def _frac_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[pr], rows[rank] = rows[rank], rows[pr]
        piv = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / piv[c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], piv)]
        rank += 1
    return rank


def reference_decomposition(blk):
    """{c: n - rank((D^2 - c)^m)} over all candidates, for a power m >= n.

    ker A^m = ker A^n for every m >= n, so repeated squaring reaches the
    generalized eigenspace without any stopping rule.
    """
    n = blk.dim
    d = [list(r) for r in blk.d.rows]
    d2 = _frac_matmul(d, d)
    out = {}
    for c in set(blk._candidate_eigenvalues()):
        p = [[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(d2)]
        m = 1
        while m < n:
            p, m = _frac_matmul(p, p), 2 * m
        dim_c = n - _frac_rank(p)
        if dim_c:
            out[c] = dim_c
    return out


def _spectral_blocks():
    """The sl3 worked example's blocks and the pinned Jordan fixture's blocks."""
    from odirac.acceptance import load_jordan_fixture
    from odirac.dirac import block
    from odirac.scenarios import pair_context

    c = pair_context("A2", [(1, 0)])
    vw = c.verma(-c.pair.rho, 14)
    out = [block(c.sm, vw, mu) for mu in c.block_weights(vw, 8)]
    fx = load_jordan_fixture()
    fc, t = fx["ctx"], fx["module"]
    out += [block(fc.sm, t, mu) for mu in fc.block_weights(t, 8)]
    return [b for b in out if b.dim]


def test_eigen_decomposition_matches_reference():
    non_semisimple = 0
    for blk in _spectral_blocks():
        got = blk.eigenvalue_decomposition()
        assert got == reference_decomposition(blk), blk.mu
        d2 = blk.d @ blk.d
        # the chain must run past k = 1 somewhere: a generalized eigenspace
        # strictly larger than the eigenspace
        non_semisimple += any(blk.dim - (d2 - Mat.scalar(blk.dim, c)).rank() < k
                              for c, k in got.items())
    assert non_semisimple


def test_eigen_decomposition_memo(a2_su21, monkeypatch):
    from collections import Counter

    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    vw = a2_su21.verma(-pair.rho, 14)
    blk = DiracBlock(sm, vw, -pair.rho_h - Weight([1, 2]))
    first = blk.eigenvalue_decomposition()
    assert first and blk.eigenvalue_decomposition() == first
    want = dict(first)
    first.clear()
    blk.eigenvalue_decomposition()[F(10 ** 6)] = 1
    assert blk.eigenvalue_decomposition() == want
    assert blk.d_power(2) == blk.d @ blk.d
    # the memo of D^k, against binary powering
    assert [blk.d_power(k) for k in (3, 0, 1, 2, 5)] == \
        [blk.d.power(k) for k in (3, 0, 1, 2, 5)]
    assert blk.d_power(2) is blk.d_power(2) and blk.d_power(5) is blk.d_power(5)
    # the memo of the generalized kernel ker D^s
    s = blk.stable_index()
    assert blk.gen0() is blk.gen0()
    assert row_space(blk.gen0()[0]) == row_space(blk.d.power(s).nullspace())
    # On a cold spin module, singular_cohomology_weights computes each D^j, each
    # generalized kernel and each block's Jordan chains once per block.
    products, nullspaces, computed, asked = Counter(), Counter(), Counter(), Counter()
    kept = []  # keeps every counted operand alive, so no id is reused
    matmul, nullspace = Mat.__matmul__, Mat.nullspace
    chains, compute_chains = GradedNilpotent.chains, GradedNilpotent._compute_chains

    def counted_matmul(self, other):
        kept.append(other)
        products[id(other)] += 1
        return matmul(self, other)

    def counted_nullspace(self):
        kept.append(self)
        nullspaces[id(self)] += 1
        return nullspace(self)

    def counted_chains(self, seeds=None):
        asked[self] += 1
        return chains(self, seeds)

    def counted_compute(self, seeds):
        computed[self] += 1
        return compute_chains(self, seeds)

    monkeypatch.setattr(Mat, "__matmul__", counted_matmul)
    monkeypatch.setattr(Mat, "nullspace", counted_nullspace)
    monkeypatch.setattr(GradedNilpotent, "chains", counted_chains)
    monkeypatch.setattr(GradedNilpotent, "_compute_chains", counted_compute)
    cold = SpinModule(pair, cb)  # no block of it is built yet
    weights = a2_su21.block_weights(vw, 8)  # the weights of sl3_paper_example's vogan task
    assert singular_cohomology_weights(cold, vw, weights)
    cold_blocks = [blk for (s, _), blk in vw.blocks.items() if s is cold]
    assert cold_blocks
    for b in cold_blocks:
        # the memo holds D^1, D^2, ...; D^j = D^{j-1} @ D for j >= 2, so D is a
        # right factor once per memoized power past the first
        assert b._d_powers[0] is b.d, b.mu
        assert products[id(b.d)] == len(b._d_powers) - 1, b.mu
        # one nullspace, of D^s, for a generalized kernel that was built
        assert sum(nullspaces[id(p)] for p in b._d_powers) == \
            (b._gen0 is not None and b.stable_index() > 0), b.mu
    assert computed and set(computed.values()) == {1}
    assert sum(asked.values()) > len(asked)  # neighbours ask again and hit the memo


def test_eigen_checks_still_run(a2_su21, monkeypatch):
    """The coverage check of the decomposition fires on a corrupted input."""
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    vw = a2_su21.verma(-pair.rho, 14)
    mu = -pair.rho_h - Weight([1, 2])

    def fresh():
        return DiracBlock(sm, vw, mu)

    assert len(fresh().eigenvalue_decomposition()) >= 2
    # drop the largest candidate: the rest no longer cover the block
    monkeypatch.setattr(DiracBlock, "_candidate_eigenvalues",
                        lambda self, orig=DiracBlock._candidate_eigenvalues:
                        sorted(set(orig(self)))[:-1])
    with pytest.raises(AssertionError, match="predicted eigenvalues cover"):
        fresh().eigenvalue_decomposition()


# -- H_D is H_top^0: the separate routes it replaced, kept as references ------

def reference_gen0(blk):
    """The generalized kernel by a stable-power loop of its own."""
    d, n = blk.d, blk.dim
    if n == 0:
        return Mat.zero(0, 0), []
    power, prev = d, -1
    while True:
        dim_k = n - power.rank()
        if dim_k == prev:
            break
        prev = dim_k
        power = power @ d
    kers = [nullspace_on(power, parity_cols(blk.space.parity, sign)) for sign in (+1, -1)]
    return kers[0].vstack(kers[1]), [0] * kers[0].nrows + [1] * kers[1].nrows


def reference_nilpotent(blk):
    """D on the generalized kernel of `reference_gen0`, in its coordinates."""
    from odirac.dirac import _in_basis

    vecs, parities = reference_gen0(blk)
    d_on_gen0 = _in_basis(blk.d, vecs, vecs,
                          AssertionError("D does not preserve the generalized kernel"))
    return GradedNilpotent(d_on_gen0, parities)


def reference_image_graded(nil, sign):
    """Basis rows of (im N) in the sign part: N applied to the opposite part."""
    return row_space(nil.n.take(cols=parity_cols(nil.parity, -sign)).T)


def reference_htop(blk):
    """{k: (plus, minus)} from the quotients in generalized-kernel coordinates."""
    nil = reference_nilpotent(blk)

    def quotient(ker_basis, sign, lower_k):
        if not ker_basis.nrows:
            return 0
        meet = subspace_intersect(ker_basis, reference_image_graded(nil, sign))
        lower = graded_kernel(nil, lower_k, sign) if lower_k else Mat.zero(0, nil.dim)
        return row_space(ker_basis).nrows - row_space(meet.vstack(lower)).nrows

    out = {}
    k = 0
    while True:
        kp = graded_kernel(nil, 2 * k + 1, +1)
        km = graded_kernel(nil, 2 * k + 1, -1)
        dp, dm = quotient(kp, +1, 2 * k), quotient(km, -1, 2 * k)
        if dp or dm:
            out[k] = (dp, dm)
        if kp.nrows + km.nrows == nil.dim:
            return out
        k += 1


def reference_dirac_cohomology(blk):
    """ker/im from rank D; H_D as ker N / (ker N meet im N) in each parity."""
    nil = reference_nilpotent(blk)

    def hd(sign):
        ker = graded_kernel(nil, 1, sign)
        if not ker.nrows:
            return 0
        meet = subspace_intersect(ker, reference_image_graded(nil, sign))
        return row_space(ker).nrows - meet.nrows

    rank = blk.d.rank()
    return {"dim_block": blk.dim, "ker": blk.dim - rank, "im": rank, "gen0": nil.dim,
            "hd": hd(+1) + hd(-1), "hd_plus": hd(+1), "hd_minus": hd(-1)}


def reference_singular_cohomology_weights(sm, m, weights):
    """Singular classes with H_D's denominators on a branch of their own."""
    from odirac.dirac import block, h_generator_block

    kernels = {}

    def kernel(b, j):
        if (b, j) not in kernels:
            kernels[b, j] = b.d.power(j).nullspace()
        return kernels[b, j]

    def image(b):
        return row_space(b.d.T)

    def den_hd(b):
        return subspace_intersect(kernel(b, 1), image(b))

    def den_htop(b, k):
        meet = subspace_intersect(kernel(b, 2 * k + 1), image(b))
        return row_space(meet.vstack(kernel(b, 2 * k)))

    simples = sm.pair.delta_h_simple
    out = {}
    for mu in weights:
        b = block(sm, m, mu)
        if b.dim == 0:
            continue
        raisers = [(alpha, h_generator_block(sm, m, ("e", alpha), mu))
                   for alpha in simples]
        entry = {}
        num = kernel(b, 1)
        if num.nrows:
            cand = num
            for alpha, e_map in raisers:
                cand = subspace_intersect(
                    cand, preimage_subspace(e_map, den_hd(block(sm, m, mu + alpha))))
            d_hd = cand.nrows - den_hd(b).nrows
            if d_hd:
                entry["hd"] = d_hd
        htop = {}
        k = 0
        while True:
            numk = kernel(b, 2 * k + 1)
            cand = numk
            for alpha, e_map in raisers:
                cand = subspace_intersect(
                    cand, preimage_subspace(e_map, den_htop(block(sm, m, mu + alpha), k)))
            dk = cand.nrows - den_htop(b, k).nrows
            if dk:
                htop[k] = dk
            if numk.nrows == kernel(b, 2 * k + 3).nrows:
                break
            k += 1
        if htop:
            entry["htop"] = htop
        if entry:
            out[mu] = entry
    return out


def _c3_probe_blocks():
    import os

    from odirac.dirac import block
    from odirac.scenarios import Workspace, load_scenario

    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "c3_spin_probe.json")
    ws = Workspace(load_scenario(path))
    return [block(ws.sm, ws.module, mu) for mu in ws.block_weights()]


def test_dirac_cohomology_is_htop_level_zero():
    """sl3 (depth 8), the Jordan fixture and the C3 probe, block by block."""
    blocks = _spectral_blocks() + [b for b in _c3_probe_blocks() if b.dim]
    assert any(b.d_plus + b.d_minus != b.d for b in blocks)  # a nonzero cubic part
    for blk in blocks:
        assert blk.gen0() == reference_gen0(blk), blk.mu
        assert blk.dirac_cohomology() == reference_dirac_cohomology(blk), blk.mu


def test_singular_classes_match_two_branch_reference():
    """Entry for entry on every run of the Vogan audit criterion, on A1's
    M(0), whose H_top^1 classes need ker D^2 in the denominator (the
    criterion's runs would not notice it missing), and on
    scenarios/a2_levi_tensor_vogan.json, a Levi h with singular classes at
    levels k = 0 to 3, where a raiser moves some class of a level k >= 1."""
    import json
    import os

    from odirac.acceptance import vogan_documents
    from odirac.scenarios import Scenario, Workspace

    a1_m0 = {"name": "A1-M0", "cartan_type": "A1", "max_depth": 12, "depth_below_top": 6,
             "module": {"kind": "verma", "lambda": [0], "depth": 12}}
    with open(os.path.join(os.path.dirname(__file__), "..", "scenarios",
                           "a2_levi_tensor_vogan.json")) as fh:
        levi = json.load(fh)
    docs = vogan_documents() + [a1_m0, levi]
    assert len(docs) == 16
    for doc in docs:
        ws = Workspace(Scenario(doc))
        weights = ws.block_weights()
        got = singular_cohomology_weights(ws.sm, ws.module, weights)
        assert got, doc["name"]
        assert got == reference_singular_cohomology_weights(ws.sm, ws.module, weights), \
            doc["name"]
    # the Levi run: levels up to 3, and fewer singular classes than H_top^k at
    # some level k >= 1, so a raiser sends a top there to a nonzero class
    assert {k for entry in got.values() for k in entry["htop"]} == {0, 1, 2, 3}
    assert got[Weight([F(-3, 2), -1])]["htop"] == {0: 1, 2: 1, 3: 1}
    assert any(got.get(mu, {}).get("htop", {}).get(k, 0) < sum(dims)
               for mu in weights for k, dims in block(ws.sm, ws.module, mu).htop().items() if k)


def _homogeneous(vecs, parity):
    return all(len({parity[i] for i, c in enumerate(v) if c}) == 1 for v in vecs.num)


def test_htop_matches_generalized_kernel_route(a1):
    """DiracBlock.htop() against the quotients taken in generalized-kernel
    coordinates: sl3 (depth 8), the Jordan fixture, the C3 probe, A1's M(0),
    and the Jordan fixture's module plus M(0) or M(-1).  In the two direct
    sums a 3-chain meets a 2- or 1-chain in one block, so H_top^1 needs
    ker D^2 in its denominator."""
    from odirac.acceptance import load_jordan_fixture
    from odirac.cato import SumWindow
    from odirac.dirac import block

    modules = [a1.verma(Weight([0]), 12)]
    fixture = load_jordan_fixture()["module"]
    modules += [SumWindow(fixture, a1.verma(Weight([lam]), 16)) for lam in (0, -1)]
    blocks = _spectral_blocks() + [b for b in _c3_probe_blocks() if b.dim]
    for m in modules:
        blocks += [b for b in (block(a1.sm, m, mu) for mu in a1.block_weights(m, 6)) if b.dim]
    mixed = [b for b in blocks
             if sorted(c.nrows for c in b.nilpotent().chains()) in ([1, 3], [2, 3])]
    assert len(mixed) == 2
    higher = 0
    for blk in blocks:
        parity = blk.space.parity
        want = reference_htop(blk)
        assert blk.htop() == want, blk.mu
        higher += any(k for k in want)
        for k in range(blk.stable_index() + 2):
            assert _homogeneous(blk.d_power(k).nullspace(), parity), (blk.mu, k)
            assert _homogeneous(htop_denominator(blk, k), parity), (blk.mu, k)
        assert _homogeneous(row_space(blk.d.T), parity), blk.mu
    assert higher


def test_one_nullspace_per_graded_kernel(monkeypatch):
    """A run of the C3 probe asks for each ker N^k once per nilpotent
    restriction and reduces it by one `Mat.nullspace` of N^k: the
    nilpotency index is read off the powers, not off their kernels, and no
    other power of N is reduced for a kernel."""
    import os
    from collections import Counter
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    asked, computed = Counter(), Counter()
    kept = []  # keeps every counted matrix alive, so no id is reused
    kernel, nullspace = GradedNilpotent.kernel, Mat.nullspace

    def counted_kernel(self, k):
        asked[self, k] += 1
        return kernel(self, k)

    def counted_nullspace(mat):
        kept.append(mat)
        computed[id(mat)] += 1
        return nullspace(mat)

    monkeypatch.setattr(GradedNilpotent, "kernel", counted_kernel)
    monkeypatch.setattr(Mat, "nullspace", counted_nullspace)
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "c3_spin_probe.json")
    assert scenarios.run_scenario(scenarios.load_scenario(path))["ok"]
    assert asked and set(asked.values()) == {1}
    assert all(computed[id(nil.power(k))] == 1 for nil, k in asked)
    powers = {id(p) for nil in {nil for nil, _ in asked} for p in nil._powers}
    assert sum(computed[i] for i in powers) == len(asked)


@pytest.mark.parametrize("name", ["a1_circle", "a2_circle_split"])
def test_circle_asks_the_middle_power_once_per_lift(monkeypatch, name):
    """On a cold run of the circle at every block weight of scenarios/NAME.json,
    `exact_circle` asks the middle block's nilpotent for one power per lifted
    quotient chain, N^l for the top test: the lift's length, the row tested
    as a top, the tail seed and the chain of the middle decomposition are
    all read off the one chain built from the lift."""
    from collections import Counter

    from odirac import scenarios
    from odirac.scenarios import Workspace

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    asked = Counter()
    power = GradedNilpotent.power

    def counted_power(self, k):
        asked[self] += 1
        return power(self, k)

    monkeypatch.setattr(GradedNilpotent, "power", counted_power)
    ws = Workspace(_scenario_file(name))
    _, m2, m3 = ws.ses.modules()
    lifts = 0
    for mu in ws.block_weights():
        asked.clear()
        assert exact_circle(ws.sm, ws.ses, mu).exact
        mine = len(block(ws.sm, m3, mu).nilpotent().chains())
        assert asked[block(ws.sm, m2, mu).nilpotent()] == mine, mu
        lifts += mine
    assert lifts > 0


def test_vogan_builds_one_jordan_basis_per_block(monkeypatch):
    """On a cold run of scenarios/sl3_paper_example.json, the vogan task's
    singular classes build the Jordan basis of 9 blocks, each once, although
    a block is read again as a neighbour of the weights below it."""
    from collections import Counter
    from functools import cached_property

    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    built = Counter()
    basis = DiracBlock.__dict__["jordan_basis"].func

    def counted_basis(self):
        built[self] += 1
        return basis(self)

    prop = cached_property(counted_basis)
    prop.__set_name__(DiracBlock, "jordan_basis")
    monkeypatch.setattr(DiracBlock, "jordan_basis", prop)
    assert scenarios.run_scenario(_scenario_file("sl3_paper_example"))["ok"]
    assert len(built) == 9 and set(built.values()) == {1}


def test_kernels_stack_the_graded_kernels():
    """On every nonzero block of the rank-oracle documents, of
    scenarios/a3_kl_s1s3.json and of scenarios/a2_levi_tensor_vogan.json,
    `kernel(k)` (one nullspace of N^k) is the even part of ker N^k stacked
    on its odd part, each a nullspace on the columns of one parity, for
    k = 0 up to one past the nilpotency index: the same Mat, rows in
    the same order, so the Jordan tops are chosen as from the stack."""
    from odirac.scenarios import Scenario

    blocks = _nonzero_blocks(_scenario_file("a3_kl_s1s3"))
    blocks += _nonzero_blocks(_scenario_file("a2_levi_tensor_vogan"))
    for doc in _oracle_documents():
        blocks += _nonzero_blocks(Scenario(doc))
    longest = 0
    for blk in blocks:
        nil = blk.nilpotent()
        s = max((c.nrows for c in nil.chains()), default=0)
        longest = max(longest, s)
        for k in range(s + 2):
            want = graded_kernel(nil, k, +1).vstack(graded_kernel(nil, k, -1))
            assert nil.kernel(k) == want, (blk.mu, k)
    assert len(blocks) > 150 and longest == 7


def test_chains_call_no_rref(monkeypatch):
    """On a cold run of scenarios/a3_kl_s1s3.json, `_compute_chains` reads each
    level's tops off the forward pass (`Mat.pivots`) and calls `Mat.rref`
    itself zero times, and no row space is reduced: tops are tested on
    images."""
    import sys
    from collections import Counter
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    callers = Counter()
    rref = Mat.rref

    def counted(mat):
        callers[sys._getframe(1).f_code.co_name] += 1
        return rref(mat)

    monkeypatch.setattr(Mat, "rref", counted)
    blocks = _nonzero_blocks(_scenario_file("a3_kl_s1s3"))
    assert sum(len(blk.nilpotent().chains()) for blk in blocks) > 0
    assert callers["_compute_chains"] == 0
    assert callers["row_space"] == 0
    assert callers["nullspace"]  # the counter sees the kernels' reductions


@pytest.mark.parametrize("name, count", [("a3_kl_s1s3", 10), ("a2_levi_tensor_vogan", 14),
                                         ("a1_circle", 5), ("a2_circle_split", 22)])
def test_no_kernel_or_power_past_the_nilpotency_index(monkeypatch, name, count):
    """On a cold run of scenarios/NAME.json, none of the COUNT `GradedNilpotent`s
    that are asked for a kernel or a power is asked for `kernel(k)` or
    `power(k)` with k above its nilpotency index: the chains and the circle
    find their tops without ker N^{s+1}."""
    import os
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    asked = {}
    init, kernel, power = GradedNilpotent.__init__, GradedNilpotent.kernel, GradedNilpotent.power

    def counted_init(self, n_mat, parity):
        asked[self] = set()
        init(self, n_mat, parity)

    def counted_kernel(self, k):
        asked[self].add(k)
        return kernel(self, k)

    def counted_power(self, k):
        asked[self].add(k)
        return power(self, k)

    monkeypatch.setattr(GradedNilpotent, "__init__", counted_init)
    monkeypatch.setattr(GradedNilpotent, "kernel", counted_kernel)
    monkeypatch.setattr(GradedNilpotent, "power", counted_power)
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", name + ".json")
    assert scenarios.run_scenario(scenarios.load_scenario(path))["ok"]
    asked = {nil: ks for nil, ks in asked.items() if ks}
    assert len(asked) == count
    for nil, ks in asked.items():
        index = 0
        while not power(nil, index).is_zero():
            index += 1
        assert max(ks) <= index, (nil.dim, index, sorted(ks))


def _scenario_blocks(name):
    """Every Dirac block of a cold run of scenarios/NAME.json, after the run."""
    import os
    from odirac import scenarios

    scn = scenarios.load_scenario(
        os.path.join(os.path.dirname(__file__), "..", "scenarios", name + ".json"))
    assert scenarios.run_scenario(scn)["ok"]
    return [blk for m in scn.ctx._modules.values() for blk in m.blocks.values()]


@pytest.mark.parametrize("name", ["sl3_paper_example", "jordan_tensor", "a3_kl_s1s3"])
def test_kernels_from_the_spectrum_match_the_nullspace(monkeypatch, name):
    """After a run, every block's generalized kernel is ker D^s and ker D^{s+1}
    by nullspaces of binary powers of D, also where the spectrum of D^2 gave
    s = 0 and no rows without a reduction."""
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    blocks = _scenario_blocks(name)
    short = 0
    for blk in blocks:
        short += blk._eigs is not None and 0 not in blk._eigs
        s, gen = blk.stable_index(), row_space(blk.gen0()[0])
        for k in (s, s + 1):
            assert gen == row_space(blk.d.power(k).nullspace()), (blk.mu, k)
    assert 0 < short < len(blocks)


def test_no_nullspace_on_a_block_without_eigenvalue_zero(monkeypatch):
    """On a run of scenarios/a3_kl_s1s3.json, which decomposes D^2 before
    asking for kernels, a block whose spectrum lacks 0 runs no
    `Mat.nullspace`; blocks with the eigenvalue 0 still do."""
    from collections import Counter
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    active, counts = [], Counter()
    for name, fn in list(vars(DiracBlock).items()):
        if callable(fn) and not name.startswith("__"):
            def traced(self, *args, fn=fn):
                active.append(self)
                try:
                    return fn(self, *args)
                finally:
                    active.pop()
            monkeypatch.setattr(DiracBlock, name, traced)
    nullspace = Mat.nullspace

    def counted(mat):
        if active:
            counts[active[-1]] += 1
        return nullspace(mat)

    monkeypatch.setattr(Mat, "nullspace", counted)
    blocks = [blk for blk in _scenario_blocks("a3_kl_s1s3") if blk.dim]
    assert all(blk._eigs is not None for blk in blocks)
    without = [blk for blk in blocks if 0 not in blk._eigs]
    assert without and not any(counts[blk] for blk in without)
    assert any(counts[blk] for blk in blocks if 0 in blk._eigs)


_HALVES = {"e": "d_plus", "f": "d_minus"}  # DiracBlock._terms


def test_block_assembles_d_in_one_pass(monkeypatch):
    """On a cold run of scenarios/a3_kl_s1s3.json (`dirac` + `index`), building
    a block calls `block_operator` once and adds or subtracts none of its
    tables (module actions computed on the way may add their own); the run
    builds neither C+ nor C-, and no power memo holds D^0."""
    from collections import Counter
    from odirac import dirac, scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    building, calls, tables = [], Counter(), {}
    init, assemble = DiracBlock.__init__, dirac.block_operator

    def counted_init(self, *args):
        building.append(self)
        try:
            init(self, *args)
        finally:
            building.pop()

    def counted_assemble(*args):
        out = assemble(*args)
        if building:
            calls[building[-1], "assemble"] += 1
            tables[id(out)] = building[-1], out  # keeps it alive, so no id is reused
        return out

    def counting(name, fn):
        def counted(a, b):
            for m in (a, b):
                if id(m) in tables:
                    calls[tables[id(m)][0], name] += 1
            return fn(a, b)
        return counted

    monkeypatch.setattr(DiracBlock, "__init__", counted_init)
    monkeypatch.setattr(dirac, "block_operator", counted_assemble)
    monkeypatch.setattr(Mat, "__add__", counting("add", Mat.__add__))
    monkeypatch.setattr(Mat, "__sub__", counting("sub", Mat.__sub__))
    blocks = _scenario_blocks("a3_kl_s1s3")
    assert any(blk.dim for blk in blocks)
    for blk in blocks:
        assert calls[blk, "assemble"] == 1 and not calls[blk, "add"] + calls[blk, "sub"], blk.mu
        assert not set(_HALVES.values()) & set(vars(blk)), blk.mu
        assert blk._d_powers[0] is blk.d, blk.mu
    assert set(calls) == {(blk, "assemble") for blk in blocks}


def test_hodge_run_builds_each_part_once_per_block(monkeypatch):
    """A cold `hodge` run reads C+ and C- and assembles each at most once per
    block, besides the one pass that builds D; it takes the cubic part's
    terms for that pass alone."""
    from collections import Counter
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    asked = Counter()
    terms = DiracBlock._terms

    def counted_terms(self, part):
        asked[self, part] += 1
        return terms(self, part)

    monkeypatch.setattr(DiracBlock, "_terms", counted_terms)
    blocks = _scenario_blocks("a2_hodge_unitary")
    read = {(blk, part) for blk in blocks for part, name in _HALVES.items()
            if name in vars(blk)}
    assert {part for _, part in read} == set(_HALVES)
    assert all(asked[blk, "cubic"] == 1 for blk in blocks)
    assert all(asked[key] == 1 + (key in read) for key in asked)
    for blk, part in read:
        assert getattr(blk, _HALVES[part]) is getattr(blk, _HALVES[part])
    assert not hasattr(DiracBlock, "cubic_part")
    # su(2,1) is symmetric, so its cubic part is zero
    assert all(blk.d_plus + blk.d_minus - blk.d == Mat.zero(blk.dim, blk.dim)
               for blk in blocks)


# -- H_top and Jordan sizes from plain-Fraction ranks --------------------------

# The SES whose circle run exits 1 (LiftFailure) at three weights: it finds no
# triple decomposition there (an open question in ROADMAP.md).
SES_REPRO = {"name": "a2-ses-repro", "cartan_type": "A2", "delta_h": [[1, 0]],
             "module": {"kind": "ses", "lambda": [0, 0], "sub_weight": [0, -1], "depth": 8},
             "depth_below_top": 6, "tasks": ["circle"]}


def rank_oracle(blk):
    """(H_top, Jordan sizes) of D on blk from plain-Fraction ranks of its powers.

    With R_q(j) the rank of D^j on the parity-q columns and
    r_j = R_0(j) + R_1(j):
    - H_top^{k,q} = R_q(2k) - R_q(2k+1) - R_{1-q}(2k+1) + R_{1-q}(2k+2);
    - r_{L-1} - 2 r_L + r_{L+1} Jordan chains (eigenvalue 0) have size L.
    The powers stop once the ranks stop changing; later ranks repeat.
    """
    d = [list(r) for r in blk.d.rows]
    cols = [[i for i, p in enumerate(blk.space.parity) if p == q] for q in (0, 1)]
    ranks = [tuple(len(c) for c in cols)]  # D^0 is the identity
    power = d
    while True:
        ranks.append(tuple(_frac_rank([[row[i] for i in c] for row in power]) if c else 0
                           for c in cols))
        if ranks[-1] == ranks[-2]:
            break
        power = _frac_matmul(power, d)

    def rank(q, j):
        return ranks[min(j, len(ranks) - 1)][q]

    def total(j):
        return rank(0, j) + rank(1, j)

    htop = {}
    for k in range(len(ranks)):
        plus, minus = (rank(q, 2 * k) - rank(q, 2 * k + 1) - rank(1 - q, 2 * k + 1)
                       + rank(1 - q, 2 * k + 2) for q in (0, 1))
        if plus or minus:
            htop[k] = (plus, minus)
    sizes = [size for size in range(1, len(ranks) + 1)
             for _ in range(total(size - 1) - 2 * total(size) + total(size + 1))]
    return htop, sizes


def htop_denominator(blk, k, kernel=None):
    """Canonical basis rows of (ker D^{2k+1} meet im D) + ker D^{2k} on blk.

    H_top^k is ker D^{2k+1} modulo this subspace; at k = 0 (ker D^0 = 0) it
    is H_D = ker D / (ker D meet im D).  `kernel(j)` gives ker D^j; by
    default the nullspace of `d_power(j)`.
    """
    kernel = kernel or (lambda j: blk.d_power(j).nullspace())
    meet = subspace_intersect(kernel(2 * k + 1), row_space(blk.d.T))
    return row_space(meet.vstack(kernel(2 * k)))


def quotient_htop(blk):
    """({k: (plus, minus)}, kernels) by the defining quotient: the parity
    counts of the canonical (homogeneous) basis of ker D^{2k+1} minus those
    of `htop_denominator`, for 2k + 1 <= s, with the stable index s found
    from the nullspaces of the powers of D; kernels maps j to ker D^j for
    every j it computed, s + 1 included."""
    from odirac.dirac import _parity_of

    kernels = {}

    def kernel(j):
        if j not in kernels:
            kernels[j] = blk.d_power(j).nullspace()
        return kernels[j]

    def counts(vecs):
        minus = sum(_parity_of(v, blk.space.parity) for v in vecs.num)
        return vecs.nrows - minus, minus

    s = 0
    while kernel(s + 1).nrows != kernel(s).nrows:
        s += 1
    out = {}
    for k in range((s + 1) // 2):
        (num_p, num_m), (den_p, den_m) = map(counts, (kernel(2 * k + 1),
                                                      htop_denominator(blk, k, kernel)))
        if num_p - den_p or num_m - den_m:
            out[k] = (num_p - den_p, num_m - den_m)
    return out, kernels


def _scenario_file(name):
    import os

    from odirac.scenarios import load_scenario

    return load_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios",
                                      name + ".json"))


def _oracle_documents():
    import json
    import os

    here = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    docs = []
    for name in ("sl3_paper_example", "jordan_tensor", "a2_circle_split"):
        with open(os.path.join(here, name + ".json")) as fh:
            docs.append(json.load(fh))
    return docs + [SES_REPRO]


def test_htop_and_jordan_sizes_match_rank_oracle(monkeypatch):
    """The rank profile's htop(), ker, im and gen0, and the chain sizes,
    against `rank_oracle`, `quotient_htop` and the nullspaces and rank of
    the powers of D, on every nonzero block of the sl3 example, the Jordan
    tensor, the split circle, `SES_REPRO` (its sub, middle and quotient) and
    the two A3 KL scenarios.  Each document runs twice on a cold context:
    asking for H_top before the spectrum, and after it, where a block whose
    spectrum lacks 0 reads its profile without a reduction.  The three
    failing circle weights of `SES_REPRO` are pinned."""
    from odirac import scenarios
    from odirac.scenarios import Scenario, Workspace

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})
    oracle, short = {}, 0
    for spectrum_first in (False, True):
        scenarios._CONTEXTS.clear()  # fresh blocks for each pass
        scns = [Scenario(doc) for doc in _oracle_documents()]
        scns += [_scenario_file("a3_kl_s1s3"), _scenario_file("a3_kl_s2")]
        for scn in scns:
            ws = Workspace(scn)
            modules = ws.ses.modules() if ws.ses else (ws.module,)
            for mu in ws.block_weights():
                for i, m in enumerate(modules):
                    blk = block(ws.sm, m, mu)
                    if not blk.dim:
                        continue
                    key = scn.name, i, mu
                    if spectrum_first:
                        short += 0 not in blk.eigenvalue_decomposition()
                    htop = blk.htop()
                    dims = blk.dirac_cohomology()
                    if key not in oracle:
                        oracle[key] = rank_oracle(blk)
                    quotient, kernel = quotient_htop(blk)
                    assert htop == oracle[key][0] == quotient, key
                    s = blk.stable_index()
                    assert (dims["ker"], dims["im"], dims["gen0"]) == \
                        (kernel[1].nrows, blk.d.rank(), kernel[s].nrows), key
                    assert kernel[s + 1].nrows == kernel[s].nrows, key
                    assert sorted(c.nrows for c in blk.nilpotent().chains()) == \
                        oracle[key][1], key
    assert len(oracle) > 150 + 79 + 164 and short
    # sub, middle and quotient where the SES_REPRO circle run exits 1
    for x in (F(-3, 2), F(-5, 2), F(-7, 2)):
        mu = Weight([x, -1])
        assert [oracle["a2-ses-repro", i, mu] for i in range(3)] == \
            [({}, [2]), ({}, [2, 4]), ({0: (1, 0), 1: (0, 1)}, [1, 3])], mu


def test_circle_rejects_the_repro_lifts_at_three_weights(monkeypatch):
    """`exact_circle` on `SES_REPRO` finds N^{l-1} u inside the level's image
    for a lifted preimage u, and raises, at exactly (-3/2, -1), (-5/2, -1)
    and (-7/2, -1); it certifies the other 25 block weights."""
    from odirac import scenarios
    from odirac.scenarios import Scenario, Workspace

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    ws = Workspace(Scenario(SES_REPRO))
    rejected, certified = set(), []
    for mu in ws.block_weights():
        try:
            certified.append(exact_circle(ws.sm, ws.ses, mu))
        except LiftFailure as e:
            assert str(e) == "lifted preimage is not a Jordan top", mu
            rejected.add(mu)
    assert rejected == {Weight([x, -1]) for x in (F(-3, 2), F(-5, 2), F(-7, 2))}
    assert len(certified) == 25 and all(cert.exact for cert in certified)


# (delta_h row, lambda, sub weight w): the block weights mu where `exact_circle`
# rejects the A2 sequence 0 -> M(w) -> M(lambda) -> quotient, at depth 8 with
# depth_below_top 6.  Weights are in simple-root coordinates.
_MU_1 = [(-1, F(-7, 2)), (-1, F(-5, 2)), (-1, F(-3, 2))]
_MU_2 = [(F(-7, 2), -1), (F(-5, 2), -1), (F(-3, 2), -1)]
_MU_3 = [(F(-5, 2), -3)]
CIRCLE_SWEEP_FAILURES = {
    ((0, 1), (0, 0), (-2, -2)): _MU_1, ((0, 1), (0, 0), (-2, -1)): _MU_1,
    ((0, 1), (0, 0), (-1, -2)): _MU_1, ((0, 1), (0, 0), (-1, 0)): _MU_1,
    ((1, 0), (0, 0), (-2, -2)): _MU_2, ((1, 0), (0, 0), (-2, -1)): _MU_2,
    ((1, 0), (0, 0), (-1, -2)): _MU_2, ((1, 0), (0, 0), (0, -1)): _MU_2,
    ((1, 0), (-1, 0), (-2, -2)): _MU_2 + [(F(-9, 2), -1)],
    ((1, 0), (-1, 0), (-2, -1)): _MU_2 + [(F(-9, 2), -1)],
    ((1, 0), (-1, 0), (-1, -2)): _MU_2 + [(F(-9, 2), -1)],
    ((1, 0), (-2, 1), (-3, -4)): _MU_3, ((1, 0), (-2, 1), (-3, 0)): _MU_3,
    ((1, 0), (-2, 1), (-2, -4)): _MU_3,
}


def test_a2_circle_sweep_fails_only_on_levi_sequences(monkeypatch):
    """Every A2 sequence 0 -> M(w) -> M(lambda) -> quotient whose weight w != lambda
    of the depth-8 Verma window carries exactly one singular vector, for seven
    lambdas (20 pairs) and h in {t, [[1, 0]], [[0, 1]]} (60 sequences), with
    `exact_circle` at each block weight: no sequence with h = t fails, and 14
    of the 40 Levi sequences fail at exactly the 39 pinned weights, each with
    "lifted preimage is not a Jordan top" and stable index >= 3 on the middle
    block (4 at the least)."""
    from odirac import scenarios
    from odirac.scenarios import Scenario, Workspace

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    pairs = []
    for lam in [(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1), (1, 1), (-2, 1)]:
        vw = Workspace(Scenario({"name": "a2-verma", "cartan_type": "A2", "module": {
            "kind": "verma", "lambda": list(lam), "depth": 8}})).module
        for c in cone_coords(2, 8):
            w = vw.top_weight - Weight(c)
            if any(c) and vw.materialized(w) and singular_vectors(vw, w).nrows == 1:
                pairs.append((lam, tuple(int(x) for x in w)))
    assert len(pairs) == 20
    failures, indices = set(), []
    for delta_h in ([], [[1, 0]], [[0, 1]]):
        for lam, w in pairs:
            ws = Workspace(Scenario({
                "name": "a2-circle-sweep", "cartan_type": "A2", "delta_h": delta_h,
                "module": {"kind": "ses", "lambda": list(lam), "sub_weight": list(w),
                           "depth": 8},
                "depth_below_top": 6, "tasks": ["circle"]}))
            for mu in ws.block_weights():
                try:
                    exact_circle(ws.sm, ws.ses, mu)
                except LiftFailure as e:
                    assert str(e) == "lifted preimage is not a Jordan top", (delta_h, lam, w, mu)
                    failures.add((tuple(delta_h[0]) if delta_h else (), lam, w, tuple(mu)))
                    indices.append(block(ws.sm, ws.ses.modules()[1], mu).stable_index())
    assert failures == {(*seq, mu) for seq, mus in CIRCLE_SWEEP_FAILURES.items() for mu in mus}
    assert len(failures) == 39 and min(indices) == 4


def test_splitting_and_nonvanishing_match_the_image_route(monkeypatch):
    """The two checks that read the rank profile, against the subspaces they
    read before.  `hodge_decomposition_check`'s splitting is stable index
    <= 1, which must equal ker D meet im D = 0 on every nonzero block of the
    rank-oracle documents and of scenarios/a2_hodge_unitary.json: the
    3-chains of the Jordan tensor give False.  `nonvanishing_check`'s
    not_in_image must equal the test on the basis of im D at the top block
    of every scenarios/*.json."""
    import glob
    import os

    from odirac import scenarios
    from odirac.scenarios import Scenario, Workspace

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # cold contexts
    scns = [Scenario(doc) for doc in _oracle_documents()]
    blocks = [blk for scn in scns + [_scenario_file("a2_hodge_unitary")]
              for blk in _nonzero_blocks(scn)]
    seen = set()
    for blk in blocks:
        split = blk.stable_index() <= 1
        assert split == (not subspace_intersect(blk.d.nullspace(), row_space(blk.d.T)).nrows), \
            blk.mu
        seen.add(split)
    assert seen == {True, False}
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "scenarios",
                                          "*.json")))
    for path in paths:
        ws = Workspace(scenarios.load_scenario(path))
        nv = nonvanishing_check(ws.sm, ws.module)
        blk = block(ws.sm, ws.module, nv["weight"])
        off = blk.space.slot[0][0]
        units = Mat.identity(blk.dim).take(rows=range(off, off + nv["top_dim"]))
        im = row_space(blk.d.T)
        assert nv["not_in_image"] == \
            (im.vstack(units).rank() == im.nrows + nv["top_dim"]), path
    assert len(paths) >= 14


def test_dimensions_build_no_quotient_subspace(monkeypatch):
    """On the cold blocks of scenarios/a3_kl_s1s3.json, `dirac_cohomology()`
    and `htop()` read every dimension off the rank profile: they call no
    `Mat.nullspace` (and `src` has no row space to reduce)."""
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    blocks = _nonzero_blocks(_scenario_file("a3_kl_s1s3"))
    calls = []
    nullspace = Mat.nullspace

    def counted(mat):
        calls.append(mat)
        return nullspace(mat)

    monkeypatch.setattr(Mat, "nullspace", counted)
    for blk in blocks:
        blk.dirac_cohomology()
        blk.htop()
    assert not calls
    assert sum(1 for blk in blocks if blk.htop()) >= 10
    # the counter sees the calls
    blk = next(b for b in blocks if b.htop())
    blk.gen0()
    assert calls
    assert not hasattr(Mat, "row_space")


def _nonzero_blocks(scn):
    """The nonzero blocks of every module of the Scenario scn at its block weights."""
    from odirac.scenarios import Workspace

    ws = Workspace(scn)
    modules = ws.ses.modules() if ws.ses else (ws.module,)
    blocks = (block(ws.sm, m, mu) for mu in ws.block_weights() for m in modules)
    return [blk for blk in blocks if blk.dim]


def test_chains_match_greedy_rank_choice():
    """On every nonzero block of the rank-oracle documents and of
    scenarios/a3_kl_s1s3.json and a2_levi_tensor_vogan.json (chains up to
    size 7), `chains()`, which tests tops on images, returns the chains that
    `greedy_chains` picks one rank at a time against the floor: the same
    Mats, tops and full chains, in order.  Fed back as seeds in reverse order, one level's tops
    come out first at that level, and the rest still match."""
    from odirac.scenarios import Scenario

    blocks = _nonzero_blocks(_scenario_file("a3_kl_s1s3"))
    blocks += _nonzero_blocks(_scenario_file("a2_levi_tensor_vogan"))
    for doc in _oracle_documents():
        blocks += _nonzero_blocks(Scenario(doc))
    seeded = 0
    for blk in blocks:
        nil = blk.nilpotent()
        chains = nil.chains()
        assert chains == greedy_chains(nil), blk.mu
        if not chains:
            continue
        size = chains[0].nrows
        seeds = [(c.take(rows=[0]), size) for c in reversed(chains) if c.nrows == size]
        got = nil.chains(seeds)
        assert got == greedy_chains(nil, seeds), blk.mu
        assert [c.take(rows=[0]) for c in got[:len(seeds)]] == [v for v, _ in seeds]
        assert nil.chains() is chains  # a seeded call leaves the memo alone
        seeded += len(seeds) > 1
    assert len(blocks) > 150 and seeded


def _unit(dim, *coords):
    """The one-row Mat with 1 at each of coords."""
    return Mat([[F(int(i in coords)) for i in range(dim)]])


def test_seed_of_the_wrong_length_raises():
    # chains e0 -> e1 and e2; e2 dies after one step
    nil = graded_nilpotent([2, 1])
    with pytest.raises(LiftFailure, match="chain length != 2"):
        nil.chains([(_unit(3, 2), 2)])


def test_dependent_seed_raises():
    # the floor at level 1 is N ker N^2 = span(e1)
    nil = graded_nilpotent([2, 1, 1])
    with pytest.raises(LiftFailure, match="not independent"):
        nil.chains([(_unit(4, 1), 1)])
    with pytest.raises(LiftFailure, match="not independent"):
        nil.chains([(_unit(4, 2, 3), 1), (_unit(4, 1, 2, 3), 1)])


def test_valid_seed_comes_first_at_its_level():
    nil = graded_nilpotent([2, 1, 1])
    seed = _unit(4, 2, 3)
    chains = nil.chains([(seed, 1)])
    assert chains == [_unit(4, 0).vstack(_unit(4, 1)), seed, _unit(4, 2)]
    assert nil.chains() == [_unit(4, 0).vstack(_unit(4, 1)), _unit(4, 2), _unit(4, 3)]


def test_chains_rank_once_per_nonzero_generalized_kernel(monkeypatch):
    """On scenarios/a3_kl_s1s3.json, the Jordan chains of every block take one
    `Mat.rank` per block with a nonzero generalized kernel, the final
    independence check: the tops of a level come from one reduction."""
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    nils = [blk.nilpotent() for blk in _nonzero_blocks(_scenario_file("a3_kl_s1s3"))]
    calls = []
    rank = Mat.rank

    def counted(mat):
        calls.append(mat)
        return rank(mat)

    monkeypatch.setattr(Mat, "rank", counted)
    for nil in nils:
        nil.chains()
    assert len(calls) == sum(1 for nil in nils if nil.dim) == 10


def test_chains_reduce_no_identity(monkeypatch):
    """On scenarios/a3_kl_s1s3.json, no `Mat.rref` made while `chains()`
    finds the Jordan chains of a block is of an identity: the nilpotency
    index is searched from N^1, since N^0 = I has no kernel."""
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    nils = [blk.nilpotent() for blk in _nonzero_blocks(_scenario_file("a3_kl_s1s3"))]
    identities = []
    rref = Mat.rref

    def recorded(mat):
        identities.append(mat == Mat.identity(mat.nrows))
        return rref(mat)

    monkeypatch.setattr(Mat, "rref", recorded)
    for nil in nils:
        nil.chains()
    assert len(identities) >= sum(1 for nil in nils if nil.dim) > 0
    assert not any(identities)


def test_block_layer_constructs_no_coerced_matrix(monkeypatch):
    """After set-up, the block layer stays in int `Mat`s: on cold contexts,
    building the blocks of the C3 probe and of the split circle, their H_D,
    H_top, Jordan chains, singular classes and exact circles never calls the
    coercing `Mat.__init__`, and every basis these calls pass on is a Mat."""
    import os

    from odirac import scenarios
    from odirac.scenarios import Workspace, load_scenario

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # cold contexts
    here = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    workspaces = [Workspace(load_scenario(os.path.join(here, name + ".json")))
                  for name in ("c3_spin_probe", "a2_circle_split")]
    coerced = []
    init = Mat.__init__

    def counted(self, rows, ncols=None):
        coerced.append(ncols)
        init(self, rows, ncols)

    monkeypatch.setattr(Mat, "__init__", counted)
    bases = []
    for ws in workspaces:
        weights = ws.block_weights()
        modules = ws.ses.modules() if ws.ses else (ws.module,)
        for m in modules:
            for mu in weights:
                blk = block(ws.sm, m, mu)
                if not blk.dim:
                    continue
                blk.dirac_cohomology()
                blk.higher_cohomology()
                nil = blk.nilpotent()
                bases += [blk.d_power(1).nullspace(), row_space(blk.d.T),
                          htop_denominator(blk, 0), blk.gen0()[0], graded_kernel(nil, 1, +1),
                          nil.power(1).T, *nil.chains()]
            singular_cohomology_weights(ws.sm, m, weights)
        if ws.ses:
            for mu in weights:
                cert = exact_circle(ws.sm, ws.ses, mu)
                assert cert.exact
                bases += [t[key] for t in cert.triples for key in ("top2", "top3")
                          if t[key] is not None]
    assert not coerced
    assert len(bases) > 100 and all(isinstance(b, Mat) for b in bases)
    Mat([[1]])
    assert coerced  # the counter sees the constructor
