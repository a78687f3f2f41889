"""Hermitian pairs, unitarity, CE complexes and the Hodge comparison."""

from collections import Counter
from fractions import Fraction

import pytest

from odirac.exactla import Mat
from odirac.roots import Weight, build_root_system, killing_form_on_dual, zero_weight
from odirac.liealg import PairGH
from odirac.cato import cone_coords, simple_quotient_window, verma_window
from odirac.dirac import DiracBlock, block
from odirac.scenarios import pair_context as ctx
from odirac.hodge import (HermitianPair, NotHermitian, UnitaryStructure, _half_decomposes,
                          block_inner_gram, hodge_decomposition_check,
                          identification_check, theorem52_comparison,
                          unitarity_check)
from helpers import CEComplex, closed_subsystems, hermitian_grading, row_space, subspace_intersect

F = Fraction


def test_detect_hermitian(a1, a2_su21, a2_t):
    hp1 = HermitianPair(a1.pair)
    assert hp1.pair.q_positive == [a1.rs.simple_roots[0]]
    assert HermitianPair(a2_su21.pair).pair is a2_su21.pair
    with pytest.raises(NotHermitian) as err:
        HermitianPair(a2_t.pair)
    assert str(err.value) == "q is not abelian: (1, 1) has parabolic degree 2"


def test_grading_functional(a2_su21):
    hp = HermitianPair(a2_su21.pair)
    for a in a2_su21.pair.delta_h_pos:
        assert hp.q_degree(a) == 0
    for b in a2_su21.pair.q_positive:
        assert hp.q_degree(b) == 1


# (type, closed subsystems, Hermitian pairs): the Hermitian pairs are h = g
# and the Levi subalgebras whose nilradical is abelian
@pytest.mark.parametrize("cartan_type, closed, hermitian_pairs", [
    ("A1", 2, 2), ("A2", 5, 3), ("B2", 7, 2), ("G2", 12, 1), ("A1xA1", 4, 4),
    ("A3", 15, 4), ("B3", 31, 2), ("C3", 31, 2), ("A4", 52, 5), ("D4", 75, 4)])
def test_hermitian_pair_matches_its_definition(cartan_type, closed, hermitian_pairs):
    """On every closed subsystem, HermitianPair accepts exactly the pairs with
    abelian q+, [q, q] in h and a grading that is 0 on Delta_h+ and 1 on q+,
    and q_degree is that grading on every root."""
    rs = build_root_system(cartan_type)
    form = killing_form_on_dual(rs)
    subsystems = list(closed_subsystems(rs))
    assert len(subsystems) == closed
    hermitian = 0
    for sub in subsystems:
        pair = PairGH(rs, form, sub)
        phi = hermitian_grading(pair)
        try:
            hp = HermitianPair(pair)
        except NotHermitian:
            assert phi is None, sub
            continue
        assert phi is not None, sub
        assert all(hp.q_degree(a) == sum(p * c for p, c in zip(phi, a)) for a in rs.all_roots)
        hermitian += 1
    assert hermitian == hermitian_pairs


def test_unitarity_positive_and_negative(a1):
    pair, cb = a1.pair, a1.cb
    hp = HermitianPair(pair)
    alpha = pair.rs.simple_roots[0]
    lam = -pair.rho
    vw = verma_window(pair, cb, lam, 10)
    ws = [lam - alpha * k for k in range(9)]
    rep = unitarity_check(hp, vw, ws)
    assert rep["unitary"]
    # trivial module gram is just (1)
    vw0 = verma_window(pair, cb, zero_weight(1), 4)
    us0 = UnitaryStructure(hp, vw0)
    assert us0.gram(zero_weight(1)) == Mat([[1]])
    # deliberately non-unitary: lam(h) = 1
    lam_bad = Weight([F(1, 2)])
    vw_bad = verma_window(pair, cb, lam_bad, 8)
    rep_bad = unitarity_check(hp, vw_bad, [lam_bad - alpha * k for k in range(5)])
    assert not rep_bad["unitary"]
    assert rep_bad["per_weight"][lam_bad] is True
    assert not all(rep_bad["per_weight"].values())


def test_ce_complex_sl2(a1):
    """0 -> M -> M -> 0 with d the raising action: cohomology at string ends."""
    pair, cb, sm = a1.pair, a1.cb, a1.sm
    hp = HermitianPair(pair)
    alpha = pair.rs.simple_roots[0]
    lam = Weight([1])  # lam(h) = 2, dominant integral: cokernel appears
    vw = verma_window(pair, cb, lam, 10)
    coh = {}
    for k in range(8):
        nu = lam - alpha * k
        ce = CEComplex(sm, vw, nu)
        d = ce.differential()
        assert (d @ d).is_zero()
        b = ce.boundary()
        assert (b @ b).is_zero()
        for deg, dim in ce.cohomology_dims().items():
            coh[(k, deg)] = dim
    # sl2 oracle: e f^k v = k(lam(h)-k+1) f^{k-1} v vanishes exactly at k = 3,
    # so the kernel has lines at k = 0 and k = 3 and the cokernel one line at
    # module weight lam - 2 alpha, which sits on the k = 3 slice in degree 1
    assert coh == {(0, 0): 1, (3, 0): 1, (3, 1): 1}


def test_ce_degree_zero_boundary(a1):
    pair, sm = a1.pair, a1.sm
    hp = HermitianPair(pair)
    vw = verma_window(pair, a1.cb, -pair.rho, 8)
    ce = CEComplex(sm, vw, -pair.rho - pair.rs.simple_roots[0])
    b = ce.boundary()
    # the boundary out of degree zero vanishes
    deg0 = ce.degree_indices(0)
    for j in deg0:
        assert all(b.rows[i][j] == 0 for i in range(b.nrows))


def test_identification(a1, a2_su21):
    for c, lam, depth in [(a1, -a1.pair.rho, 10),
                          (a2_su21, -a2_su21.pair.rho, 12)]:
        pair, cb, sm = c.pair, c.cb, c.sm
        vw = verma_window(pair, cb, lam, depth)
        mu_top = lam + pair.rho - pair.rho_h
        for cc in cone_coords(pair.rank, 4):
            mu = mu_top - Weight(cc)
            rep = identification_check(block(sm, vw, mu))
            assert rep["ok"], (c.rs.cartan_type, mu, rep)


def reference_ce_operator(m, q_pos, nu, raising):
    """The CE differential d (raising) or boundary del at nu, from the definition.

    A chain v (x) f_I has I a sorted tuple of q+ positions and v in M at
    nu + sum of beta_i over I.  d(v (x) f_I) = sum over b not in I of
    e_b v (x) f_b ^ f_I, and del(v (x) f_I) = sum over b in I of
    f_b v (x) contract(e_b) f_I.  Moving f_b to or from the front of f_I
    passes the factors of I below b, so the sign is (-1)^#{i in I : i < b}.
    Returns the chains {I: module weight} and the tiles {(J, I): module map}.
    """
    from itertools import combinations

    chains = {}
    for k in range(len(q_pos) + 1):
        for wedge in combinations(range(len(q_pos)), k):
            w = nu
            for i in wedge:
                w = w + q_pos[i]
            if m.dim(w):
                chains[wedge] = w
    tiles = {}
    for wedge, w in chains.items():
        for b, beta in enumerate(q_pos):
            if (b in wedge) == raising:
                continue
            tgt = tuple(sorted(wedge + (b,))) if raising else tuple(i for i in wedge if i != b)
            if tgt in chains:
                sign = (-1) ** sum(i < b for i in wedge)
                tiles[tgt, wedge] = m.action(("e" if raising else "f", beta), w).scale(sign)
    return chains, tiles


@pytest.mark.parametrize("label, delta_h, lam, depth, slices", [
    ("A1", [], [F(-1, 2)], 10, 4),
    ("A2", [(1, 0)], [-1, -1], 12, 10),
    ("A3", [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [-1, -2, -3], 6, 20),
])
def test_ce_operators_match_definition(label, delta_h, lam, depth, slices):
    """C+ and C- of the block equal d and del built from the definition, entry for entry.

    The reference's chains are aligned with the block's slots by mask; every
    CE weight within 3 of the Verma top is compared.
    """
    c = ctx(label, delta_h)
    hp = HermitianPair(c.pair)
    vw = c.verma(Weight(lam), depth)
    seen = nonzero = 0
    for cc in cone_coords(c.pair.rank, 3):
        nu = vw.top_weight - Weight(cc)
        ce = CEComplex(c.sm, vw, nu)
        sp = ce.space
        for op, raising in ((ce.differential(), True), (ce.boundary(), False)):
            chains, tiles = reference_ce_operator(vw, c.sm.q_pos, nu, raising)
            mask = {wedge: sum(1 << i for i in wedge) for wedge in chains}
            assert {mask[I]: (w, vw.dim(w)) for I, w in chains.items()} == \
                {key: (w, d) for key, (_, w, d) in sp.slot.items()}
            rows = [[F(0)] * sp.dim for _ in range(sp.dim)]
            for (J, I), tile in tiles.items():
                r0, c0 = sp.slot[mask[J]][0], sp.slot[mask[I]][0]
                for r, row in enumerate(tile.rows):
                    rows[r0 + r][c0:c0 + len(row)] = row
            assert op == Mat(rows, sp.dim), (label, nu, raising)
            nonzero += not op.is_zero()
        seen += 1
    assert seen == slices and nonzero


def test_adjointness_negative_control(a1):
    """With the wrong inner product the half operators are not adjoint:
    C+^T G = -G C- holds for the block's G and fails for the identity."""
    pair, cb, sm = a1.pair, a1.cb, a1.sm
    lam = -pair.rho
    vw = verma_window(pair, cb, lam, 10)
    mu = lam + pair.rho - pair.rs.simple_roots[0]
    blk = DiracBlock(sm, vw, mu)
    g = block_inner_gram(UnitaryStructure(HermitianPair(pair), vw), blk)
    assert blk.d_plus.T @ g == -(g @ blk.d_minus)
    g_wrong = Mat.identity(blk.dim)
    assert blk.d_plus.T @ g_wrong != -(g_wrong @ blk.d_minus)


def test_hodge_decomposition_and_theorem(a1):
    pair, cb, sm = a1.pair, a1.cb, a1.sm
    hp = HermitianPair(pair)
    lam = -pair.rho
    vw = verma_window(pair, cb, lam, 10)
    us = UnitaryStructure(hp, vw)
    alpha = pair.rs.simple_roots[0]
    hits = 0
    for k in range(7):
        blk = block(sm, vw, lam + pair.rho - alpha * k)
        rep = hodge_decomposition_check(blk, us)
        assert rep["ok"], (k, rep)
        cmp = theorem52_comparison(blk)
        assert cmp["ok"]
        hits += 1 if cmp["hd"] else 0
    assert hits >= 1


def subspace_half_decomposes(c, d):
    """ker C = im C (+) ker D as a statement on canonical bases: C kills im C
    and ker D, im C meets ker D in 0, and dim ker C = dim im C + dim ker D."""
    imc, ker_d = row_space(c.T), d.nullspace()
    return (imc @ c.T).is_zero() and (ker_d @ c.T).is_zero() and \
        not subspace_intersect(imc, ker_d).nrows and \
        c.ncols - imc.nrows == imc.nrows + ker_d.nrows


# (C, D) pairs: one passing, then each rank condition of `_half_decomposes`
# failing while the other three hold
_HALVES = [
    ("decomposes", [[0, 1], [0, 0]], [[0, 1], [1, 0]]),
    ("C^2 != 0", [[1, 0], [0, 0]], [[1, 0], [0, 1]]),
    ("ker D not in ker C", [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
    ("im C meets ker D", [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
     [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]),
    ("rank D != 2 rank C", [[0]], [[1]]),
]


@pytest.mark.parametrize("label, c, d", _HALVES, ids=[h[0] for h in _HALVES])
def test_half_decomposes_rank_conditions(label, c, d):
    c, d = Mat(c), Mat(d)
    rank_c, rank_d = c.rank(), d.rank()
    conditions = {"C^2 != 0": (c @ c).is_zero(),
                  "ker D not in ker C": d.vstack(c).rank() == rank_d,
                  "im C meets ker D": (d @ c).rank() == rank_c,
                  "rank D != 2 rank C": rank_d == 2 * rank_c}
    assert [name for name, held in conditions.items() if not held] == \
        ([] if label == "decomposes" else [label])
    want = label == "decomposes"
    assert _half_decomposes(c, rank_c, d, rank_d) is want
    assert subspace_half_decomposes(c, d) is want


def _cold_hodge_blocks(monkeypatch, path):
    """The nonzero blocks of a cold run of the hodge scenario at `path`."""
    import os
    from odirac import scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    scn = scenarios.load_scenario(os.path.join(os.path.dirname(__file__), "..", path))
    assert scenarios.run_scenario(scn)["ok"]
    blocks = [blk for m in scn.ctx._modules.values() for blk in m.blocks.values() if blk.dim]
    assert len(blocks) > 10
    return blocks


HODGE_RUNS = ["perfbench/workloads/a3_hodge.json", "scenarios/a2_hodge_unitary.json"]


@pytest.mark.parametrize("path, empty", zip(HODGE_RUNS, (61, 9)))
def test_hodge_task_checks_no_empty_weight(monkeypatch, path, empty):
    """A cold hodge run gives each empty block weight its record (every check
    true, every total 0) without calling a check on it or assembling C+ or
    C-; the nonempty weights are all checked."""
    import os
    from odirac import hodge, scenarios
    from odirac.scenarios import wkey

    checked = []
    for name in ("identification_check", "hodge_decomposition_check",
                 "theorem52_comparison"):
        def counted(blk, *args, check=getattr(hodge, name)):
            checked.append(blk)
            return check(blk, *args)

        monkeypatch.setattr(hodge, name, counted)
    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    scn = scenarios.load_scenario(os.path.join(os.path.dirname(__file__), "..", path))
    bundle = scenarios.run_scenario(scn)
    assert bundle["ok"]
    records = bundle["tasks"]["hodge"]["per_weight"]
    blocks = [blk for m in scn.ctx._modules.values() for blk in m.blocks.values()]
    hollow = [blk for blk in blocks if not blk.dim]
    assert len(hollow) == empty and len(blocks) == len(records)
    for blk in hollow:
        assert "d_plus" not in blk.__dict__ and "d_minus" not in blk.__dict__, blk.mu
        assert records[wkey(blk.mu)] == {
            "identification": True, "adjoint": True, "splitting": True,
            "cplus_decomposition": True, "hd": 0, "ce_cohomology": 0, "ce_homology": 0,
            "comparison": True}
    assert sorted(id(blk) for blk in checked) == \
        sorted(id(blk) for blk in blocks if blk.dim for _ in range(3))


@pytest.mark.parametrize("path", HODGE_RUNS)
def test_half_decomposes_matches_subspace_statement(monkeypatch, path):
    """After a cold hodge run, on every nonzero block it built, the rank tests
    of C+ and C- agree with the subspace statement."""
    for blk in _cold_hodge_blocks(monkeypatch, path):
        for c in (blk.d_plus, blk.d_minus):
            assert _half_decomposes(c, c.rank(), blk.d, blk.d.rank()) == \
                subspace_half_decomposes(c, blk.d), blk.mu


@pytest.mark.parametrize("path", HODGE_RUNS)
def test_ce_totals_from_two_ranks(monkeypatch, path):
    """On every nonzero block of a cold hodge run, dim - 2 rank C+ and
    dim - 2 rank C- are the totals of the degree-graded CE cohomology and
    homology of the slice, and `theorem52_comparison` reports them."""
    for blk in _cold_hodge_blocks(monkeypatch, path):
        ce = CEComplex(blk.sm, blk.m, blk.mu - (blk.pair.rho - blk.pair.rho_h))
        assert ce.block is blk
        coh, hom = sum(ce.cohomology_dims().values()), sum(ce.homology_dims().values())
        assert (blk.dim - 2 * blk.d_plus.rank(), blk.dim - 2 * blk.d_minus.rank()) == \
            (coh, hom), blk.mu
        cmp = theorem52_comparison(blk)
        assert (cmp["ce_cohomology"], cmp["ce_homology"]) == (coh, hom), blk.mu


@pytest.mark.parametrize("path", HODGE_RUNS)
def test_half_ranks_read_once(monkeypatch, path):
    """A cold hodge run ranks each C+ and C- it builds at most once: the
    decomposition check and the CE comparison share `DiracBlock.half_ranks`."""
    ranked = []  # the ranked matrices themselves, so no id is reused
    rank = Mat.rank

    def counted(self):
        ranked.append(self)
        return rank(self)

    monkeypatch.setattr(Mat, "rank", counted)
    blocks = _cold_hodge_blocks(monkeypatch, path)
    calls = Counter(map(id, ranked))
    halves = [blk.__dict__[h] for blk in blocks for h in ("d_plus", "d_minus")
              if h in blk.__dict__]
    assert len(halves) == 2 * len(blocks)
    assert all(calls[id(c)] <= 1 for c in halves)
    assert sum(calls[id(c)] for c in halves) == len(halves)


@pytest.mark.parametrize("path", HODGE_RUNS)
def test_adjointness_without_inverse_matches_conjugation(monkeypatch, path):
    """C+^T G = -G C- and C-^T G = -G C+ agree with G^-1 C+^T G = -C- and
    G^-1 C-^T G = -C+: for the block's Gram both hold, and for the wrong
    inner products I and G + I both fail on some block.  Every block Gram
    is symmetric, and on the symmetric inner products G, I and G + I the
    check's form, symmetry and C+^T G = -G C- alone, gives the same
    verdict; an asymmetric inner product fails it."""
    from odirac import hodge

    wrong_fails = asymmetric = 0
    for blk in _cold_hodge_blocks(monkeypatch, path):
        us = UnitaryStructure(HermitianPair(blk.pair), blk.m)
        g = block_inner_gram(us, blk)
        assert g == g.T, blk.mu
        one = Mat.identity(blk.dim)
        for inner in (g, one, g + one):
            ginv = inner.inv()
            old = (ginv @ blk.d_plus.T @ inner == -blk.d_minus) and \
                (ginv @ blk.d_minus.T @ inner == -blk.d_plus)
            two_pairs = (blk.d_plus.T @ inner == -(inner @ blk.d_minus)) and \
                (blk.d_minus.T @ inner == -(inner @ blk.d_plus))
            one_pair = inner == inner.T and blk.d_plus.T @ inner == -(inner @ blk.d_minus)
            assert old == two_pairs == one_pair, blk.mu
            assert one_pair or inner is not g, blk.mu
            wrong_fails += not one_pair
        assert hodge_decomposition_check(blk, us)["adjoint"]
        if blk.dim > 1:  # G plus the strictly upper-triangular unit E_01
            unit = Mat([[int((i, j) == (0, 1)) for j in range(blk.dim)]
                        for i in range(blk.dim)])
            with monkeypatch.context() as mp:
                mp.setattr(hodge, "block_inner_gram", lambda us, blk: g + unit)
                assert not hodge_decomposition_check(blk, us)["adjoint"], blk.mu
            asymmetric += 1
    assert wrong_fails and asymmetric


def test_hodge_su21_simple_quotient(a2_su21):
    pair, cb, sm = a2_su21.pair, a2_su21.cb, a2_su21.sm
    hp = HermitianPair(pair)
    lam = Weight([F(-1, 2), F(-2)])  # fund coords (1, -7/2)
    quot = simple_quotient_window(pair, cb, lam, 12)
    ws = [quot.top_weight - Weight(c) for c in cone_coords(2, 8)]
    urep = unitarity_check(hp, quot, ws)
    assert urep["unitary"]
    us = urep["structure"]
    mu_top = lam + pair.rho - pair.rho_h
    nonzero = 0
    for c in cone_coords(2, 5):
        mu = mu_top - Weight(c)
        blk = block(sm, quot, mu)
        assert identification_check(blk)["ok"]
        assert hodge_decomposition_check(blk, us)["ok"]
        cmp = theorem52_comparison(blk)
        assert cmp["ok"]
        nonzero += 1 if cmp["hd"] else 0
    assert nonzero >= 1


def test_homology_cohomology_duality(a2_su21):
    """Per weight slice, total homology and cohomology dims agree."""
    pair, sm = a2_su21.pair, a2_su21.sm
    hp = HermitianPair(pair)
    lam = -pair.rho
    vw = verma_window(pair, a2_su21.cb, lam, 12)
    for c in cone_coords(2, 4):
        nu = lam - Weight(c)
        ce = CEComplex(sm, vw, nu)
        assert sum(ce.cohomology_dims().values()) == sum(ce.homology_dims().values())


def reference_det(rows):
    """Determinant by Gaussian elimination over Fraction, with row exchanges."""
    n = len(rows)
    rows = [list(r) for r in rows]
    det = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            if f:
                for j in range(c, n):
                    rows[r][j] -= f * rows[c][j]
    return det


def reference_positive_definite(g):
    """Sylvester's criterion with one determinant per leading minor."""
    return all(reference_det([row[:k] for row in g.rows[:k]]) > 0
               for k in range(1, g.nrows + 1))


def test_sylvester_from_one_elimination():
    """positive_definite against a determinant per leading minor, on random
    symmetric rational matrices: definite, singular semidefinite, indefinite."""
    import random
    from types import SimpleNamespace

    rng = random.Random(20221018)

    def entry():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    def gram_of(vectors, n):  # B^T B, semidefinite of rank <= len(vectors)
        return Mat([[sum((v[i] * v[j] for v in vectors), F(0)) for j in range(n)]
                    for i in range(n)], n)

    counts = {True: 0, False: 0}
    for trial in range(3000):
        n = rng.randint(1, 5)
        kind = trial % 3
        if kind == 0:  # definite unless the random vectors are dependent
            g = gram_of([[entry() for _ in range(n)] for _ in range(n)], n)
        elif kind == 1:  # singular: fewer vectors than the dimension
            g = gram_of([[entry() for _ in range(n)] for _ in range(rng.randint(0, n - 1))], n)
        else:  # symmetric with random entries: mostly indefinite
            upper = [[entry() for _ in range(n)] for _ in range(n)]
            g = Mat([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)], n)
        want = reference_positive_definite(g)
        got = UnitaryStructure.positive_definite(SimpleNamespace(gram=lambda w: g), None)
        assert got == want, g.rows
        counts[want] += 1
    assert counts[True] > 800 and counts[False] > 1500
    assert UnitaryStructure.positive_definite(SimpleNamespace(gram=lambda w: Mat([], 0)), None)


def test_hermitian_pair_built_once_per_scenario(monkeypatch):
    """Loading and running a3_hodge builds its HermitianPair once: the
    scenario validates the pair and the hodge task reads the same one."""
    import os
    from odirac import hodge, scenarios

    built = []

    class Counted(hodge.HermitianPair):
        def __init__(self, pair):
            built.append(pair)
            super().__init__(pair)

    monkeypatch.setattr(hodge, "HermitianPair", Counted)
    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads",
                        "a3_hodge.json")
    scn = scenarios.load_scenario(path)
    assert scenarios.run_scenario(scn)["ok"]
    assert len(built) == 1


def test_hodge_and_simple_verma_build_no_nilpotent(monkeypatch):
    """H_D, H_top and their cross-checks there are read off the Dirac block."""
    import json
    import os
    from odirac import scenarios
    from odirac.dirac import GradedNilpotent

    built = []
    init = GradedNilpotent.__init__

    def counted(self, n_mat, parity):
        built.append(self)
        init(self, n_mat, parity)

    monkeypatch.setattr(GradedNilpotent, "__init__", counted)
    here = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    for name, task in (("a2_hodge_unitary.json", "hodge"),
                       ("sl3_paper_example.json", "simple_verma")):
        monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
        with open(os.path.join(here, name)) as fh:
            doc = json.load(fh)
        doc["tasks"] = [task]
        assert scenarios.run_scenario(scenarios.Scenario(doc))["ok"], name
    assert not built


def test_hodge_task_fails_with_one_failing_cminus(monkeypatch):
    """The hodge task reads each check's own verdict, C- included.

    The bundle records no C- field, so one weight whose C- decomposition
    fails leaves every recorded field true and must still fail the task.
    """
    import json
    import os
    from odirac import hodge, scenarios

    check = hodge.hodge_decomposition_check
    broken = []

    def cminus_fails_once(blk, us):
        rep = check(blk, us)
        if not broken:
            broken.append(blk.mu)
            rep = dict(rep, cminus=False, ok=False)
        return rep

    monkeypatch.setattr(hodge, "hodge_decomposition_check", cminus_fails_once)
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "a2_hodge_unitary.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["tasks"] = ["hodge"]
    bundle = scenarios.run_scenario(scenarios.Scenario(doc))
    task = bundle["tasks"]["hodge"]
    assert broken and not task["ok"] and not bundle["ok"]
    assert all(v is True for rec in task["per_weight"].values() for v in rec.values()
               if isinstance(v, bool))
