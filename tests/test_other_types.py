"""End-to-end probes on the types outside the main acceptance scenarios."""

from fractions import Fraction

from odirac.roots import Weight
from odirac.cato import cone_coords, finite_dim_simple, verma_window
from odirac.dirac import (DiracBlock, check_square, kostant_kernel_check,
                          nonvanishing_check, simple_verma_theorem_check)
from odirac.hodge import HermitianPair, identification_check
from conftest import ctx
from helpers import q_brackets_into_h, total_dim, weight_from_fundamental

F = Fraction


def test_b2_short_root_pair_is_hermitian():
    c = ctx("B2", [(0, 1)])
    assert q_brackets_into_h(c.pair)
    assert len(c.pair.weyl.coset_W1) == 4
    hp = HermitianPair(c.pair)
    assert all(hp.q_degree(b) == 1 for b in c.pair.q_positive)
    lam = -c.pair.rho
    vw = verma_window(c.pair, c.cb, lam, 10)
    rep = simple_verma_theorem_check(c.sm, vw, c.block_weights(vw, 4))
    assert rep["antidominant"] and rep["target_antidominant"] and rep["match"]
    mu_top = lam + c.pair.rho - c.pair.rho_h
    for cc in cone_coords(2, 2):
        mu = mu_top - Weight(cc)
        blk = DiracBlock(c.sm, vw, mu)
        if blk.dim == 0:
            continue
        assert check_square(blk)["matrix_identity"]
        assert identification_check(blk)["ok"]


def test_b2_kostant():
    c = ctx("B2", [(0, 1)])
    f = finite_dim_simple(c.pair, c.cb, weight_from_fundamental(c.rs, (1, 0)))
    assert total_dim(f) == 5
    rep = kostant_kernel_check(c.sm, f)
    assert rep["match"] and len(rep["constituents"]) == 4
    assert nonvanishing_check(c.sm, f)["ok"]


def test_g2_trivial_module_kernel_is_weyl_orbit():
    c = ctx("G2")
    assert not c.sm.cubic.is_zero()
    f = finite_dim_simple(c.pair, c.cb, Weight([0, 0]))
    rep = kostant_kernel_check(c.sm, f)
    assert rep["match"]
    assert sum(rep["kernel_character"].values()) == 12  # |W(G2)| lines
    assert set(rep["kernel_character"]) == c.pair.weyl.orbit(c.pair.rho)


def test_g2_long_root_pair_top_block():
    c = ctx("G2")
    long_root = max(c.rs.positive_roots, key=lambda r: c.form.pair(r, r))
    c2 = ctx("G2", [tuple(long_root)])
    assert len(c2.pair.weyl.coset_W1) * len(c2.pair.weyl.subgroup_h) == 12
    vw = verma_window(c2.pair, c2.cb, -c2.pair.rho, 8)
    blk = DiracBlock(c2.sm, vw, -c2.pair.rho_h)
    assert blk.dim == 1 and blk.d.is_zero()
    assert nonvanishing_check(c2.sm, vw)["ok"]


def test_a1xa1_pair():
    c = ctx("A1xA1", [(1, 0)])
    vw = verma_window(c.pair, c.cb, -c.pair.rho, 8)
    assert simple_verma_theorem_check(c.sm, vw, c.block_weights(vw, 4))["match"]
    f = finite_dim_simple(c.pair, c.cb, Weight([F(1, 2), F(1, 2)]))
    assert kostant_kernel_check(c.sm, f)["match"]


def test_a3_rank_two_subsystem():
    c = ctx("A3", [(1, 0, 0), (0, 0, 1)])
    assert q_brackets_into_h(c.pair)
    assert len(c.pair.weyl.coset_W1) == 6
    f = finite_dim_simple(c.pair, c.cb, Weight([0, 0, 0]))
    assert kostant_kernel_check(c.sm, f)["match"]
    vw = verma_window(c.pair, c.cb, -c.pair.rho, 6)
    assert simple_verma_theorem_check(c.sm, vw, c.block_weights(vw, 2))["match"]


def test_g2_long_root_kostant_seven_dim():
    """Kernel decomposition on the 7-dim module over the long-root pair."""
    c = ctx("G2")
    long_root = max(c.rs.positive_roots, key=lambda r: c.form.pair(r, r))
    c2 = ctx("G2", [tuple(long_root)])
    lam = weight_from_fundamental(c2.rs, (1, 0))
    f = finite_dim_simple(c2.pair, c2.cb, lam)
    assert total_dim(f) == 7
    rep = kostant_kernel_check(c2.sm, f)
    assert rep["match"]
    assert len(rep["constituents"]) == len(c2.pair.weyl.coset_W1) == 6
