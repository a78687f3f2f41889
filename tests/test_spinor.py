"""Spin modules: Clifford relations, induced action, grading, cubic term."""

import random
from fractions import Fraction

import pytest

from odirac.exactla import Mat
from odirac.roots import Weight
from odirac.spinor import SpinModule, cubic_term_rebased, to_mat
from conftest import ctx, full_drop, parity_indices, spin_parity, spin_weight, spin_weights
from helpers import weight_to_eps

F = Fraction


def test_worked_example_basis(a2_su21):
    sm = a2_su21.sm
    rs = a2_su21.rs
    assert sm.dim == 4
    assert weight_to_eps(rs, sm.top_weight) == (F(1, 2), F(1, 2), F(-1))
    assert spin_weight(sm, sm.dim - 1) == -(a2_su21.pair.rho - a2_su21.pair.rho_h)
    assert parity_indices(sm, +1) == [0, 3]
    assert parity_indices(sm, -1) == [1, 2]


def test_vacuum_killed_by_contractions(a2_su21):
    sm = a2_su21.sm
    for beta in a2_su21.pair.q_positive:
        g = to_mat(sm.gamma_root(beta), sm.dim)
        assert all(g.rows[i][0] == 0 for i in range(sm.dim))


@pytest.mark.parametrize("fixture", ["a2_su21", "a2_t"])
def test_clifford_relation(fixture, request):
    c = request.getfixturevalue(fixture)
    sm, cb = c.sm, c.cb
    n = 2 * sm.nq
    gammas = [to_mat(sm.gamma_q(i), sm.dim) for i in range(n)]
    for i in range(n):
        gi = gammas[i]
        assert (gi @ gi).is_zero()  # isotropic squares
        for j in range(n):
            anti = gi @ gammas[j] + gammas[j] @ gi
            expect = cb.pairing(sm.q_basis[i], sm.q_basis[j])
            assert anti == Mat.identity(sm.dim).scale(expect)


def test_gamma_shifts_parity(a2_t):
    sm = a2_t.sm
    plus = parity_indices(sm, +1)
    for qi in range(2 * sm.nq):
        g = to_mat(sm.gamma_q(qi), sm.dim)
        for a in plus:
            for b in plus:
                assert g.rows[a][b] == 0


def test_cartan_action_is_spin_weight(a2_su21):
    sm, rs = a2_su21.sm, a2_su21.rs
    for i in range(rs.rank):
        hm = to_mat(sm.h_action(("h", i)), sm.dim)
        for a in range(sm.dim):
            for b in range(sm.dim):
                want = rs.pairing_with_simple_coroots(spin_weight(sm, a))[i] \
                    if a == b else 0
                assert hm.rows[a][b] == want


def test_h_equivariance_of_gamma(a2_su21):
    sm = a2_su21.sm
    n = 2 * sm.nq
    gammas = [to_mat(sm.gamma_q(qi), sm.dim) for qi in range(n)]
    for gen in a2_su21.pair.h_generators():
        hx = to_mat(sm.h_action(gen), sm.dim)
        t = sm.ad_on_q(gen)
        for qi in range(n):
            lhs = hx @ gammas[qi] - gammas[qi] @ hx
            rhs = Mat.zero(sm.dim, sm.dim)
            for k in range(n):
                if t.rows[k][qi]:
                    rhs = rhs + gammas[k].scale(t.rows[k][qi])
            assert lhs == rhs


def test_h_action_commutation_fidelity(a2_su21):
    sm, cb = a2_su21.sm, a2_su21.cb

    def act(idx):
        return to_mat(sm.h_action(cb.generators[idx]), sm.dim)

    gens = [cb.generator_index(g) for g in a2_su21.pair.h_generators()]
    for i1 in gens:
        for i2 in gens:
            lhs = act(i1) @ act(i2) - act(i2) @ act(i1)
            rhs = Mat.zero(sm.dim, sm.dim)
            for k, c in cb.bracket(i1, i2).items():
                rhs = rhs + act(k).scale(c)
            assert lhs == rhs


def test_cubic_symmetric_pairs_vanish(a1, a2_su21):
    assert a1.sm.cubic.is_zero()
    assert a2_su21.sm.cubic.is_zero()


def test_cubic_nonzero_toral(a2_t):
    sm = a2_t.sm
    cubic = to_mat(sm.cubic, sm.dim)
    assert not cubic.is_zero()
    assert all(cubic.rows[i][0] == 0 for i in range(sm.dim))  # kills the vacuum
    # h-invariance and parity oddness
    for i in range(a2_t.rs.rank):
        hm = to_mat(sm.h_action(("h", i)), sm.dim)
        assert (hm @ cubic - cubic @ hm).is_zero()
    plus = parity_indices(sm, +1)
    for a in plus:
        for b in plus:
            assert cubic.rows[a][b] == 0


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_cubic_basis_independence(label):
    c = ctx(label)  # h = t, nonzero cubic term
    sm = c.sm
    assert not sm.cubic.is_zero()
    n = 2 * sm.nq
    rng = random.Random(5)
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[F(0)] * n for _ in range(n)]
    for i, q in enumerate(perm):
        p[q][i] = F(rng.randint(1, 5), rng.randint(1, 3))
    p[perm[0]][1] += F(1, 2)
    p[perm[n - 1]][0] += F(3)
    rebased = cubic_term_rebased(sm, Mat(p, n))
    assert rebased == to_mat(sm.cubic, sm.dim)


def test_spin_character_and_split(a2_su21, a2_t):
    for c in (a2_su21, a2_t):
        sm = c.sm
        assert len(parity_indices(sm, +1)) == len(parity_indices(sm, -1)) \
            == sm.dim // 2
        # the character as the engine lists it: the basis vectors of each drop
        ch = {sm.top_weight - Weight(d): len(masks)
              for d, masks in sm.drops_within(full_drop(sm)).items()}
        assert sum(ch.values()) == sm.dim
        # character equals the exterior-algebra character shifted by rho - rho_h
        shift = c.pair.rho - c.pair.rho_h
        wedge = {}
        for mask in range(sm.dim):
            w = -shift + spin_weight(sm, mask)  # = -sum of chosen roots
            wedge[w] = wedge.get(w, 0) + 1
        assert ch == {w + shift: d for w, d in wedge.items()}
    sm = a2_su21.sm
    plus, minus = {}, {}
    for d, masks in sm.drops_within(full_drop(sm)).items():
        for mask in masks:
            part = minus if spin_parity(mask) else plus
            w = sm.top_weight - Weight(d)
            part[w] = part.get(w, 0) + 1
    assert sum(plus.values()) == 2 and sum(minus.values()) == 2


def test_permuted_enumeration(a2_t):
    sm2 = SpinModule(a2_t.pair, a2_t.cb, q_order=list(reversed(a2_t.pair.q_positive)))
    assert sorted(spin_weights(sm2)) == sorted(spin_weights(a2_t.sm))
    assert not sm2.cubic.is_zero()
    with pytest.raises(ValueError):
        SpinModule(a2_t.pair, a2_t.cb, q_order=a2_t.pair.q_positive[:-1])
