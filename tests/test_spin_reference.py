"""The spin layer against a test-side copy of the former dense construction.

The reference builds every gamma as a dense matrix by wedge and
contraction, the cubic term and the h-action from dense matrix
products, and a Dirac block by placing dense tiles.  Each must equal
the engine's spin operator (through `to_mat`) entry for entry.
"""

import random
from fractions import Fraction

import pytest

from odirac.dirac import block
from odirac.exactla import Mat
from odirac.roots import Weight
from odirac.scenarios import pair_context
from odirac.spinor import SpinModule, to_mat
from conftest import spin_weight

F = Fraction

# label -> (Cartan type, delta_h, shuffle seed of the q-root order or None)
PAIRS = {
    "A2, h = t": ("A2", [], None),
    "G2, h = t": ("G2", [], None),
    "A3, one root": ("A3", [(1, 0, 0)], None),
    "B3, two roots": ("B3", [(1, 0, 0), (0, 0, 1)], None),
    "B3, two roots, permuted q": ("B3", [(1, 0, 0), (0, 0, 1)], 3),
}


def _place(rows, ro, co, mat, coeff=1):
    for i, mrow in enumerate(mat.rows):
        row = rows[ro + i]
        for j, v in enumerate(mrow):
            if v:
                row[co + j] += coeff * v


def _zeros(n):
    return [[F(0)] * n for _ in range(n)]


def _bits_below(mask, j):
    return sum(1 for i in range(j) if mask >> i & 1)


def _wedge_or_contract(sm, qi):
    rows = _zeros(sm.dim)
    if qi >= sm.nq:  # wedge by f_{beta_j}
        j = qi - sm.nq
        for mask in range(sm.dim):
            if not mask >> j & 1:
                rows[mask | (1 << j)][mask] = F(-1 if _bits_below(mask, j) & 1 else 1)
    else:  # contraction by e_{beta_j}; <e_beta, f_beta> = 1
        j = qi
        for mask in range(sm.dim):
            if mask >> j & 1:
                rows[mask & ~(1 << j)][mask] = F(-1 if _bits_below(mask, j) & 1 else 1)
    return Mat(rows, sm.dim)


class DenseSpin:
    """Dense gammas, cubic term and h-action of a spin module."""

    def __init__(self, sm):
        self.sm = sm
        self.gammas = [_wedge_or_contract(sm, qi) for qi in range(2 * sm.nq)]
        self.cubic = self._cubic()

    def gamma_root(self, root):
        sm = self.sm
        if all(c >= 0 for c in root):
            return self.gammas[sm.q_pos.index(root)]
        return self.gammas[sm.nq + sm.q_pos.index(-root)]

    def _cubic(self):
        # (1/6) sum <z_i,[z_j,z_k]> gamma(z^i) gamma(z^j) gamma(z^k)
        sm, cb, g = self.sm, self.sm.cb, self.gammas
        n = 2 * sm.nq
        cb_idx = sm.q_basis
        out = _zeros(sm.dim)
        for j in range(n):
            for k in range(n):
                vec = cb.bracket(cb_idx[j], cb_idx[k])
                if not vec:
                    continue
                gjk = g[sm.dual_index(j)] @ g[sm.dual_index(k)]
                for i in range(n):
                    pairing = sum(c * cb.pairing(cb_idx[i], m) for m, c in vec.items())
                    if pairing:
                        _place(out, 0, 0, g[sm.dual_index(i)] @ gjk, F(pairing, 6))
        return Mat(out, sm.dim)

    def h_action(self, gen):
        # (1/4) sum_i [gamma(T z_i), gamma(z^i)], expanded over gamma(T z_i)
        sm, g = self.sm, self.gammas
        t = sm.ad_on_q(gen).rows
        out = _zeros(sm.dim)
        for qi in range(2 * sm.nq):
            dual = g[sm.dual_index(qi)]
            for k in range(2 * sm.nq):
                c = t[k][qi]
                if c:
                    _place(out, 0, 0, g[k] @ dual, c / 4)
                    _place(out, 0, 0, dual @ g[k], -c / 4)
        return Mat(out, sm.dim)


_DENSE = {}


def dense_spin(sm):
    """The dense reference of `sm`, built once per spin module."""
    if sm not in _DENSE:
        _DENSE[sm] = DenseSpin(sm)
    return _DENSE[sm]


@pytest.fixture(scope="module", params=sorted(PAIRS))
def spin(request):
    cartan_type, delta_h, seed = PAIRS[request.param]
    c = pair_context(cartan_type, delta_h)
    sm = c.sm
    if seed is not None:
        order = list(c.pair.q_positive)
        random.Random(seed).shuffle(order)
        assert order != list(c.pair.q_positive)
        sm = SpinModule(c.pair, c.cb, q_order=order)
    return sm, dense_spin(sm)


def test_gammas_match_dense(spin):
    sm, dense = spin
    for qi in range(2 * sm.nq):
        assert to_mat(sm.gamma_q(qi), sm.dim) == dense.gammas[qi], qi


def test_cubic_matches_dense(spin):
    sm, dense = spin
    assert to_mat(sm.cubic, sm.dim) == dense.cubic
    assert not dense.cubic.is_zero()  # every pair here is non-symmetric


def test_h_action_matches_dense(spin):
    sm, dense = spin
    for gen in sm.pair.h_generators():
        assert to_mat(sm.h_action(gen), sm.dim) == dense.h_action(gen), gen


@pytest.mark.parametrize("depth, mu", [
    (3, (0, 2, 2)),  # the workload's largest block; its cubic part is zero
    (5, (0, 1, 1)),  # the shallowest block of that Verma module with a cubic part
])
def test_b3_spin_block_matches_dense_assembly(depth, mu):
    """A block of the b3_spin workload's module against dense tile placement."""
    c = pair_context("B3", [(1, 0, 0), (0, 0, 1)])
    sm, pair = c.sm, c.pair
    vw = c.verma((-1, -1, -1), depth)
    blk = block(sm, vw, Weight(mu))
    dense = dense_spin(sm)
    sp = blk.space
    n = sp.dim
    plus, minus, cubic = _zeros(n), _zeros(n), _zeros(n)
    lowering = {alpha: dense.gamma_root(-alpha).rows for alpha in pair.q_positive}
    raising = {alpha: dense.gamma_root(alpha).rows for alpha in pair.q_positive}
    dense_cubic = dense.cubic.rows
    # every spin basis vector with its module component, in mask order
    comp_weights = [blk.mu - spin_weight(sm, i) for i in range(sm.dim)]
    comp_dims = [vw.dim(w) for w in comp_weights]
    offsets = [sum(comp_dims[:i]) for i in range(sm.dim)]
    assert n == sum(comp_dims)
    for i in range(sm.dim):
        for j in range(sm.dim):
            if not (comp_dims[i] and comp_dims[j]):
                continue
            ro, co = offsets[j], offsets[i]
            for alpha in pair.q_positive:
                c_low = lowering[alpha][j][i]
                if c_low:
                    act = vw.action(("e", alpha), comp_weights[i])
                    _place(plus, ro, co, act, c_low)
                c_rai = raising[alpha][j][i]
                if c_rai:
                    act = vw.action(("f", alpha), comp_weights[i])
                    _place(minus, ro, co, act, c_rai)
            if dense_cubic[j][i]:
                _place(cubic, ro, co, Mat.identity(comp_dims[i]), dense_cubic[j][i])
    assert any(any(r) for r in plus) and any(any(r) for r in minus)
    assert any(any(r) for r in cubic) == (depth == 5)
    assert blk.d_plus == Mat(plus, n)
    assert blk.d_minus == Mat(minus, n)
    assert blk.d_plus + blk.d_minus - blk.d == Mat(cubic, n)
