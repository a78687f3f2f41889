"""Spin operators applied per basis vector against a copy of the eager spin layer.

The eager reference keeps what the spin module used to build up front:
the weight of every basis vector, each gamma as a signed partial
permutation {column mask: (row mask, sign)} over all masks, the cubic
term and the h-action as sparse maps {(row, col): coefficient}, and a
block basis over every mask, zero components included.  Every block
operator of a small window must equal its eager assembly entry for
entry, and the bounded drop walk must list each basis vector within its
bound once, under its weight.
"""

import os
from fractions import Fraction
from functools import partial
from itertools import accumulate, product
from math import lcm
from operator import le, sub

import pytest

from odirac.cato import OutsideWindow, finite_dim_simple
from odirac.dirac import block, block_space, h_generator_block
from odirac.exactla import Mat
from odirac.roots import Weight
from odirac.scenarios import load_scenario, pair_context, run_scenario
from odirac.spinor import SpinModule
from conftest import full_drop, spin_weight
from helpers import subset_sums

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_F0 = Fraction(0)


class EagerSpin:
    """The per-mask tables of a spin module, built over all 2^|q+| masks."""

    def __init__(self, sm):
        self.sm = sm
        self.weights = [spin_weight(sm, mask) for mask in range(sm.dim)]
        # the distinct weights as drops below top(S), and each mask's class
        distinct = list(dict.fromkeys(self.weights))
        self.distinct_drops = [tuple(sm.top_weight - w) for w in distinct]
        where = {w: k for k, w in enumerate(distinct)}
        self.weight_class = [where[w] for w in self.weights]
        self.gammas = [self._signed_permutation(qi) for qi in range(2 * sm.nq)]
        self.cubic = self.clifford_sum(self._cubic_terms())
        self._h = {}
        self._spaces = {}

    def space(self, m, mu):
        key = (m, mu)
        if key not in self._spaces:
            self._spaces[key] = EagerSpace(self, m, mu)
        return self._spaces[key]

    def _signed_permutation(self, qi):
        sm = self.sm
        wedge = qi >= sm.nq
        bit = 1 << (qi - sm.nq if wedge else qi)
        return {mask: (mask ^ bit, -1 if (mask & (bit - 1)).bit_count() & 1 else 1)
                for mask in range(sm.dim) if bool(mask & bit) != wedge}

    def clifford_sum(self, terms):
        out = {}
        for coeff, word in terms:
            first, *rest = [self.gammas[a] for a in reversed(word)]
            for col, (row, sign) in first.items():
                for g in rest:
                    hit = g.get(row)
                    if hit is None:
                        break
                    row, s = hit
                    sign *= s
                else:
                    out[row, col] = out.get((row, col), _F0) + coeff * sign
        return {k: v for k, v in out.items() if v}

    def gamma_root(self, root):
        sm = self.sm
        if all(c >= 0 for c in root):
            return self.gammas[sm.q_pos.index(root)]
        return self.gammas[sm.nq + sm.q_pos.index(-root)]

    def _cubic_terms(self):
        sm, cb = self.sm, self.sm.cb
        n, cb_idx = 2 * sm.nq, sm.q_basis
        terms = []
        for j in range(n):
            for k in range(n):
                vec = cb.bracket(cb_idx[j], cb_idx[k])
                if not vec:
                    continue
                for i in range(n):
                    pairing = sum((c * cb.pairing(cb_idx[i], m) for m, c in vec.items()), _F0)
                    if pairing:
                        terms.append((Fraction(1, 6) * pairing,
                                      (sm.dual_index(i), sm.dual_index(j), sm.dual_index(k))))
        return terms

    def h_action(self, gen):
        if gen not in self._h:
            sm = self.sm
            t = sm.ad_on_q(gen).rows
            terms = []
            for qi in range(2 * sm.nq):
                dual = sm.dual_index(qi)
                for k in range(2 * sm.nq):
                    c = t[k][qi] / 4
                    if c:
                        terms += [(c, (k, dual)), (-c, (dual, k))]
            self._h[gen] = self.clifford_sum(terms)
        return self._h[gen]


class EagerSpace:
    """A block basis over every mask, in mask order, zero components included."""

    def __init__(self, eager, m, mu):
        # mu - (top(S) - drop) = top(m) - (base - drop), base = top(m) + top(S) - mu
        base = m.top_weight + eager.sm.top_weight - mu
        distinct = [m.weight_below_top(tuple(map(sub, base, d))) for d in eager.distinct_drops]
        for w in distinct:
            if not m.materialized(w):
                raise OutsideWindow(f"block {mu}: module weight {w} not materialized")
        dims = [m.dim(w) for w in distinct]
        self.comp_weights = [distinct[k] for k in eager.weight_class]
        self.comp_dims = [dims[k] for k in eager.weight_class]
        self.offsets = [0, *accumulate(self.comp_dims)][:-1]
        self.dim = sum(self.comp_dims)


def eager_operator(tgt, src, terms):
    tiles = [(tgt.offsets[j], src.offsets[i], coeff, module_map(src.comp_weights[i]))
             for j, i, coeff, module_map in terms
             if src.comp_dims[i] and tgt.comp_dims[j]]
    den = lcm(*(Fraction(coeff).denominator * tile.den for _, _, coeff, tile in tiles))
    rows = [[0] * src.dim for _ in range(tgt.dim)]
    for ro, co, coeff, tile in tiles:
        coeff = Fraction(coeff)
        f = coeff.numerator * (den // (coeff.denominator * tile.den))
        for r, mrow in enumerate(tile.num, ro):
            for c, v in enumerate(mrow, co):
                rows[r][c] += f * v
    return Mat.from_ints(rows, src.dim, den)


def eager_block(eager, m, mu):
    sm, pair = eager.sm, eager.sm.pair
    sp = eager.space(m, mu)
    d_plus = eager_operator(sp, sp, [
        (j, i, s, partial(m.action, ("e", a)))
        for a in pair.q_positive for i, (j, s) in eager.gamma_root(-a).items()])
    d_minus = eager_operator(sp, sp, [
        (j, i, s, partial(m.action, ("f", a)))
        for a in pair.q_positive for i, (j, s) in eager.gamma_root(a).items()])
    cubic = eager_operator(sp, sp, [(j, i, c, lambda w: Mat.identity(m.dim(w)))
                                    for (j, i), c in eager.cubic.items()])
    return d_plus, d_minus, cubic


def eager_h_generator_block(eager, m, gen, mu):
    src = eager.space(m, mu)
    tgt = eager.space(m, mu + eager.sm.cb.generator_weight(gen))
    terms = [(i, i, 1, partial(m.action, gen)) for i in range(eager.sm.dim)]
    terms += [(j, i, c, lambda w: Mat.identity(m.dim(w)))
              for (j, i), c in eager.h_action(gen).items()]
    return eager_operator(tgt, src, terms)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except OutsideWindow:
        return OutsideWindow


# label -> (Cartan type, delta_h, modules); a module is (kind, highest weight,
# window depth, block depth).  On the trivial module D is minus the cubic
# term; depth 5 is the first to reach a block where it is nonzero on B3 and D4.
CASES = {
    "A2, h = t": ("A2", [], [("verma", (-1, -1), 5, 4), ("finite", (1, 1), None, 4)]),
    "B3, alpha1 and alpha3": ("B3", [(1, 0, 0), (0, 0, 1)],
                              [("verma", (-1, -1, -1), 5, 3), ("finite", (0, 0, 0), None, 5)]),
    "C3, one root": ("C3", [(1, 0, 0)], [("verma", (-1, -1, -1), 4, 3)]),
    "D4, Levi A1^3": ("D4", [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                      [("verma", (-1, -1, -1, -1), 3, 2), ("finite", (0, 0, 0, 0), None, 5)]),
}


@pytest.mark.parametrize("label", sorted(CASES))
def test_block_operators_match_eager_assembly(label):
    cartan_type, delta_h, modules = CASES[label]
    c = pair_context(cartan_type, delta_h)
    sm = c.sm
    eager = EagerSpin(sm)
    cubic_blocks = h_blocks = 0
    for kind, lam, window, depth in modules:
        if kind == "verma":
            m = c.verma(lam, window)
        else:
            m = finite_dim_simple(c.pair, c.cb, Weight(lam))
        weights = c.block_weights(m, depth)
        assert weights
        for mu in weights:
            blk = block(sm, m, mu)
            d_plus, d_minus, cubic = eager_block(eager, m, mu)
            assert blk.d_plus == d_plus, mu
            assert blk.d_minus == d_minus, mu
            assert blk.d_plus + blk.d_minus - blk.d == cubic, mu
            cubic_blocks += not cubic.is_zero()
            for gen in c.pair.h_generators():
                lazy = _attempt(h_generator_block, sm, m, gen, mu)
                assert lazy == _attempt(eager_h_generator_block, eager, m, gen, mu), (mu, gen)
                h_blocks += lazy is not OutsideWindow
    assert cubic_blocks and h_blocks  # the cubic term is exercised on every pair


@pytest.mark.parametrize("label", sorted(CASES))
def test_drops_partition_the_basis(label):
    cartan_type, delta_h, _ = CASES[label]
    sm = pair_context(cartan_type, delta_h).sm
    eager = EagerSpin(sm)
    owner = {}
    for drop, masks in sm.drops_within(full_drop(sm)).items():
        assert masks == sorted(masks) and masks
        for mask in masks:
            assert mask not in owner
            owner[mask] = drop
            assert sm.top_weight - Weight(drop) == eager.weights[mask]
    assert sorted(owner) == list(range(sm.dim))


@pytest.mark.parametrize("label", sorted(CASES))
def test_drops_within_matches_brute_force(label):
    """Every bound up to the drop of all of q+, and one negative bound: the
    walk gives the 2^|q+| masks grouped by drop, kept where drop <= bound."""
    cartan_type, delta_h, _ = CASES[label]
    sm = pair_context(cartan_type, delta_h).sm
    by_drop = {}
    for mask in range(sm.dim):
        by_drop.setdefault(tuple(sm.top_weight - spin_weight(sm, mask)), []).append(mask)
    top = full_drop(sm)
    bounds = list(product(*(range(t + 1) for t in top)))
    for bound in bounds + [(-1,) + top[1:]]:
        want = {d: masks for d, masks in by_drop.items() if all(map(le, d, bound))}
        assert sm.drops_within(bound) == want, bound


def test_f4_top_block_walks_one_drop(monkeypatch):
    """F4 with a one-root h (dim S = 2^23): a new spin module and its block
    at the top weight walk the vacuum's drop alone, and nothing the module
    keeps is as long as the list of subset sums of q+."""
    c = pair_context("F4", [(1, 0, 0, 0)])
    sm = SpinModule(c.pair, c.cb)
    assert sm.dim == 1 << 23 and len(subset_sums(sm)) == 12380
    vw = c.verma((-1, -1, -1, -1), 6)
    walked = []
    walk = SpinModule.drops_within
    monkeypatch.setattr(SpinModule, "drops_within",
                        lambda self, bound: walked.append(walk(self, bound)) or walked[-1])
    sp = block_space(sm, vw, vw.top_weight + sm.top_weight)
    assert walked == [{(0, 0, 0, 0): [0]}] and list(sp.slot) == [0]
    sizes = {name: len(v) for name, v in vars(sm).items() if hasattr(v, "__len__")}
    assert max(sizes.values()) <= 2 * sm.nq, sizes


def test_b4_probe_holds_nothing_of_spin_dimension():
    """The B4 one-root probe (dim S = 32768) reads few spin basis vectors,
    and neither the spin module nor any memo of a spin operator keeps
    an entry per basis vector."""
    scn = load_scenario(os.path.join(REPO, "scenarios", "b4_spin_probe.json"))
    assert run_scenario(scn)["ok"]
    sm = scn.ctx.sm
    assert sm.dim == 1 << 15
    ops = [sm.cubic, sm.identity, *sm._gamma, *sm._h_action_cache.values()]
    sizes = {name: len(v) for name, v in vars(sm).items() if hasattr(v, "__len__")}
    sizes.update((f"operator {k} columns", len(op._columns)) for k, op in enumerate(ops))
    spaces = scn.ctx.verma((-1, -1, -1, -1), 2).block_spaces
    sizes.update((f"block {mu} slots", len(sp.slot)) for (_, mu), sp in spaces.items())
    assert spaces and max(sizes.values()) < sm.dim, sizes
    assert max(len(sp.slot) for sp in spaces.values()) <= 4
