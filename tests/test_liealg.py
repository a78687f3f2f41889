"""Chevalley bases: structure constants, pairings, pairs and Casimirs."""

from fractions import Fraction

import pytest

from odirac.exactla import Mat
from odirac.roots import NotASubsystem, Weight, zero_weight
from odirac.liealg import PairGH
from odirac.cato import verma_window
from odirac.dirac import casimir
from conftest import ctx
from helpers import q_brackets_into_h

F = Fraction


def test_sl2_triple(a1):
    cb = a1.cb
    alpha = a1.rs.simple_roots[0]
    h = cb.bracket(cb.e_index(alpha), cb.e_index(-alpha))
    assert h, "[e, f] must be a nonzero Cartan element"
    assert all(k < a1.rs.rank for k in h)
    # alpha(h) != 0
    val = sum(c * a1.rs.pairing_with_simple_coroots(alpha)[k] for k, c in h.items())
    assert val != 0


def test_a2_root_vector_product(a2_su21):
    cb = a2_su21.cb
    a1r, a2r = a2_su21.rs.simple_roots
    out = cb.bracket(cb.e_index(a1r), cb.e_index(a2r))
    assert list(out) == [cb.e_index(a1r + a2r)]
    assert next(iter(out.values())) != 0


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C3", "C4", "D4", "G2", "F4", "A1xA1"])
def test_jacobi_exhaustive(label):
    assert ctx(label).cb.jacobi_residual() == 0


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2",
                                   "F4", "A1xA1"])
def test_generator_table_agrees_with_structure_constants(label):
    """generators[i] names basis index i: generator_index and e_index give i
    back, and h_j acts on b_i by the value of b_i's weight on the j-th
    simple coroot."""
    c = ctx(label)
    cb = c.cb
    assert len(cb.generators) == cb.dim
    for i, gen in enumerate(cb.generators):
        kind, val = gen
        assert cb.generator_index(gen) == i
        if kind != "h":
            assert cb.e_index(val if kind == "e" else -val) == i
        v = c.rs.pairing_with_simple_coroots(cb.generator_weight(gen))
        for j in range(cb.rank):
            assert cb.bracket(j, i) == ({i: v[j]} if v[j] else {}), (gen, j)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C3", "C4", "D4", "G2", "F4", "A1xA1"])
def test_pairing_normalization(label):
    """`pairing` is the Killing form tr(ad x ad y), computed here from the
    bracket table, on every pair of basis indices: 1 on dual root vectors."""
    c = ctx(label)
    cb = c.cb
    n = cb.dim
    # ad[x][k] = {b: coefficient of b_b in [b_x, b_k]}
    ad = [[cb.bracket(x, k) for k in range(n)] for x in range(n)]
    for x in range(n):
        for y in range(n):
            trace = sum((c_yk * ad[x][k].get(b, 0)
                         for b in range(n) for k, c_yk in ad[y][b].items()), F(0))
            assert cb.pairing(x, y) == trace, (cb.generators[x], cb.generators[y])
    for alpha in c.rs.positive_roots:
        assert cb.pairing(cb.e_index(alpha), cb.e_index(-alpha)) == 1


def test_form_invariance_on_basis_triples(a2_su21):
    cb = a2_su21.cb
    d = cb.dim
    for x in range(d):
        for y in range(d):
            for z in range(d):
                lhs = sum((c * cb.pairing(k, z) for k, c in cb.bracket(x, y).items()),
                          F(0))
                rhs = sum((c * cb.pairing(y, k) for k, c in cb.bracket(x, z).items()),
                          F(0))
                assert lhs + rhs == 0


def test_sl2_relations_for_q_roots(a2_su21):
    cb = a2_su21.cb
    for alpha in a2_su21.pair.q_positive:
        e, f = cb.e_index(alpha), cb.e_index(-alpha)
        h = cb.bracket(e, f)
        # [h, e] = <alpha, h-ish> e with the value 2 <alpha,alpha>-normalized:
        # the triple is an sl2 after rescaling, so [h, e] is proportional to e
        he = cb.bracket_vec(h, {e: F(1)})
        assert set(he) <= {e}
        hf = cb.bracket_vec(h, {f: F(1)})
        assert set(hf) <= {f}
        if he:
            assert he[e] == -hf[f]


def test_validate_pair(a2_su21):
    rs, form = a2_su21.rs, a2_su21.form
    pair = a2_su21.pair
    assert pair.q_positive == [Weight([0, 1]), Weight([1, 1])]
    assert PairGH(rs, form, []).delta_h_pos == []
    with pytest.raises(NotASubsystem):
        PairGH(rs, form, [Weight([1, 0]), Weight([1, 1])])
    # signed input must be negation-closed
    with pytest.raises(NotASubsystem, match="not negation-closed"):
        PairGH(rs, form, [Weight([1, 0]), Weight([0, -1])])
    signed = PairGH(rs, form, [Weight([1, 0]), Weight([-1, 0])])
    assert signed.delta_h_pos == [Weight([1, 0])]
    assert signed.q_positive == pair.q_positive and signed.rho_h == pair.rho_h


@pytest.mark.parametrize("cartan, delta_h", [
    ("A2", []), ("A3", [(1, 0, 0), (0, 1, 0), (1, 1, 0)]), ("B3", [(1, 0, 0), (0, 0, 1)]),
    ("C3", [(1, 0, 0), (0, 1, 0), (1, 1, 0)]), ("G2", [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]),
    ("G2", [(0, 1), (3, 1), (3, 2)])])
def test_delta_h_simple_roots_span_delta_h(cartan, delta_h):
    """The simple roots of delta_h+ that PairGH keeps are independent, and
    every root of delta_h+ is a nonnegative integer sum of them."""
    pair = ctx(cartan, delta_h).pair
    simples = pair.delta_h_simple
    assert len(simples) == Mat.from_cols(pair.delta_h_pos, pair.rank).rank()
    for a in pair.delta_h_pos:
        x = Mat.from_cols(simples, pair.rank).solve(Mat.from_cols([a], pair.rank))
        assert x is not None and all(c >= 0 and c.denominator == 1 for c in x.col(0)), a


def test_symmetric_pair_detection(a1, a2_su21, a2_t):
    assert q_brackets_into_h(a1.pair)
    assert q_brackets_into_h(a2_su21.pair)
    assert not q_brackets_into_h(a2_t.pair)


def test_casimir_scalar_on_verma(a1):
    pair, cb = a1.pair, a1.cb
    lam = Weight([F(3, 7)])
    vw = verma_window(pair, cb, lam, 7)
    scal = pair.form.norm2(lam + pair.rho) - pair.form.norm2(pair.rho)
    alpha = pair.rs.simple_roots[0]
    for k in range(6):
        w = lam - alpha * k
        m = casimir(vw.action, w, vw.dim(w), pair.rs.positive_roots, pair.form)
        assert m == Mat.identity(vw.dim(w)).scale(scal)


def test_casimir_toral_and_trivial(a2_su21):
    pair, cb = a2_su21.pair, a2_su21.cb
    # h = t: the Cartan Casimir acts on a weight by its norm
    vw = verma_window(pair, cb, -pair.rho, 6)
    w = -pair.rho - Weight([1, 0])
    m = casimir(vw.action, w, vw.dim(w), [], pair.form)
    assert m == Mat.identity(vw.dim(w)).scale(pair.form.norm2(w))
    # trivial top: Omega_g acts by norm2(0 + rho) - norm2(rho) = 0
    v0 = verma_window(pair, cb, zero_weight(2), 2)
    z = zero_weight(2)
    assert casimir(v0.action, z, v0.dim(z), pair.rs.positive_roots, pair.form).is_zero()


def test_casimir_assembly_order_independent(a2_su21):
    pair, cb = a2_su21.pair, a2_su21.cb
    vw = verma_window(pair, cb, -pair.rho, 6)
    w = -pair.rho - Weight([1, 1])
    roots = pair.rs.positive_roots
    m1 = casimir(vw.action, w, vw.dim(w), roots, pair.form)
    m2 = casimir(vw.action, w, vw.dim(w), list(reversed(roots)), pair.form)
    assert m1 == m2


def test_casimir_commutes_with_actions(a2_su21):
    pair, cb = a2_su21.pair, a2_su21.cb
    lam = Weight([F(-1, 2), F(-4, 3)])
    vw = verma_window(pair, cb, lam, 7)
    pos = pair.rs.positive_roots
    margin = max(int(a.height) for a in pos)
    for gen in vw.cb.generators:
        wt = cb.generator_weight(gen)
        for c in [(1, 1), (2, 1), (1, 2)]:
            w = lam - Weight(c)
            tw = w + wt
            deep = max(int((lam - w).height), int((lam - tw).height)) + margin
            if deep > 7:
                continue
            lhs = casimir(vw.action, tw, vw.dim(tw), pos, pair.form) @ vw.action(gen, w)
            rhs = vw.action(gen, w) @ casimir(vw.action, w, vw.dim(w), pos, pair.form)
            assert lhs == rhs, (gen, w)
