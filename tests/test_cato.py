"""Weight windows: Verma modules, forms, quotients, tensors, sequences."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odirac.exactla import Mat
from odirac.roots import Weight, is_antidominant, zero_weight
from odirac.cato import (OutsideWindow, QuotientWindow, SESData, WeightModuleWindow,
                         commutation_defect, cone_coords,
                         finite_character_h, finite_dim_simple, kostant_partition_counter,
                         ses_from_embedding, ses_split, shapovalov_grams,
                         simple_quotient_window, singular_vectors, span_quotient_data,
                         sort_weights, tensor_with_finite_dim, verma_character_h,
                         verma_window, weyl_dimension)
from odirac.dirac import exact_circle
from conftest import ctx
from helpers import (Straightener, lowering_map, row_space, total_dim,
                     verma_simple_quotient, weight_from_fundamental)

F = Fraction


def sl2_lowering_oracle(c, lam, depth):
    """Expected matrices of e on f~^k v from the sl2 recursion, independently.

    With [e, f~] = t and [t, e] = c_e e derived from the bracket table,
    e f~^k v = (k * lam(t-normalized) - binom(k,2) c_e-ish) ... computed
    directly by induction: e f~^k = f~ e f~^{k-1} + [e,f~] f~^{k-1}.
    """
    cb = c.cb
    alpha = c.rs.simple_roots[0]
    e, f = cb.e_index(alpha), cb.e_index(-alpha)
    t = cb.bracket(e, f)  # sparse Cartan element
    lam_of_t = sum(cc * c.rs.pairing_with_simple_coroots(lam)[k]
                   for k, cc in t.items())
    alpha_of_t = sum(cc * c.rs.pairing_with_simple_coroots(alpha)[k]
                     for k, cc in t.items())
    vals = []
    coef = F(0)
    for k in range(1, depth + 1):
        # weight below lam by (k-1) alpha acted by [e,f~]
        coef = coef + (lam_of_t - (k - 1) * alpha_of_t)
        vals.append(coef)
    return vals


def test_verma_sl2_straightening(a1):
    lam = Weight([F(3, 2)])
    vw = verma_window(a1.pair, a1.cb, lam, 8)
    alpha = a1.rs.simple_roots[0]
    expect = sl2_lowering_oracle(a1, lam, 8)
    for k in range(1, 8):
        m = vw.action(("e", alpha), lam - alpha * k)
        assert m.rows[0][0] == expect[k - 1]


def test_verma_dims_and_top(a2_su21):
    pair, cb = a2_su21.pair, a2_su21.cb
    lam = -pair.rho
    vw = verma_window(pair, cb, lam, 8)
    theta = Weight([1, 1])  # the long-root direction of the worked example
    for k in range(4):
        assert vw.dim(lam - theta * k) == k + 1
    assert vw.dim(lam) == 1
    for alpha in pair.rs.positive_roots:
        assert vw.action(("e", alpha), lam).is_zero()
    cnt = kostant_partition_counter(pair.rs.positive_roots)
    assert cnt(Weight([1, 1])) == 2  # {alpha+beta} and {alpha, beta}
    for c in cone_coords(2, 5):
        assert vw.dim(lam - Weight(c)) == cnt(Weight(c))


def test_window_boundary(a1):
    vw = verma_window(a1.pair, a1.cb, zero_weight(1), 3)
    alpha = a1.rs.simple_roots[0]
    deep = zero_weight(1) - alpha * 3
    assert vw.materialized(deep)
    with pytest.raises(OutsideWindow):
        vw.action(("f", alpha), deep)
    # outside the support cone the space is known zero
    assert vw.materialized(zero_weight(1) + alpha)
    assert vw.dim(zero_weight(1) + alpha) == 0


def test_commutation_fidelity(a2_su21):
    pair, cb = a2_su21.pair, a2_su21.cb
    vw = verma_window(pair, cb, Weight([F(-1, 2), F(1, 3)]), 6)
    for c in cone_coords(2, 3):
        w = vw.top_weight - Weight(c)
        for ix in range(cb.dim):
            for iy in range(ix + 1, cb.dim):
                d = commutation_defect(vw, w, ix, iy)
                if d is not None:
                    assert d.is_zero(), (w, ix, iy)


def test_shapovalov_grams(a1):
    pair, cb = a1.pair, a1.cb
    alpha = pair.rs.simple_roots[0]
    kap = cb.kappa_integral(alpha)
    lam = Weight([F(3, 2)])
    vw = verma_window(pair, cb, lam, 8)
    grams = shapovalov_grams(vw)
    assert grams.gram(lam) == Mat([[1]])
    # oracle: <f~^k v, f~^k v> = prod_{j=1..k} j (lam - j + 1)(t) / kappa^{2k}-ish,
    # assembled from the independently derived lowering coefficients
    lowering = sl2_lowering_oracle(a1, lam, 8)
    acc = F(1)
    for k in range(1, 6):
        acc = acc * lowering[k - 1] / kap
        assert grams.gram(lam - alpha * k) == Mat([[acc]])
    # symmetry and contravariance with the kappa factor
    lam2 = Weight([F(-1, 3), F(-5, 7)])
    c2 = ctx("A2", [(1, 0)])
    vw2 = verma_window(c2.pair, c2.cb, lam2, 6)
    g2 = shapovalov_grams(vw2)
    for c in cone_coords(2, 4):
        w = lam2 - Weight(c)
        g = g2.gram(w)
        assert g == g.T
    for alpha in c2.rs.positive_roots:
        kap = c2.cb.kappa_integral(alpha)
        for c in cone_coords(2, 3):
            w = lam2 - Weight(c)
            up = w + alpha
            if vw2.dim(up) == 0 or vw2.dim(w) == 0:
                continue
            ae = vw2.action(("e", alpha), w)
            af = vw2.action(("f", alpha), up)
            assert ae.T @ g2.gram(up) == g2.gram(w).scale(kap) @ af


def raising_string_gram(vw, st, w):
    """Reference Gram: apply tau(mono_i) to every basis vector as a string of
    raising operators, straightened by st, and read off the coefficient of
    the top vector.

    tau(f_{b1}^{k1}...f_{bs}^{ks}) acts with e_{b1}^{k1} first, then
    e_{b2}^{k2}, ...; each e_beta carries a factor 1/kappa_beta.
    """
    cb = vw.cb
    basis = vw.basis(w)
    top = tuple([0] * cb.npos)
    rows = []
    for mono_i in basis:
        scale = F(1)
        for p, k in enumerate(mono_i):
            scale /= cb.kappa_integral(cb.pos[p]) ** k
        row = []
        for mono_j in basis:
            cur = {mono_j: F(1)}
            for p, k in enumerate(mono_i):
                ei = cb.e_index(cb.pos[p])
                for _ in range(k):
                    nxt = {}
                    for m, c in cur.items():
                        for m2, c2 in st.act_index(ei, m).items():
                            nxt[m2] = nxt.get(m2, 0) + c * c2
                    cur = nxt
            row.append(scale * cur.get(top, 0))
        rows.append(row)
    return Mat(rows, len(basis))


@pytest.mark.parametrize("cartan, delta_h, lam, depth", [
    ("A1", [], [F(3, 2)], 8),
    ("A2", [(1, 0)], [F(-1, 3), F(-5, 7)], 6),
    ("A3", [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [-1, -2, -3], 4),  # the a3_hodge window
], ids=["A1", "A2_su21_generic", "A3_gl3"])
def test_grams_match_raising_strings(cartan, delta_h, lam, depth):
    """Every Gram of the recursion equals the raising-string Gram entry for entry."""
    c = ctx(cartan, delta_h)
    lam = Weight(lam)
    vw = verma_window(c.pair, c.cb, lam, depth)
    form, st = shapovalov_grams(vw), Straightener(c.cb, lam)
    checked = 0
    for cc in cone_coords(c.rs.rank, depth):
        w = lam - Weight(cc)
        assert form.gram(w) == raising_string_gram(vw, st, w), w
        checked += vw.dim(w) > 0
    assert checked > depth  # every weight of the window below the top too


@pytest.mark.parametrize("cartan, delta_h, lam", [
    ("A1", [], [F(3, 2)]),
    ("A2", [(1, 0)], [F(-1, 3), F(-5, 7)]),
    ("A2", [], [-1, -2]),
    ("B2", [(1, 0)], [F(1, 2), -2]),
    ("G2", [(0, 1)], [-1, F(-3, 2)]),
    ("A3", [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [-1, -2, -3]),
], ids=["A1", "A2_su21_generic", "A2_t", "B2", "G2", "A3_gl3"])
def test_verma_actions_match_straightened_monomials(cartan, delta_h, lam):
    """Every generator at every weight within depth 5 of a Verma window,
    which reaches one highest root deeper so that every target lies in it,
    equals the straightened PBW images, exactly."""
    c = ctx(cartan, delta_h)
    lam = Weight(lam)
    vw = verma_window(c.pair, c.cb, lam, 5 + max(a.height for a in c.rs.positive_roots))
    st = Straightener(c.cb, lam)
    for cc in cone_coords(c.rs.rank, 5):
        w = lam - Weight(cc)
        for gen in c.cb.generators:
            assert vw.action(gen, w) == st.action(vw, gen, w), (gen, w)


def _cold_simple_runs(monkeypatch, paths, finite=False):
    """Run scenario files on a cold context, recording what simple windows cost.

    Returns the names of `VermaWindow` instances built, the `SimpleWindow`s
    whose weight spaces were built, the `Mat.rref` and `Mat.nullspace`
    calls made building each (window, weight) space, the forms made per
    window and the computations per (form, weight) Gram.
    With `finite`, `finite_dim_simple` of A2 at rho runs last.
    """
    import os
    from collections import Counter
    from odirac import cato, scenarios

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    built, frames, counts, windows = [], [], {}, []
    forms, computed = Counter(), Counter()
    form_init, form_compute = cato.ContravariantForm.__init__, cato.ContravariantForm._compute
    build_space = cato.SimpleWindow._build_space

    def recording(cls):
        init = cls.__init__

        def recorded(self, *args):
            built.append(cls.__name__)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", recorded)

    def counting(name, fn):
        def counted(*args):
            if frames:
                frames[-1][name] += 1
            return fn(*args)
        return counted

    def traced_build(self, w):
        if self not in windows:
            windows.append(self)
        frames.append({"rref": 0, "nullspace": 0})
        try:
            return build_space(self, w)
        finally:
            counts[(self, w)] = frames.pop()

    def counted_init(self, window):
        forms[window] += 1
        form_init(self, window)

    def counted_compute(self, w):
        computed[(self, w)] += 1
        return form_compute(self, w)

    recording(cato.VermaWindow)
    monkeypatch.setattr(Mat, "rref", counting("rref", Mat.rref))
    monkeypatch.setattr(Mat, "nullspace", counting("nullspace", Mat.nullspace))
    monkeypatch.setattr(cato.SimpleWindow, "_build_space", traced_build)
    monkeypatch.setattr(cato.ContravariantForm, "__init__", counted_init)
    monkeypatch.setattr(cato.ContravariantForm, "_compute", counted_compute)
    root = os.path.join(os.path.dirname(__file__), "..")
    for path in paths:
        scn = scenarios.load_scenario(os.path.join(root, path))
        assert scenarios.run_scenario(scn)["ok"]
    if finite:
        c = scenarios.pair_context("A2", [(1, 0)])
        assert total_dim(finite_dim_simple(c.pair, c.cb, Weight([1, 1]))) == 8
    monkeypatch.undo()
    return built, windows, counts, forms, computed


def _assert_one_rref_per_spanned_weight(counts):
    """One `Mat.rref` for each weight space with a nonempty spanning set
    (w != lambda in the cone with some L_{w + alpha_i} nonzero), none for
    the others, and no `Mat.nullspace` anywhere."""
    from odirac import cato

    def spanned(m, w):
        return (w != m.lam and cato._delta_coords(m.lam, w) is not None
                and any(m.dim(w + a) for a in m.pair.rs.simple_roots))

    with_span = {key for key in counts if spanned(*key)}
    assert with_span and len(with_span) < len(counts)
    for key, n in counts.items():
        assert n == {"rref": int(key in with_span), "nullspace": 0}, key


def test_simple_quotients_read_no_verma_form(monkeypatch, a1):
    """A simple window carries its own form and never builds a Verma window.

    On A1, where both bases are f^k v, its Grams are the Verma Grams.  On
    a cold context the a2_hodge_unitary run and `finite_dim_simple` build
    no `VermaWindow`; each window has one form, each (form, weight) Gram
    is computed once, and every form read is a simple window's.
    """
    top, alpha = Weight([1]), a1.rs.simple_roots[0]
    simple = simple_quotient_window(a1.pair, a1.cb, top, 6)
    assert [simple.dim(top - alpha * k) for k in range(5)] == [1, 1, 1, 0, 0]  # dim L = 3
    form = shapovalov_grams(simple)
    assert shapovalov_grams(simple) is form
    verma_form = shapovalov_grams(verma_window(a1.pair, a1.cb, top, 6))
    assert [form.gram(top - alpha * k) for k in range(3)] == \
        [verma_form.gram(top - alpha * k) for k in range(3)]

    built, windows, counts, forms, computed = _cold_simple_runs(
        monkeypatch, ["scenarios/a2_hodge_unitary.json"], finite=True)
    assert not built
    assert len(windows) == 2
    _assert_one_rref_per_spanned_weight(counts)
    assert set(forms.values()) == {1}
    assert computed and set(computed.values()) == {1}
    assert {form.window.kind for form, _ in computed} == {"simple"}


def test_simple_quotient_reduces_each_weight_once(monkeypatch):
    """On a cold a3_hodge run the simple window row-reduces once per weight.

    The run builds one simple window and no `VermaWindow`.  A weight space
    whose spanning set is nonempty costs one `Mat.rref` and no
    `Mat.nullspace`; any other costs neither.
    """
    built, windows, counts, _, _ = _cold_simple_runs(
        monkeypatch, ["perfbench/workloads/a3_hodge.json"])
    assert not built
    assert len(windows) == 1
    _assert_one_rref_per_spanned_weight(counts)


_RADICAL_CASES = [(cartan, label, depth)
                  for cartan, depth in (("A1", 10), ("A2", 8), ("A3", 5), ("B2", 8),
                                        ("G2", 9), ("C3", 5))
                  for label in ("dominant", "antidominant", "s1.0", "generic")]
_RADICAL_CASES.append(("A2", "a2_hodge_unitary", 8))


def _radical_case_lambda(c, label):
    """The highest weight of one differential case, in simple-root coordinates."""
    rank = c.rs.rank
    fund = {"dominant": [2] + [1] * (rank - 1),
            "antidominant": [-2] + [-1] * (rank - 1),
            "generic": [F(-1, 3), F(5, 7), F(2, 9)][:rank]}
    if label in fund:
        return weight_from_fundamental(c.rs, fund[label])
    if label == "s1.0":
        return -c.rs.simple_roots[0]  # s_1(rho) - rho, a reducible w . 0
    return Weight([F(-1, 2), F(-2)])  # half-integral: the a2_hodge_unitary module


@pytest.mark.parametrize("cartan, label, depth", _RADICAL_CASES,
                         ids=[f"{c}-{label}" for c, label, _ in _RADICAL_CASES])
def test_simple_radical_matches_verma_gram_radical(cartan, label, depth):
    """The reference quotient's radical is the Verma Gram's nullspace.

    At every weight of the window: `verma_simple_quotient`, whose radical
    comes from the simple raising maps, has the same kept indices and
    projection as the quotient by the span of `shapovalov_grams(vw).radical`,
    the simple window has its dimension, and the radical is stable under
    every generator.
    """
    c = ctx(cartan)
    lam = _radical_case_lambda(c, label)
    vw = verma_window(c.pair, c.cb, lam, depth)
    form = shapovalov_grams(vw)
    ref = QuotientWindow(vw, lambda w: span_quotient_data(form.radical(w)), "quotient")
    quot = verma_simple_quotient(vw)
    simple = simple_quotient_window(c.pair, c.cb, lam, depth)
    radical_seen = 0
    for cc in cone_coords(c.rs.rank, depth):
        w = lam - Weight(cc)
        if not vw.dim(w):
            continue
        keep = quot.kept_indices(w)
        assert keep == ref.kept_indices(w), w
        assert quot.projection(w) == ref.projection(w), w
        assert simple.dim(w) == len(keep), w
        rad = form.radical(w)
        radical_seen += bool(rad.nrows)
        for gen in vw.cb.generators:
            tw = w + c.cb.generator_weight(gen)
            if rad.nrows and vw.materialized(tw) and vw.dim(tw):
                image = quot.projection(tw) @ vw.action(gen, w)
                assert (image @ rad.T).is_zero(), (w, gen)
    # M(lambda) is reducible on these windows exactly for the dominant lambda
    # and, off A1 (where s_1 . 0 = -2 rho is antidominant), for s_1 . 0
    expected = {"dominant": True, "antidominant": False, "s1.0": c.rs.rank > 1}
    if label in expected:
        assert bool(radical_seen) == expected[label]


def test_antidominant_grams_nonsingular(a1):
    lam = Weight([F(-3, 4)])  # lam(h) = -3/2, antidominant non-integral
    assert is_antidominant(lam, a1.rs.positive_roots, a1.form, a1.pair.rho)
    vw = verma_window(a1.pair, a1.cb, lam, 8)
    grams = shapovalov_grams(vw)
    alpha = a1.rs.simple_roots[0]
    for k in range(9):
        g = grams.gram(lam - alpha * k)
        assert g.rank() == g.nrows


def test_simple_quotient_sl2(a1):
    pair, cb = a1.pair, a1.cb
    alpha = pair.rs.simple_roots[0]
    lam = Weight([F(3, 2)])  # lam(h) = 3
    quot = simple_quotient_window(pair, cb, lam, 9)
    dims = [quot.dim(lam - alpha * k) for k in range(9)]
    assert dims == [1, 1, 1, 1, 0, 0, 0, 0, 0]
    # antidominant: L = M on the window
    lam2 = Weight([F(-3, 4)])
    vw2 = verma_window(pair, cb, lam2, 8)
    quot2 = simple_quotient_window(pair, cb, lam2, 8)
    for k in range(8):
        assert quot2.dim(lam2 - alpha * k) == vw2.dim(lam2 - alpha * k)


def _check_projection(c, lam, depth):
    vw = verma_window(c.pair, c.cb, lam, depth)
    quot = simple_quotient_window(c.pair, c.cb, lam, depth)
    weights = [lam - Weight(cc) for cc in cone_coords(c.rs.rank, depth)]
    proj = lowering_map(vw, quot, weights)
    for w in weights:
        assert proj[w].rank() == quot.dim(w), w
        for gen in vw.cb.generators:
            tw = w + c.cb.generator_weight(gen)
            if tw not in proj:
                continue
            lhs = proj[tw] @ vw.action(gen, w)
            rhs = quot.action(gen, w) @ proj[w]
            assert lhs == rhs, (gen, w)


def test_projection_intertwines(a1):
    """The natural projection of the Verma window onto the simple window
    intertwines every generator, and is onto at every weight."""
    _check_projection(a1, Weight([1]), 8)  # lam(h) = 2


@pytest.mark.parametrize("lam", [[1, 1], [-1, 0]], ids=["adjoint", "s1.0"])
def test_projection_intertwines_rank2(a2_t, lam):
    """As on A1, for the adjoint of A2 and for L(s_1 . 0), where the
    non-simple root vectors act as commutators."""
    _check_projection(a2_t, Weight(lam), 5)


def test_finite_dim_simple(a1, a2_su21):
    trivial = finite_dim_simple(a2_su21.pair, a2_su21.cb, zero_weight(2))
    assert total_dim(trivial) == 1
    om1 = Weight([F(2, 3), F(1, 3)])
    f = finite_dim_simple(a2_su21.pair, a2_su21.cb, om1)
    assert total_dim(f) == 3 == weyl_dimension(a2_su21.pair, om1)
    alpha = a1.rs.simple_roots[0]
    f2 = finite_dim_simple(a1.pair, a1.cb, Weight([1]))
    assert total_dim(f2) == 3
    assert sorted(f2.weights()) == sorted([alpha, zero_weight(1), -alpha])
    with pytest.raises(ValueError):
        finite_dim_simple(a1.pair, a1.cb, Weight([F(-1, 2)]))


def test_tensor_dims(a1, a2_su21):
    pair, cb = a1.pair, a1.cb
    lam = Weight([F(-1, 3)])
    vw = verma_window(pair, cb, lam, 10)
    trivial = finite_dim_simple(pair, cb, zero_weight(1))
    t0 = tensor_with_finite_dim(vw, trivial)
    alpha = pair.rs.simple_roots[0]
    for k in range(11):
        assert t0.dim(lam - alpha * k) == vw.dim(lam - alpha * k) == 1
    f1 = finite_dim_simple(pair, cb, Weight([F(1, 2)]))  # dim 2
    t1 = tensor_with_finite_dim(vw, f1)
    top = t1.top_weight
    dims = [t1.dim(top - alpha * F(k, 1) * F(1, 2) * 2) for k in range(7)]
    # counting oracle with dim M(lam)_k = 1 down the string
    expected = []
    for k in range(7):
        w = top - alpha * k
        expected.append(sum(vw.dim(w - nu) * f1.dim(nu) for nu in f1.weights()))
    assert dims == expected
    assert expected[:4] == [1, 2, 2, 2]


# -- finite modules as certified quotient views, tensor windows on slots -----

def eager_finite_module(pair, cb, lam):
    """Reference: the dims and every nonzero action of F(lam), computed
    eagerly on the reference quotient of a Verma window, as finite modules
    once were built; and that quotient."""
    depth = int((lam - pair.weyl.act(pair.weyl.longest, lam)).height)
    margin = max(a.height for a in pair.rs.positive_roots)
    quot = verma_simple_quotient(verma_window(pair, cb, lam, depth + margin))
    dims = {}
    for cc in cone_coords(pair.rank, depth):
        w = lam - Weight(cc)
        if quot.dim(w):
            dims[w] = quot.dim(w)
    actions = {}
    for w in dims:
        for gen in quot.cb.generators:
            if quot.materialized(w + cb.generator_weight(gen)):
                m = quot.action(gen, w)
                if not m.is_zero():
                    actions[(gen, w)] = m
    return dims, actions, quot


_FINITE_CASES = [
    ("A1", [], (1,)),
    ("A1", [], (3,)),
    ("A2", [(1, 0)], (1, 0)),  # the su(2,1)-type pair
    ("A2", [], (1, 1)),
    ("B2", [(0, 1)], (1, 0)),
    ("B2", [], (1, 1)),
    ("G2", [], (1, 0)),
    ("C3", [(1, 0, 0), (0, 1, 0), (1, 1, 0)], (2, 0, 0)),  # the adjoint, 21-dim
]


def _isomorphism_cases():
    for cartan, label, depth in _RADICAL_CASES:
        c = ctx(cartan)
        yield pytest.param(cartan, (), _radical_case_lambda(c, label), depth,
                           id=f"{cartan}-{label}")
    for cartan, delta_h, fund in _FINITE_CASES:
        c = ctx(cartan, delta_h)
        lam = weight_from_fundamental(c.rs, fund)
        depth = int((lam - c.pair.weyl.act(c.pair.weyl.longest, lam)).height)
        margin = max(a.height for a in c.rs.positive_roots)
        yield pytest.param(cartan, delta_h, lam, depth + margin,
                           id=f"finite-{cartan}-{len(delta_h)}-{''.join(map(str, fund))}")


@pytest.mark.parametrize("cartan, delta_h, lam, depth", _isomorphism_cases())
def test_simple_window_is_isomorphic_to_verma_quotient(cartan, delta_h, lam, depth):
    """The simple window is L(lambda) = M(lambda)/N(lambda), up to one basis change.

    T_lambda = 1 and T_w(f_j u) = f_j T_{w + alpha_j} u in the reference
    quotient.  At every weight of the window T_w is square and
    invertible, T intertwines every e, f and h, and T carries the Verma
    Gram on the kept indices to the simple window's own Gram.
    """
    c = ctx(cartan, delta_h)
    vw = verma_window(c.pair, c.cb, lam, depth)
    ref = verma_simple_quotient(vw)
    simple = simple_quotient_window(c.pair, c.cb, lam, depth)
    verma_form, form = shapovalov_grams(vw), shapovalov_grams(simple)
    weights = [lam - Weight(cc) for cc in cone_coords(c.rs.rank, depth)]
    t = lowering_map(simple, ref, weights)
    nonzero = 0
    for w in weights:
        n = simple.dim(w)
        assert t[w].nrows == t[w].ncols == n == ref.dim(w), w
        assert t[w].rank() == n, w
        if not n:
            continue
        nonzero += 1
        keep = ref.kept_indices(w)
        assert t[w].T @ verma_form.gram(w).take(keep, keep) @ t[w] == form.gram(w), w
        for gen in vw.cb.generators:
            tw = w + c.cb.generator_weight(gen)
            if tw in t:
                assert t[tw] @ simple.action(gen, w) == ref.action(gen, w) @ t[w], (gen, w)
    assert nonzero > 1



@pytest.mark.parametrize("cartan, delta_h, fund", _FINITE_CASES,
                         ids=[f"{c}-{len(d)}-{''.join(map(str, f))}" for c, d, f in _FINITE_CASES])
def test_finite_window_matches_eager_table(cartan, delta_h, fund):
    """A finite module, a lazy view of its certified simple window, has the
    eager table's weights and dims, and its action at every (generator,
    weight) is the table's up to the basis change T of
    `lowering_map`.  It is zero below its window without reading
    that window there."""
    c = ctx(cartan, delta_h)
    lam = weight_from_fundamental(c.rs, fund)
    f = finite_dim_simple(c.pair, c.cb, lam)
    dims, actions, quot = eager_finite_module(c.pair, c.cb, lam)
    assert f.weights() == sort_weights(dims)
    assert {w: f.dim(w) for w in f.weights()} == dims
    assert total_dim(f) == weyl_dimension(c.pair, lam)
    t = lowering_map(f.simple, quot, list(dims))
    lowest = c.pair.weyl.act(c.pair.weyl.longest, lam)
    theta = max(c.rs.positive_roots, key=lambda a: a.height)
    below = [lowest - theta * 2, lowest - theta * 3]  # past the window's margin
    for w in [*dims, *below]:
        for gen in f.cb.generators:
            tw = w + c.cb.generator_weight(gen)
            got = f.action(gen, w)
            if w in dims and tw in dims:
                expect = actions.get((gen, w), Mat.zero(f.dim(tw), f.dim(w)))
                assert t[tw] @ got == expect @ t[w], (gen, w)
            else:
                assert got == Mat.zero(f.dim(tw), f.dim(w)) and (gen, w) not in actions
    assert not any(w in f.simple._spaces for w in below)


def test_finite_dim_simple_computes_no_action(monkeypatch):
    """Certifying a finite module computes no action, of the finite module
    or of its simple window: actions are computed only when asked for."""
    from odirac.cato import FiniteWindow, SimpleWindow

    computed = []
    for cls in (SimpleWindow, FiniteWindow):
        def counted(self, gen, w, tw, compute=cls._compute_action):
            computed.append((gen, w))
            return compute(self, gen, w, tw)
        monkeypatch.setattr(cls, "_compute_action", counted)
    c = ctx("C3", [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    f = finite_dim_simple(c.pair, c.cb, Weight([2, 2, 1]))
    assert total_dim(f) == 21 and not computed
    assert not f._action_cache and not f.simple._action_cache


def test_kostant_run_computes_finite_actions_its_blocks_ask_for(monkeypatch):
    """On a cold c3_kostant_adjoint run each action of the finite module is
    computed at most once, and only between weights some block meets."""
    import os
    from collections import Counter
    from odirac import scenarios
    from odirac.cato import FiniteWindow

    monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
    computed = Counter()
    compute = FiniteWindow._compute_action

    def counted(self, gen, w, tw):
        computed[(self, gen, w)] += 1
        return compute(self, gen, w, tw)

    monkeypatch.setattr(FiniteWindow, "_compute_action", counted)
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "c3_kostant_adjoint.json")
    scn = scenarios.load_scenario(path)
    assert scenarios.run_scenario(scn)["ok"]
    f = scn.ctx.finite(Weight([2, 2, 1]))
    sm = scn.ctx.sm
    met = {w for sp in f.block_spaces.values() for _, w, _ in sp.slot.values()}
    q_gens = {(kind, a) for a in sm.pair.q_positive for kind in ("e", "f")}
    assert computed and set(computed.values()) == {1}
    assert {m for m, _, _ in computed} == {f}
    for _, gen, w in computed:
        assert gen in q_gens and w in met and w + f.cb.generator_weight(gen) in met
    assert len(computed) < len(f.weights()) * len(q_gens)


def test_no_window_computes_an_empty_action(monkeypatch):
    """On cold runs of every scenario and benchmark workload no window kind
    computes a map with no rows or no columns: `WeightModuleWindow.action`
    answers those with the zero map itself."""
    import glob
    import os
    from collections import Counter
    from odirac import scenarios
    from odirac.cato import FiniteWindow, SimpleWindow, SumWindow, TensorWindow, VermaWindow

    calls, empty = Counter(), Counter()
    for cls in (VermaWindow, QuotientWindow, SimpleWindow, FiniteWindow, TensorWindow,
                SumWindow):
        def counted(self, *args, compute=cls._compute_action, kind=cls.__name__):
            m = compute(self, *args)
            calls[kind] += 1
            empty[kind] += not (m.nrows and m.ncols)
            return m
        monkeypatch.setattr(cls, "_compute_action", counted)
    root = os.path.join(os.path.dirname(__file__), "..")
    paths = sorted(glob.glob(os.path.join(root, "scenarios", "*.json")) +
                   glob.glob(os.path.join(root, "perfbench", "workloads", "*.json")))
    assert len(paths) == 18
    for path in paths:
        monkeypatch.setattr(scenarios, "_CONTEXTS", {})  # a cold context
        assert scenarios.run_scenario(scenarios.load_scenario(path))["ok"], path
    assert len(calls) == 6, calls
    assert not +empty, empty


def leibniz_reference(t, gen, w):
    """Reference: gen on base (x) F at w as gen (x) 1 + 1 (x) gen, a dense
    Fraction matrix on the basis (nu, j, k): nu in supp F, then the basis
    vector j of F at nu, then the basis vector k of the base at w - nu."""
    base, f = t.base, t.factor
    wt = t.cb.generator_weight(gen)

    def basis(x):
        return [(nu, j, k) for nu in f.weights() for j in range(f.dim(nu))
                for k in range(base.dim(x - nu))]

    src, tgt = basis(w), basis(w + wt)
    index = {b: r for r, b in enumerate(tgt)}
    rows = [[F(0)] * len(src) for _ in tgt]
    for col, (nu, j, k) in enumerate(src):
        up = base.action(gen, w - nu).rows
        for r in range(len(up)):
            rows[index[(nu, j, r)]][col] += up[r][k]
        fa = f.action(gen, nu).rows
        for r in range(len(fa)):
            rows[index[(nu + wt, r, k)]][col] += fa[r][j]
    return Mat(rows, len(src))


@pytest.mark.parametrize("cartan, delta_h, lam, factor, depth", [
    ("A1", [], [F(-1, 3)], (1,), 8),
    ("A1", [], [-1], (2,), 8),
    ("A2", [(1, 0)], [F(-1, 2), -1], (1, 0), 5),
    ("A2", [], [-1, -1], (1, 1), 5),
])
def test_tensor_window_matches_leibniz_reference(cartan, delta_h, lam, factor, depth):
    """Every tensor-window action equals the dense Leibniz assembly."""
    c = ctx(cartan, delta_h)
    vw = verma_window(c.pair, c.cb, Weight(lam), depth)
    f = finite_dim_simple(c.pair, c.cb, weight_from_fundamental(c.rs, factor))
    t = tensor_with_finite_dim(vw, f)
    checked = 0
    for cc in cone_coords(c.rs.rank, depth):
        w = t.top_weight - Weight(cc)
        for gen in t.cb.generators:
            if t.materialized(w) and t.materialized(w + c.cb.generator_weight(gen)):
                assert t.action(gen, w) == leibniz_reference(t, gen, w), (gen, w)
                checked += not t.action(gen, w).is_zero()
    assert checked > 10
    with pytest.raises(ValueError):
        tensor_with_finite_dim(vw, simple_quotient_window(c.pair, c.cb, Weight(lam), depth))


def test_singular_vectors(a1):
    pair, cb = a1.pair, a1.cb
    alpha = pair.rs.simple_roots[0]
    lam = Weight([1])  # dominant integral, lam(h) = 2
    vw = verma_window(pair, cb, lam, 9)
    assert singular_vectors(vw, lam).nrows == 1
    assert singular_vectors(vw, lam - alpha * 3).nrows == 1  # s.lam
    for k in (1, 2, 4, 5):
        assert singular_vectors(vw, lam - alpha * k).nrows == 0
    lam2 = Weight([F(-3, 4)])  # antidominant non-integral
    vw2 = verma_window(pair, cb, lam2, 8)
    for k in range(1, 8):
        assert singular_vectors(vw2, lam2 - alpha * k).nrows == 0


def test_ses_from_embedding(a1):
    pair, cb = a1.pair, a1.cb
    alpha = pair.rs.simple_roots[0]
    lam = zero_weight(1)
    vw = verma_window(pair, cb, lam, 8)
    sv = singular_vectors(vw, lam - alpha)
    ses = ses_from_embedding(vw, lam - alpha, sv)
    sub, mid, quot = ses.modules()
    dims = [(sub.dim(lam - alpha * k), mid.dim(lam - alpha * k),
             quot.dim(lam - alpha * k)) for k in range(4)]
    assert dims == [(0, 1, 1), (1, 1, 0), (1, 1, 0), (1, 1, 0)]
    # per-weight exactness and intertwining of the canonical maps
    for gen in vw.cb.generators:
        for k in range(1, 6):
            w = lam - alpha * k
            tw = w + cb.generator_weight(gen)
            if not vw.materialized(tw):
                continue
            assert ses.inclusion(tw) @ sub.action(gen, w) == \
                vw.action(gen, w) @ ses.inclusion(w)
            assert ses.projection(tw) @ vw.action(gen, w) == \
                quot.action(gen, w) @ ses.projection(w)
    # generating from the top vector gives sub = everything
    ses2 = ses_from_embedding(vw, lam, Mat.identity(1))
    sub2, _, quot2 = ses2.modules()
    for k in range(6):
        assert sub2.dim(lam - alpha * k) == vw.dim(lam - alpha * k)
        assert quot2.dim(lam - alpha * k) == 0
    with pytest.raises(ValueError):
        ses_from_embedding(vw, lam - alpha, Mat.zero(1, 1))


def span_walk(vw, w0, v):
    """Reference SES sub: the f_beta-images of the one-row Mat v, spanned
    weight by weight down the cone below w0 (canonical rref basis rows)."""
    span = {w0: v}
    below = [w0 - Weight(c) for c in cone_coords(vw.rank, vw.depth)]
    for w in sorted((u for u in below if vw.materialized(u)), key=lambda u: (w0 - u).height):
        if w != w0:
            span[w] = row_space(Mat.zero(0, vw.dim(w)).vstack(
                *(span[w + beta] @ vw.action(("f", beta), w + beta).T
                  for beta in vw.pair.rs.positive_roots if w + beta in span)))
    return span


class SpanWalkSub(WeightModuleWindow):
    """The span walk as a window: actions solved against the parent."""

    kind = "sub"

    def __init__(self, vw, w0, span):
        super().__init__(vw.pair, vw.cb)
        self.parent, self.span = vw, span
        self.top_weight, self.infchars = w0, (w0,)

    def materialized(self, w):
        return self.parent.materialized(w)

    def dim(self, w):
        return self.span[w].nrows if w in self.span else 0

    def inclusion(self, w):
        return self.span[w].T if w in self.span else Mat.zero(self.parent.dim(w), 0)

    def _compute_action(self, gen, w, tw):
        image = self.parent.action(gen, w) @ self.inclusion(w)
        return self.inclusion(tw).solve(image)


@pytest.mark.parametrize("cartan, delta_h, w0", [
    ("A2", (), (-1, 0)), ("A2", (), (-2, -2)), ("A2", [(1, 0)], (0, -1)),
    ("B2", (), (-1, 0)), ("G2", (), (0, -1)),
])
def test_ses_from_embedding_rank2_matches_span_walk(cartan, delta_h, w0):
    """On rank 2, where weight spaces have dimension above 1, the Verma
    sub and its inclusion give the span walk's submodule, quotient and
    circle certificates, and every generator intertwines both maps."""
    c = ctx(cartan, delta_h)
    pair, cb = c.pair, c.cb
    vw = verma_window(pair, cb, zero_weight(2), 6)
    w0 = Weight(w0)
    sv = singular_vectors(vw, w0)
    assert sv.nrows == 1
    ses = ses_from_embedding(vw, w0, sv)
    sub, mid, quot = ses.modules()
    assert sub.kind == "verma" and sub.top_weight == w0 and mid is vw
    span = span_walk(vw, w0, sv)
    ref_sub = SpanWalkSub(vw, w0, span)
    ref_quot = QuotientWindow(vw, lambda w: span_quotient_data(ref_sub.inclusion(w).T),
                              "sesquot")
    weights = [vw.lam - Weight(d) for d in cone_coords(2, vw.depth)]
    assert max(vw.dim(w) for w in weights) > 1
    for w in weights:
        incl = ses.inclusion(w)
        assert sub.dim(w) == incl.rank() == ref_sub.dim(w)
        assert row_space(incl.T) == row_space(ref_sub.inclusion(w).T)
        assert quot.kept_indices(w) == ref_quot.kept_indices(w)
        assert quot.projection(w) == ref_quot.projection(w)
        for gen in vw.cb.generators:
            tw = w + cb.generator_weight(gen)
            if not vw.materialized(tw):
                continue
            assert ses.inclusion(tw) @ sub.action(gen, w) == vw.action(gen, w) @ incl
            assert ses.projection(tw) @ vw.action(gen, w) == \
                quot.action(gen, w) @ ses.projection(w)
    ref = SESData(ref_sub, vw, ref_quot, ref_sub.inclusion, ref_quot.projection)
    mus = c.block_weights(vw, 3)
    assert len(mus) == 10
    for mu in mus:
        got, want = (exact_circle(c.sm, s, mu) for s in (ses, ref))
        assert got.exact and want.exact and got.node_dims == want.node_dims
        assert [(t["k"], t["l"], t["m"]) for t in got.triples] == \
            [(t["k"], t["l"], t["m"]) for t in want.triples]


def test_ses_split(a1):
    pair, cb = a1.pair, a1.cb
    m1 = verma_window(pair, cb, Weight([F(1, 2)]), 8)
    m3 = verma_window(pair, cb, Weight([F(-3, 2)]), 8)
    ses = ses_split(m1, m3)
    sub, mid, quot = ses.modules()
    alpha = pair.rs.simple_roots[0]
    for k in range(5):
        w = m1.top_weight - alpha * k
        assert mid.dim(w) == m1.dim(w) + m3.dim(w)
        i, p = ses.inclusion(w), ses.projection(w)
        assert (p @ i).is_zero()
        assert i.rank() + 0 == m1.dim(w)
        assert p.rank() == m3.dim(w)
    # tops that differ by a non-integral amount, or in both directions, are refused
    with pytest.raises(ValueError, match="not comparable"):
        ses_split(m1, verma_window(pair, cb, Weight([0]), 8))
    a2 = ctx("A2")
    with pytest.raises(ValueError, match="not comparable"):
        ses_split(a2.verma((0, 0), 4), a2.verma((1, -1), 4))


def test_characters(a2_su21):
    pair = a2_su21.pair
    mu = -pair.rho_h
    alpha1 = Weight([1, 0])
    ch = verma_character_h(pair, mu, [mu - alpha1 * k for k in range(5)])
    assert list(ch.values()) == [1] * 5
    # off the string the h-Verma character vanishes
    ch2 = verma_character_h(pair, mu, [mu - Weight([0, 1])])
    assert list(ch2.values()) == [0]
    # h = t: single weight
    ct = ctx("A2")
    cht = verma_character_h(ct.pair, mu, [mu, mu - alpha1])
    assert cht[mu] == 1 and cht[mu - alpha1] == 0
    # finite h-characters: alpha1 as highest weight of the sl2-string, dim 3
    fch = finite_character_h(pair, alpha1)
    assert sum(fch.values()) == 3
    assert fch[alpha1] == fch[zero_weight(2)] == fch[-alpha1] == 1


def test_quotient_plus_radical_dimension(a1):
    pair, cb = a1.pair, a1.cb
    lam = Weight([1])
    vw = verma_window(pair, cb, lam, 8)
    grams = shapovalov_grams(vw)
    quot = simple_quotient_window(pair, cb, lam, 8)
    alpha = pair.rs.simple_roots[0]
    for k in range(8):
        w = lam - alpha * k
        assert quot.dim(w) + grams.radical(w).nrows == vw.dim(w)


@settings(max_examples=12, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 6), st.integers(-40, 40), st.integers(1, 6))
def test_commutation_fidelity_random_lambda(a_num, a_den, b_num, b_den):
    """Bracket-versus-commutator fidelity holds for arbitrary rational tops."""
    c = ctx("A2", [(1, 0)])
    lam = Weight([F(a_num, a_den), F(b_num, b_den)])
    vw = verma_window(c.pair, c.cb, lam, 5)
    weights = [lam - Weight(cc) for cc in [(1, 1), (2, 1), (0, 2)]]
    for w in weights:
        for ix in range(c.cb.dim):
            for iy in range(ix + 1, c.cb.dim):
                d = commutation_defect(vw, w, ix, iy)
                if d is not None:
                    assert d.is_zero(), (lam, w, ix, iy)


def weight_recursion_monomials(pos_roots, delta):
    """Reference PBW enumeration: the recursion in Weight arithmetic, step by step."""
    n = len(pos_roots)
    out = []

    def rec(prefix, rem, i):
        if i == n:
            if not any(rem):
                out.append(tuple(prefix))
            return
        k = 0
        cur = rem
        while all(c >= 0 for c in cur):
            rec(prefix + [k], cur, i + 1)
            k += 1
            cur = cur - pos_roots[i]

    rec([], delta, 0)
    return out


@pytest.mark.parametrize("cartan, lam, depth", [
    ("A2", [F(-1, 2), -2], 14),
    ("A3", [-1, -2, -3], 10),
    ("B3", [F(1, 3), 0, -1], 6),
    ("G2", [2, F(-5, 2)], 8),  # root coordinates up to 3
])
def test_pbw_enumeration_matches_weight_recursion(cartan, lam, depth):
    """The integer cone lists the same monomials, in the same order, at every weight."""
    c = ctx(cartan)
    lam = Weight(lam)
    vw = verma_window(c.pair, c.cb, lam, depth)
    for cc in cone_coords(c.rs.rank, depth):
        w = lam - Weight(cc)
        assert vw.basis(w) == weight_recursion_monomials(c.cb.pos, lam - w), w
    # lam - w not integral: outside the support cone, no monomials
    off = lam - Weight([F(1, 2)] + [0] * (c.rs.rank - 1))
    assert vw.basis(off) == [] and vw.dim(off) == 0
    assert weight_recursion_monomials(c.cb.pos, lam - off) == []


def test_pbw_enumeration_builds_no_weight(monkeypatch):
    """A cold window reaches the basis of a deep weight without a single Weight."""
    c = ctx("A3")
    lam = Weight([-1, -2, -3])
    vw = verma_window(c.pair, c.cb, lam, 10)
    w = lam - Weight([3, 4, 3])
    built = []
    new = Weight.__new__

    def counted(cls, coords):
        built.append(coords)
        return new(cls, coords)

    monkeypatch.setattr(Weight, "__new__", counted)
    basis = vw.basis(w)
    assert len(basis) == 26 and not built
    assert vw.cone.monomials((1, 2, 1)) and not built
    monkeypatch.undo()
    assert basis == weight_recursion_monomials(c.cb.pos, lam - w)


def test_kostant_counter_on_the_cone(a2_su21):
    cnt = kostant_partition_counter(a2_su21.pair.rs.positive_roots)
    assert cnt(zero_weight(2)) == 1
    assert cnt(Weight([2, 2])) == 3
    assert cnt(Weight([F(1, 2), 1])) == 0  # non-integral
    assert cnt(Weight([-1, 2])) == 0  # negative
    assert kostant_partition_counter([])(zero_weight(2)) == 1
    assert kostant_partition_counter([])(Weight([1, 0])) == 0
