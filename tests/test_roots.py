"""Root systems, the dual Killing form, Weyl groups and antidominance."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odirac import scenarios
from odirac.cato import WeightModuleWindow
from odirac.exactla import Mat
from odirac.roots import (NotASubsystem, UnsupportedCartanType, Weight,
                          build_root_system, eps_to_weight, is_antidominant,
                          killing_form_on_dual, rho_vectors, same_infinitesimal_character,
                          validate_delta_h, weyl_group, zero_weight)
from conftest import ctx
from helpers import (ad_matrix, closed_subsystems, reference_weyl_data, weight_from_fundamental,
                     weight_to_eps, weight_to_fundamental)

F = Fraction


def test_a1_two_roots():
    rs = build_root_system("A1")
    assert len(rs.all_roots) == 2
    assert rs.positive_roots == [Weight([1])]


def test_a2_matches_eps_list():
    rs = build_root_system("A2")
    assert len(rs.all_roots) == 6 and len(rs.positive_roots) == 3
    eps = {weight_to_eps(rs, r) for r in rs.all_roots}
    want = set()
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        for s in (1, -1):
            v = [0, 0, 0]
            v[i], v[j] = s, -s
            want.add(tuple(F(x) for x in v))
    assert eps == want


def test_b2_by_reflection_closure():
    rs = build_root_system("B2")
    assert len(rs.all_roots) == 8 and len(rs.positive_roots) == 4
    # independent oracle: the set is closed under all simple reflections
    for r in rs.all_roots:
        for j in range(rs.rank):
            img = Weight(rs.simple_reflection(j).apply(r))
            assert img in rs.root_set


def test_root_set_structure():
    for label in ("A1", "A2", "B2", "G2", "A3", "A1xA1"):
        rs = build_root_system(label)
        assert {-r for r in rs.all_roots} == rs.root_set
        pos = set(rs.positive_roots)
        assert pos | {-r for r in pos} == rs.root_set
        assert not pos & {-r for r in pos}
        for r in rs.positive_roots:
            assert all(c >= 0 and c.denominator == 1 for c in r)


def test_unsupported_labels():
    with pytest.raises(UnsupportedCartanType):
        build_root_system("E8")
    with pytest.raises(UnsupportedCartanType):
        build_root_system("A2xA3")  # rank 5 exceeds the cap


def test_killing_form_values():
    # independent oracle: Killing form on the Cartan from adjoint traces of
    # the Chevalley basis, then dualized
    for label, want in [("A1", F(1, 2)), ("A2", F(1, 3))]:
        c = ctx(label)
        rs, cb = c.rs, c.cb
        d = cb.dim
        k_rows = []
        for i in range(rs.rank):
            row = []
            for j in range(rs.rank):
                tr = F(0)
                adi, adj = ad_matrix(cb, i), ad_matrix(cb, j)
                prod = adi @ adj
                row.append(prod.trace())
            k_rows.append(row)
        kmat = Mat(k_rows, rs.rank)
        a = Mat([[F(x) for x in r] for r in rs.cartan_matrix], rs.rank)
        gram = a @ kmat.inv() @ a.T
        assert gram == c.form.gram
        alpha = rs.simple_roots[0]
        if label == "A1":
            assert c.form.pair(alpha, alpha) == want
        else:
            rho, _ = rho_vectors(rs, [])
            assert c.form.norm2(rho) == want


def test_form_weyl_invariance_and_rationality():
    c = ctx("A2")
    weyl = weyl_group(c.rs, c.form, [])
    rho, _ = rho_vectors(c.rs, [])
    for i in range(len(weyl.elements)):
        img = weyl.act(i, rho)
        assert c.form.norm2(img) == c.form.norm2(rho)
    for row in c.form.gram.rows:
        for x in row:
            assert isinstance(x, F)


def reference_pair(gram_rows, v, w):
    """<v, w> as one Fraction multiply-add per Gram entry, on the Fraction view."""
    return sum((v[i] * g_ij * w[j] for i, row in enumerate(gram_rows)
                for j, g_ij in enumerate(row)), F(0))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C3", "C4", "D4", "G2", "F4", "A1xA1", "A1xB2"])
def test_form_pair_matches_fraction_reference(label):
    """The int pairing equals the plain-Fraction one on every root pair, and
    on each rho- or rho_h-shifted root against every root and every shift
    (h spanned by the first simple root)."""
    c = ctx(label)
    rs = c.rs
    rho, rho_h = rho_vectors(rs, [rs.simple_roots[0]])
    assert rho_h == rs.simple_roots[0] * F(1, 2)
    mixed = Weight([F(1, k + 2) for k in range(rs.rank)])
    shifts = [rho, rho_h, rho - rho_h, mixed]
    weights = [*rs.all_roots, *(a + rho for a in rs.all_roots),
               *(a - rho_h for a in rs.all_roots), *shifts]
    g = c.form.gram.rows
    for v in weights:
        assert c.form.norm2(v) == reference_pair(g, v, v)
        for w in [*rs.all_roots, *shifts]:
            got = c.form.pair(v, w)
            assert type(got) is F and got == reference_pair(g, v, w)


def test_rho_vectors():
    rs = build_root_system("A2")
    rho, rho_h = rho_vectors(rs, [])
    assert weight_to_eps(rs, rho) == (F(1), F(0), F(-1))  # eps1 - eps3
    assert rho_h == zero_weight(2)
    rho, rho_h = rho_vectors(rs, [Weight([1, 0])])
    assert weight_to_eps(rs, rho - rho_h) == (F(1, 2), F(1, 2), F(-1))
    assert 2 * rho == sum(rs.positive_roots, zero_weight(2))


def test_validate_delta_h():
    """Positive roots, or a negation-closed signed list, of a closed subsystem."""
    rs = build_root_system("A2")
    a, b = Weight([1, 0]), Weight([0, 1])
    assert validate_delta_h(rs, []) == []
    assert validate_delta_h(rs, [a + b, b, a, b]) == [b, a, a + b]
    assert validate_delta_h(rs, [-a, a]) == [a]
    assert validate_delta_h(rs, [a, b, a + b, -a, -b, -a - b]) == [b, a, a + b]
    with pytest.raises(NotASubsystem, match=r"^\(2, 2\) is not a positive root of A2$"):
        validate_delta_h(rs, [Weight([2, 2])])
    with pytest.raises(NotASubsystem, match=r"^not closed: "):
        validate_delta_h(rs, [a, b])
    for bad in ([a, -b], [-a], [a, -a, -b], [a, Weight([0, 0])], [Weight([1, -1])]):
        with pytest.raises(NotASubsystem, match="^subset is not negation-closed$"):
            validate_delta_h(rs, bad)


def test_weyl_group_and_coset():
    c1 = ctx("A1")
    w1 = weyl_group(c1.rs, c1.form, [])
    assert len(w1.coset_W1) == 2  # condition vacuous, W1 = W
    c2 = ctx("A2", [(1, 0)])
    weyl = c2.pair.weyl
    assert len(weyl.elements) == 6
    # direct test of the defining condition on all 6 elements
    pos = set(c2.rs.positive_roots)
    beta = Weight([1, 0])
    expect = [i for i, w in enumerate(weyl.elements)
              if weyl.act(weyl.index[w.inv()], beta) in pos]
    assert weyl.coset_W1 == expect and len(expect) == 3
    assert 0 in weyl.coset_W1  # identity always qualifies
    assert len(weyl.coset_W1) * len(weyl.subgroup_h) == len(weyl.elements)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A1xA1", "A3", "B3", "C3", "A4",
                                   "D4"])
def test_weyl_data_matches_matrix_reference(label):
    """On every closed subsystem, W^1, W_h, the lengths in W_h and the longest
    element read off the orbit of rho equal their construction by matrices:
    the inverse table, the closure under every Delta_h^+ reflection and the
    count of Delta_h^+ roots sent negative."""
    rs = build_root_system(label)
    form = killing_form_on_dual(rs)
    for sub in closed_subsystems(rs):
        weyl = weyl_group(rs, form, validate_delta_h(rs, sub))
        elements, coset, h_lengths, longest = reference_weyl_data(rs, form, sub)
        assert weyl.elements == elements, sub
        assert weyl.coset_W1 == coset, sub
        assert weyl.h_lengths == h_lengths and weyl.subgroup_h == sorted(h_lengths), sub
        assert weyl.longest == longest, sub
        assert len(coset) * len(h_lengths) == len(elements), sub


def test_simple_reflection_permutes_other_positives():
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        for j, alpha in enumerate(rs.simple_roots):
            others = {r for r in rs.positive_roots if r != alpha}
            image = {Weight(rs.simple_reflection(j).apply(r)) for r in others}
            assert image == others


def test_lengths_match_inversions():
    c = ctx("A2")
    weyl = weyl_group(c.rs, c.form, [])
    pos = set(c.rs.positive_roots)
    for i in range(len(weyl.elements)):
        inv = sum(1 for a in pos if Weight(weyl.elements[i].apply(a)) not in pos)
        assert weyl.lengths[i] == inv


def test_antidominance():
    c2 = ctx("A2")
    rho, _ = rho_vectors(c2.rs, [])
    assert is_antidominant(-rho, c2.rs.positive_roots, c2.form, rho)
    assert is_antidominant(-2 * rho, c2.rs.positive_roots, c2.form, rho)
    # the -2rho case evaluates to -1 on simple coroots, -2 on the highest one
    vals = sorted(c2.form.coroot_pair(-2 * rho + rho, alpha)
                  for alpha in c2.rs.positive_roots)
    assert vals == [-2, -1, -1]
    assert all(not (v.denominator == 1 and v > 0) for v in vals)
    c1 = ctx("A1")
    rho1, _ = rho_vectors(c1.rs, [])
    assert not is_antidominant(zero_weight(1), c1.rs.positive_roots, c1.form, rho1)
    assert c1.form.coroot_pair(rho1, c1.rs.simple_roots[0]) == 1


def test_same_infinitesimal_character():
    c1 = ctx("A1")
    weyl = weyl_group(c1.rs, c1.form, [])
    rho, _ = rho_vectors(c1.rs, [])
    lam = Weight([F(3, 7)])
    assert same_infinitesimal_character(lam, lam, rho, rho, weyl)
    mu = -lam - 2 * rho  # mu + rho = -(lam + rho)
    assert same_infinitesimal_character(lam, mu, rho, rho, weyl)
    c2 = ctx("A2")
    weyl2 = weyl_group(c2.rs, c2.form, [])
    rho2, _ = rho_vectors(c2.rs, [])
    lam = -rho2
    mu = -rho2 + c2.rs.simple_roots[0]
    # the orbit of lam + rho = 0 is {0}
    assert {weyl2.act(i, lam + rho2) for i in range(6)} == {zero_weight(2)}
    assert not same_infinitesimal_character(lam, mu, rho2, rho2, weyl2)


def test_eps_roundtrip_exact():
    rs = build_root_system("A2")
    v = Weight([F(5, 7), F(-3, 11)])
    assert eps_to_weight(rs, weight_to_eps(rs, v)) == v
    with pytest.raises(ValueError):
        eps_to_weight(rs, (1, 1, 1))


def test_fundamental_coordinates_roundtrip():
    rs = build_root_system("B2")
    v = Weight([F(5, 3), F(-7, 4)])
    vals = weight_to_fundamental(rs, v)
    assert weight_from_fundamental(rs, vals) == v
    rs2 = build_root_system("A2")
    om1 = weight_from_fundamental(rs2, (1, 0))
    assert om1 == Weight([F(2, 3), F(1, 3)])


# -- the canonical coordinate form of Weight ----------------------------------

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def assert_canonical(w):
    """A Weight whose coordinates are ints when integral, reduced Fractions otherwise."""
    assert type(w) is Weight
    for c in w:
        assert type(c) is int or (type(c) is F and c.denominator != 1), (w, type(c))


@st.composite
def coordinate_lists(draw, n):
    """n rationals, and the same values as a mix of Fraction, int and str inputs."""
    vals = draw(st.lists(rationals, min_size=n, max_size=n))
    forms = draw(st.lists(st.sampled_from(["fraction", "exact", "str"]), min_size=n, max_size=n))
    inputs = [v if f == "fraction" else str(v) if f == "str"
              else v.numerator if v.denominator == 1 else v
              for v, f in zip(vals, forms)]
    return tuple(vals), inputs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(coordinate_lists(n), coordinate_lists(n))),
       rationals, st.integers(-4, 4))
def test_weight_matches_fraction_tuples(pair, s, k):
    (a, a_in), (b, b_in) = pair
    wa, wb = Weight(a_in), Weight(b_in)
    results = {
        "new": (wa, a),
        "add": (wa + wb, tuple(x + y for x, y in zip(a, b))),
        "sub": (wa - wb, tuple(x - y for x, y in zip(a, b))),
        "neg": (-wa, tuple(-x for x in a)),
        "mul": (wa * s, tuple(s * x for x in a)),
        "rmul": (s * wa, tuple(s * x for x in a)),
        "int mul": (k * wa, tuple(k * x for x in a)),
        "sum": (sum([wa, wb]), tuple(x + y for x, y in zip(a, b))),
    }
    for what, (got, ref) in results.items():
        assert_canonical(got)
        assert got == ref and tuple(got) == ref, what
        assert hash(got) == hash(ref), what
        assert got.height == sum(ref, F(0)), what
        assert repr(got) == "(" + ", ".join(str(x) for x in ref) + ")", what
        assert scenarios.wkey(got) == "[" + ", ".join(str(x) for x in ref) + "]", what
    assert (wa == wb) == (a == b) and (wa != wb) == (a != b)
    assert (wa < wb) == (a < b) and (wa <= wb) == (a <= b)
    ws = [got for got, _ in results.values()]
    refs = [ref for _, ref in results.values()]
    assert [tuple(w) for w in sorted(ws)] == sorted(refs)
    assert [tuple(w) for w in sorted(ws, key=lambda v: (-v.height, v))] == \
        sorted(refs, key=lambda v: (-sum(v, F(0)), v))
    assert {w: i for i, w in enumerate(ws)} == {r: i for i, r in enumerate(refs)}


def test_weight_rejects_floats():
    with pytest.raises(TypeError):
        Weight([F(1, 2), 0.5])
    with pytest.raises(TypeError):
        Weight([1, 2]) * 0.5


def _window_weight_keys(m):
    """Every Weight cached on a window: action, basis, Gram, below-top and Casimir caches."""
    for gen, w in m._action_cache:
        yield w
        if gen[0] != "h":
            yield gen[1]
    yield from getattr(m, "_basis_cache", {})
    yield from m._below_top.values()
    yield from m.casimirs
    form = getattr(m, "_form", None)
    if form is not None:
        yield from form._grams


@pytest.mark.parametrize("path", [
    os.path.join(REPO, "scenarios", "sl3_paper_example.json"),
    os.path.join(REPO, "perfbench", "workloads", "a3_hodge.json"),
], ids=["sl3_paper_example", "a3_hodge"])
def test_cached_weight_keys_are_canonical(path):
    scn = scenarios.load_scenario(path)
    assert scenarios.run_scenario(scn)["ok"]
    ctx = scn.ctx
    windows = set(ctx._modules.values())
    keys = [w for m in windows for cache in (m.blocks, m.block_spaces) for _, w in cache]
    assert keys and all(isinstance(m, WeightModuleWindow) for m in windows)
    for m in windows:
        keys.extend(_window_weight_keys(m))
    assert len(keys) > 100
    for w in keys:
        assert_canonical(w)
