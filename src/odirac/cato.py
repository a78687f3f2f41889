"""Category-O modules materialized on finite weight windows.

A window holds, per weight, an ordered basis and exact action matrices
for every Chevalley generator; h_j acts on every window's weight space
at w by w(h_j).  Verma modules are realized on PBW monomials in the
negative root vectors (fixed height-then-lex root order), each written
f_beta u with u one step up, so every action at w is summed from the
window's own maps at the weights above it.  The monomials of a weight
w are enumerated in the integer cone coordinates lambda - w; a
`Weight` is built only where the window's API takes or returns one.
A simple module L(lambda) is built top down from its own weight
spaces, not as a quotient of a Verma window: L_w is spanned by
f_j applied to L at w + alpha_j, each spanning vector represented by
its e_i-images one weight up (faithful, since L has no singular vector
below lambda), and one row reduction per weight gives the basis and
the simple e and f maps.  Work follows dim L.  Each Verma and simple
window carries its own contravariant form.  A finite module F(lambda)
is that simple window with certified dimensions, zero below them.
M tensor F lays out each weight in `SlotSpace` slots and assembles its
actions with `block_operator`, as the Dirac blocks of M tensor S do.
The exact sequence 0 -> M(w0) -> M(lambda) -> M(lambda)/M(w0) -> 0 cut
out by a singular vector at w0 needs no submodule view: U(n-) acts
freely on a Verma module, so its sub is the Verma window of w0, mapped
in by f-actions from the singular vector, and its quotient keeps, per
weight, the parent indices that stay a basis and the projection onto
them.  Everything is rational and deterministic.
"""

from fractions import Fraction
from functools import cache, partial
from math import lcm

from .exactla import Mat
from .liealg import ChevalleyBasis, PairGH
from .roots import Weight, is_dominant_integral, zero_weight

_F0 = Fraction(0)
_F1 = Fraction(1)


class OutsideWindow(Exception):
    """A requested weight space is not materialized on this window."""


class WindowTooShallow(Exception):
    """The window is too shallow to certify the requested construction."""


def cone_coords(rank, total):
    """All nonnegative integer coordinate vectors with coordinate sum <= total."""
    out = []

    def rec(prefix, remaining, k):
        if k == rank:
            out.append(tuple(prefix))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c, k + 1)

    rec([], total, 0)
    return out


def _delta_coords(lam, w):
    """lam - w as integer coordinates, or None when w is outside the cone."""
    coords = []
    for a, b in zip(lam, w):
        c = a - b
        if c < 0 or c.denominator != 1:
            return None
        coords.append(c.numerator)
    return tuple(coords)


def _within_depth(lam, depth, w):
    """True iff w is within `depth` of lam or outside the cone below lam
    (where a highest weight module is known to be zero)."""
    coords = _delta_coords(lam, w)
    return coords is None or sum(coords) <= depth


def comparable_tops(a, b) -> bool:
    """True iff a - b or b - a has nonnegative integer simple-root coordinates."""
    return _delta_coords(a, b) is not None or _delta_coords(b, a) is not None


class _PBWCone:
    """PBW exponent tuples over positive roots, in integer simple-root coordinates.

    `monomials(delta)` lists the tuples k with sum k_i beta_i = delta in
    lex order.  The suffix list of every (root position, remaining
    coordinates) is memoized, so each is enumerated once per cone.
    """

    def __init__(self, pos_roots):
        self.roots = tuple(map(tuple, pos_roots))
        self._memo = {}

    def monomials(self, delta, i=0):
        key = (i, delta)
        out = self._memo.get(key)
        if out is None:
            if i == len(self.roots):
                out = [] if any(delta) else [()]
            else:
                beta = self.roots[i]
                out = []
                k = 0
                while all(c >= 0 for c in delta):
                    out.extend((k,) + s for s in self.monomials(delta, i + 1))
                    k += 1
                    delta = tuple(c - b for c, b in zip(delta, beta))
            self._memo[key] = out
        return out


def _inc(mono, i):
    return mono[:i] + (mono[i] + 1,) + mono[i + 1:]


def _dec(mono, i):
    return mono[:i] + (mono[i] - 1,) + mono[i + 1:]


class WeightModuleWindow:
    """Shared surface of all window kinds; subclasses fill the hooks.

    Every nonzero weight lies below `top_weight` (Dirac blocks rely on it).
    `action(gen, w)` is the one place that finds the target weight tw of
    a Chevalley generator (`ChevalleyBasis.generators`), checks that both
    weights are materialized, answers each h_j by w(h_j) and the zero map
    when either space is empty, and memoizes the result; each kind's
    `_compute_action(gen, w, tw)` is called only for a root vector
    between two nonzero spaces.
    The window also owns what is built from it, so dropping the last
    reference to it frees all of that: its Dirac blocks and their
    BlockSpaces keyed by (spin module, weight) (`dirac.block`,
    `dirac.block_space`), the diagonal h-generator maps between blocks
    keyed by (spin module, generator, weight) (`dirac.h_generator_block`),
    the Casimir of g keyed by weight (`dirac._casimir`) and its
    block-weight lists keyed by (depth, margin)
    (`PairContext.block_weights`).
    """

    kind = "abstract"
    _form = None  # the window's ContravariantForm, see shapovalov_grams

    def __init__(self, pair: PairGH, cb: ChevalleyBasis):
        self.pair = pair
        self.cb = cb
        self.rank = pair.rank
        self._action_cache = {}
        self._below_top = {}
        self.blocks = {}
        self.block_spaces = {}
        self.h_blocks = {}
        self.casimirs = {}
        self.block_weight_lists = {}

    def materialized(self, w: Weight) -> bool:
        raise NotImplementedError

    def dim(self, w: Weight) -> int:
        raise NotImplementedError

    def _compute_action(self, gen, w: Weight, tw: Weight) -> Mat:
        raise NotImplementedError

    def weight_below_top(self, drop) -> Weight:
        """top_weight - drop, for a tuple of simple-root coordinates; memoized.

        Callers that step through weights in integer coordinates build
        each module weight once here instead of once per step.
        """
        w = self._below_top.get(drop)
        if w is None:
            w = self._below_top[drop] = Weight(t - d for t, d in zip(self.top_weight, drop))
        return w

    def action(self, gen, w: Weight) -> Mat:
        key = (gen, w)
        m = self._action_cache.get(key)
        if m is None:
            if not self.materialized(w):
                raise OutsideWindow(f"{self.kind}: source weight {w} not materialized")
            kind, j = gen
            if kind == "h":  # h_j acts on every weight space by <w, alpha_j^vee>
                m = Mat.scalar(self.dim(w), self.pair.rs.pairing_with_simple_coroots(w)[j])
            else:
                tw = w + self.cb.generator_weight(gen)
                if not self.materialized(tw):
                    raise OutsideWindow(f"{self.kind}: target weight {tw} not materialized")
                rows, cols = self.dim(tw), self.dim(w)
                m = (self._compute_action(gen, w, tw) if rows and cols
                     else Mat.zero(rows, cols))
            self._action_cache[key] = m
        return m


def commutator_action(m: WeightModuleWindow, x, y, w: Weight) -> Mat:
    """x y - y x on m at weight w, for generators x and y."""
    wx, wy = m.cb.generator_weight(x), m.cb.generator_weight(y)
    return m.action(x, w + wy) @ m.action(y, w) - m.action(y, w + wx) @ m.action(x, w)


def sort_weights(ws):
    return sorted(ws, key=lambda v: (-v.height, v))


class VermaWindow(WeightModuleWindow):
    """M(lambda) truncated at a fixed depth below the highest weight."""

    kind = "verma"

    def __init__(self, pair, cb, lam, depth: int):
        super().__init__(pair, cb)
        self.lam = Weight(lam)
        self.depth = int(depth)
        self.top_weight = self.lam
        self.infchars = (self.lam,)
        self.cone = _PBWCone(cb.pos)
        self._position = {beta: p for p, beta in enumerate(cb.pos)}
        self._basis_cache = {}
        self._indices = {}
        self._group_cache = {}

    def materialized(self, w):
        return _within_depth(self.lam, self.depth, w)

    def basis(self, w):
        b = self._basis_cache.get(w)
        if b is None:
            coords = _delta_coords(self.lam, w)
            if coords is None:
                b = []
            elif sum(coords) > self.depth:
                raise OutsideWindow(f"verma: weight {w} below depth {self.depth}")
            else:
                b = self.cone.monomials(coords)
            self._basis_cache[w] = b
        return b

    def dim(self, w):
        return len(self.basis(w))  # `basis` raises OutsideWindow below the depth

    def _index(self, w):
        """{monomial: its position in the basis at w}; memoized."""
        ix = self._indices.get(w)
        if ix is None:
            ix = self._indices[w] = {m: i for i, m in enumerate(self.basis(w))}
        return ix

    def _groups(self, w):
        """(p, positions, us, w + beta_p) per first root position p of the
        monomials at w, as `first_factors` lists them; memoized.  The top's
        empty monomial starts after every root: p = npos, with no u."""
        g = self._group_cache.get(w)
        if g is None:
            basis, npos = self.basis(w), self.cb.npos
            by_first = {}
            for r, mono in enumerate(basis):
                by_first.setdefault(next((p for p, k in enumerate(mono) if k), npos), []).append(r)
            g = self._group_cache[w] = []
            for p, positions in by_first.items():
                if p == npos:
                    g.append((p, positions, None, None))
                    continue
                up = w + self.cb.pos[p]
                index = self._index(up)
                g.append((p, positions, [index[_dec(basis[r], p)] for r in positions], up))
        return g

    def _compute_action(self, gen, w, tw):
        """gen at w from the window's own maps one step up.

        Basis vector f_beta u (`first_factors`) goes to
        x f_beta u = f_beta (x u) + [x, f_beta] u.  For x = e_gamma, f_beta
        is the window's f-action into tw.  For x = f_gamma with gamma after
        beta, x u starts no earlier than beta, so f_beta only raises beta's
        exponent; f_gamma on a monomial whose first root is not before
        gamma raises gamma's exponent.  The terms are summed in one pass.
        """
        cb = self.cb
        kind, gamma = gen
        g = self._position[gamma]
        x = cb.generator_index(gen)
        basis, index = self.basis(w), self._index(tw)
        tiles = []
        for p, positions, us, up in self._groups(w):
            if kind == "f" and g <= p:
                tiles.append(([index[_inc(basis[c], g)] for c in positions], positions,
                              1, _identity(len(positions))))
                continue
            beta = cb.pos[p]
            xu = self.action(gen, up).take(cols=us)
            if kind == "e":
                f_xu = self.action(("f", beta), tw + beta) @ xu
                tiles.append((range(f_xu.nrows), positions, 1, f_xu))
            else:
                tiles.append(([index[_inc(m, p)] for m in self.basis(tw + beta)], positions, 1, xu))
            for k, c in cb.bracket(x, cb.generator_index(("f", beta))).items():
                yu = self.action(cb.generators[k], up).take(cols=us)
                tiles.append((range(yu.nrows), positions, c, yu))
        return _tile_sum(len(index), len(basis), tiles)

    def first_factors(self, w):
        """The basis monomials at w below the top, written f_beta u, grouped by
        their first root.

        A monomial whose first nonzero exponent sits at root beta is f_beta
        applied to u, the monomial with that exponent lowered by one, of
        weight w + beta.  Yields (beta, positions, us) per first root: the
        basis positions of the monomials that start with beta and the
        indices of their u in the basis at w + beta.
        """
        for p, positions, us, _ in self._groups(w):
            yield self.cb.pos[p], positions, us


def verma_window(pair, cb, lam, depth) -> VermaWindow:
    return VermaWindow(pair, cb, lam, depth)


# -- contravariant (Shapovalov) form -----------------------------------------

class ContravariantForm:
    """Gram matrices of the contravariant form on a Verma window or on a
    simple window L(lambda).

    Built by `shapovalov_grams`, which keeps one per window.  Each window
    writes its basis vectors at w as f_beta u, u a basis vector at
    w + beta (`first_factors`): PBW monomials split at their first root
    on a Verma window, f_j applied to the basis of L at w + alpha_j on a
    simple window.  So the simple window's Grams never pass through a
    Verma window.
    """

    def __init__(self, window):
        self.window = window
        self._grams = {}

    def gram(self, w) -> Mat:
        g = self._grams.get(w)
        if g is None:
            g = self._compute(w)
            self._grams[w] = g
        return g

    def _compute(self, w):
        """G(w) from the Grams above it and the window's raising actions.

        Write basis vector i as f_beta u, u of weight w + beta.
        tau(f_beta) = e_beta / kappa_beta, so
        <f_beta u, v> = <u, e_beta v> / kappa_beta: row i of G(w) is row u
        of G(w + beta) times the window's action of e_beta on weight w,
        divided by kappa_beta.  The rows that share beta are one product.
        """
        win = self.window
        if w == win.top_weight:
            return Mat.identity(1)
        n = win.dim(w)
        return _tile_sum(n, n, [(rows, range(n), _F1 / win.cb.kappa_integral(beta),
                                 self.gram(w + beta).take(us) @ win.action(("e", beta), w))
                                for beta, rows, us in win.first_factors(w)])

    def radical(self, w):
        """The nullspace of the Gram at w, as basis rows.

        On a Verma window this is N(lambda)_w read off the form, the
        largest proper submodule that L(lambda) = M(lambda)/N(lambda)
        divides out.
        """
        return self.gram(w).nullspace()


def shapovalov_grams(window) -> ContravariantForm:
    """The contravariant form of a Verma window or of a simple window, one
    per window."""
    if window.kind not in ("verma", "simple"):
        raise ValueError("contravariant grams are computed on Verma windows "
                         "and simple windows")
    if window._form is None:
        window._form = ContravariantForm(window)
    return window._form


# -- derived windows ---------------------------------------------------------

class QuotientWindow(WeightModuleWindow):
    """Quotient of a parent window by a submodule, given per weight.

    `weight_data(w)` returns (keep, proj): the parent basis indices whose
    vectors stay a basis of the quotient at w, and the projection onto
    them along the submodule.  The quotient's basis vector j is the
    parent's basis vector keep[j].  The SES quotient M(lambda)/M(w0) is
    one (`ses_from_embedding`).
    """

    def __init__(self, parent: WeightModuleWindow, weight_data, kind):
        super().__init__(parent.pair, parent.cb)
        self.parent = parent
        self._weight_data_fn = weight_data
        self._data = {}
        self.infchars = parent.infchars
        self.top_weight = parent.top_weight
        self.kind = kind

    def _weight_data(self, w):
        d = self._data.get(w)
        if d is None:
            d = self._data[w] = self._weight_data_fn(w)
        return d

    def materialized(self, w):
        return self.parent.materialized(w)

    def dim(self, w):
        if not self.materialized(w):
            raise OutsideWindow(f"{self.kind}: weight {w} not materialized")
        return len(self._weight_data(w)[0])

    def kept_indices(self, w):
        return self._weight_data(w)[0]

    def projection(self, w) -> Mat:
        return self._weight_data(w)[1]

    def _compute_action(self, gen, w, tw):
        return self.projection(tw) @ self.parent.action(gen, w).take(cols=self.kept_indices(w))


def span_quotient_data(sub: Mat):
    """(keep, proj) for the quotient of Q^dim by the row space of `sub`.

    keep lists the non-pivot columns of the span's rref; the projection
    sends e_k to the kept part of e_k - sum_i e_k[pivot_i] * sub_i, sub_i
    the i-th rref row.  That is `sub`'s canonical nullspace, one row per
    free column t.  An rref row is zero before its pivot, so the row of t
    is nonzero only at t and at pivots before t: t is its last nonzero
    column.
    """
    proj = sub.nullspace()
    keep = [max(j for j, c in enumerate(row) if c) for row in proj.num]
    return keep, proj


class _WeightSpace:
    """One weight space of a `SimpleWindow`.

    `labels[k]` = (j, c): basis vector k is f_j applied to basis vector c
    of the space at w + alpha_j.  `e[i]` is the action of e_i into
    w + alpha_i and `f[j]` the action of f_j from w + alpha_j, for each
    i (j) whose space is nonzero there.
    """

    __slots__ = ("dim", "labels", "e", "f")

    def __init__(self, dim, labels=(), e=None, f=None):
        self.dim = dim
        self.labels = labels
        self.e = e
        self.f = f


_ZERO_SPACE = _WeightSpace(0)
_TOP_SPACE = _WeightSpace(1)


class SimpleWindow(WeightModuleWindow):
    """L(lambda) truncated at a fixed depth, built from its own weight spaces.

    For w != lambda, L_w is spanned by f_j u over the simple roots alpha_j
    and the basis u of L at w + alpha_j.  L has no singular vector below
    lambda, so a vector x of L_w is zero iff e_i x = 0 for every i: f_j u
    is represented faithfully by its images
    e_i f_j u = f_j e_i u + delta_ij [e_i, f_i] u in the sum of the L at
    w + alpha_i, all read off the spaces above w.  One row reduction of
    these columns, A, gives the whole weight space: its pivot columns are
    the basis of L_w, its rows the f_j maps into w (each f_j u in that
    basis) and A's own columns at the pivots the e_i maps out of w.  A
    weight with no nonzero L_{w + alpha_i}, or outside the cone below
    lambda, has L_w = 0 and costs nothing.  Work follows dim L, not the
    dimension of the Verma module.

    h_j acts on L_w by w(h_j).  A root vector of a non-simple root acts
    as a commutator, x_gamma = [x_i, x_{gamma - alpha_i}] / c with c from
    the bracket table and alpha_i the first simple root with
    gamma - alpha_i a root.
    """

    kind = "simple"

    def __init__(self, pair, cb, lam, depth: int):
        super().__init__(pair, cb)
        self.lam = Weight(lam)
        self.depth = int(depth)
        self.top_weight = self.lam
        self.infchars = (self.lam,)
        rs = pair.rs
        self._simples = rs.simple_roots
        self._simple_index = {a: i for i, a in enumerate(self._simples)}
        self._positive = set(rs.positive_roots)
        # [e_i, f_i] as a sparse Cartan vector, acting on L_w by its value on w
        self._coroots = [cb.bracket(cb.e_index(a), cb.e_index(-a)) for a in self._simples]
        self._spaces = {}

    def materialized(self, w):
        return _within_depth(self.lam, self.depth, w)

    def dim(self, w):
        sp = self._spaces.get(w)
        if sp is None:  # only materialized weights are ever built
            if not self.materialized(w):
                raise OutsideWindow(f"simple: weight {w} not materialized")
            sp = self._space(w)
        return sp.dim

    def _space(self, w) -> _WeightSpace:
        sp = self._spaces.get(w)
        if sp is None:
            sp = self._spaces[w] = self._build_space(w)
        return sp

    def _build_space(self, w):
        if w == self.lam:
            return _TOP_SPACE
        if _delta_coords(self.lam, w) is None:
            return _ZERO_SPACE
        simples = self._simples
        ups = []  # (i, w + alpha_i, dim L there) where L is nonzero
        for i, a in enumerate(simples):
            d = self.dim(w + a)
            if d:
                ups.append((i, w + a, d))
        if not ups:
            return _ZERO_SPACE
        slots = SlotSpace(ups)
        terms = []
        for i, wi, _ in ups:
            h = self.pair.rs.pairing_with_simple_coroots(wi)
            value = sum((c * h[k] for k, c in self._coroots[i].items()), _F0)
            if value:
                terms.append((i, i, value, identity_map(self)))
            # f_j e_i u for u at w + alpha_j, through w + alpha_i + alpha_j
            terms += [(i, j, 1, partial(self._f_after_e, i, j, wi))
                      for j, _, _ in ups if self.dim(wi + simples[j])]
        a = block_operator(slots, slots, terms)
        red, pivots = a.rref()
        if not pivots:
            return _ZERO_SPACE
        labels = []
        for p in pivots:
            j = next(j for j, (off, _, d) in slots.slot.items() if off <= p < off + d)
            labels.append((j, p - slots.slot[j][0]))
        top = range(len(pivots))
        e = {i: a.take(rows=range(off, off + d), cols=pivots)
             for i, (off, _, d) in slots.slot.items()}
        f = {j: red.take(rows=top, cols=range(off, off + d))
             for j, (off, _, d) in slots.slot.items()}
        return _WeightSpace(len(pivots), labels, e, f)

    def _f_after_e(self, i, j, wi, wj):
        """f_j e_i from L at w + alpha_j to L at w + alpha_i."""
        return self._space(wi).f[j] @ self._space(wj).e[i]

    def first_factors(self, w):
        """Basis vector k at w is f_j u, u at w + alpha_j: (alpha_j,
        positions, us) per simple root j, as `VermaWindow.first_factors`."""
        by_j = {}
        for k, (j, c) in enumerate(self._space(w).labels):
            rows, us = by_j.setdefault(j, ([], []))
            rows.append(k)
            us.append(c)
        for j, (rows, us) in by_j.items():
            yield self._simples[j], rows, us

    def _commutator(self, gen):
        """(x, y, c) with [x, y] = c gen, for a non-simple root vector gen."""
        kind, gamma = gen
        alpha = next(a for a in self._simples if gamma - a in self._positive)
        x, y = (kind, alpha), (kind, gamma - alpha)
        cb = self.cb
        return x, y, cb.bracket(cb.generator_index(x), cb.generator_index(y))[cb.generator_index(gen)]

    def _compute_action(self, gen, w, tw):
        kind, root = gen
        i = self._simple_index.get(root)
        if i is not None:
            return self._space(w).e[i] if kind == "e" else self._space(tw).f[i]
        x, y, c = self._commutator(gen)
        return commutator_action(self, x, y, w).scale(_F1 / c)


def simple_quotient_window(pair, cb, lam, depth) -> SimpleWindow:
    """L(lambda) on the weights within `depth` of lambda (`SimpleWindow`)."""
    return SimpleWindow(pair, cb, lam, depth)


class FiniteWindow(WeightModuleWindow):
    """F(lambda): a simple window whose dimensions `finite_dim_simple`
    certified.

    A lazy view of that window: dimensions come from `dims`, zero at
    every other weight, and each action is the simple window's, computed
    when first asked for.
    """

    kind = "finite"

    def __init__(self, simple: SimpleWindow, dims):
        super().__init__(simple.pair, simple.cb)
        self.simple = simple
        self.top_weight = simple.top_weight
        self.infchars = simple.infchars
        self._dims = dims

    def materialized(self, w):
        return True

    def dim(self, w):
        return self._dims.get(w, 0)

    def weights(self):
        """Sorted weights of nonzero dimension."""
        return sort_weights(self._dims)

    def _compute_action(self, gen, w, tw):
        return self.simple.action(gen, w)


def weyl_dimension(pair: PairGH, lam: Weight, pos_roots=None,
                   rho=None) -> Fraction:
    form = pair.form
    pos = pair.rs.positive_roots if pos_roots is None else pos_roots
    if rho is None:
        rho = pair.rho
    num, den = _F1, _F1
    for a in pos:
        num *= form.pair(lam + rho, a)
        den *= form.pair(rho, a)
    return num / den


def finite_dim_simple(pair, cb, lam) -> FiniteWindow:
    """F(lambda) for dominant integral lambda: its simple window, certified.

    The simple window reaches `margin` deeper than the lowest weight; it
    must vanish below that weight and match Weyl's dimension formula.
    """
    lam = Weight(lam)
    rs = pair.rs
    form = pair.form
    if not is_dominant_integral(lam, rs.positive_roots, form):
        raise ValueError(f"{lam} is not dominant integral")
    w0lam = pair.weyl.act(pair.weyl.longest, lam)
    depth = int((lam - w0lam).height)
    margin = max(a.height for a in rs.positive_roots)
    simple = simple_quotient_window(pair, cb, lam, depth + margin)
    dims = {}
    for c in cone_coords(pair.rank, depth + margin):
        w = lam - Weight(c)
        d = simple.dim(w)
        if d:
            if sum(c) > depth:
                raise WindowTooShallow(
                    f"simple module {lam} still alive at depth {sum(c)}")
            dims[w] = d
    expected = weyl_dimension(pair, lam)
    total = sum(dims.values())
    if expected != total:
        raise WindowTooShallow(
            f"dim L({lam}) = {total} on window, Weyl dimension formula gives {expected}")
    return FiniteWindow(simple, dims)


# -- slot spaces: M tensor F here, M tensor S in `dirac` -------------------------

class SlotSpace:
    """Basis bookkeeping of a direct sum of module weight spaces.

    `slot[key]` = (offset, module weight, dim) for each (key, module
    weight, dim) of `comps`, in the given order, and `dim` is the total.
    A tensor window keys its slots by the basis vectors of its finite
    factor, a Dirac block (`dirac.BlockSpace`) by spin basis vectors.
    """

    def __init__(self, comps):
        self.slot = {}
        off = 0
        for key, w, d in comps:
            self.slot[key] = (off, w, d)
            off += d
        self.dim = off


def block_operator(tgt: SlotSpace, src: SlotSpace, terms) -> Mat:
    """The sum of coeff * E_ji (x) module_map over terms (j, i, coeff, module_map).

    E_ji sends slot i of `src` to slot j of `tgt`.  module_map(w) is the
    module map out of w, the module weight of slot i, into that of slot
    j; terms whose j has no slot in `tgt` are skipped, so it is called
    only when both are nonzero.  The tiles are summed as ints over the
    lcm of their denominators.
    """
    tiles = []
    for j, i, coeff, module_map in terms:
        if j in tgt.slot:
            tile = module_map(src.slot[i][1])
            ro, co = tgt.slot[j][0], src.slot[i][0]
            tiles.append((range(ro, ro + tile.nrows), range(co, co + tile.ncols), coeff, tile))
    return _tile_sum(tgt.dim, src.dim, tiles)


def _tile_sum(nrows, ncols, tiles) -> Mat:
    """The nrows x ncols sum of coeff * m over tiles (rows, cols, coeff, m),
    entry (r, c) of m placed at (rows[r], cols[c]); summed as ints over the
    lcm of the tiles' denominators."""
    den = lcm(*(coeff.denominator * m.den for _, _, coeff, m in tiles))
    out = [[0] * ncols for _ in range(nrows)]
    for rows, cols, coeff, m in tiles:
        f = coeff.numerator * (den // (coeff.denominator * m.den))
        for r, mrow in zip(rows, m.num):
            row = out[r]
            for c, v in zip(cols, mrow):
                if v:
                    row[c] += f * v
    return Mat.from_ints(out, ncols, den)


@cache  # a Mat is immutable, so every tile of size n shares one identity
def _identity(n):
    return Mat.identity(n)


def identity_map(m):
    return lambda w: _identity(m.dim(w))


class TensorWindow(WeightModuleWindow):
    """m tensor F, F a finite module; Leibniz-rule actions.

    The basis at w is a `SlotSpace` with one slot (nu, j) per basis
    vector j of F at each weight nu of F, holding m at w - nu, in
    `supp_f` order and then by j.
    """

    kind = "tensor"

    def __init__(self, m: WeightModuleWindow, f: FiniteWindow):
        if not isinstance(f, FiniteWindow):
            raise ValueError("tensor factor must be a finite module")
        super().__init__(m.pair, m.cb)
        self.base = m
        self.factor = f
        self.supp_f = f.weights()
        self.top_weight = m.top_weight + f.top_weight
        self.infchars = tuple(sorted({lam + nu for lam in m.infchars
                                      for nu in self.supp_f}))
        self._spaces = {}

    def materialized(self, w):
        return all(self.base.materialized(w - nu) for nu in self.supp_f)

    def space(self, w) -> SlotSpace:
        """The slots of the basis at w; memoized."""
        sp = self._spaces.get(w)
        if sp is None:
            if not self.materialized(w):
                raise OutsideWindow(f"tensor: weight {w} not materialized")
            comps = []
            for nu in self.supp_f:
                d = self.base.dim(w - nu)
                if d:
                    comps += [((nu, j), w - nu, d) for j in range(self.factor.dim(nu))]
            sp = self._spaces[w] = SlotSpace(comps)
        return sp

    def dim(self, w):
        return self.space(w).dim

    def _compute_action(self, gen, w, tw):
        """gen on the base in each slot, plus gen on F times the identity."""
        wt = tw - w
        src = self.space(w)
        base_map, identity = partial(self.base.action, gen), identity_map(self.base)
        terms = [(key, key, 1, base_map) for key in src.slot]
        for nu, j in src.slot:
            fm = self.factor.action(gen, nu)
            terms += [((nu + wt, r), (nu, j), Fraction(row[j], fm.den), identity)
                      for r, row in enumerate(fm.num) if row[j]]
        return block_operator(self.space(tw), src, terms)


def tensor_with_finite_dim(m: WeightModuleWindow, f: FiniteWindow) -> TensorWindow:
    return TensorWindow(m, f)


class SumWindow(WeightModuleWindow):
    """Direct sum of two windows with comparable tops, split exact structure."""

    kind = "sum"

    def __init__(self, m1: WeightModuleWindow, m2: WeightModuleWindow):
        if not comparable_tops(m1.top_weight, m2.top_weight):
            raise ValueError(f"sum: tops {m1.top_weight} and {m2.top_weight} "
                             "are not comparable")
        super().__init__(m1.pair, m1.cb)
        self.parts = (m1, m2)
        self.infchars = tuple(sorted(set(m1.infchars) | set(m2.infchars)))
        tops = sort_weights([m1.top_weight, m2.top_weight])
        self.top_weight = tops[0]

    def materialized(self, w):
        return all(p.materialized(w) for p in self.parts)

    def dim(self, w):
        if not self.materialized(w):
            raise OutsideWindow(f"sum: weight {w} not materialized")
        return sum(p.dim(w) for p in self.parts)

    def _compute_action(self, gen, w, tw):
        a = self.parts[0].action(gen, w)
        b = self.parts[1].action(gen, w)
        return a.hstack(Mat.zero(a.nrows, b.ncols)).vstack(
            Mat.zero(b.nrows, a.ncols).hstack(b))

    def inclusion_first(self, w) -> Mat:
        return Mat.identity(self.dim(w)).take(cols=range(self.parts[0].dim(w)))

    def projection_second(self, w) -> Mat:
        n = self.dim(w)
        return Mat.identity(n).take(rows=range(self.parts[0].dim(w), n))


def singular_vectors(m: WeightModuleWindow, w: Weight) -> Mat:
    """Basis rows of the weight-w vectors killed by every simple raising operator."""
    d = m.dim(w)
    if d == 0:
        return Mat.zero(0, 0)
    stacked = None
    for i in range(m.rank):
        alpha = m.pair.rs.simple_roots[i]
        a = m.action(("e", alpha), w)
        if a.nrows == 0:
            continue
        stacked = a if stacked is None else stacked.vstack(a)
    if stacked is None:
        return Mat.identity(d)
    return stacked.nullspace()


class SESData:
    """Per-weight exact structure 0 -> Sub -> M -> Quot -> 0 on a window."""

    def __init__(self, sub: WeightModuleWindow, mid: WeightModuleWindow,
                 quot: WeightModuleWindow, incl_fn, proj_fn):
        self.sub = sub
        self.mid = mid
        self.quot = quot
        self._incl = incl_fn
        self._proj = proj_fn

    def inclusion(self, w) -> Mat:
        return self._incl(w)

    def projection(self, w) -> Mat:
        return self._proj(w)

    def modules(self):
        return (self.sub, self.mid, self.quot)


def ses_from_embedding(vw: VermaWindow, w0: Weight, gen_vec) -> SESData:
    """0 -> M(w0) -> M(lambda) -> M(lambda)/M(w0) -> 0 from a singular vector.

    gen_vec, a one-row Mat, is a singular vector of vw at w0.  U(n-) acts
    freely on a Verma module, so the submodule it generates is M(w0), and
    the sub is the Verma window of w0 reaching as deep as vw.  Its inclusion
    sends the top to gen_vec and a monomial f_beta u, f_beta its first
    factor, to f_beta applied to the image of u: one product per first
    root at each weight, computed when first asked for.  The quotient
    keeps, per weight, the indices the image's rref leaves free.
    """
    if gen_vec.is_zero():
        raise ValueError("generating vector is zero")
    top = gen_vec.T
    for i in range(vw.rank):
        alpha = vw.pair.rs.simple_roots[i]
        if not (vw.action(("e", alpha), w0) @ top).is_zero():
            raise ValueError("generating vector is not singular")
    sub = verma_window(vw.pair, vw.cb, w0, vw.depth - int((vw.lam - w0).height))
    images = {w0: top}

    def inclusion(w):
        incl = images.get(w)
        if incl is None:
            # column r is the image of the sub's monomial r
            n = vw.dim(w)
            incl = images[w] = _tile_sum(n, sub.dim(w), [
                (range(n), positions, 1,
                 vw.action(("f", beta), w + beta) @ inclusion(w + beta).take(cols=us))
                for beta, positions, us in sub.first_factors(w)])
        return incl

    quot = QuotientWindow(vw, lambda w: span_quotient_data(inclusion(w).T), "sesquot")
    return SESData(sub, vw, quot, inclusion, quot.projection)


def ses_split(m1: WeightModuleWindow, m3: WeightModuleWindow) -> SESData:
    s = SumWindow(m1, m3)
    return SESData(m1, s, m3, s.inclusion_first, s.projection_second)


# -- characters ---------------------------------------------------------------

def kostant_partition_counter(pos_roots):
    """Counting function for decompositions into the given positive roots."""
    cone = _PBWCone(pos_roots)

    def count(v):
        coords = _delta_coords(v, [0] * len(v))
        return 0 if coords is None else len(cone.monomials(coords))

    return count


def verma_character_h(pair: PairGH, lam_h: Weight, weights):
    """Formal character of the h-Verma M_h(lam_h) at the listed weights."""
    count = kostant_partition_counter(pair.delta_h_pos)
    out = {}
    for w in weights:
        out[w] = count(lam_h - w)
    return out


def finite_character_h(pair: PairGH, nu: Weight):
    """Character of the simple finite-dimensional h-module F^h(nu).

    Kostant's multiplicity formula over the subsystem; the piece of nu
    orthogonal to the subsystem rides along untouched.
    """
    form = pair.form
    simples = pair.delta_h_simple
    if not is_dominant_integral(nu, pair.delta_h_pos, form):
        raise ValueError(f"{nu} is not dominant integral for the subsystem")
    if not pair.delta_h_pos:
        return {nu: 1}
    count = kostant_partition_counter(pair.delta_h_pos)
    weyl = pair.weyl
    wh = weyl.subgroup_h
    rho_h = pair.rho_h
    w0h = max(wh, key=lambda i: weyl.subsystem_length(i))
    lowest = weyl.act(w0h, nu)
    # bounding box in subsystem-simple coordinates
    gap = nu - lowest
    box = Mat.from_cols(simples, pair.rank).solve(Mat.from_cols([gap], pair.rank))
    if box is None:
        raise AssertionError("weight gap not in the subsystem root lattice")
    bounds = [int(b) for b in box.col(0)]
    # each element's sign and image of nu + rho_h, once for the whole box
    images = [(-1 if weyl.subsystem_length(wi) % 2 else 1, weyl.act(wi, nu + rho_h))
              for wi in wh]
    out = {}
    for c in _box_coords(bounds):
        mu = nu - sum((simples[i] * c[i] for i in range(len(simples))),
                      zero_weight(pair.rank))
        m = sum((sgn * count(img - (mu + rho_h)) for sgn, img in images), _F0)
        if m:
            out[mu] = int(m)
    total = sum(out.values())
    expected = weyl_dimension(pair, nu, pos_roots=pair.delta_h_pos, rho=pair.rho_h)
    if total != expected:
        raise AssertionError(
            f"h-Weyl character total {total} != dimension formula {expected}")
    return out


def _box_coords(bounds):
    out = [()]
    for b in bounds:
        out = [t + (k,) for t in out for k in range(b + 1)]
    return out


# -- structural checks used by the property suites ---------------------------

def commutation_defect(m: WeightModuleWindow, w: Weight, idx_x: int, idx_y: int):
    """action([x,y]) - [action(x), action(y)] at weight w; None if not coverable."""
    cb = m.cb
    x, y = cb.generators[idx_x], cb.generators[idx_y]
    wx, wy = cb.generator_weight(x), cb.generator_weight(y)
    for inter in (w + wx, w + wy, w + wx + wy):
        if not m.materialized(inter):
            return None
    if not m.materialized(w):
        return None
    lhs = commutator_action(m, x, y, w)
    rhs = Mat.zero(lhs.nrows, lhs.ncols)
    for k, c in cb.bracket(idx_x, idx_y).items():
        rhs = rhs + m.action(cb.generators[k], w).scale(c)
    return lhs - rhs
