"""Category-O modules materialized on finite weight windows.

A window holds, per weight, an ordered basis and exact action matrices
for every Chevalley generator.  Verma modules are realized on PBW
monomials in the negative root vectors (fixed height-then-lex root
order) with recursive straightening against the bracket table; simple
quotients, finite-dimensional simples, tensor products, submodules and
quotients are derived views.  Everything is rational and deterministic.
"""

from fractions import Fraction

from .exactla import Mat, span_basis
from .liealg import ChevalleyBasis, PairGH
from .roots import Weight, is_dominant_integral, zero_weight

_F0 = Fraction(0)
_F1 = Fraction(1)


class OutsideWindow(Exception):
    """A requested weight space is not materialized on this window."""


class WindowTooShallow(Exception):
    """The window is too shallow to certify the requested construction."""


def _cone_coords(rank, total):
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
    diff = lam - w
    coords = []
    for c in diff:
        if c.denominator != 1 or c < 0:
            return None
        coords.append(int(c))
    return tuple(coords)


def _monomials_for(pos_roots, delta):
    """PBW exponent tuples with sum k_i beta_i = delta, in lex order."""
    n = len(pos_roots)
    out = []

    def rec(prefix, rem, i):
        if i == n:
            if not any(rem):
                out.append(tuple(prefix))
            return
        beta = pos_roots[i]
        k = 0
        cur = rem
        while all(c >= 0 for c in cur):
            rec(prefix + [k], cur, i + 1)
            k += 1
            cur = cur - beta

    rec([], Weight(delta), 0)
    return out


def _acc(d, k, v):
    if not v:
        return
    cur = d.get(k, _F0) + v
    if cur:
        d[k] = cur
    elif k in d:
        del d[k]


class _Straightener:
    """Left action of Chevalley generators on PBW monomials over a Verma top."""

    def __init__(self, cb: ChevalleyBasis, lam: Weight):
        self.cb = cb
        self.lam = lam
        self.pos = cb.pos
        self._wt_cache = {}
        self._memo = {}

    def mono_weight(self, mono):
        w = self._wt_cache.get(mono)
        if w is None:
            w = self.lam
            for i, k in enumerate(mono):
                if k:
                    w = w - self.pos[i] * k
            self._wt_cache[mono] = w
        return w

    def act_index(self, b, mono):
        """Image of a basis monomial under the cb basis element with index b."""
        key = (b, mono)
        res = self._memo.get(key)
        if res is None:
            res = self._act(b, mono)
            self._memo[key] = res
        return res

    def _act(self, b, mono):
        cb = self.cb
        root = cb.index_root(b)
        if root is None:
            w = self.mono_weight(mono)
            val = cb.rs.pairing_with_simple_coroots(w)[b]
            return {mono: val} if val else {}
        first = next((i for i, k in enumerate(mono) if k), None)
        if all(c >= 0 for c in root):  # raising operator
            if first is None:
                return {}
            rest = _dec(mono, first)
            fj = cb.e_index(-self.pos[first])
            out = {}
            for m, c in self.act_index(b, rest).items():
                for m2, c2 in self.act_index(fj, m).items():
                    _acc(out, m2, c * c2)
            for k, c in cb.bracket(b, fj).items():
                for m2, c2 in self.act_index(k, rest).items():
                    _acc(out, m2, c * c2)
            return out
        # lowering by f_gamma
        gamma = -root
        gi = cb._idx_pos[gamma]
        if first is None or gi <= first:
            return {_inc(mono, gi): _F1}
        rest = _dec(mono, first)
        fj = cb.e_index(-self.pos[first])
        out = {}
        for m, c in self.act_index(b, rest).items():
            # monomials here start no earlier than `first`, so prepending
            # f_{beta_first} is a plain exponent bump
            _acc(out, _inc(m, first), c)
        for k, c in cb.bracket(b, fj).items():
            for m2, c2 in self.act_index(k, rest).items():
                _acc(out, m2, c * c2)
        return out

    def act_vector(self, b, vec):
        out = {}
        for mono, c in vec.items():
            for m2, c2 in self.act_index(b, mono).items():
                _acc(out, m2, c * c2)
        return out


def _inc(mono, i):
    return mono[:i] + (mono[i] + 1,) + mono[i + 1:]


def _dec(mono, i):
    return mono[:i] + (mono[i] - 1,) + mono[i + 1:]


class WeightModuleWindow:
    """Shared surface of all window kinds; subclasses fill the hooks."""

    kind = "abstract"
    complete = False

    def __init__(self, pair: PairGH, cb: ChevalleyBasis):
        self.pair = pair
        self.cb = cb
        self.rank = pair.rank
        self._action_cache = {}

    def materialized(self, w: Weight) -> bool:
        raise NotImplementedError

    def dim(self, w: Weight) -> int:
        raise NotImplementedError

    def _compute_action(self, gen, w: Weight) -> Mat:
        raise NotImplementedError

    def weights(self):
        """Sorted materialized weights of nonzero dimension."""
        raise NotImplementedError

    def action(self, gen, w: Weight) -> Mat:
        key = (gen, w)
        m = self._action_cache.get(key)
        if m is None:
            if not self.materialized(w):
                raise OutsideWindow(f"{self.kind}: source weight {w} not materialized")
            tw = w + self.cb.generator_weight(gen)
            if not self.materialized(tw):
                raise OutsideWindow(f"{self.kind}: target weight {tw} not materialized")
            m = self._compute_action(gen, w)
            self._action_cache[key] = m
        return m

    def action_index(self, idx, w: Weight) -> Mat:
        root = self.cb.index_root(idx)
        if root is None:
            gen = ("h", idx)
        elif all(c >= 0 for c in root):
            gen = ("e", root)
        else:
            gen = ("f", -root)
        return self.action(gen, w)

    def character(self):
        return {w: self.dim(w) for w in self.weights()}

    def generator_list(self):
        gens = [("h", i) for i in range(self.rank)]
        for a in self.pair.rs.positive_roots:
            gens.append(("e", a))
            gens.append(("f", a))
        return gens


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
        self.straightener = _Straightener(cb, self.lam)
        self._basis_cache = {}

    def materialized(self, w):
        coords = _delta_coords(self.lam, w)
        if coords is None:
            return True  # outside the support cone: known zero
        return sum(coords) <= self.depth

    def basis(self, w):
        b = self._basis_cache.get(w)
        if b is None:
            coords = _delta_coords(self.lam, w)
            if coords is None:
                b = []
            elif sum(coords) > self.depth:
                raise OutsideWindow(f"verma: weight {w} below depth {self.depth}")
            else:
                b = _monomials_for(self.cb.pos, coords)
            self._basis_cache[w] = b
        return b

    def dim(self, w):
        if not self.materialized(w):
            raise OutsideWindow(f"verma: weight {w} not materialized")
        return len(self.basis(w))

    def weights(self):
        out = []
        for c in _cone_coords(self.rank, self.depth):
            w = self.lam - Weight(c)
            if self.basis(w):
                out.append(w)
        return sort_weights(out)

    def _compute_action(self, gen, w):
        src = self.basis(w)
        tw = w + self.cb.generator_weight(gen)
        tgt = self.basis(tw)
        tgt_index = {m: i for i, m in enumerate(tgt)}
        b = self.cb.generator_index(gen)
        cols = []
        for mono in src:
            img = self.straightener.act_index(b, mono)
            col = [_F0] * len(tgt)
            for m, c in img.items():
                col[tgt_index[m]] = c
            cols.append(col)
        return Mat.from_cols(cols, len(tgt))


def verma_window(pair, cb, lam, depth) -> VermaWindow:
    return VermaWindow(pair, cb, lam, depth)


# -- contravariant (Shapovalov) form -----------------------------------------

class ContravariantForm:
    """Gram matrices of the contravariant form on a Verma window."""

    def __init__(self, vw: VermaWindow):
        if vw.kind != "verma":
            raise ValueError("contravariant grams are computed on Verma windows")
        self.vw = vw
        self._grams = {}

    def gram(self, w) -> Mat:
        g = self._grams.get(w)
        if g is None:
            g = self._compute(w)
            self._grams[w] = g
        return g

    def _compute(self, w):
        vw = self.vw
        basis = vw.basis(w)
        st = vw.straightener
        cb = vw.cb
        n = len(basis)
        cols = []
        for mono_j in basis:
            vec = {mono_j: _F1}
            cols.append(vec)
        rows = []
        for mono_i in basis:
            # tau(f_{b1}^{k1}...f_{bs}^{ks}) applied on the left means the
            # raising string acts with e_{b1}^{k1} first, then e_{b2}^{k2}, ...
            # tau sends the pairing-1 lowering vector to e_beta / kappa_beta,
            # so every raising application carries a 1/kappa factor.
            row = []
            scale = _F1
            for p, k in enumerate(mono_i):
                if k:
                    scale /= cb.kappa_integral(cb.pos[p]) ** k
            for vec in cols:
                cur = vec
                for p, k in enumerate(mono_i):
                    if not k:
                        continue
                    ei = cb.e_index(cb.pos[p])
                    for _ in range(k):
                        cur = st.act_vector(ei, cur)
                empty = tuple([0] * cb.npos)
                row.append(scale * cur.get(empty, _F0))
            rows.append(row)
        return Mat(rows, n)

    def radical(self, w):
        return self.gram(w).nullspace()


def shapovalov_grams(vw: VermaWindow) -> ContravariantForm:
    return ContravariantForm(vw)


# -- derived windows ---------------------------------------------------------

class QuotientWindow(WeightModuleWindow):
    """Quotient of a parent window by a per-weight subspace (a submodule)."""

    kind = "quotient"

    def __init__(self, parent: WeightModuleWindow, sub_basis_fn, infchars=None,
                 top_weight=None, kind=None):
        super().__init__(parent.pair, parent.cb)
        self.parent = parent
        self._sub_basis_fn = sub_basis_fn
        self._data = {}
        self.infchars = infchars if infchars is not None else parent.infchars
        self.top_weight = top_weight if top_weight is not None else parent.top_weight
        self.depth = getattr(parent, "depth", None)
        if kind:
            self.kind = kind

    def _weight_data(self, w):
        d = self._data.get(w)
        if d is None:
            pdim = self.parent.dim(w)
            sub = span_basis(self._sub_basis_fn(w), pdim)
            pivots = Mat(sub, pdim).rref()[1] if sub else []
            pivset = set(pivots)
            keep = [j for j in range(pdim) if j not in pivset]
            # projection along the subspace onto the kept coordinates:
            # column k is the kept part of e_k - sum_i e_k[pivot_i] * sub_i
            proj_rows = []
            for t in keep:
                row = []
                for k in range(pdim):
                    if k == t:
                        row.append(_F1)
                    elif k in pivset:
                        row.append(-sub[pivots.index(k)][t])
                    else:
                        row.append(_F0)
                proj_rows.append(row)
            proj = Mat(proj_rows, pdim) if keep else Mat([], pdim)
            sect = Mat.from_cols([tuple(_F1 if i == t else _F0 for i in range(pdim))
                                  for t in keep], pdim)
            d = (keep, proj, sect, sub)
            self._data[w] = d
        return d

    def materialized(self, w):
        return self.parent.materialized(w)

    def dim(self, w):
        if not self.materialized(w):
            raise OutsideWindow(f"{self.kind}: weight {w} not materialized")
        if self.parent.dim(w) == 0:
            return 0
        return len(self._weight_data(w)[0])

    def weights(self):
        return sort_weights(w for w in self.parent.weights() if self.dim(w))

    def kept_indices(self, w):
        if self.parent.dim(w) == 0:
            return []
        return self._weight_data(w)[0]

    def projection(self, w) -> Mat:
        if self.parent.dim(w) == 0:
            return Mat([], 0)
        return self._weight_data(w)[1]

    def section(self, w) -> Mat:
        if self.parent.dim(w) == 0:
            return Mat.zero(0, 0)
        return self._weight_data(w)[2]

    def sub_basis(self, w):
        if self.parent.dim(w) == 0:
            return []
        return self._weight_data(w)[3]

    def _compute_action(self, gen, w):
        tw = w + self.cb.generator_weight(gen)
        if self.parent.dim(w) == 0:
            return Mat.zero(self.dim(tw), 0)
        if self.parent.dim(tw) == 0:
            return Mat.zero(0, self.dim(w))
        return self.projection(tw) @ self.parent.action(gen, w) @ self.section(w)


class SubWindow(WeightModuleWindow):
    """Submodule of a parent window spanned by given per-weight subspaces."""

    kind = "sub"

    def __init__(self, parent: WeightModuleWindow, sub_basis_fn, infchars,
                 top_weight):
        super().__init__(parent.pair, parent.cb)
        self.parent = parent
        self._sub_basis_fn = sub_basis_fn
        self._basis = {}
        self.infchars = infchars
        self.top_weight = top_weight
        self.depth = getattr(parent, "depth", None)

    def materialized(self, w):
        return self.parent.materialized(w)

    def basis_vectors(self, w):
        b = self._basis.get(w)
        if b is None:
            pdim = self.parent.dim(w)
            b = span_basis(self._sub_basis_fn(w), pdim) if pdim else []
            self._basis[w] = b
        return b

    def dim(self, w):
        if not self.materialized(w):
            raise OutsideWindow(f"sub: weight {w} not materialized")
        return len(self.basis_vectors(w))

    def weights(self):
        return sort_weights(w for w in self.parent.weights() if self.dim(w))

    def inclusion(self, w) -> Mat:
        return Mat.from_cols(self.basis_vectors(w), self.parent.dim(w))

    def _compute_action(self, gen, w):
        tw = w + self.cb.generator_weight(gen)
        src = self.inclusion(w)
        tgt = self.inclusion(tw)
        if self.dim(tw) == 0:
            return Mat.zero(0, self.dim(w))
        image = self.parent.action(gen, w) @ src
        cols = []
        for j in range(image.ncols):
            x = tgt.solve(image.col(j))
            if x is None:
                raise AssertionError("sub window is not action-stable")
            cols.append(x)
        return Mat.from_cols(cols, self.dim(tw))


class ExplicitWindow(WeightModuleWindow):
    """Fully materialized module given by explicit dims and action matrices."""

    kind = "finite"
    complete = True

    def __init__(self, pair, cb, dims, actions, top_weight, infchars, kind=None):
        super().__init__(pair, cb)
        self._dims = {w: d for w, d in dims.items() if d}
        self._actions = actions
        self.top_weight = top_weight
        self.infchars = infchars
        self.depth = None
        if kind:
            self.kind = kind

    def materialized(self, w):
        return True

    def dim(self, w):
        return self._dims.get(w, 0)

    def weights(self):
        return sort_weights(self._dims)

    def total_dim(self):
        return sum(self._dims.values())

    def _compute_action(self, gen, w):
        m = self._actions.get((gen, w))
        if m is None:
            tw = w + self.cb.generator_weight(gen)
            m = Mat.zero(self.dim(tw), self.dim(w))
        return m


def simple_quotient_window(vw: VermaWindow, form: ContravariantForm) -> QuotientWindow:
    """L(lambda) on the window: quotient by the radical of the contravariant form."""
    return QuotientWindow(vw, lambda w: form.radical(w), kind="simple")


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


def finite_dim_simple(pair, cb, lam) -> ExplicitWindow:
    """F(lambda) for dominant integral lambda, materialized in full."""
    lam = Weight(lam)
    rs = pair.rs
    form = pair.form
    if not is_dominant_integral(lam, rs.positive_roots, form):
        raise ValueError(f"{lam} is not dominant integral")
    w0lam = pair.weyl.act(pair.weyl.longest, lam)
    depth = int((lam - w0lam).height)
    margin = max(int(a.height) for a in rs.positive_roots)
    vw = verma_window(pair, cb, lam, depth + margin)
    grams = shapovalov_grams(vw)
    quot = simple_quotient_window(vw, grams)
    dims = {}
    for c in _cone_coords(pair.rank, depth + margin):
        w = lam - Weight(c)
        d = quot.dim(w)
        if d:
            if sum(c) > depth:
                raise WindowTooShallow(
                    f"simple quotient of {lam} still alive at depth {sum(c)}")
            dims[w] = d
    expected = weyl_dimension(pair, lam)
    total = sum(dims.values())
    if expected != total:
        raise WindowTooShallow(
            f"dim L({lam}) = {total} on window, Weyl dimension formula gives {expected}")
    actions = {}
    for w in dims:
        for gen in quot.generator_list():
            tw = w + cb.generator_weight(gen)
            if not quot.materialized(tw):
                continue  # beyond the window; the quotient is certified zero there
            m = quot.action(gen, w)
            if not m.is_zero():
                actions[(gen, w)] = m
    return ExplicitWindow(pair, cb, dims, actions, lam, (lam,))


class TensorWindow(WeightModuleWindow):
    """m tensor f with f fully materialized; Leibniz-rule actions."""

    kind = "tensor"

    def __init__(self, m: WeightModuleWindow, f: ExplicitWindow):
        if not f.complete:
            raise ValueError("tensor factor must be fully materialized")
        super().__init__(m.pair, m.cb)
        self.base = m
        self.factor = f
        self.supp_f = f.weights()
        self.top_weight = m.top_weight + f.top_weight
        self.infchars = tuple(sorted({lam + nu for lam in m.infchars
                                      for nu in self.supp_f}))
        self.complete = m.complete
        self.depth = getattr(m, "depth", None)

    def materialized(self, w):
        return all(self.base.materialized(w - nu) for nu in self.supp_f)

    def groups(self, w):
        """Ordered (nu, f-index) groups with base dimensions at w - nu."""
        out = []
        for nu in self.supp_f:
            bd = self.base.dim(w - nu)
            if bd:
                for fj in range(self.factor.dim(nu)):
                    out.append((nu, fj, bd))
        return out

    def dim(self, w):
        if not self.materialized(w):
            raise OutsideWindow(f"tensor: weight {w} not materialized")
        return sum(bd for (_, _, bd) in self.groups(w))

    def weights(self):
        cand = set()
        for wm in self.base.weights():
            for nu in self.supp_f:
                cand.add(wm + nu)
        return sort_weights(w for w in cand if self.materialized(w) and self.dim(w))

    def _compute_action(self, gen, w):
        tw = w + self.cb.generator_weight(gen)
        src_groups = self.groups(w)
        tgt_groups = self.groups(tw)
        tgt_offsets = {}
        off = 0
        for (nu, fj, bd) in tgt_groups:
            tgt_offsets[(nu, fj)] = (off, bd)
            off += bd
        nrows = off
        rows = [[_F0] * self.dim(w) for _ in range(nrows)]
        coff = 0
        for (nu, fj, bd) in src_groups:
            # action on the base factor
            am = self.base.action(gen, w - nu)
            key = (nu, fj)
            if key in tgt_offsets and am.nrows:
                roff = tgt_offsets[key][0]
                for i in range(am.nrows):
                    for j in range(bd):
                        v = am.rows[i][j]
                        if v:
                            rows[roff + i][coff + j] = v
            # action on the finite factor
            fm = self.factor.action(gen, nu)
            for i in range(fm.nrows):
                c = fm.rows[i][fj]
                if c:
                    key2 = (nu + self.cb.generator_weight(gen), i)
                    if key2 in tgt_offsets:
                        roff, tbd = tgt_offsets[key2]
                        for j in range(bd):
                            rows[roff + j][coff + j] += c
            coff += bd
        return Mat(rows, self.dim(w))


def tensor_with_finite_dim(m: WeightModuleWindow, f: ExplicitWindow) -> TensorWindow:
    return TensorWindow(m, f)


class SumWindow(WeightModuleWindow):
    """Direct sum of two windows, with the canonical split exact structure."""

    kind = "sum"

    def __init__(self, m1: WeightModuleWindow, m2: WeightModuleWindow):
        super().__init__(m1.pair, m1.cb)
        self.parts = (m1, m2)
        self.infchars = tuple(sorted(set(m1.infchars) | set(m2.infchars)))
        tops = sort_weights([m1.top_weight, m2.top_weight])
        self.top_weight = tops[0]
        self.complete = m1.complete and m2.complete
        d1 = getattr(m1, "depth", None)
        d2 = getattr(m2, "depth", None)
        self.depth = None if d1 is None or d2 is None else min(d1, d2)

    def materialized(self, w):
        return all(p.materialized(w) for p in self.parts)

    def dim(self, w):
        if not self.materialized(w):
            raise OutsideWindow(f"sum: weight {w} not materialized")
        return sum(p.dim(w) for p in self.parts)

    def weights(self):
        cand = set(self.parts[0].weights()) | set(self.parts[1].weights())
        return sort_weights(w for w in cand if self.materialized(w) and self.dim(w))

    def _compute_action(self, gen, w):
        tw = w + self.cb.generator_weight(gen)
        a = self.parts[0].action(gen, w)
        b = self.parts[1].action(gen, w)
        rows = []
        for i in range(a.nrows):
            rows.append(list(a.rows[i]) + [_F0] * b.ncols)
        for i in range(b.nrows):
            rows.append([_F0] * a.ncols + list(b.rows[i]))
        return Mat(rows, a.ncols + b.ncols)

    def inclusion_first(self, w) -> Mat:
        d1 = self.parts[0].dim(w)
        return Mat.from_cols([tuple(_F1 if i == j else _F0 for i in range(self.dim(w)))
                              for j in range(d1)], self.dim(w))

    def projection_second(self, w) -> Mat:
        d1 = self.parts[0].dim(w)
        d2 = self.parts[1].dim(w)
        rows = []
        for i in range(d2):
            row = [_F0] * self.dim(w)
            row[d1 + i] = _F1
            rows.append(row)
        return Mat(rows, self.dim(w))


def singular_vectors(m: WeightModuleWindow, w: Weight):
    """Basis of the weight-w vectors killed by every simple raising operator."""
    d = m.dim(w)
    if d == 0:
        return []
    stacked = None
    for i in range(m.rank):
        alpha = m.pair.rs.simple_roots[i]
        a = m.action(("e", alpha), w)
        if a.nrows == 0:
            continue
        stacked = a if stacked is None else stacked.vstack(a)
    if stacked is None:
        return [tuple(_F1 if i == j else _F0 for i in range(d)) for j in range(d)]
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


def ses_from_embedding(vw: WeightModuleWindow, w0: Weight, gen_vec) -> SESData:
    """SES from the U(n-)-span of a singular vector gen_vec at weight w0."""
    if not any(gen_vec):
        raise ValueError("generating vector is zero")
    for i in range(vw.rank):
        alpha = vw.pair.rs.simple_roots[i]
        img = vw.action(("e", alpha), w0).apply(gen_vec)
        if any(img):
            raise ValueError("generating vector is not singular")
    span = {w0: [tuple(Fraction(c) for c in gen_vec)]}
    # walk the cone below w0 by increasing depth, materialized weights only
    pos = vw.pair.rs.positive_roots
    depth_cap = vw.depth if getattr(vw, "depth", None) is not None else None
    cand = []
    if depth_cap is None:
        cand = [w for w in vw.weights() if _delta_coords(w0, w) is not None]
    else:
        for c in _cone_coords(vw.rank, depth_cap):
            w = w0 - Weight(c)
            if vw.materialized(w) and _delta_coords(vw.top_weight, w) is not None:
                cand.append(w)
    for w in sorted(set(cand), key=lambda v: (w0 - v).height):
        if w == w0:
            continue
        vecs = []
        for beta in pos:
            up = w + beta
            if up in span and vw.materialized(up) and vw.materialized(w):
                act = vw.action(("f", beta), up)
                for v in span[up]:
                    img = act.apply(v)
                    if any(img):
                        vecs.append(img)
        if vecs:
            span[w] = span_basis(vecs, vw.dim(w))

    def sub_fn(w):
        return span.get(w, [])

    sub = SubWindow(vw, sub_fn, infchars=(w0,), top_weight=w0)
    quot = QuotientWindow(vw, sub_fn, infchars=vw.infchars,
                          top_weight=vw.top_weight, kind="sesquot")
    return SESData(sub, vw, quot, lambda w: sub.inclusion(w),
                   lambda w: quot.projection(w))


def ses_split(m1: WeightModuleWindow, m3: WeightModuleWindow) -> SESData:
    s = SumWindow(m1, m3)
    return SESData(m1, s, m3, lambda w: s.inclusion_first(w),
                   lambda w: s.projection_second(w))


# -- characters ---------------------------------------------------------------

def kostant_partition_counter(pos_roots):
    """Counting function for decompositions into the given positive roots."""
    roots = tuple(pos_roots)
    memo = {}

    def count(v, i=0):
        v = Weight(v)
        if not any(v):
            return 1
        if any(c < 0 or c.denominator != 1 for c in v):
            return 0
        if i >= len(roots):
            return 0
        key = (v, i)
        r = memo.get(key)
        if r is None:
            r = 0
            cur = v
            while all(c >= 0 for c in cur):
                r += count(cur, i + 1)
                cur = cur - roots[i]
            memo[key] = r
        return r

    return count


def character(vw: WeightModuleWindow):
    return vw.character()


def verma_character_h(pair: PairGH, lam_h: Weight, weights):
    """Formal character of the h-Verma M_h(lam_h) at the listed weights."""
    count = kostant_partition_counter(pair.delta_h_pos)
    out = {}
    for w in weights:
        out[w] = count(lam_h - w)
    return out


def _h_simples(pair: PairGH):
    pos = pair.delta_h_pos
    posset = set(pos)
    simple = []
    for a in pos:
        if not any((a - b) in posset for b in pos if b != a and all(c >= 0 for c in (a - b))):
            simple.append(a)
    return simple


def finite_character_h(pair: PairGH, nu: Weight):
    """Character of the simple finite-dimensional h-module F^h(nu).

    Kostant's multiplicity formula over the subsystem; the piece of nu
    orthogonal to the subsystem rides along untouched.
    """
    form = pair.form
    simples = _h_simples(pair)
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
    smat = Mat.from_cols(simples, pair.rank)
    box = smat.solve(gap)
    if box is None:
        raise AssertionError("weight gap not in the subsystem root lattice")
    bounds = [int(b) for b in box]
    out = {}
    for c in _box_coords(bounds):
        mu = nu - sum((simples[i] * c[i] for i in range(len(simples))),
                      zero_weight(pair.rank))
        m = _F0
        for wi in wh:
            sgn = -1 if weyl.subsystem_length(wi) % 2 else 1
            arg = weyl.act(wi, nu + rho_h) - (mu + rho_h)
            m += sgn * count(arg)
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
    wx = cb.index_root(idx_x) or zero_weight(m.rank)
    wy = cb.index_root(idx_y) or zero_weight(m.rank)
    for inter in (w + wx, w + wy, w + wx + wy):
        if not m.materialized(inter):
            return None
    if not m.materialized(w):
        return None
    ax_after = m.action_index(idx_x, w + wy)
    ay_first = m.action_index(idx_y, w)
    ay_after = m.action_index(idx_y, w + wx)
    ax_first = m.action_index(idx_x, w)
    lhs = ax_after @ ay_first - ay_after @ ax_first
    rhs = Mat.zero(lhs.nrows, lhs.ncols)
    for k, c in cb.bracket(idx_x, idx_y).items():
        rhs = rhs + m.action_index(k, w).scale(c)
    return lhs - rhs
