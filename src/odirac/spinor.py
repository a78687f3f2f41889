"""The spin module over the orthogonal complement of the subalgebra.

S is the exterior algebra of the span of the negative q-root vectors.
Clifford multiplication follows the relation xy + yx = <x,y> with no
factor 2, so wedge and contraction against the pairing-1 dual bases
realize gamma exactly over the rationals.  The subalgebra acts through
ad followed by the quadratic embedding of so(q) into the Clifford
algebra; the cubic term is the dual-basis contraction of the canonical
3-form x,y,z -> <x,[y,z]>.
"""

from fractions import Fraction

from .exactla import Mat
from .liealg import ChevalleyBasis, PairGH
from .roots import Weight

_F0 = Fraction(0)
_F1 = Fraction(1)


def _bits_below(mask, j):
    cnt = 0
    for i in range(j):
        if mask >> i & 1:
            cnt += 1
    return cnt


class SpinModule:
    """Basis u_I indexed by bitmasks over the positive q-roots.

    `q_order` optionally permutes the enumeration of the positive
    q-roots; all derived data follows the chosen order, which the rank
    audits use to confirm basis independence of the Dirac blocks.
    """

    def __init__(self, pair: PairGH, cb: ChevalleyBasis, q_order=None):
        self.pair = pair
        self.cb = cb
        if q_order is None:
            self.q_pos = list(pair.q_positive)
        else:
            if sorted(q_order, key=lambda r: (r.height, r)) != list(pair.q_positive):
                raise ValueError("q_order must be a permutation of the positive q-roots")
            self.q_pos = list(q_order)
        self.nq = len(self.q_pos)
        self.dim = 1 << self.nq
        shift = pair.rho - pair.rho_h
        self.weights = []
        self.parity = []
        for mask in range(self.dim):
            w = shift
            bits = 0
            for i in range(self.nq):
                if mask >> i & 1:
                    w = w - self.q_pos[i]
                    bits += 1
            self.weights.append(w)
            self.parity.append(bits & 1)
        self.top_weight = shift
        # q basis order: e_beta for beta in q_pos, then f_beta; duals swap halves
        self._qidx_to_cb = [cb.e_index(b) for b in self.q_pos] + \
                           [cb.e_index(-b) for b in self.q_pos]
        self._cb_to_qidx = {c: i for i, c in enumerate(self._qidx_to_cb)}
        self._gamma = [self._wedge_or_contract(i) for i in range(2 * self.nq)]
        self._h_action_cache = {}
        self.cubic = cubic_term(pair, cb, self)
        # Dirac blocks on this module, keyed by (module window, weight): dirac.block
        self.blocks = {}

    # -- Clifford multiplication -----------------------------------------------

    def _wedge_or_contract(self, qi):
        rows = [[_F0] * self.dim for _ in range(self.dim)]
        if qi >= self.nq:  # wedge by f_{beta_j}
            j = qi - self.nq
            for mask in range(self.dim):
                if mask >> j & 1:
                    continue
                sign = -_F1 if _bits_below(mask, j) & 1 else _F1
                rows[mask | (1 << j)][mask] = sign
        else:  # contraction by e_{beta_j}; <e_beta, f_beta> = 1
            j = qi
            for mask in range(self.dim):
                if not mask >> j & 1:
                    continue
                sign = -_F1 if _bits_below(mask, j) & 1 else _F1
                rows[mask & ~(1 << j)][mask] = sign
        return Mat(rows, self.dim)

    def gamma_q(self, qi) -> Mat:
        """Gamma of the qi-th q-basis vector (e's first, then f's)."""
        return self._gamma[qi]

    def gamma_root(self, root: Weight) -> Mat:
        """Gamma of the root vector for a signed q-root."""
        if all(c >= 0 for c in root):
            return self._gamma[self.q_pos.index(root)]
        return self._gamma[self.nq + self.q_pos.index(-root)]

    def dual_index(self, qi):
        return qi + self.nq if qi < self.nq else qi - self.nq

    def gamma_coeffs(self, coeffs) -> Mat:
        """Gamma of a q-vector given by coefficients over the q basis."""
        out = Mat.zero(self.dim, self.dim)
        for qi, c in enumerate(coeffs):
            if c:
                out = out + self._gamma[qi].scale(c)
        return out

    # -- induced action of the subalgebra ----------------------------------------

    def ad_on_q(self, gen) -> Mat:
        """Matrix of ad(gen) restricted to q, in the q basis."""
        cb = self.cb
        b = cb.generator_index(gen)
        cols = []
        for qi in range(2 * self.nq):
            vec = cb.bracket(b, self._qidx_to_cb[qi])
            col = [_F0] * (2 * self.nq)
            for k, c in vec.items():
                col[self._cb_to_qidx[k]] = c
            cols.append(col)
        return Mat.from_cols(cols, 2 * self.nq)

    def h_action(self, gen) -> Mat:
        """Action of an h-generator through ad and the so(q) embedding.

        phi(T) = (1/4) sum_i [gamma(T z_i), gamma(z^i)] over dual pairs.
        """
        m = self._h_action_cache.get(gen)
        if m is not None:
            return m
        t = self.ad_on_q(gen)
        out = Mat.zero(self.dim, self.dim)
        quarter = Fraction(1, 4)
        for qi in range(2 * self.nq):
            img = None
            for k in range(2 * self.nq):
                c = t.rows[k][qi]
                if c:
                    g = self._gamma[k].scale(c)
                    img = g if img is None else img + g
            if img is None:
                continue
            dual = self._gamma[self.dual_index(qi)]
            out = out + (img @ dual - dual @ img).scale(quarter)
        self._h_action_cache[gen] = out
        return out

    # -- characters and grading ---------------------------------------------------

    def parity_indices(self, sign):
        want = 0 if sign > 0 else 1
        return [i for i in range(self.dim) if self.parity[i] == want]

    def spin_character(self):
        out = {}
        for w in self.weights:
            out[w] = out.get(w, 0) + 1
        return out

    def graded_characters(self):
        plus, minus = {}, {}
        for i, w in enumerate(self.weights):
            d = minus if self.parity[i] else plus
            d[w] = d.get(w, 0) + 1
        return plus, minus


def build_spin_module(pair: PairGH, cb: ChevalleyBasis, q_order=None) -> SpinModule:
    return SpinModule(pair, cb, q_order=q_order)


def cubic_term(pair: PairGH, cb: ChevalleyBasis, sm: SpinModule) -> Mat:
    """gamma(c) = (1/6) sum <z_i,[z_j,z_k]> gamma(z^i)gamma(z^j)gamma(z^k).

    The sum runs over the root-vector basis of q with its Killing-dual
    partners; only the q-component of the brackets survives the pairing.
    """
    n = 2 * sm.nq
    cb_idx = sm._qidx_to_cb
    out = Mat.zero(sm.dim, sm.dim)
    sixth = Fraction(1, 6)
    for j in range(n):
        for k in range(n):
            vec = cb.bracket(cb_idx[j], cb_idx[k])
            if not vec:
                continue
            gjk = None
            for i in range(n):
                pairing = _F0
                for m, c in vec.items():
                    pairing += c * cb.pairing(cb_idx[i], m)
                if not pairing:
                    continue
                if gjk is None:
                    gjk = sm.gamma_q(sm.dual_index(j)) @ sm.gamma_q(sm.dual_index(k))
                gi = sm.gamma_q(sm.dual_index(i))
                out = out + (gi @ gjk).scale(sixth * pairing)
    return out


def cubic_term_rebased(pair: PairGH, cb: ChevalleyBasis, sm: SpinModule,
                       base_change: Mat) -> Mat:
    """The same contraction computed in a rebased dual system of q.

    `base_change` P sends the root-vector basis to z'_i = sum P[k][i] z_k;
    the Killing-dual system is recomputed from the Gram matrix.  The
    result must equal `cubic_term` exactly whenever P is invertible.
    """
    n = 2 * sm.nq
    cb_idx = sm._qidx_to_cb
    gram = Mat([[cb.pairing(cb_idx[i], cb_idx[j]) for j in range(n)] for i in range(n)], n)
    dual = gram.inv() @ base_change.T.inv()
    gammas_p = [sm.gamma_coeffs(base_change.col(i)) for i in range(n)]
    gammas_d = [sm.gamma_coeffs(dual.col(i)) for i in range(n)]

    def bracket_cols(j, k):
        vec = {}
        for a in range(n):
            ca = base_change.rows[a][j]
            if not ca:
                continue
            for b in range(n):
                cbk = base_change.rows[b][k]
                if not cbk:
                    continue
                for m, c in cb.bracket(cb_idx[a], cb_idx[b]).items():
                    cur = vec.get(m, _F0) + ca * cbk * c
                    if cur:
                        vec[m] = cur
                    elif m in vec:
                        del vec[m]
        return vec

    def pair_with(i, vec):
        s = _F0
        for m, c in vec.items():
            for a in range(n):
                ca = base_change.rows[a][i]
                if ca:
                    s += ca * c * cb.pairing(cb_idx[a], m)
        return s

    out = Mat.zero(sm.dim, sm.dim)
    sixth = Fraction(1, 6)
    for j in range(n):
        for k in range(n):
            vec = bracket_cols(j, k)
            if not vec:
                continue
            gjk = gammas_d[j] @ gammas_d[k]
            for i in range(n):
                pairing = pair_with(i, vec)
                if pairing:
                    out = out + (gammas_d[i] @ gjk).scale(sixth * pairing)
    return out
