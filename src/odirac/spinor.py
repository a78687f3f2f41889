"""The spin module over the orthogonal complement of the subalgebra.

S is the exterior algebra of the span of the negative q-root vectors.
Clifford multiplication follows the relation xy + yx = <x,y> with no
factor 2, so wedge and contraction against the pairing-1 dual bases
realize gamma exactly over the rationals.  The subalgebra acts through
ad followed by the quadratic embedding of so(q) into the Clifford
algebra; the cubic term is the dual-basis contraction of the canonical
3-form x,y,z -> <x,[y,z]>.

In the monomial basis every gamma is a signed partial permutation,
stored as {column mask: (row mask, +1 or -1)}.  A product of gammas is
again one, so the cubic term and the h-action are sums of such
products, stored as sparse maps {(row, col): Fraction} without zero
entries.  `to_mat` gives the dense view of either form.
"""

from fractions import Fraction

from .exactla import Mat
from .liealg import ChevalleyBasis, PairGH
from .roots import Weight

_F0 = Fraction(0)


def to_mat(op, dim) -> Mat:
    """Dense dim x dim matrix of a gamma or of a sparse spin operator."""
    rows = [[_F0] * dim for _ in range(dim)]
    for key, val in op.items():
        if isinstance(val, tuple):  # gamma: column -> (row, sign)
            (r, v), c = val, key
        else:
            (r, c), v = key, val
        rows[r][c] = v
    return Mat(rows, dim)


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
        # the distinct spin weights in order of first appearance, and for
        # each basis vector the position of its weight among them
        self.distinct_weights = list(dict.fromkeys(self.weights))
        # each distinct weight as top_weight minus a sum of q-roots, in
        # integer simple-root coordinates
        self.distinct_drops = [tuple(shift - w) for w in self.distinct_weights]
        where = {w: k for k, w in enumerate(self.distinct_weights)}
        self.weight_class = [where[w] for w in self.weights]
        # q basis order: e_beta for beta in q_pos, then f_beta; duals swap halves
        self._qidx_to_cb = [cb.e_index(b) for b in self.q_pos] + \
                           [cb.e_index(-b) for b in self.q_pos]
        self._cb_to_qidx = {c: i for i, c in enumerate(self._qidx_to_cb)}
        self._gamma = [self._signed_permutation(qi) for qi in range(2 * self.nq)]
        self._h_action_cache = {}
        self.cubic = cubic_term(pair, cb, self)
        # Dirac blocks and their BlockSpaces on this module, keyed by
        # (module window, weight): dirac.block and dirac.block_space
        self.blocks = {}
        self.spaces = {}

    # -- Clifford multiplication -----------------------------------------------

    def _signed_permutation(self, qi):
        """Wedge by f_{beta_j} for qi = nq + j, contraction by e_{beta_j} for qi = j.

        <e_beta, f_beta> = 1; the sign counts the wedge factors below j.
        """
        wedge = qi >= self.nq
        bit = 1 << (qi - self.nq if wedge else qi)
        return {mask: (mask ^ bit, -1 if (mask & (bit - 1)).bit_count() & 1 else 1)
                for mask in range(self.dim) if bool(mask & bit) != wedge}

    def clifford_sum(self, terms):
        """Sparse sum of coeff * gamma_{a1} ... gamma_{ak} over (coeff, (a1, ..., ak))."""
        out = {}
        for coeff, word in terms:
            first, *rest = [self._gamma[a] for a in reversed(word)]
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

    def gamma_q(self, qi):
        """Gamma of the qi-th q-basis vector (e's first, then f's), {col: (row, sign)}."""
        return self._gamma[qi]

    def gamma_root(self, root: Weight):
        """Gamma of the root vector for a signed q-root."""
        if all(c >= 0 for c in root):
            return self._gamma[self.q_pos.index(root)]
        return self._gamma[self.nq + self.q_pos.index(-root)]

    def dual_index(self, qi):
        return qi + self.nq if qi < self.nq else qi - self.nq

    def gamma_coeffs(self, coeffs) -> Mat:
        """Dense gamma of a q-vector given by coefficients over the q basis."""
        return to_mat(self.clifford_sum((c, (qi,)) for qi, c in enumerate(coeffs) if c),
                      self.dim)

    # -- induced action of the subalgebra ----------------------------------------

    def ad_on_q(self, gen) -> Mat:
        """Matrix of ad(gen) restricted to q, in the q basis."""
        cb = self.cb
        b = cb.generator_index(gen)
        cols = [{self._cb_to_qidx[k]: c for k, c in cb.bracket(b, qb).items()}
                for qb in self._qidx_to_cb]
        return Mat.from_sparse_cols(cols, 2 * self.nq)

    def h_action(self, gen):
        """Action of an h-generator through ad and the so(q) embedding, sparse.

        phi(T) = (1/4) sum_i [gamma(T z_i), gamma(z^i)] over dual pairs.
        """
        op = self._h_action_cache.get(gen)
        if op is None:
            t = self.ad_on_q(gen).rows
            terms = []
            for qi in range(2 * self.nq):
                dual = self.dual_index(qi)
                for k in range(2 * self.nq):
                    c = t[k][qi] / 4
                    if c:
                        terms += [(c, (k, dual)), (-c, (dual, k))]
            op = self._h_action_cache[gen] = self.clifford_sum(terms)
        return op

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


def cubic_term(pair: PairGH, cb: ChevalleyBasis, sm: SpinModule):
    """gamma(c) = (1/6) sum <z_i,[z_j,z_k]> gamma(z^i)gamma(z^j)gamma(z^k), sparse.

    The sum runs over the root-vector basis of q with its Killing-dual
    partners; only the q-component of the brackets survives the pairing.
    """
    n = 2 * sm.nq
    cb_idx = sm._qidx_to_cb
    sixth = Fraction(1, 6)
    terms = []
    for j in range(n):
        for k in range(n):
            vec = cb.bracket(cb_idx[j], cb_idx[k])
            if not vec:
                continue
            for i in range(n):
                pairing = sum((c * cb.pairing(cb_idx[i], m) for m, c in vec.items()), _F0)
                if pairing:
                    terms.append((sixth * pairing,
                                  (sm.dual_index(i), sm.dual_index(j), sm.dual_index(k))))
    return sm.clifford_sum(terms)


def cubic_term_rebased(pair: PairGH, cb: ChevalleyBasis, sm: SpinModule,
                       base_change: Mat) -> Mat:
    """The same contraction computed in a rebased dual system of q.

    `base_change` P sends the root-vector basis to z'_i = sum P[k][i] z_k;
    the Killing-dual system is recomputed from the Gram matrix.  The
    result must equal `to_mat` of `cubic_term` exactly whenever P is
    invertible.
    """
    n = 2 * sm.nq
    cb_idx = sm._qidx_to_cb
    gram = Mat([[cb.pairing(cb_idx[i], cb_idx[j]) for j in range(n)] for i in range(n)], n)
    dual = gram.inv() @ base_change.T.inv()
    gammas_p = [sm.gamma_coeffs(base_change.col(i)) for i in range(n)]
    gammas_d = [sm.gamma_coeffs(dual.col(i)) for i in range(n)]
    p = base_change.rows

    def bracket_cols(j, k):
        vec = {}
        for a in range(n):
            ca = p[a][j]
            if not ca:
                continue
            for b in range(n):
                cbk = p[b][k]
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
                ca = p[a][i]
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
