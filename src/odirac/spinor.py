"""The spin module over the orthogonal complement of the subalgebra.

S is the exterior algebra of the span of the negative q-root vectors.
Clifford multiplication follows the relation xy + yx = <x,y> with no
factor 2, so wedge and contraction against the pairing-1 dual bases
realize gamma exactly over the rationals.  The subalgebra acts through
ad followed by the quadratic embedding of so(q) into the Clifford
algebra; the cubic term is the dual-basis contraction of the canonical
3-form x,y,z -> <x,[y,z]>.

The basis vector u_I is a bitmask I over the positive q-roots.  No
table over the 2^|q+| masks is built: every spin operator (a gamma, an
h-action, the cubic term) is one `SpinOperator`, applied per basis
vector, and `drops_within(bound)` walks only the masks whose drop fits a
bound, so a Dirac block reads only the masks it meets.  `to_mat` gives the dense view.
"""

from fractions import Fraction
from operator import sub

from .exactla import Mat
from .liealg import ChevalleyBasis, PairGH
from .roots import Weight

_F0 = Fraction(0)


class SpinOperator:
    """The sum of coeff * gamma_{a1} ... gamma_{ak} over (coeff, (a1, ..., ak)) terms.

    gamma_a contracts by e_{beta_a} for a < nq and wedges by f_{beta_{a-nq}}
    otherwise (<e_beta, f_beta> = 1).  On u_mask it flips bit a mod nq, with
    the sign of the wedge factors below that bit, and gives zero when a
    wedge finds the bit set or a contraction finds it clear.
    """

    def __init__(self, nq, terms):
        self.nq = nq
        self.terms = tuple(terms)
        self._columns = {}

    def _apply(self, mask):
        col = {}
        for coeff, word in self.terms:
            row, flips = mask, 0
            for a in reversed(word):
                bit = 1 << (a % self.nq)
                if bool(row & bit) == (a >= self.nq):
                    break
                flips += (row & (bit - 1)).bit_count()
                row ^= bit
            else:
                col[row] = col.get(row, 0) + (-coeff if flips & 1 else coeff)
        return {row: v for row, v in col.items() if v}

    def column(self, mask):
        """{row mask: coefficient} of the image of u_mask, without zeros; memoized."""
        col = self._columns.get(mask)
        if col is None:
            col = self._columns[mask] = self._apply(mask)
        return col

    def is_zero(self):
        """True iff the operator vanishes: a dense audit over all 2^|q+| basis
        vectors, for audits and finite modules, not rank-4 Verma runs."""
        return not any(self._apply(mask) for mask in range(1 << self.nq))


def to_mat(op: SpinOperator, dim) -> Mat:
    """Dense dim x dim matrix of a spin operator: it visits all 2^|q+| basis
    vectors, for audits and finite modules, not rank-4 Verma runs."""
    rows = [[_F0] * dim for _ in range(dim)]
    for c in range(dim):
        for r, v in op.column(c).items():
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
        self.top_weight = pair.rho - pair.rho_h
        # q_basis[k]: the cb index of the k-th q basis vector, e_beta for
        # beta in q_pos, then f_beta; duals swap halves
        self.q_basis = [cb.e_index(b) for b in self.q_pos] + \
            [cb.e_index(-b) for b in self.q_pos]
        self._cb_to_qidx = {c: i for i, c in enumerate(self.q_basis)}
        self._gamma = [SpinOperator(self.nq, [(1, (qi,))]) for qi in range(2 * self.nq)]
        self.identity = SpinOperator(self.nq, [(1, ())])
        self._h_action_cache = {}
        self.cubic = cubic_term(self)

    def drops_within(self, bound):
        """{drop: increasing masks} of the u_I whose drop top_weight - wt(u_I) is
        at most `bound` in every coordinate.  The walk adds q+ one root at a
        time, from the last, and prunes a subset as soon as a coordinate
        passes the bound; a negative bound gives {}."""
        level = [(0, tuple(bound))] if min(bound) >= 0 else []  # (mask, bound - drop)
        for i, beta in reversed(list(enumerate(self.q_pos))):
            level = [(mask | bit, r) for mask, room in level
                     for bit, r in ((0, room), (1 << i, tuple(map(sub, room, beta))))
                     if min(r) >= 0]
        out = {}
        for mask, room in level:
            out.setdefault(tuple(map(sub, bound, room)), []).append(mask)
        return out

    # -- Clifford multiplication -----------------------------------------------

    def gamma_q(self, qi):
        """Gamma of the qi-th q-basis vector (e's first, then f's)."""
        return self._gamma[qi]

    def gamma_root(self, root: Weight):
        """Gamma of the root vector for a signed q-root."""
        if all(c >= 0 for c in root):
            return self._gamma[self.q_pos.index(root)]
        return self._gamma[self.nq + self.q_pos.index(-root)]

    def dual_index(self, qi):
        return qi + self.nq if qi < self.nq else qi - self.nq

    def gamma_coeffs(self, coeffs) -> Mat:
        """Dense gamma of a q-vector given by coefficients over the q basis; it
        visits all 2^|q+| basis vectors, for audits, not rank-4 Verma runs."""
        return to_mat(SpinOperator(self.nq, ((c, (qi,)) for qi, c in enumerate(coeffs) if c)),
                      self.dim)

    # -- induced action of the subalgebra ----------------------------------------

    def ad_on_q(self, gen) -> Mat:
        """Matrix of ad(gen) restricted to q, in the q basis."""
        cb = self.cb
        b = cb.generator_index(gen)
        cols = [{self._cb_to_qidx[k]: c for k, c in cb.bracket(b, qb).items()}
                for qb in self.q_basis]
        return Mat.from_sparse_cols(cols, 2 * self.nq)

    def h_action(self, gen) -> SpinOperator:
        """Action of an h-generator through ad and the so(q) embedding.

        phi(T) = (1/4) sum_i [gamma(T z_i), gamma(z^i)] over dual pairs.
        """
        op = self._h_action_cache.get(gen)
        if op is None:
            t = self.ad_on_q(gen)
            terms = []
            for qi in range(2 * self.nq):
                dual = self.dual_index(qi)
                for k, row in enumerate(t.num):
                    if row[qi]:
                        c = Fraction(row[qi], 4 * t.den)  # a quarter of ad's entry
                        terms += [(c, (k, dual)), (-c, (dual, k))]
            op = self._h_action_cache[gen] = SpinOperator(self.nq, terms)
        return op


def cubic_term(sm: SpinModule) -> SpinOperator:
    """gamma(c) = (1/6) sum <z_i,[z_j,z_k]> gamma(z^i)gamma(z^j)gamma(z^k).

    The sum runs over the root-vector basis of q with its Killing-dual
    partners; only the q-component of the brackets survives the pairing.
    [z_j, z_k] is one root vector or lies in the Cartan part, and a root
    vector pairs only with its opposite, so each bracket meets at most one
    z_i: the dual partner of its q-component.
    """
    n = 2 * sm.nq
    cb, cb_idx = sm.cb, sm.q_basis
    sixth = Fraction(1, 6)
    terms = []
    for j in range(n):
        for k in range(n):
            for m, c in cb.bracket(cb_idx[j], cb_idx[k]).items():
                if m not in sm._cb_to_qidx:
                    continue  # a Cartan or h-root component pairs to zero with q
                i = sm.dual_index(sm._cb_to_qidx[m])
                pairing = c * cb.pairing(cb_idx[i], m)
                if pairing:
                    terms.append((sixth * pairing,
                                  (sm.dual_index(i), sm.dual_index(j), sm.dual_index(k))))
    return SpinOperator(sm.nq, terms)


def cubic_term_rebased(sm: SpinModule, base_change: Mat) -> Mat:
    """The same contraction computed in a rebased dual system of q.

    `base_change` P sends the root-vector basis to z'_i = sum P[k][i] z_k;
    the Killing-dual system is recomputed from the Gram matrix.  The
    result must equal `to_mat` of `cubic_term` exactly whenever P is
    invertible.
    """
    n = 2 * sm.nq
    cb, cb_idx = sm.cb, sm.q_basis
    gram = Mat([[cb.pairing(cb_idx[i], cb_idx[j]) for j in range(n)] for i in range(n)], n)
    dual = gram.inv() @ base_change.T.inv()
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
