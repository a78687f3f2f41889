"""Test-side helpers: adjoint matrices, window dimensions, the
fundamental-weight and epsilon coordinates, the PBW straightener that
Verma window actions are checked against, the reference simple
quotient of a Verma window, block weights by the offset filter over
every subset sum of q+, Jordan chains chosen one candidate top at a
time, kernels restricted to one parity, canonical row spaces and the
subspace meet and preimage that the reference singular classes and
Hodge decompositions are built from, Hermitian pairs by their
definition, the degree-graded Chevalley-Eilenberg complexes, and the
Bruhat order and Kazhdan-Lusztig polynomials."""

from fractions import Fraction
from itertools import takewhile
from operator import add, le, sub

from odirac.cato import QuotientWindow, _delta_coords, cone_coords, sort_weights
from odirac.dirac import block
from odirac.exactla import Mat
from odirac.roots import Weight

_F0 = Fraction(0)


def ad_matrix(cb, i):
    """ad(b_i) on the Chevalley basis, column b = [b_i, b_b]."""
    cols = []
    for b in range(cb.dim):
        vec = cb.bracket(i, b)
        cols.append(tuple(vec.get(k, _F0) for k in range(cb.dim)))
    return Mat.from_cols(cols, cb.dim)


def total_dim(f):
    """The dimension of a finite module: the sum of its weight multiplicities."""
    return sum(f.dim(w) for w in f.weights())


def weight_to_fundamental(rs, v):
    """Values of v on the simple coroots (fundamental-weight coordinates)."""
    return tuple(rs.pairing_with_simple_coroots(v))


def weight_from_fundamental(rs, vals):
    """Weight with the given simple-coroot values; exact inverse of the above."""
    a = Mat([[Fraction(x) for x in row] for row in rs.cartan_matrix], rs.rank)
    return Weight(a.T.inv().apply(tuple(Fraction(x) for x in vals)))


def weight_to_eps(rs, v):
    """Epsilon coordinates of v, for simple A types (inverse of roots.eps_to_weight)."""
    if not rs.cartan_type.startswith("A") or "x" in rs.cartan_type:
        raise ValueError("epsilon coordinates only for simple A types")
    n = rs.rank
    eps = [v[0]]
    for i in range(1, n):
        eps.append(v[i] - v[i - 1])
    eps.append(-v[n - 1])
    return tuple(eps)


def _acc(d, k, v):
    if not v:
        return
    cur = d.get(k, _F0) + v
    if cur:
        d[k] = cur
    elif k in d:
        del d[k]


def _inc(mono, i):
    return mono[:i] + (mono[i] + 1,) + mono[i + 1:]


def _dec(mono, i):
    return mono[:i] + (mono[i] - 1,) + mono[i + 1:]


class Straightener:
    """Reference left action of Chevalley generators on PBW monomials over a
    Verma top: each image is straightened against the bracket table in
    dictionaries of `Fraction`s, one monomial at a time.

    Monomials are exponent tuples over `cb.pos`, as `VermaWindow.basis`
    lists them.
    """

    def __init__(self, cb, lam):
        self.cb = cb
        # per root position: the cb index of f_beta; per cb index: the
        # generator kind and its root position (None for the Cartan part)
        self._f_index = [cb.e_index(-beta) for beta in cb.pos]
        position = {beta: p for p, beta in enumerate(cb.pos)}
        self._kind = [(kind, None if kind == "h" else position[val])
                      for kind, val in cb.generators]
        # h_j-eigenvalues: lam(h_j) minus the integer sum over the monomial
        rs = cb.rs
        self._lam_h = rs.pairing_with_simple_coroots(lam)
        self._root_h = [rs.pairing_with_simple_coroots(beta) for beta in cb.pos]
        self._memo = {}

    def act_index(self, b, mono):
        """Image of a basis monomial under the cb basis element with index b."""
        key = (b, mono)
        res = self._memo.get(key)
        if res is None:
            res = self._memo[key] = self._act(b, mono)
        return res

    def _act(self, b, mono):
        cb = self.cb
        kind, gi = self._kind[b]
        if kind == "h":
            val = self._lam_h[b] - sum(k * self._root_h[p][b] for p, k in enumerate(mono) if k)
            return {mono: val} if val else {}
        first = next((i for i, k in enumerate(mono) if k), None)
        if kind == "e":  # raising operator
            if first is None:
                return {}
            rest = _dec(mono, first)
            fj = self._f_index[first]
            out = {}
            for m, c in self.act_index(b, rest).items():
                for m2, c2 in self.act_index(fj, m).items():
                    _acc(out, m2, c * c2)
            for k, c in cb.bracket(b, fj).items():
                for m2, c2 in self.act_index(k, rest).items():
                    _acc(out, m2, c * c2)
            return out
        # lowering by f_gamma, gamma at root position gi
        if first is None or gi <= first:
            return {_inc(mono, gi): Fraction(1)}
        rest = _dec(mono, first)
        fj = self._f_index[first]
        out = {}
        for m, c in self.act_index(b, rest).items():
            # monomials here start no earlier than `first`, so prepending
            # f_{beta_first} is a plain exponent bump
            _acc(out, _inc(m, first), c)
        for k, c in cb.bracket(b, fj).items():
            for m2, c2 in self.act_index(k, rest).items():
                _acc(out, m2, c * c2)
        return out

    def action(self, vw, gen, w):
        """gen from the basis of the Verma window vw at w to the basis at its
        target weight, as `Mat.from_sparse_cols` of the straightened images."""
        cb = self.cb
        tgt = {m: i for i, m in enumerate(vw.basis(w + cb.generator_weight(gen)))}
        b = cb.generator_index(gen)
        return Mat.from_sparse_cols([{tgt[m]: c for m, c in self.act_index(b, mono).items()}
                                     for mono in vw.basis(w)], len(tgt))


def verma_simple_quotient(vw):
    """Reference L(lambda): the quotient of the Verma window vw by N(lambda).

    N is found top-down without the form.  U(n+) is generated by the
    simple raising operators e_i, so for w != lambda a vector v of weight
    w lies in N iff e_i v lies in N at w + alpha_i for every i:
    N_w = ker A, A the stacked maps (projection to L at w + alpha_i) @ e_i
    over the i with L nonzero at w + alpha_i.

    One rref of A with its columns reversed gives both halves of the
    quotient.  Its kernel vectors, read back in order, lead at the free
    columns and vanish at the other free columns: they are the rref of
    N_w, so its pivots (read back) are the kept indices.  Its nonzero
    rows, read back, are the identity on the kept indices and vanish on
    N_w: they are the projection.  Both equal what the Gram's nullspace
    gives.
    """
    simples = vw.pair.rs.simple_roots

    def weight_data(w):
        if w == vw.lam:
            return [0], Mat.identity(1)
        if _delta_coords(vw.lam, w) is None:
            return [], Mat.zero(0, 0)
        stacked = None
        for alpha in simples:
            up = w + alpha
            if quot.dim(up):
                m = quot.projection(up) @ vw.action(("e", alpha), w)
                stacked = m if stacked is None else stacked.vstack(m)
        if stacked is None:
            return [], Mat.zero(0, vw.dim(w))
        n = stacked.ncols
        rev = range(n - 1, -1, -1)
        red, pivots = stacked.take(cols=rev).rref()
        keep = [n - 1 - p for p in reversed(pivots)]
        return keep, red.take(rows=range(len(pivots) - 1, -1, -1), cols=rev)

    quot = QuotientWindow(vw, weight_data, "quotient")
    return quot


def lowering_map(src, tgt, weights):
    """{w: M_w}, the module map from the highest weight window `src` to `tgt`
    that fixes the top vector: M_top = 1, and src's basis vector f_beta u
    at w (`src.first_factors`) goes to f_beta applied in tgt to
    M_{w + beta} u.  `weights` must list every weight of src that lies
    above one of them; they are visited from the top down.

    From a Verma window onto a simple window this is the projection
    M(lambda) -> L(lambda); from a simple window to the reference
    quotient `verma_simple_quotient`, the isomorphism T.
    """
    maps = {}
    for w in sorted(weights, key=lambda v: -v.height):
        if w == src.top_weight:
            maps[w] = Mat.identity(1)
            continue
        cols = [None] * src.dim(w)
        for beta, positions, us in src.first_factors(w):
            images = (tgt.action(("f", beta), w + beta) @ maps[w + beta]).take(cols=us)
            for k, col in zip(positions, images.T.num):
                cols[k] = Mat.from_ints([col], images.nrows, images.den)
        maps[w] = Mat.zero(0, tgt.dim(w)).vstack(*cols).T
    return maps


def subset_sums(sm):
    """Every distinct sum of a subset of q+ (the drops of the spin basis
    vectors below top(S)), in integer simple-root coordinates, lowest
    height first."""
    sums = {(0,) * sm.pair.rank}
    for beta in sm.q_pos:
        sums |= {tuple(map(add, d, beta)) for d in sums}
    return sorted(sums, key=lambda d: (sum(d), d))


def offset_filter_block_weights(ctx, m, depth, margin=0):
    """`PairContext.block_weights` by the offset filter over every subset sum.

    The cone point c (the block weight top(m) + top(S) - c) is kept iff m
    materializes top(m) - r for every rest r = c - drop + e >= 0, over
    every subset sum `drop` of q+ and every e in the cone of `margin`:
    also the rests other than c + e, which the engine does not test.  The
    rests are grouped by p = c + e, where they are p - drop over the
    drops <= p, and each p is tested once; a drop higher than p cannot
    lie below it.
    """
    sm = ctx.sm
    sums = subset_sums(sm)
    verdict = {}

    def fits(p):
        if p not in verdict:
            verdict[p] = all(m.materialized(m.weight_below_top(tuple(map(sub, p, d))))
                             for d in takewhile(lambda d: sum(d) <= sum(p), sums)
                             if all(map(le, d, p)))
        return verdict[p]

    top = m.top_weight + sm.top_weight
    margins = cone_coords(ctx.pair.rank, margin)
    return sort_weights([top - Weight(c) for c in cone_coords(ctx.pair.rank, depth)
                         if all(fits(tuple(map(add, c, e))) for e in margins)])


def greedy_chains(nil, seeds=()):
    """The Jordan chains of the `GradedNilpotent` nil, tops chosen one
    candidate at a time.

    From the nilpotency index down to 1, level k walks its seeds (one-row
    `Mat`s paired with their size), then the rows of ker N^k, and keeps a
    candidate when it raises the rank of the floor ker N^{k-1} + N ker N^{k+1}
    stacked with the tops kept so far; every seed must be kept.  One full
    rank per candidate.
    """
    s = 0
    while nil.power(s).rank():
        s += 1
    nt = nil.n.T
    chains = []
    for k in range(s, 0, -1):
        taken = row_space(nil.kernel(k - 1).vstack(nil.kernel(k + 1) @ nt))
        ker = nil.kernel(k)
        mine = [vec for vec, size in seeds if size == k]
        for i, vec in enumerate(mine + [ker.take(rows=[j]) for j in range(ker.nrows)]):
            grown = taken.vstack(vec)
            if grown.rank() == taken.nrows:
                assert i >= len(mine), "seed top is not independent at its level"
                continue
            taken = grown
            chain = [vec]
            for _ in range(k - 1):
                chain.append(chain[-1] @ nt)
            chains.append(vec.vstack(*chain[1:]))
    return chains


def nullspace_on(mat, cols):
    """Basis rows of ker `mat` among vectors supported on `cols`, in full coordinates."""
    if not cols:
        return Mat.zero(0, mat.ncols)
    # the unit rows of `cols` scatter each kernel row into full coordinates
    return mat.take(cols=cols).nullspace() @ Mat.identity(mat.ncols).take(rows=cols)


def parity_cols(parity, sign):
    """The coordinates of the sign part: parity 0 for sign +1, 1 for sign -1."""
    want = 0 if sign > 0 else 1
    return [i for i, p in enumerate(parity) if p == want]


def graded_kernel(nil, k, sign):
    """Basis rows of ker N^k in the sign part of the `GradedNilpotent` nil: a
    nullspace of N^k on the columns of one parity, in full coordinates."""
    return nullspace_on(nil.power(k), parity_cols(nil.parity, sign))


# -- subspace arithmetic ----------------------------------------------------
#
# A subspace of Q^n is the row space of a Mat with n columns.  `row_space`
# and `Mat.nullspace` return canonical (rref-derived) bases, so equal
# subspaces get identical Mats.  Sums are `row_space(a.vstack(...))` and
# dimensions of spans are `rank()`.

def row_space(a):
    """Canonical basis of the row space: the nonzero rows of the rref, as a Mat."""
    if a.is_zero():
        return Mat.zero(0, a.ncols)
    red, pivots = a.rref()
    return red.take(rows=range(len(pivots)))


def subspace_intersect(a, b):
    """Canonical basis of the meet of the row spaces of a and b, as a Mat."""
    if not a.nrows or not b.nrows:
        return Mat.zero(0, a.ncols)
    # c with c_a a + c_b b = 0 gives c_a a in the meet, and every meet vector so
    combos = a.vstack(b).T.nullspace()
    return row_space(combos.take(cols=range(a.nrows)) @ a)


def preimage_subspace(a, w_basis):
    """Canonical basis rows of {v : a v lies in the row space of w_basis}."""
    if a.nrows == 0:
        return Mat.identity(a.ncols)
    if not w_basis.nrows:
        return a.nullspace()
    # (v, y) with a v + w_basis^T y = 0: the v are the preimage
    return row_space(a.hstack(w_basis.T).nullspace().take(cols=range(a.ncols)))


# -- Hermitian pairs by definition --------------------------------------------

def q_is_abelian(pair):
    """True iff no sum of two positive q-roots is a root."""
    roots = pair.rs.root_set
    return not any(a + b in roots for a in pair.q_positive for b in pair.q_positive)


def q_brackets_into_h(pair):
    """True iff [q, q] lies in h: every sum of two q-roots that is a root lies
    in Delta_h."""
    q = pair.q_positive + [-a for a in pair.q_positive]
    h = set(pair.delta_h_pos) | {-a for a in pair.delta_h_pos}
    return all(a + b in h for a in q for b in q if a + b in pair.rs.root_set)


def hermitian_grading(pair):
    """The grading phi of a Hermitian pair, from the definition: q+ abelian,
    [q, q] in h, and a linear phi that is 0 on Delta_h+ and 1 on q+, found by
    an exact solve.  phi is returned as its values on the simple roots, or
    None when the pair is not Hermitian."""
    if not (q_is_abelian(pair) and q_brackets_into_h(pair)):
        return None
    rows = [list(a) for a in pair.delta_h_pos + pair.q_positive]
    rhs = [[0]] * len(pair.delta_h_pos) + [[1]] * len(pair.q_positive)
    sol = Mat(rows, pair.rank).solve(Mat(rhs, 1))
    return None if sol is None else sol.col(0)


# -- Chevalley-Eilenberg complexes --------------------------------------------

class CEComplex:
    """Per-weight slice of the nilpotent (co)homology complexes of a module,
    graded by wedge degree: the degree-by-degree reference for the totals
    that `hodge.theorem52_comparison` reads off two ranks.

    Degree-k chains are module vectors tensored with k-fold wedges of the
    negative q-root vectors; with abelian q-halves the differential is
    d = sum pi(e_j) (x) wedge(f_j) and the boundary is
    del = sum pi(f_j) (x) contract(e_j).  The chain v (x) f_I is the
    spin basis vector u_I of the Dirac block at nu + rho - rho_h, and
    d and del are that block's half operators C+ and C-.
    """

    def __init__(self, sm, m, nu):
        self.block = block(sm, m, nu + sm.pair.rho - sm.pair.rho_h)
        self.space = self.block.space
        self.nq = sm.nq
        # slice basis indices by wedge degree, the popcount of the spin mask
        by_degree = [[] for _ in range(self.nq + 1)]
        for mask, (off, _, d) in self.space.slot.items():
            by_degree[mask.bit_count()].extend(range(off, off + d))
        self._by_degree = tuple(map(tuple, by_degree))

    def degree_indices(self, k):
        return self._by_degree[k] if 0 <= k <= self.nq else ()

    def differential(self):
        """d = C+ on the whole slice; restricts to degree k -> k+1."""
        return self.block.d_plus

    def boundary(self):
        """del = C- on the whole slice; restricts to degree k+1 -> k."""
        return self.block.d_minus

    def _homology(self, op, step):
        """dim C_k - rank(op out of k) - rank(op into k), nonzero degrees only.

        `op` moves the degree by `step`: +1 for d, -1 for del.
        """
        def rank(k_from, k_to):  # no indices outside 0..nq, so rank 0 there
            return op.take(self.degree_indices(k_to), self.degree_indices(k_from)).rank()

        out = {}
        for k in range(self.nq + 1):
            val = len(self.degree_indices(k)) - rank(k, k + step) - rank(k - step, k)
            if val:
                out[k] = val
        return out

    def cohomology_dims(self):
        """dim H^k(d) per degree on this weight slice."""
        return self._homology(self.differential(), +1)

    def homology_dims(self):
        """dim H_k(del) per degree on this weight slice."""
        return self._homology(self.boundary(), -1)


# -- Bruhat order and Kazhdan-Lusztig polynomials -----------------------------
#
# Elements of W are the indices of a `roots.WeylData`; a polynomial in q is
# its list of int coefficients, constant term first.

def _poly_add(a, b, shift=0, scale=1):
    """a + scale * q^shift * b."""
    out = list(a) + [0] * max(0, len(b) + shift - len(a))
    for i, c in enumerate(b):
        out[i + shift] += scale * c
    while out and not out[-1]:
        out.pop()
    return out


class KazhdanLusztig:
    """Bruhat order and the Kazhdan-Lusztig polynomials P_{x,w} on the Weyl
    group `weyl` of the root system `rs`, by the recursion of
    Kazhdan-Lusztig (1979, Invent. Math. 53, (2.2.c)).

    `below[w]` is the Bruhat interval {x <= w}: for a simple s with sw < w,
    x <= w iff min(x, sx) <= sw (the lifting property).  For the same s and
    v = sw, with c = 1 if sx < x and 0 otherwise,
        P_{x,w} = q^{1-c} P_{sx,v} + q^c P_{x,v}
                  - sum over z < v with sz < z of mu(z, v) q^{(l(w)-l(z))/2} P_{x,z},
    where mu(z, v) is the coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v}.
    """

    def __init__(self, weyl, rs):
        self.weyl = weyl
        elements, lengths = weyl.elements, weyl.lengths
        n = len(elements)
        self.left = [[weyl.index[rs.simple_reflection(j) @ x] for x in elements]
                     for j in range(rs.rank)]
        self.below = {}
        self.p = {}
        for w in sorted(range(n), key=lengths.__getitem__):
            if lengths[w] == 0:
                self.below[w] = {w}
                self.p[w, w] = [1]
                continue
            s = next(s for s in self.left if lengths[s[w]] < lengths[w])
            v = s[w]
            self.below[w] = {x for x in range(n) if min(x, s[x], key=lengths.__getitem__)
                             in self.below[v]}
            mus = [(z, self.mu(z, v)) for z in self.below[v]
                   if z != v and lengths[s[z]] < lengths[z]]
            for x in self.below[w]:
                c = int(lengths[s[x]] < lengths[x])
                out = _poly_add(_poly_add([], self.poly(s[x], v), 1 - c), self.poly(x, v), c)
                for z, m in mus:
                    if m:
                        out = _poly_add(out, self.poly(x, z), (lengths[w] - lengths[z]) // 2, -m)
                self.p[x, w] = out

    def poly(self, x, w):
        """P_{x,w} as its coefficient list; [] unless x <= w."""
        return self.p.get((x, w), [])

    def mu(self, z, v):
        weyl = self.weyl
        d = weyl.lengths[v] - weyl.lengths[z]
        coeffs = self.poly(z, v)
        return coeffs[(d - 1) // 2] if d % 2 and (d - 1) // 2 < len(coeffs) else 0

    def leq(self, x, w):
        return x in self.below[w]
