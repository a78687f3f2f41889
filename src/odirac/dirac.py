"""Cubic Dirac operator blocks and their spectral structure.

Everything is computed per weight subspace of M tensor S: the operator
never leaves a weight space, each block is a finite exact rational
matrix, and kernels, images, generalized eigenspaces, Jordan chains,
(higher) Dirac cohomology and the index identities reduce to rank
arithmetic there.  The only subspaces built are the generalized kernel
and its Jordan chains, row spaces of int `Mat`s; a vector is a one-row
`Mat`.
"""

from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from operator import sub

from .exactla import Mat
from .cato import (OutsideWindow, SlotSpace, WeightModuleWindow, block_operator, identity_map,
                   sort_weights)
from .roots import Weight, same_infinitesimal_character, zero_weight
from .spinor import SpinModule


class LiftFailure(Exception):
    """A Jordan lift violated the structure the exact-circle proof guarantees."""


class BlockSpace(SlotSpace):
    """Basis bookkeeping for (M tensor S) at one weight; see `block_space`.

    One slot per spin basis vector u_I with a nonzero module component,
    keyed by its mask I, in increasing mask order; `parity` lists the
    parity of each basis vector.
    """

    def __init__(self, sm: SpinModule, m: WeightModuleWindow, mu: Weight):
        self.sm = sm
        self.m = m
        self.mu = mu
        # With wt(u_I) = top(S) - drop, mu - wt(u_I) is top(m) - (base - drop),
        # base = top(m) + top(S) - mu.  Every nonzero weight of m lies below
        # top(m), so only integral base and drops <= base can meet m.
        base = m.top_weight + sm.top_weight - mu
        comps = []
        if all(c.denominator == 1 for c in base):
            for drop, masks in sm.drops_within(base).items():
                w = m.weight_below_top(tuple(map(sub, base, drop)))
                if not m.materialized(w):
                    raise OutsideWindow(f"block {mu}: module weight {w} not materialized")
                d = m.dim(w)
                if d:
                    comps += [(mask, w, d) for mask in masks]
        comps.sort()  # masks are distinct
        super().__init__(comps)
        self.parity = [mask.bit_count() & 1 for mask, _, d in comps for _ in range(d)]

    def graded_dims(self):
        minus = sum(self.parity)
        return self.dim - minus, minus


def spin_terms(src: BlockSpace, op, module_map):
    """The terms (j, i, coeff, module_map) of op (x) module_map on the masks of `src`."""
    return ((j, i, c, module_map) for i in src.slot for j, c in op.column(i).items())


def block_space(sm: SpinModule, m: WeightModuleWindow, mu: Weight) -> BlockSpace:
    """The basis bookkeeping of m (x) S at mu, built once and kept on m.

    Callers only read a BlockSpace, so one instance serves every block
    operator, Dirac block and Hodge form of m at (sm, mu).
    """
    sp = m.block_spaces.get((sm, mu))
    if sp is None:
        sp = m.block_spaces[(sm, mu)] = BlockSpace(sm, m, mu)
    return sp


def h_generator_block(sm, m, gen, mu) -> Mat:
    """Diagonal action of an h-generator from the block at mu to mu + wt(gen),
    built once and kept on m."""
    g = m.h_blocks.get((sm, gen, mu))
    if g is None:
        src = block_space(sm, m, mu)
        tgt = block_space(sm, m, mu + sm.cb.generator_weight(gen))
        terms = [*spin_terms(src, sm.identity, partial(m.action, gen)),
                 *spin_terms(src, sm.h_action(gen), identity_map(m))]
        g = m.h_blocks[(sm, gen, mu)] = block_operator(tgt, src, terms)
    return g


class DiracBlock:
    """The cubic Dirac operator on one weight space, with derived data."""

    def __init__(self, sm: SpinModule, m: WeightModuleWindow, mu: Weight):
        self.pair = sm.pair
        self.sm = sm
        self.m = m
        self.mu = mu
        sp = self.space = block_space(sm, m, mu)
        negated_cubic = ((j, i, -c, f) for j, i, c, f in self._terms("cubic"))
        self.d = block_operator(sp, sp, chain(self._terms("e"), self._terms("f"), negated_cubic))
        self._gen0 = None
        self._nilp = None
        self._ranks = None
        self._d_powers = [self.d]  # D^1, D^2, ...
        self._eigs = None

    @property
    def dim(self):
        return self.space.dim

    # -- D = C+ + C- - cubic part; the halves are built only where read -------

    def _terms(self, part):
        """The `block_operator` terms of C+ (part "e": e_alpha against the wedge,
        spin weight drops by alpha), C- ("f": f_alpha against the contraction,
        spin weight rises) or the cubic part ("cubic", against the identity)."""
        sp, sm, m = self.space, self.sm, self.m
        if part == "cubic":
            return spin_terms(sp, sm.cubic, identity_map(m))
        return (t for a in self.pair.q_positive
                for t in spin_terms(sp, sm.gamma_root(-a if part == "e" else a),
                                    partial(m.action, (part, a))))

    # each half is assembled on its first read and ranked once per block;
    # the cubic part is read only inside D
    d_plus = cached_property(lambda self: block_operator(self.space, self.space, self._terms("e")))
    d_minus = cached_property(lambda self: block_operator(self.space, self.space, self._terms("f")))
    half_ranks = cached_property(lambda self: (self.d_plus.rank(), self.d_minus.rank()))

    @cached_property
    def jordan_basis(self):
        """(rows, tops): the Jordan chain vectors in block coordinates, chain by
        chain, and {k: the row index of each top of a chain of size 2k + 1}."""
        chains = self.nilpotent().chains()
        tops, at = {}, 0
        for c in chains:
            if c.nrows % 2:
                tops.setdefault(c.nrows // 2, []).append(at)
            at += c.nrows
        return chains[0].vstack(*chains[1:]) @ self.gen0()[0], tops

    # -- the rank profile, H_top levels and the nilpotent restriction ---------

    def ranks(self):
        """[(R_0(j), R_1(j)) for j = 0..s], memoized: R_q(j) is the rank of D^j on the
        parity-q columns, and every power past the stable index s repeats R(s).  D is
        odd, so rank D^j = R_0(j) + R_1(j).  A spectrum without 0 gives s = 0 unranked."""
        if self._ranks is None:
            cols = [[i for i, p in enumerate(self.space.parity) if p == q] for q in (0, 1)]
            out = [self.space.graded_dims()]  # D^0 is the identity
            while self._eigs is None or 0 in self._eigs:
                r = tuple(self.d_power(len(out)).take(cols=c).rank() for c in cols)
                if r == out[-1]:
                    break
                out.append(r)
            self._ranks = out
        return self._ranks

    def d_ranks(self, j):
        """(R_0(j), R_1(j)) of `ranks()`, for any j >= 0."""
        return self.ranks()[min(j, self.stable_index())]

    def stable_index(self):
        """The first s with ker D^s = ker D^{s+1}; ker D^s is the generalized kernel."""
        return len(self.ranks()) - 1

    def gen0(self):
        """(basis rows, parities) of the generalized kernel ker D^s, even rows first."""
        if self._gen0 is None:
            s = self.stable_index()
            ker = self.d_power(s).nullspace() if s else Mat.zero(0, self.dim)
            pars = [_parity_of(v, self.space.parity) for v in ker.num]
            order = sorted(range(ker.nrows), key=pars.__getitem__)
            self._gen0 = ker.take(rows=order), [pars[i] for i in order]
        return self._gen0

    def nilpotent(self):
        """D on the generalized kernel, for its Jordan chains."""
        if self._nilp is None:
            vecs, parities = self.gen0()
            self._nilp = GradedNilpotent(
                _in_basis(self.d, vecs, vecs,
                          AssertionError("operator does not preserve the generalized kernel")),
                parities)
        return self._nilp

    def htop(self):
        """{k: (dim plus, dim minus)} of the nonzero H_top^k; k = 0 is H_D.

        H_top^k is ker D^{2k+1} modulo (ker D^{2k+1} meet im D) + ker D^{2k}, spanned
        by the tops of the Jordan chains of size 2k + 1; its parity-q half is
        R_q(2k) - R_q(2k+1) - R_{1-q}(2k+1) + R_{1-q}(2k+2) on `ranks()`, nonzero
        only for 2k + 1 <= s."""
        out = {}
        for k in range(len(self.ranks()) // 2):
            (a0, a1), b, (c0, c1) = map(self.d_ranks, (2 * k, 2 * k + 1, 2 * k + 2))
            plus, minus = a0 - sum(b) + c1, a1 - sum(b) + c0
            if plus or minus:
                out[k] = (plus, minus)
        return out

    def dirac_cohomology(self):
        """Dims of H_D = H_top^0 and its graded halves at this weight."""
        hd_plus, hd_minus = self.htop().get(0, (0, 0))
        return {
            "dim_block": self.dim,
            "ker": self.dim - sum(self.d_ranks(1)),
            "im": sum(self.d_ranks(1)),
            "gen0": self.dim - sum(self.d_ranks(self.stable_index())),
            "hd": hd_plus + hd_minus,
            "hd_plus": hd_plus,
            "hd_minus": hd_minus,
        }

    def higher_cohomology(self):
        """H_top^k dims from the rank profile, cross-checked against Jordan data."""
        direct = self.htop()
        from_jordan = self.nilpotent().htop_from_chains()
        if direct != from_jordan:
            raise AssertionError(
                f"higher cohomology mismatch at {self.mu}: {direct} vs {from_jordan}")
        return direct

    def d_power(self, k):
        """D^k, memoized with every lower power from D up; D^0 is the identity."""
        if k == 0:
            return Mat.identity(self.dim)
        powers = self._d_powers
        while len(powers) < k:
            powers.append(powers[-1] @ self.d)
        return powers[k - 1]

    def eigenvalue_decomposition(self):
        """Exact generalized eigenvalues of D^2 with their eigenspace dims.

        Computed once per block; each call returns a fresh copy.
        """
        if self._eigs is None:
            self._eigs = self._decompose()
        return dict(self._eigs)

    def _decompose(self):
        n = self.dim
        if n == 0:
            return {}
        d2 = self.d_power(2)
        out = {}
        total = 0
        for c in sorted(set(self._candidate_eigenvalues())):
            # ker A <= ker A^2 <= ... grows until two terms agree, then stays
            # constant, so the first repeat is dim ker A^n.
            a = d2 - Mat.scalar(n, c)
            p, prev, dim_c = a, 0, n - a.rank()
            while dim_c != prev:
                p = p @ a
                prev, dim_c = dim_c, n - p.rank()
            if dim_c:
                out[c] = dim_c
                total += dim_c
        if total != n:
            raise AssertionError(
                f"predicted eigenvalues cover {total} of {n} dims at {self.mu}")
        return out

    def _candidate_eigenvalues(self):
        pair = self.pair
        form = pair.form
        lam_shift = {form.norm2(lam + pair.rho) for lam in self.m.infchars}
        cand_weights = {self.mu}
        frontier = [self.mu]
        while frontier:
            nxt = []
            for w in frontier:
                for a in pair.delta_h_pos:
                    up = w + a
                    if (self.m.top_weight + self.sm.top_weight - up).height >= 0 \
                            and up not in cand_weights:
                        cand_weights.add(up)
                        nxt.append(up)
            frontier = nxt
        vals = []
        for nu in cand_weights:
            nn = form.norm2(nu + pair.rho_h)
            for ls in lam_shift:
                vals.append(Fraction(ls - nn, 2))
        return vals


def block(sm: SpinModule, m: WeightModuleWindow, mu: Weight) -> DiracBlock:
    """The Dirac block of m (x) S at mu, built once and kept on m (keyed by sm and mu)."""
    b = m.blocks.get((sm, mu))
    if b is None:
        b = m.blocks[(sm, mu)] = DiracBlock(sm, m, mu)
    return b


def _parity_of(row, parity):
    """The parity of a nonzero homogeneous int row; AssertionError otherwise."""
    pars = {parity[i] for i, c in enumerate(row) if c}
    if len(pars) != 1:
        raise AssertionError("vector is not parity homogeneous")
    return pars.pop()


def _in_basis(op, vecs, tgt, failure):
    """op restricted to the row space of `vecs`, in the coordinates of tgt's rows.

    Column j holds the coordinates of op applied to row j of vecs, all
    solved from one reduction; an image outside the row space of tgt
    raises `failure`.  tgt is 0 x dim when its basis is empty.
    """
    x = tgt.T.solve(op @ vecs.T)
    if x is None:
        raise failure
    return x


class GradedNilpotent:
    """A parity-odd nilpotent operator on a graded space, in its own coordinates.

    Vectors are one-row `Mat`s: N sends the row v to v @ N^T, and a Jordan
    chain is the `Mat` of rows [top, N top, ...].  N is odd, so each row of
    N^k is supported on the columns of one parity, row reduction never
    mixes parities, and every canonical kernel row is homogeneous.  Chain
    tops are tested on their images under powers of N, against the bottoms
    of the longer chains already found.
    """

    def __init__(self, n_mat: Mat, parity):
        self.n = n_mat
        self._nt = n_mat.T
        self.dim = n_mat.nrows
        self.parity = list(parity)
        self._powers = [Mat.identity(self.dim), n_mat]
        self._chains = None

    def power(self, k):
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1] @ self.n)
        return self._powers[k]

    def kernel(self, k):
        """Canonical basis rows of ker(N^k): one row per free column, in column
        order, each homogeneous of its column's parity.  On coordinates with the
        even ones first (`DiracBlock.gen0`), the even rows come first."""
        return self.power(k).nullspace()

    # -- Jordan chains ----------------------------------------------------------

    def chains(self, seeds=None):
        """Jordan chains, each the Mat of rows [top, N top, ...]; homogeneous,
        deterministic.

        `seeds` is a list of (one-row Mat, size) pairs that must appear as
        chain tops; a seed that cannot be completed raises LiftFailure.
        """
        if self._chains is not None and seeds is None:
            return self._chains
        result = self._compute_chains(seeds or [])
        if seeds is None:
            self._chains = result
        return result

    def _compute_chains(self, seeds):
        if self.dim == 0:
            return []
        s = 1  # the nilpotency index; N^0 = I is not zero on a nonzero space
        while not self.power(s).is_zero():
            s += 1
        chains = []
        for k in range(s, 0, -1):
            # The bottoms of the chains longer than k span N^k ker N^{k+1}; past
            # them, the pivots of the stacked N^{k-1} images are the level's tops
            # in order, and every seed must be one.
            image = Mat.zero(0, self.dim).vstack(*(c.take(rows=[c.nrows - 1]) for c in chains))
            mine = [vec for vec, size in seeds if size == k]
            cands = Mat.zero(0, self.dim).vstack(*mine, self.kernel(k))
            pivots = image.vstack(cands @ self.power(k - 1).T).T.pivots()
            for i, vec in enumerate(mine):
                if self._chain(vec).nrows != k:
                    raise LiftFailure(f"seed has chain length != {k}")
                if image.nrows + i not in pivots:
                    raise LiftFailure("seed top is not independent at its level")
            tops = cands.take(rows=[p - image.nrows for p in pivots if p >= image.nrows])
            chains += self._chains_of(tops, k)
        if sum(c.nrows for c in chains) != self.dim:
            raise AssertionError("Jordan chains do not fill the generalized kernel")
        if Mat.zero(0, self.dim).vstack(*chains).rank() != self.dim:
            raise AssertionError("Jordan chain vectors are not independent")
        return chains

    def _chain(self, vec):
        """The rows [vec, N vec, ...] up to the last nonzero one."""
        rows = []
        while not vec.is_zero():
            rows.append(vec)
            vec = vec @ self._nt
        return Mat.zero(0, self.dim).vstack(*rows)

    def _chains_of(self, tops, size):
        """The chain [top, N top, ..., N^{size-1} top] of each row of `tops`, in
        order; one product per step moves every top at once."""
        steps = [tops]
        for _ in range(size - 1):
            steps.append(steps[-1] @ self._nt)
        rows, n = tops.vstack(*steps[1:]), tops.nrows
        return [rows.take(rows=range(i, n * size, n)) for i in range(n)]

    def vector_parity(self, vec):
        """The parity of the homogeneous one-row Mat vec."""
        return _parity_of(vec.num[0], self.parity)

    def htop_from_chains(self, chains=None):
        """{k: (plus, minus)} counting odd chains by top parity."""
        out = {}
        for chain in (chains if chains is not None else self.chains()):
            if chain.nrows % 2:  # size 2k + 1
                out.setdefault(chain.nrows // 2, [0, 0])[self.vector_parity(chain)] += 1
        return {k: tuple(v) for k, v in out.items()}


# -- Casimir identity ---------------------------------------------------------

def casimir(action, w: Weight, n: int, roots, form) -> Mat:
    """|w|^2 + sum over the listed positive roots alpha of (e_alpha f_alpha +
    f_alpha e_alpha) on an n-dim space at weight w, where action(gen, v) is
    the map of gen from weight v to v + wt(gen).  With a window's `action`
    and all positive roots this is Omega_g; with `h_generator_block` and
    Delta_h^+ it is (Omega_h)_Delta on a block of m (x) S."""
    out = Mat.scalar(n, form.norm2(w))
    for alpha in roots:
        down_then_up = action(("e", alpha), w - alpha) @ action(("f", alpha), w)
        up_then_down = action(("f", alpha), w + alpha) @ action(("e", alpha), w)
        out = out + down_then_up + up_then_down
    return out


def _casimir(m: WeightModuleWindow, w: Weight) -> Mat:
    """Omega_g on m at w, built once and kept on m."""
    c = m.casimirs.get(w)
    if c is None:
        pair = m.pair
        c = m.casimirs[w] = casimir(m.action, w, m.dim(w), pair.rs.positive_roots, pair.form)
    return c


def check_square(blk: DiracBlock) -> dict:
    """2 D^2 against the Casimir expression, plus the eigenvalue audit."""
    sm, m, sp, pair = blk.sm, blk.m, blk.space, blk.pair
    omega_g = block_map(sm, m, m, partial(_casimir, m), blk.mu)
    omega_h = casimir(partial(h_generator_block, sm, m), blk.mu, sp.dim, pair.delta_h_pos,
                      pair.form)
    scalar = pair.form.norm2(pair.rho) - pair.form.norm2(pair.rho_h)
    rhs = omega_g - omega_h + Mat.scalar(sp.dim, scalar)
    return {
        "matrix_identity": blk.d_power(2).scale(2) == rhs,
        "eigenvalues": blk.eigenvalue_decomposition(),
    }


def h_equivariance_defect(sm, m, mu, gen) -> Mat:
    """[diag h-action, D] on the block at mu; zero iff D is h-equivariant."""
    d_here = block(sm, m, mu).d
    d_there = block(sm, m, mu + sm.cb.generator_weight(gen)).d
    g_here = h_generator_block(sm, m, gen, mu)
    return g_here @ d_here - d_there @ g_here


# -- theorem-level checks -----------------------------------------------------

def kostant_kernel_check(sm, f) -> dict:
    """ker D on F tensor S against the coset-sum of subsystem characters: it
    visits all spin weights, for finite modules, not rank-4 Verma runs."""
    from .cato import finite_character_h

    pair = sm.pair
    lam = f.top_weight
    spin_weights = [sm.top_weight - Weight(d) for d in sm.drops_within(tuple(2 * sm.top_weight))]
    block_weights = sort_weights({wm + ws for wm in f.weights() for ws in spin_weights})
    actual = {}
    for mu in block_weights:
        blk = block(sm, f, mu)
        if blk.dim == 0:
            continue
        kd = blk.dim - blk.d.rank()
        if kd:
            actual[mu] = kd
    expected = {}
    constituents = []
    for wi in pair.weyl.coset_W1:
        nu = pair.weyl.act(wi, lam + pair.rho) - pair.rho_h
        constituents.append(nu)
        for w, d in finite_character_h(pair, nu).items():
            expected[w] = expected.get(w, 0) + d
    return {
        "match": actual == expected,
        "kernel_character": actual,
        "expected_character": expected,
        "constituents": constituents,
    }


def nonvanishing_check(sm, m) -> dict:
    """v+ tensor vacuum is in ker D and not in im D at the top weight."""
    top = m.top_weight
    mu = top + sm.top_weight
    blk = block(sm, m, mu)
    sp = blk.space
    off, _, d_top = sp.slot.get(0, (0, None, 0))  # the vacuum u_0 has the top spin weight
    if d_top == 0:
        raise AssertionError("top weight space is empty")
    top = range(off, off + d_top)
    killed = blk.d.take(cols=top).is_zero()  # D on the unit vectors of the top
    units = Mat.identity(sp.dim).take(rows=top)  # im D is the row space of D^T
    disjoint = blk.d.T.vstack(units).rank() == sum(blk.d_ranks(1)) + d_top
    return {
        "weight": mu,
        "top_dim": d_top,
        "in_kernel": killed,
        "not_in_image": disjoint,
        "ok": killed and disjoint,
    }


def simple_verma_theorem_check(sm, m, weights) -> dict:
    """H_D(M(lambda)) against the subsystem Verma character at the given weights."""
    from .cato import verma_character_h
    from .roots import is_antidominant

    pair = sm.pair
    lam = m.top_weight
    mu_top = lam + pair.rho - pair.rho_h
    anti = is_antidominant(lam, pair.rs.positive_roots, pair.form, pair.rho)
    target_anti = is_antidominant(mu_top, pair.delta_h_pos, pair.form, pair.rho_h)
    actual = {}
    for mu in weights:
        blk = block(sm, m, mu)
        if blk.dim == 0:
            continue
        hd = blk.dirac_cohomology()["hd"]
        if hd:
            actual[mu] = hd
    expected_all = verma_character_h(pair, mu_top, weights)
    expected = {w: d for w, d in expected_all.items() if d}
    return {
        "antidominant": anti,
        "target_antidominant": target_anti,
        "match": actual == expected,
        "hd_character": actual,
        "expected_character": expected,
        "mu_top": mu_top,
    }


def index_identity_check(blk: DiracBlock) -> dict:
    """Signed higher-cohomology sum against the graded block dimensions."""
    htop = blk.higher_cohomology()
    signed = sum(dp - dm for dp, dm in htop.values())
    plus, minus = blk.space.graded_dims()
    return {
        "weight": blk.mu,
        "htop": htop,
        "signed_sum": signed,
        "graded_difference": plus - minus,
        "ok": signed == plus - minus,
    }


def singular_cohomology_weights(sm, m, weights) -> dict:
    """Weights at which some H_top^k carries an h-singular class.

    The audit of the infinitesimal-character statements applies to the
    subsystem constituents of the cohomology, which are detected by
    classes killed by every simple raising operator of the subsystem.
    H_D is H_top^0, so its singular classes are the k = 0 level.  The
    levels come from `higher_cohomology()`, which cross-checks the
    chains against the rank profile.  The tops of the chains of size
    2k + 1 represent H_top^k.  A raiser e_alpha commutes with D, so the
    class of e_alpha top is its coordinates on the size-(2k + 1) tops
    in the Jordan basis at mu + alpha; the singular classes of level k
    are the kernel of these coordinates, stacked over alpha.
    """
    out = {}
    for mu in weights:
        b = block(sm, m, mu)
        if b.dim == 0:
            continue
        levels = b.higher_cohomology()
        if not levels:
            continue
        basis, where = b.jordan_basis
        order = [i for k in levels for i in where[k]]
        tops = basis.take(rows=order)
        mine = {k: [order.index(i) for i in where[k]] for k in levels}  # columns of x
        coords = {k: Mat.zero(0, len(mine[k])) for k in levels}
        for alpha in sm.pair.delta_h_simple:
            up = block(sm, m, mu + alpha)
            shared = [k for k in levels if k in up.htop()]
            if not shared:
                continue
            up_basis, theirs = up.jordan_basis
            e_map = h_generator_block(sm, m, ("e", alpha), mu)
            x = up_basis.T.solve(e_map @ tops.T)
            if x is None:
                raise AssertionError(f"a raiser leaves the generalized kernel at {mu}")
            for k in shared:
                coords[k] = coords[k].vstack(x.take(rows=theirs[k], cols=mine[k]))
        htop = {}
        for k in levels:
            dk = len(mine[k]) - coords[k].rank()
            if dk:
                htop[k] = dk
        if htop:
            out[mu] = {"hd": htop[0], "htop": htop} if 0 in htop else {"htop": htop}
    return out


def vogan_audit(pair, weights_with_cohomology, infchars) -> dict:
    """Every weight carrying cohomology has a rho_h-shift in some W(lam+rho)."""
    weyl = pair.weyl
    zero = zero_weight(pair.rank)
    audited = {}
    ok = True
    for nu in weights_with_cohomology:
        shifted = any(same_infinitesimal_character(lam, nu, pair.rho, pair.rho_h, weyl)
                      for lam in infchars)
        unshifted = any(same_infinitesimal_character(lam, nu, zero, zero, weyl)
                        for lam in infchars)
        audited[nu] = {"shifted": shifted, "unshifted": unshifted}
        ok = ok and shifted
    return {"ok": ok, "per_weight": audited}


# -- exact circle --------------------------------------------------------------

def block_map(sm, src_m, tgt_m, mat_fn, mu) -> Mat:
    """Tensor a per-weight module map with the identity of S on the mu-block."""
    src = block_space(sm, src_m, mu)
    tgt = block_space(sm, tgt_m, mu)
    return block_operator(tgt, src, spin_terms(src, sm.identity, mat_fn))


def circle_nodes(parities):
    """Node dims and exactness of H1+ -> H2+ -> H3+ -> H1- -> H2- -> H3- -> H1+.

    `parities` holds one {node: parity} per triple (k, l, m) of Jordan
    sizes, for its odd sizes, with node "H1", "H2", "H3" for k, l, m and
    parity 0 for +.  Since l = k + m, a triple has zero or two odd
    sizes, so each class has exactly one neighbour: iota (H1 -> H2) or
    pi (H2 -> H3), which keep the parity, or the connecting map
    (H3 -> H1), which flips it.  The circle is exact iff every pair lies
    on an arrow of the circle.
    """
    node_dims = {f"{n}{s}": 0 for s in "+-" for n in ("H1", "H2", "H3")}
    exact = True
    for par in parities:
        for n, p in par.items():
            node_dims[n + "+-"[p]] += 1
        if par:
            a, b = sorted(par)
            exact = exact and (par[a] != par[b]) == ((a, b) == ("H1", "H3"))
    return node_dims, exact


class CircleCertificate:
    def __init__(self, mu, triples, node_dims, exact):
        self.mu = mu
        self.triples = triples
        self.node_dims = node_dims
        self.exact = exact


def exact_circle(sm, ses, mu) -> CircleCertificate:
    """Jordan-compatible decomposition of an SES block and the six-term circle.

    The Jordan chains of the quotient block lift to the middle block and
    their tails pull back to seeds in the sub block, so the generalized
    kernels split into triples (k, l, m) of chain sizes with l = k + m,
    each checked against the blocks' `htop()`.  Exactness of the circle is
    then the parity rule of `circle_nodes` on the tops of the odd chains.
    """
    m1, m2, m3 = ses.modules()
    b1 = block(sm, m1, mu)
    b2 = block(sm, m2, mu)
    b3 = block(sm, m3, mu)
    imap = block_map(sm, m1, m2, lambda w: ses.inclusion(w), mu)
    pmap = block_map(sm, m2, m3, lambda w: ses.projection(w), mu)
    if not (imap @ b1.d == b2.d @ imap):
        raise AssertionError("inclusion does not intertwine the Dirac operators")
    if not (pmap @ b2.d == b3.d @ pmap):
        raise AssertionError("projection does not intertwine the Dirac operators")

    g1, g2, g3 = b1.gen0()[0], b2.gen0()[0], b3.gen0()[0]
    n1, n2, n3 = g1.nrows, g2.nrows, g3.nrows
    if n2 != n1 + n3:
        raise LiftFailure(f"generalized kernels not exact at {mu}: {n1}+{n3} != {n2}")
    failure = LiftFailure("map does not respect generalized kernels")
    i0 = _in_basis(imap, g1, g2, failure)
    p0 = _in_basis(pmap, g2, g3, failure)
    nil1 = b1.nilpotent()
    nil2 = b2.nilpotent()
    nil3 = b3.nilpotent()

    chains3 = nil3.chains()
    lifted = []  # (chain2, m, top3): the middle chain of each lifted top
    for chain3 in chains3:
        top3 = chain3.take(rows=[0])
        u = p0.solve(top3.T)
        if u is None:
            raise LiftFailure("top summand has no preimage in the generalized kernel")
        chain2 = nil2._chain(u.T)
        l = chain2.nrows
        if l < chain3.nrows:
            raise LiftFailure("lift died too early")
        # top criterion: N^{l-1} u lies in ker N, so it is outside
        # N^l ker N^{l+1} = im N^l meet ker N exactly when it is outside im N^l
        image = nil2.power(l).T
        if image.nrows not in image.vstack(chain2.take(rows=[l - 1])).T.pivots():
            raise LiftFailure("lifted preimage is not a Jordan top")
        lifted.append((chain2, chain3.nrows, top3))

    # tails pull back to seed chains in the sub block
    seeds1 = []
    for chain2, msize, _top3 in lifted:
        if chain2.nrows > msize:
            x = i0.solve(chain2.take(rows=[msize]).T)
            if x is None:
                raise LiftFailure("tail of a lifted chain is not in the sub block")
            seeds1.append((x.T, chain2.nrows - msize))

    chains1 = nil1.chains(seeds=seeds1)
    triples = [{"k": c.nrows - msize, "l": c.nrows, "m": msize, "top2": c.take(rows=[0]),
                "top3": top3} for c, msize, top3 in lifted]
    # the middle block's decomposition: the lifted chains, then the image of
    # each residual chain of the sub block (those not seeded)
    chain2_list = [c for c, _, _ in lifted]
    seed_tops = [s[0] for s in seeds1]
    for ch in chains1:
        top1 = ch.take(rows=[0])
        if top1 in seed_tops:
            seed_tops.remove(top1)
        else:
            chain2 = ch @ i0.T
            triples.append({"k": ch.nrows, "l": ch.nrows, "m": 0,
                            "top2": chain2.take(rows=[0]), "top3": None})
            chain2_list.append(chain2)
    if Mat.zero(0, n2).vstack(*chain2_list).rank() != n2:
        raise LiftFailure("compatible decomposition does not span the middle kernel")
    # cross-check higher cohomology of the adapted decomposition
    if nil2.htop_from_chains(chain2_list) != b2.htop():
        raise LiftFailure("adapted decomposition disagrees with the rank profile")

    # the parity of each odd Jordan block's top, per triple
    parities = []
    for t, ch in zip(triples, chain2_list):
        par = {}
        if t["k"] % 2:  # the J1 top is the image of N^m top2 inside J2
            par["H1"] = nil2.vector_parity(ch.take(rows=[t["m"]]))
        if t["l"] % 2:
            par["H2"] = nil2.vector_parity(t["top2"])
        if t["m"] % 2:
            par["H3"] = nil3.vector_parity(t["top3"])
        parities.append(par)
    node_dims, exact = circle_nodes(parities)
    # the adapted H3 and H1 data must also match their rank profiles
    if nil3.htop_from_chains(chains3) != b3.htop():
        raise LiftFailure("quotient block decomposition disagrees with its rank profile")
    if nil1.htop_from_chains(chains1) != b1.htop():
        raise LiftFailure("sub block decomposition disagrees with its rank profile")
    return CircleCertificate(mu, triples, node_dims, exact)
