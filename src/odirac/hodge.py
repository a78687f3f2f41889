"""Hermitian pairs, nilpotent Lie algebra cohomology and the Hodge comparison.

A pair is Hermitian when its positive q-roots span an abelian
nilradical, and `HermitianPair` recognizes it by one check: the sum of a
root's coordinates at the simple roots outside Delta_h is 1 on q+ and 0
on Delta_h+.  For such pairs the block operators split as D = C+ + C-
once the cubic part vanishes, and under the standard identification of
M tensor S with the exterior-algebra complexes, C+ is the
Chevalley-Eilenberg differential d and C- the boundary del: the chain
v (x) f_I is the spin basis vector u_I of the Dirac block at
nu + rho - rho_h, so a weight slice of the complexes is that block read
by wedge degree.  Every check here reads the block's own
operators, and a block assembles C+ and C- on their first read and
ranks each once: D = C+ + C- says the cubic part vanishes; C+ and C-
are adjoint for the block's inner product G when G is symmetric and
C+^T G = -G C-, with no inverse of G; and since C+ raises and C- lowers
the wedge degree by exactly one, the total CE cohomology and homology
of a slice are dim - 2 rank C+ and dim - 2 rank C-.  tests/test_hodge.py
checks C+ and C- against d and del built from their definition, and
these totals against the degree-graded complexes.  Unitarity of a
highest weight module is certified through the contravariant form
twisted by the parabolic grading (the Hermitian form of the noncompact
real form), and
positivity turns the per-weight comparison of Dirac and nilpotent
cohomology into exact rank arithmetic: the splitting of ker D and the
C+ and C- decompositions are read off ranks, and no subspace is built.
"""

from fractions import Fraction
from math import prod

from .exactla import Mat
from .cato import block_operator, shapovalov_grams
from .liealg import PairGH
from .roots import Weight

_F1 = Fraction(1)


class NotHermitian(ValueError):
    """The pair is not of Hermitian type; names a root where the grading fails."""


class HermitianPair:
    """A pair with abelian q-halves, graded by its noncompact simple roots.

    Every simple root lies in Delta_h+ or in q+, so the only grading phi
    that is 0 on Delta_h+ and 1 on q+ sums a weight's coordinates at the
    simple roots outside Delta_h.  The pair is Hermitian iff phi is 1 on
    every q+ root and 0 on every Delta_h+ root.  That implies the rest:
    for a, b in q+ the degree of a + b is 2, which no root has, so q+ is
    abelian, and a root of [q+, q-] has degree 0, so it lies in h.
    Conversely, where phi fails q+ is not abelian: a lowest root of q+
    where phi fails is a simple q-root plus a q+ root, or plus a root of
    Delta_h+ where phi fails, and a lowest such root of Delta_h+ is a
    simple q-root plus a q+ root.
    """

    def __init__(self, pair: PairGH):
        self.pair = pair
        self._noncompact = [i for i, a in enumerate(pair.rs.simple_roots)
                            if a not in pair.delta_h_signed]
        for roots, want in ((pair.q_positive, 1), (pair.delta_h_pos, 0)):
            for a in roots:
                deg = self.q_degree(a)
                if deg != want:
                    raise NotHermitian(f"q is not abelian: {a} has parabolic degree {deg}")

    def q_degree(self, v: Weight):
        """phi(v): the sum of v's coordinates at the simple roots outside Delta_h."""
        return sum(v[i] for i in self._noncompact)


# -- unitary structure ---------------------------------------------------------

class UnitaryStructure:
    """Twisted contravariant grams: the invariant Hermitian inner product.

    On a highest weight module of the noncompact Hermitian real form the
    invariant form differs from the contravariant one by the sign of the
    parabolic degree of the drop from the highest weight.  Works on a
    Verma window or on a simple window, each through its own
    contravariant form (`shapovalov_grams`): a simple window's Grams live
    on its own basis and never pass through a Verma window.
    """

    def __init__(self, hp: HermitianPair, vw):
        self.hp = hp
        self.form = shapovalov_grams(vw)
        self.lam = vw.top_weight

    def gram(self, w) -> Mat:
        g = self.form.gram(w)
        deg = self.hp.q_degree(self.lam - w)
        if deg.denominator != 1:
            raise AssertionError(f"non-integral parabolic degree at {w}")
        return g if deg % 2 == 0 else -g

    def positive_definite(self, w) -> bool:
        """Sylvester's criterion from one fraction-free (Bareiss) elimination.

        The Gram's int rows are the Gram times its positive denominator,
        which multiplies every leading principal minor by a positive
        integer.  Without row exchanges the k-th Bareiss pivot is the k-th
        leading minor of that integer matrix, so the first pivot <= 0
        decides.
        """
        a = [list(row) for row in self.gram(w).num]
        prev = 1
        for k, pivot_row in enumerate(a):
            piv = pivot_row[k]
            if piv <= 0:
                return False
            for row in a[k + 1:]:
                f = row[k]
                for j in range(k + 1, len(a)):
                    row[j] = (row[j] * piv - f * pivot_row[j]) // prev
            prev = piv
        return True


def unitarity_check(hp: HermitianPair, vw, weights) -> dict:
    """Exact positive-definiteness of the twisted grams, per weight."""
    us = UnitaryStructure(hp, vw)
    per_weight = {}
    ok = True
    for w in weights:
        if vw.dim(w) == 0:
            continue
        pd = us.positive_definite(w)
        per_weight[w] = pd
        ok = ok and pd
    return {"unitary": ok, "per_weight": per_weight, "structure": us}


def identification_check(blk) -> dict:
    """D = C+ + C- on the block: the cubic part of D vanishes.

    D = C+ + C- - cubic part, and C+ and C- are the Chevalley-Eilenberg
    d and del by construction (tests/test_hodge.py compares them with d
    and del built from their definition), so the part of the
    identification that can fail on a given pair is the cubic term.
    """
    ok = blk.d == blk.d_plus + blk.d_minus
    return {"cubic_vanishes": ok, "ok": ok}


# -- Hodge decomposition --------------------------------------------------------

def block_inner_gram(us: UnitaryStructure, blk) -> Mat:
    """Inner product on the block: twisted module grams times the spin norms.

    In the pairing-1 root-vector basis the spin monomials are orthogonal
    with norm prod 1/kappa over the wedge factors (the image of the
    orthonormal-convention basis under the rational rescaling); these
    factors cancel the kappa's of the module-side transpose so that the
    half operators become exact mutual adjoints.
    """
    sp, sm = blk.space, blk.sm
    kappas = [sm.cb.kappa_integral(beta) for beta in sm.q_pos]
    return block_operator(sp, sp, (
        (i, i, _F1 / prod(k for b, k in enumerate(kappas) if i >> b & 1), us.gram)
        for i in sp.slot))


def _half_decomposes(c, rank_c, d, rank_d) -> bool:
    """ker C = im C (+) ker D for one half C of D, from ranks alone.

    C^2 = 0 puts im C in ker C; rank [D; C] = rank D says ker D lies in
    ker C; rank DC = rank C says im C meets ker D in 0; and then
    dim ker C = dim im C + dim ker D reads rank D = 2 rank C.
    """
    return rank_d == 2 * rank_c and (c @ c).is_zero() and \
        d.vstack(c).rank() == rank_d and (d @ c).rank() == rank_c


def hodge_decomposition_check(blk, us: UnitaryStructure) -> dict:
    """Adjointness, kernel-image splitting and the C+ and C- decompositions."""
    report = {"weight": blk.mu, "dim": blk.dim}
    g = block_inner_gram(us, blk)
    # G^-1 C+^T G = -C- times G, so no inverse: the two agree for any
    # invertible G, and the task certifies G positive definite first.  For
    # a symmetric G the transpose of this equality is C-^T G = -G C+.
    adjoint_ok = g == g.T and blk.d_plus.T @ g == -(g @ blk.d_minus)
    rank_d = sum(blk.d_ranks(1))
    rank_plus, rank_minus = blk.half_ranks
    split_ok = blk.stable_index() <= 1  # ker D meet im D = 0 iff ker D = ker D^2
    cplus_ok = _half_decomposes(blk.d_plus, rank_plus, blk.d, rank_d)
    cminus_ok = _half_decomposes(blk.d_minus, rank_minus, blk.d, rank_d)
    report.update({
        "adjoint": adjoint_ok,
        "splitting": split_ok,
        "cplus": cplus_ok,
        "cminus": cminus_ok,
        "ok": adjoint_ok and split_ok and cplus_ok and cminus_ok,
    })
    return report


def theorem52_comparison(blk) -> dict:
    """H_D dims of the block against total CE cohomology and homology at the shift.

    The CE slice at mu - (rho - rho_h) is the block at mu graded by wedge
    degree.  C+ maps degree k into k + 1 only, so its rank is the sum of
    its per-degree ranks, and the total cohomology sum_k (dim C_k -
    rank d_k - rank d_(k-1)) is dim - 2 rank C+; likewise for C-.
    """
    hd = blk.dirac_cohomology()["hd"]
    rank_plus, rank_minus = blk.half_ranks
    coh, hom = blk.dim - 2 * rank_plus, blk.dim - 2 * rank_minus
    return {
        "weight": blk.mu,
        "hd": hd,
        "ce_cohomology": coh,
        "ce_homology": hom,
        "ok": hd == coh == hom,
    }
