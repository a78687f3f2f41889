"""Test-side presentation helpers: adjoint matrices, generator lists,
window dimensions and the fundamental-weight and epsilon coordinates."""

from fractions import Fraction

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


def generator_list(m):
    """Every generator of g acting on the window m: h_i, then e_a and f_a per positive root."""
    gens = [("h", i) for i in range(m.rank)]
    for a in m.pair.rs.positive_roots:
        gens.append(("e", a))
        gens.append(("f", a))
    return gens


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
