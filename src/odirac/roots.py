"""Root systems, the dual Killing form, Weyl groups and coset data.

All weights live in simple-root coordinates over exact rationals; the
epsilon-coordinate presentation used for A-type examples is a thin
conversion layer.  The bilinear form on the dual Cartan is the genuine
Killing form (dualized), not a rescaled invariant form, so the squared
Dirac operator identities downstream hold without normalization fudge.
"""

from fractions import Fraction
from operator import add, mul, neg, sub

from .exactla import Mat, vec_ints

_F0 = Fraction(0)
_F1 = Fraction(1)


def _canon(c):
    """c as an int when it is integral, else as a reduced Fraction."""
    if type(c) is not Fraction:
        if type(c) is int:
            return c
        if isinstance(c, float):
            # inexact: an int / int reached weight arithmetic
            raise TypeError(f"float weight coordinate {c!r}")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Weight(tuple):
    """Vector in simple-root coordinates; supports exact arithmetic.

    Each coordinate is kept in one canonical form: a Python int when it
    is integral and a reduced Fraction otherwise.  Since Fraction(n) ==
    n, hash(Fraction(n)) == hash(n) and both print alike, equality,
    hashing, order and output agree with a tuple of Fractions, while
    integral weights hash, compare and add as ints.
    """

    def __new__(cls, coords):
        return super().__new__(cls, [c if type(c) is int else _canon(c) for c in coords])

    def __add__(self, other):
        return Weight(map(add, self, other))

    def __radd__(self, other):
        if other == 0:
            return self
        return self.__add__(other)

    def __sub__(self, other):
        return Weight(map(sub, self, other))

    def __neg__(self):
        return Weight(map(neg, self))

    def __mul__(self, c):
        c = _canon(c)
        return Weight([c * a for a in self])

    __rmul__ = __mul__

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self) + ")"

    @property
    def height(self):
        return sum(self)


def zero_weight(rank):
    return Weight([0] * rank)


_SIMPLE_CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "G2": [[2, -1], [-3, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
}

_WEYL_ORDER = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384, "C3": 48, "C4": 384,
    "D4": 192, "G2": 12, "F4": 1152,
}

MAX_RANK = 4


class UnsupportedCartanType(ValueError):
    pass


class NotASubsystem(ValueError):
    pass


def _simple_reflection_matrix(cartan, j, rank):
    # s_j acts on simple-root coordinates: only the j-th coordinate changes.
    rows = [[_F1 if r == c else _F0 for c in range(rank)] for r in range(rank)]
    for c in range(rank):
        rows[j][c] = (_F1 if j == c else _F0) - Fraction(cartan[c][j])
    return Mat(rows, rank)


class RootSystem:
    """Roots of a (semi)simple type in simple-root coordinates."""

    def __init__(self, cartan_type):
        label = str(cartan_type)
        factors = label.split("x")
        blocks = []
        for f in factors:
            if f not in _SIMPLE_CARTAN:
                raise UnsupportedCartanType(f"unsupported Cartan type: {f!r}")
            blocks.append(_SIMPLE_CARTAN[f])
        rank = sum(len(b) for b in blocks)
        if rank > MAX_RANK:
            raise UnsupportedCartanType(f"rank {rank} exceeds supported cap {MAX_RANK}")
        cartan = [[0] * rank for _ in range(rank)]
        off = 0
        for b in blocks:
            n = len(b)
            for i in range(n):
                for j in range(n):
                    cartan[off + i][off + j] = b[i][j]
            off += n
        self.cartan_type = label
        self.rank = rank
        self.cartan_matrix = tuple(tuple(row) for row in cartan)
        self.simple_roots = [Weight([_F1 if i == j else _F0 for j in range(rank)])
                             for i in range(rank)]
        self._reflections = [_simple_reflection_matrix(cartan, j, rank) for j in range(rank)]
        self._generate_roots()
        self.weyl_order = 1
        for f in factors:
            self.weyl_order *= _WEYL_ORDER[f]

    def _generate_roots(self):
        seen = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            nxt = []
            for v in frontier:
                for s in self._reflections:
                    w = Weight(s.apply(v))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        roots = list(seen) + [-r for r in seen]
        roots = sorted(set(roots), key=lambda r: (r.height, r))
        pos = [r for r in roots if all(c >= 0 for c in r)]
        neg = [r for r in roots if all(c <= 0 for c in r)]
        if len(pos) + len(neg) != len(roots):
            raise AssertionError("root with mixed-sign coordinates")
        self.positive_roots = sorted(pos, key=lambda r: (r.height, r))
        self.all_roots = self.positive_roots + [-r for r in self.positive_roots]
        self.root_set = frozenset(self.all_roots)

    def simple_reflection(self, j):
        return self._reflections[j]

    def pairing_with_simple_coroots(self, v):
        """Values <v, alpha_j^vee> for each simple coroot."""
        a = self.cartan_matrix
        return tuple(sum(v[i] * a[i][j] for i in range(self.rank)) for j in range(self.rank))


def build_root_system(cartan_type):
    return RootSystem(cartan_type)


class InvariantForm:
    """Dual Killing form on the span of the roots, Gram in simple-root coordinates."""

    def __init__(self, rs: RootSystem):
        r = rs.rank
        a = rs.cartan_matrix
        # kappa on the Cartan: trace of ad over the root spaces.
        k_rows = [[_F0] * r for _ in range(r)]
        for alpha in rs.all_roots:
            vals = rs.pairing_with_simple_coroots(alpha)
            for i in range(r):
                if vals[i]:
                    for j in range(r):
                        k_rows[i][j] += vals[i] * vals[j]
        kmat = Mat(k_rows, r)
        amat = Mat([[Fraction(a[i][j]) for j in range(r)] for i in range(r)], r)
        self.cartan_gram = kmat
        self.gram = amat @ kmat.inv() @ amat.T
        self._rs = rs

    def pair(self, v, w):
        """<v, w> summed in ints over the Gram's one denominator: one Fraction per call."""
        v, dv = vec_ints(v)
        w, dw = vec_ints(w)
        total = 0
        for c, row in zip(v, self.gram.num):
            if c:
                total += c * sum(map(mul, row, w))
        return Fraction(total, self.gram.den * dv * dw)

    def norm2(self, v):
        return self.pair(v, v)

    def coroot_pair(self, v, alpha):
        """2<v, alpha> / <alpha, alpha>."""
        return 2 * self.pair(v, alpha) / self.pair(alpha, alpha)

    def reflection(self, alpha):
        """Reflection through the hyperplane orthogonal to the root alpha."""
        r = self._rs.rank
        cols = []
        aa = self.pair(alpha, alpha)
        for i in range(r):
            e = Weight([_F1 if k == i else _F0 for k in range(r)])
            c = 2 * self.pair(e, alpha) / aa
            cols.append(tuple(e - alpha * c))
        return Mat.from_cols(cols, r)


def killing_form_on_dual(rs: RootSystem) -> InvariantForm:
    return InvariantForm(rs)


def validate_delta_h(rs: RootSystem, delta_h):
    """The sorted positive roots of the closed subsystem that delta_h names.

    delta_h lists positive roots, or roots of both signs closed under
    negation; the +-closure of its positive roots must be closed under
    sums that are roots.
    """
    given = [Weight(v) for v in delta_h]
    pos = [w for w in given if any(w) and all(c >= 0 for c in w)]
    if len(pos) < len(given) and set(given) != {*pos, *(-w for w in pos)}:
        raise NotASubsystem("subset is not negation-closed")
    for w in pos:
        if w not in rs.root_set:
            raise NotASubsystem(f"{w} is not a positive root of {rs.cartan_type}")
    pos = sorted(set(pos), key=lambda r: (r.height, r))
    signed = set(pos) | {-w for w in pos}
    for x in signed:
        for y in signed:
            s = x + y
            if s in rs.root_set and s not in signed:
                raise NotASubsystem(f"not closed: {x} + {y} = {s} lies outside delta_h")
    return pos


def rho_vectors(rs: RootSystem, delta_h_pos):
    """Half sums of positive roots for g and for the validated subsystem."""
    rho = Weight([Fraction(1, 2) * c for c in sum(rs.positive_roots, zero_weight(rs.rank))])
    rho_h = Weight([Fraction(1, 2) * c for c in sum(delta_h_pos, zero_weight(rs.rank))])
    return rho, rho_h


class WeylData:
    """Full enumeration of W with lengths, the subsystem group and the coset set.

    delta_h_pos is taken as validated (`liealg.PairGH` validates it).
    """

    def __init__(self, rs: RootSystem, form: InvariantForm, delta_h_pos):
        self.rs = rs
        self.delta_h_pos = delta_h_pos
        gens = [rs.simple_reflection(j) for j in range(rs.rank)]
        ident = Mat.identity(rs.rank)
        elements = [ident]
        inverses = [ident]
        lengths = [0]
        index = {ident: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for ei in frontier:
                for g in gens:
                    m = g @ elements[ei]
                    if m not in index:
                        index[m] = len(elements)
                        elements.append(m)
                        inverses.append(inverses[ei] @ g)
                        lengths.append(lengths[ei] + 1)
                        nxt.append(index[m])
            frontier = nxt
        if len(elements) != rs.weyl_order:
            raise AssertionError(
                f"Weyl enumeration produced {len(elements)} elements, "
                f"expected {rs.weyl_order} for {rs.cartan_type}")
        self.elements = elements
        self.inverses = inverses
        self.lengths = lengths
        self.index = index

        # subgroup generated by reflections in the subsystem roots
        h_gens = [form.reflection(a) for a in delta_h_pos]
        sub = {index[ident]}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for g in h_gens:
                    p = g @ m
                    i = index.get(p)
                    if i is None:
                        raise AssertionError("subsystem reflection left the Weyl group")
                    if i not in sub:
                        sub.add(i)
                        nxt.append(p)
            frontier = nxt
        self.subgroup_h = sorted(sub)

        pos_set = set(rs.positive_roots)
        coset = []
        for i, _ in enumerate(elements):
            winv = self.inverses[i]
            if all(Weight(winv.apply(b)) in pos_set for b in delta_h_pos):
                coset.append(i)
        self.coset_W1 = coset

        self.longest = max(range(len(elements)), key=lambda i: lengths[i])

    def act(self, i, v):
        return Weight(self.elements[i].apply(v))

    def orbit(self, v):
        return {self.act(i, v) for i in range(len(self.elements))}

    def subsystem_length(self, i):
        """Number of subsystem positive roots sent negative (length in W_h)."""
        neg = {-a for a in self.delta_h_pos}
        cnt = 0
        for a in self.delta_h_pos:
            img = self.act(i, a)
            if img in neg or all(c <= 0 for c in img) and any(img):
                cnt += 1
        return cnt


def weyl_group(rs: RootSystem, form: InvariantForm, delta_h_pos) -> WeylData:
    return WeylData(rs, form, delta_h_pos)


def is_antidominant(lam: Weight, roots, form: InvariantForm, rho: Weight) -> bool:
    """True iff <lam+rho, alpha^vee> is never a positive integer, alpha in roots."""
    shifted = lam + rho
    for alpha in roots:
        v = form.coroot_pair(shifted, alpha)
        if v.denominator == 1 and v > 0:
            return False
    return True


def is_dominant_integral(lam: Weight, roots, form: InvariantForm) -> bool:
    """True iff <lam, alpha^vee> is a non-negative integer for every alpha in roots."""
    for alpha in roots:
        v = form.coroot_pair(lam, alpha)
        if v.denominator != 1 or v < 0:
            return False
    return True


def same_infinitesimal_character(lam, mu, shift_l, shift_r, weyl: WeylData) -> bool:
    """True iff mu+shift_r lies in the W-orbit of lam+shift_l."""
    target = mu + shift_r
    src = lam + shift_l
    return any(weyl.act(i, src) == target for i in range(len(weyl.elements)))


# -- epsilon-coordinate presentation (A types only) -------------------------

def eps_to_weight(rs: RootSystem, eps):
    if not rs.cartan_type.startswith("A") or "x" in rs.cartan_type:
        raise ValueError("epsilon coordinates only for simple A types")
    n = rs.rank
    eps = [Fraction(e) for e in eps]
    if len(eps) != n + 1 or sum(eps) != 0:
        raise ValueError("epsilon vector must have rank+1 entries summing to zero")
    coords = []
    acc = _F0
    for i in range(n):
        acc += eps[i]
        coords.append(acc)
    return Weight(coords)
