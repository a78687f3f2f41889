"""Root systems, the dual Killing form, Weyl groups and coset data.

All weights live in simple-root coordinates over exact rationals; the
epsilon-coordinate presentation used for A-type examples is a thin
conversion layer.  The bilinear form on the dual Cartan is the genuine
Killing form (dualized), not a rescaled invariant form, so the squared
Dirac operator identities downstream hold without normalization fudge.
"""

from fractions import Fraction

from .exactla import Mat

_F0 = Fraction(0)
_F1 = Fraction(1)


class Weight(tuple):
    """Vector in simple-root coordinates; supports exact arithmetic."""

    def __new__(cls, coords):
        return super().__new__(cls, (c if isinstance(c, Fraction) else Fraction(c)
                                     for c in coords))

    def __add__(self, other):
        return Weight(a + b for a, b in zip(self, other))

    def __radd__(self, other):
        if other == 0:
            return self
        return self.__add__(other)

    def __sub__(self, other):
        return Weight(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Weight(-a for a in self)

    def __mul__(self, c):
        c = Fraction(c)
        return Weight(c * a for a in self)

    __rmul__ = __mul__

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self) + ")"

    @property
    def height(self):
        return sum(self)

    def is_nonneg_integral(self):
        return all(a.denominator == 1 and a >= 0 for a in self)


def zero_weight(rank):
    return Weight([_F0] * rank)


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

    def is_root(self, v):
        return v in self.root_set

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
        g = self.gram
        return sum((v[i] * sum(g.rows[i][j] * w[j] for j in range(len(w)) if w[j])
                    for i in range(len(v)) if v[i]), _F0)

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


def validate_delta_h(rs: RootSystem, delta_h_pos):
    """Check that +-closure of delta_h_pos is a closed subsystem; return sorted list."""
    pos = []
    for v in delta_h_pos:
        w = Weight(v)
        if w not in rs.root_set or not all(c >= 0 for c in w):
            raise NotASubsystem(f"{w} is not a positive root of {rs.cartan_type}")
        pos.append(w)
    pos = sorted(set(pos), key=lambda r: (r.height, r))
    signed = set(pos) | {-w for w in pos}
    for x in signed:
        for y in signed:
            s = x + y
            if s in rs.root_set and s not in signed:
                raise NotASubsystem(f"not closed: {x} + {y} = {s} lies outside delta_h")
    return pos


def rho_vectors(rs: RootSystem, delta_h_pos):
    """Half sums of positive roots for g and for the subsystem."""
    pos = validate_delta_h(rs, delta_h_pos)
    rho = Weight([Fraction(1, 2) * c for c in sum(rs.positive_roots, zero_weight(rs.rank))])
    if pos:
        rho_h = Weight([Fraction(1, 2) * c for c in sum(pos, zero_weight(rs.rank))])
    else:
        rho_h = zero_weight(rs.rank)
    return rho, rho_h


class WeylData:
    """Full enumeration of W with lengths, the subsystem group and the coset set."""

    def __init__(self, rs: RootSystem, form: InvariantForm, delta_h_pos):
        self.rs = rs
        delta_h_pos = validate_delta_h(rs, delta_h_pos)
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


def is_antidominant(lam: Weight, rs: RootSystem, form: InvariantForm, rho: Weight) -> bool:
    """True iff <lam+rho, alpha^vee> is never a positive integer, alpha positive."""
    shifted = lam + rho
    for alpha in rs.positive_roots:
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


# -- presentation helpers -----------------------------------------------------

def weight_to_fundamental(rs: RootSystem, v: Weight):
    """Values of v on the simple coroots (fundamental-weight coordinates)."""
    return tuple(rs.pairing_with_simple_coroots(v))


def weight_from_fundamental(rs: RootSystem, vals):
    """Weight with the given simple-coroot values; exact inverse of the above."""
    a = Mat([[Fraction(x) for x in row] for row in rs.cartan_matrix], rs.rank)
    return Weight(a.T.inv().apply(tuple(Fraction(x) for x in vals)))


# -- epsilon-coordinate presentation (A types only) -------------------------

def weight_to_eps(rs: RootSystem, v: Weight):
    if not rs.cartan_type.startswith("A") or "x" in rs.cartan_type:
        raise ValueError("epsilon coordinates only for simple A types")
    n = rs.rank
    eps = [v[0]]
    for i in range(1, n):
        eps.append(v[i] - v[i - 1])
    eps.append(-v[n - 1])
    return tuple(eps)


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
