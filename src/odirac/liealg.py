"""Chevalley bases and subalgebra pairs.

Structure constants are determined by the classical extraspecial-pair
procedure: signs of the extraspecial pairs are fixed positive, every
other constant follows from the Killing-form contraction identities.
The result is validated by the exhaustive Jacobi test in the suite.

The negative root vectors are rescaled so that kappa(e_alpha, e_{-alpha})
= 1 for every root: before rescaling it is 2 / <alpha, alpha>, read from
the invariant form, and the bracket table is written on the rescaled
basis directly.  All downstream formulas (Clifford pairing, Dirac
assembly, Casimir dual bases) rely on that normalization and stay
rational.
"""

from fractions import Fraction

from .roots import (InvariantForm, RootSystem, WeylData, rho_vectors, simple_roots_of,
                    validate_delta_h, weyl_group, zero_weight)

_F0 = Fraction(0)
_F1 = Fraction(1)


def _is_positive(v):
    return any(v) and all(c >= 0 for c in v)


class ChevalleyBasis:
    """Basis h_1..h_r, e_alpha (alpha > 0), f_alpha := e_{-alpha} rescaled.

    `generators[i]` names basis index i as ("h", i) for i < rank, then
    ("e", alpha) and then ("f", alpha) for each positive root alpha in
    `pos` order; `generator_index` is its inverse.
    """

    def __init__(self, rs: RootSystem, form: InvariantForm):
        self.rs = rs
        self.form = form
        self.rank = rs.rank
        self.pos = list(rs.positive_roots)
        self.npos = len(self.pos)
        self.dim = self.rank + 2 * self.npos
        self._idx_pos = {a: i for i, a in enumerate(self.pos)}
        self.generators = ([("h", i) for i in range(self.rank)] +
                           [("e", a) for a in self.pos] + [("f", a) for a in self.pos])
        self._gen_index = {g: i for i, g in enumerate(self.generators)}
        self._positive_constants()
        self._table = self._brackets()
        self._cartan_rows = form.cartan_gram.rows

    # -- indexing ------------------------------------------------------------

    def e_index(self, alpha):
        if _is_positive(alpha):
            return self.rank + self._idx_pos[alpha]
        return self.rank + self.npos + self._idx_pos[-alpha]

    def generator_index(self, gen):
        try:
            return self._gen_index[gen]
        except KeyError:
            raise ValueError(f"unknown generator {gen!r}") from None

    def generator_weight(self, gen):
        kind, val = gen
        if kind == "h":
            return zero_weight(self.rank)
        if kind == "e":
            return val
        if kind == "f":
            return -val
        raise ValueError(f"unknown generator {gen!r}")

    # -- structure constants --------------------------------------------------

    def _p_val(self, a, b):
        # longest k with b - k a still a root
        k = 0
        cur = b - a
        while cur in self.rs.root_set:
            k += 1
            cur = cur - a
        return k

    def _positive_constants(self):
        """Set `_n_signed` to the signed N_{a,b}, from a table of N_{a,b} for
        positive pairs a+b in Delta, idx(a) < idx(b)."""
        form = self.form
        idx = self._idx_pos
        table = {}

        def n_signed(a, b):
            apos, bpos = _is_positive(a), _is_positive(b)
            if apos and bpos:
                if idx[a] < idx[b]:
                    return table[(a, b)]
                return -table[(b, a)]
            if not apos and not bpos:
                return -n_signed(-a, -b)
            if not apos:
                return -n_signed(b, a)
            bp = -b
            s = a - bp
            if _is_positive(s):
                return -(form.pair(s, s) / form.pair(a, a)) * n_signed(bp, s)
            t = -s
            return -(form.pair(t, t) / form.pair(bp, bp)) * n_signed(a, t)

        self._n_signed = n_signed
        for gamma in self.pos:
            pairs = []
            for a in self.pos:
                b = gamma - a
                if b in self._idx_pos and idx[a] < idx[b]:
                    pairs.append((a, b))
            if not pairs:
                continue
            pairs.sort(key=lambda p: idx[p[0]])
            xi, eta = pairs[0]
            n_extra = Fraction(self._p_val(xi, eta) + 1)
            table[(xi, eta)] = n_extra
            gg = form.pair(gamma, gamma)
            for a, b in pairs[1:]:
                t = _F0
                d1 = eta - a
                if d1 in self.rs.root_set:
                    t += n_signed(eta, -a) * n_signed(xi, -b) / form.pair(d1, d1)
                d2 = xi - a
                if d2 in self.rs.root_set:
                    t += n_signed(-a, xi) * n_signed(eta, -b) / form.pair(d2, d2)
                val = gg * t / n_extra
                if val.denominator != 1 or val == 0 or abs(val) != self._p_val(a, b) + 1:
                    raise AssertionError(
                        f"structure constant determination failed at {a}+{b}={gamma}: {val}")
                table[(a, b)] = val

    def coroot_coords(self, alpha):
        """alpha^vee in the basis of simple coroots; entries are integers."""
        aa = self.form.pair(alpha, alpha)
        coords = []
        for i in range(self.rank):
            e = self.rs.simple_roots[i]
            c = alpha[i] * self.form.pair(e, e) / aa
            if c.denominator != 1:
                raise AssertionError(f"non-integral coroot for {alpha}")
            coords.append(c)
        return tuple(coords)

    def _brackets(self):
        """The bracket table on the rescaled basis, for index pairs i < j.

        With f_alpha = e_{-alpha} / kappa(e_alpha, e_{-alpha}), each integral
        constant c of [b_i, b_j] = c b_k is scaled by s_k / (s_i s_j), where
        s is `kappa_integral` on f-indices and 1 elsewhere."""
        table = {}
        rs = self.rs
        scale = [_F1] * (self.rank + self.npos) + [self.kappa_integral(a) for a in self.pos]

        def put(i, j, vec):
            if vec:
                table[(i, j)] = {k: c * scale[k] / (scale[i] * scale[j]) for k, c in vec.items()}

        for i in range(self.rank):
            for alpha in rs.all_roots:
                val = rs.pairing_with_simple_coroots(alpha)[i]
                if val:
                    put(i, self.e_index(alpha), {self.e_index(alpha): Fraction(val)})
        for ai, alpha in enumerate(rs.all_roots):
            for beta in rs.all_roots[ai + 1:]:
                s = alpha + beta
                ia, ib = self.e_index(alpha), self.e_index(beta)
                if not any(s):
                    co = self.coroot_coords(alpha)
                    put(min(ia, ib), max(ia, ib),
                        {i: (c if ia < ib else -c) for i, c in enumerate(co) if c})
                elif s in rs.root_set:
                    n = self._n_signed(alpha, beta)
                    put(min(ia, ib), max(ia, ib),
                        {self.e_index(s): (n if ia < ib else -n)})
        return table

    # -- public bracket/pairing ------------------------------------------------

    def bracket(self, i, j):
        """[b_i, b_j] as a sparse index->coefficient dict."""
        if i <= j:
            return self._table.get((i, j), {})
        return {k: -c for k, c in self._table.get((j, i), {}).items()}

    def bracket_vec(self, x, y):
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, c in self.bracket(i, j).items():
                    v = out.get(k, _F0) + ci * cj * c
                    if v:
                        out[k] = v
                    elif k in out:
                        del out[k]
        return out

    def pairing(self, i, j):
        """Killing form on the rescaled basis."""
        r = self.rank
        if i < r and j < r:
            return self._cartan_rows[i][j]
        # e_alpha (index r + p) pairs only with f_alpha (index r + npos + p),
        # and the rescaling makes that pairing 1
        if i < r or j < r or abs(i - j) != self.npos:
            return _F0
        return _F1

    def kappa_integral(self, alpha):
        """kappa(e_alpha, e_{-alpha}) before rescaling: 2 / <alpha, alpha>.

        [e_alpha, e_{-alpha}] = h_alpha and invariance give
        kappa(h_alpha, h_alpha) = 2 kappa(e_alpha, e_{-alpha}), and
        kappa(h_alpha, h_alpha) = 4 / <alpha, alpha>."""
        return 2 / self.form.pair(alpha, alpha)

    def jacobi_residual(self):
        """Largest absolute residual of the Jacobi identity over basis triples."""
        worst = _F0
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                bij = self.bracket(i, j)
                for k in range(j + 1, self.dim):
                    acc = {}
                    for term in (self.bracket_vec(bij, {k: _F1}),
                                 self.bracket_vec(self.bracket(j, k), {i: _F1}),
                                 self.bracket_vec(self.bracket(k, i), {j: _F1})):
                        for idx, c in term.items():
                            acc[idx] = acc.get(idx, _F0) + c
                    for c in acc.values():
                        if abs(c) > worst:
                            worst = abs(c)
        return worst


def chevalley_basis(rs: RootSystem, form: InvariantForm) -> ChevalleyBasis:
    return ChevalleyBasis(rs, form)


class PairGH:
    """A validated pair: root subsystem subalgebra h containing the Cartan.

    delta_h lists the positive roots of h, or its roots of both signs; it
    is validated here, once, and everything built on the pair reads the
    sorted positive roots `delta_h_pos`.
    """

    def __init__(self, rs: RootSystem, form: InvariantForm, delta_h):
        self.rs = rs
        self.form = form
        self.delta_h_pos = validate_delta_h(rs, delta_h)
        self.delta_h_simple = simple_roots_of(self.delta_h_pos)
        self.delta_h_signed = frozenset(self.delta_h_pos) | frozenset(-a for a in self.delta_h_pos)
        self.q_positive = [a for a in rs.positive_roots if a not in self.delta_h_signed]
        self.rho, self.rho_h = rho_vectors(rs, self.delta_h_pos)
        self._weyl = None

    @property
    def weyl(self) -> WeylData:
        """W with lengths, W_h and the coset set, enumerated on first use: only
        finite modules, `kostant` and `vogan` read it."""
        if self._weyl is None:
            self._weyl = weyl_group(self.rs, self.form, self.delta_h_pos)
        return self._weyl

    @property
    def rank(self):
        return self.rs.rank

    def h_generators(self):
        gens = [("h", i) for i in range(self.rs.rank)]
        for a in self.delta_h_pos:
            gens.append(("e", a))
            gens.append(("f", a))
        return gens
