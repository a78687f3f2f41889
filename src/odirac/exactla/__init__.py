"""Exact linear algebra over the rationals.

Matrices are dense, entries are `fractions.Fraction` (ints allowed on
input), and every operation is exact: ranks, kernels and solves carry
proof weight in the test suite, so no floating point appears anywhere.

The two hot kernels, row reduction and matrix product, clear each row
to integers (row scaling does not change the reduced echelon form, and
the product divides the scales back out), run on Python ints, and build
one Fraction per nonzero result entry.  That avoids a Fraction
normalization per elementary operation.
"""

from fractions import Fraction
from math import gcd, lcm

_F0 = Fraction(0)
_F1 = Fraction(1)


def _int_row(row):
    """`row` times the lcm of its denominators, as a list of ints."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def _rref_rows(rows, ncols):
    """Reduced row echelon rows of `rows` and the list of pivot columns.

    Deterministic: for each column the first remaining row (lowest index)
    with a nonzero entry is the pivot row.  Elimination is fraction-free on
    integer rows, each updated row divided by the gcd of its entries.
    """
    work = [_int_row(r) for r in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if work[i][c]), None)
        if pr is None:
            continue
        work[pr], work[r] = work[r], work[pr]
        row = work[r]
        piv = row[c]
        for i, other in enumerate(work):
            f = other[c]
            if f and i != r:
                new = [x * piv - f * y for x, y in zip(other, row)]
                g = gcd(*new)
                work[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    out = [[Fraction(x, row[p]) if x else _F0 for x in row]
           for row, p in zip(work, pivots)]
    out += [[_F0] * ncols for _ in range(nrows - r)]
    return out, pivots


def _matmul_rows(a, b, ncols):
    """Rows of the product of row lists `a` (n x k) and `b` (k x ncols).

    Only the nonzeros of each `a` row and of the matching `b` rows are
    visited, so sparse factors such as the spin module's signed
    permutations cost what they hold, not n * k * ncols.
    """
    bnz = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    bden = lcm(*(x.denominator for row in bnz for _, x in row))
    bint = [[(j, x.numerator * (bden // x.denominator)) for j, x in row] for row in bnz]
    out = []
    for arow in a:
        anz = [(t, x) for t, x in enumerate(arow) if x]
        aden = lcm(*(x.denominator for _, x in anz))
        acc = [0] * ncols
        for t, x in anz:
            x = x.numerator * (aden // x.denominator)
            for j, y in bint[t]:
                acc[j] += x * y
        den = aden * bden
        out.append([Fraction(v, den) if v else _F0 for v in acc])
    return out


class Mat:
    """Immutable dense matrix acting on column coordinate vectors."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in r) for r in rows)
        self.rows = rows
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            if any(len(r) != self.ncols for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    @staticmethod
    def zero(nrows, ncols):
        return Mat([[_F0] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(n):
        return Mat([[_F1 if i == j else _F0 for j in range(n)] for i in range(n)], n)

    @staticmethod
    def scalar(n, c):
        """c times the n x n identity."""
        c = Fraction(c)
        return Mat([[c if i == j else _F0 for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_cols(cols, nrows):
        """Matrix whose j-th column is cols[j] (each of length nrows)."""
        return Mat([[col[i] for col in cols] for i in range(nrows)], len(cols))

    @property
    def T(self):
        return Mat([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
                   self.nrows)

    def col(self, j):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        return Mat(_matmul_rows(self.rows, other.rows, other.ncols), other.ncols)

    def apply(self, vec):
        """Matrix-vector product, vec of length ncols."""
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch in apply")
        return tuple(sum((row[j] * vec[j] for j in range(self.ncols) if vec[j]), _F0)
                     for row in self.rows)

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        return Mat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
                   self.ncols)

    def __sub__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in sub")
        return Mat([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
                   self.ncols)

    def __neg__(self):
        return Mat([[-a for a in r] for r in self.rows], self.ncols)

    def scale(self, c):
        c = Fraction(c)
        return Mat([[c * a for a in r] for r in self.rows], self.ncols)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def trace(self):
        return sum((self.rows[i][i] for i in range(min(self.nrows, self.ncols))), _F0)

    def rref(self):
        """Return (reduced row echelon Mat, pivot column list)."""
        rows, pivots = _rref_rows(self.rows, self.ncols)
        return Mat(rows, self.ncols), pivots

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """Deterministic kernel basis (one vector per free column)."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        basis = []
        for f in free:
            v = [_F0] * self.ncols
            v[f] = _F1
            for i, p in enumerate(pivots):
                v[p] = -red.rows[i][f]
            basis.append(tuple(v))
        return basis

    def solve(self, rhs):
        """Particular solution x of self @ x = rhs, or None if inconsistent."""
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        aug = Mat([list(row) + [rhs[i]] for i, row in enumerate(self.rows)], self.ncols + 1)
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [_F0] * self.ncols
        for i, p in enumerate(pivots):
            x[p] = red.rows[i][self.ncols]
        return tuple(x)

    def inv(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        aug = Mat([list(self.rows[i]) + [_F1 if j == i else _F0 for j in range(n)]
                   for i in range(n)], 2 * n)
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return Mat([row[n:] for row in red.rows], n)

    def power(self, k):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        result = Mat.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base_needed = k >> 1
            if base_needed:
                base = base @ base
            k = base_needed
        return result

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        return Mat([list(a) + list(b) for a, b in zip(self.rows, other.rows)],
                   self.ncols + other.ncols)

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise ValueError("col mismatch in vstack")
        return Mat(list(self.rows) + list(other.rows), self.ncols)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


def charpoly(m):
    """Coefficients [1, c1, ..., cn] of det(xI - m) by Faddeev-LeVerrier."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("not square")
    coeffs = [_F1]
    if n == 0:
        return coeffs
    mk = m
    ck = -mk.trace()
    coeffs.append(ck)
    for k in range(2, n + 1):
        mk = m @ (mk + Mat.scalar(n, ck))
        ck = -mk.trace() / k
        coeffs.append(ck)
    return coeffs


# -- subspace arithmetic ----------------------------------------------------
#
# Subspaces of Q^n are lists of coordinate vectors (tuples).  `span_basis`
# canonicalizes via RREF so equal subspaces get identical bases, which keeps
# golden files and Jordan chain choices deterministic.

def span_basis(vectors, dim=None):
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return []
    mat = Mat(vectors)
    red, pivots = mat.rref()
    return [red.rows[i] for i in range(len(pivots))]


def subspace_dim(vectors):
    return len(span_basis(vectors))


def subspace_sum(a, b):
    return span_basis(list(a) + list(b))


def subspace_intersect(a, b, dim):
    """Canonical basis of span(a) meet span(b) inside Q^dim."""
    a = span_basis(a)
    b = span_basis(b)
    if not a or not b:
        return []
    ma = Mat.from_cols(a, dim)
    mb = Mat.from_cols(b, dim)
    combos = ma.hstack(mb).nullspace()
    vecs = []
    for c in combos:
        vecs.append(ma.apply(c[: len(a)]))
    return span_basis(vecs)
