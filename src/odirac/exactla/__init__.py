"""Exact linear algebra over the rationals.

A `Mat` is a tuple of Python-int rows `num` over one positive
denominator `den`: entry (i, j) is num[i][j] / den.  The pair is kept
canonical (den > 0 and gcd(den, all entries) = 1), so equal matrices
have equal `num` and `den`, and `==` and `hash` are plain tuple
compares.  No floating point appears anywhere: ranks, kernels and
solves carry proof weight in the test suite.

`Mat(rows)` is the boundary for callers holding `Fraction` (or int)
entries: it clears them to one denominator once.  Inside the engine
matrices are built from int rows and a denominator by `Mat.from_ints`
(or from sparse columns by `Mat.from_sparse_cols`), and every
operation (sums, scaling, products, transposes, stacks, slices,
traces, the characteristic polynomial and row reduction) stays in
ints.  Row reduction is fraction-free: it eliminates on the stored int
rows, each updated row divided by the gcd of its entries.  Subspaces
are `Mat`s too: kernel and row-space bases are the rows of a `Mat`, a
vector is a one-row `Mat`, and `solve` answers a `Mat` of right-hand
sides, so one reduction feeds the next without leaving ints.
`Fraction`s are built only for scalars (`trace`, `charpoly`),
for the weight-coordinate boundary (`apply`, `col`) and for the
read-only `rows` view, which is rebuilt on each access.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

_F0 = Fraction(0)
_F1 = Fraction(1)


def _canonical(rows, den):
    """(rows, den) with the common gcd of den and the entries divided out."""
    g = den
    for r in rows:
        if g == 1:
            return rows, den
        g = gcd(g, *r)
    if g == 1:
        return rows, den
    return tuple(tuple(x // g for x in r) for r in rows), den // g


def vec_ints(vec):
    """(ints, den) with vec == ints / den, den the lcm of the denominators."""
    den = lcm(*(x.denominator for x in vec if x))
    return [x.numerator * (den // x.denominator) if x else 0 for x in vec], den


def _fractions(row, den):
    return tuple(Fraction(x, den) if x else _F0 for x in row)


def _echelon(num, ncols, reduced=True):
    """Fraction-free row reduction of int rows: (nonzero rows, pivot columns).

    Deterministic: for each column the first remaining row (lowest index)
    with a nonzero entry is the pivot row.  Each updated row is divided
    by the gcd of its entries, and every returned row has a positive
    pivot.  With `reduced`, the rows above each pivot are cleared too
    (reduced echelon form up to one positive factor per row); without it
    only the rows below are: the same pivots, which is all a rank needs.
    """
    work = [r for r in num if any(r)]
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
        for i in range(0 if reduced else r + 1, nrows):
            other = work[i]
            f = other[c]
            if f and i != r:
                new = [x * piv - f * y for x, y in zip(other, row)]
                g = gcd(*new)
                work[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    work = [[-x for x in row] if row[p] < 0 else row for row, p in zip(work, pivots)]
    return work, pivots


class Mat:
    """Immutable dense rational matrix acting on column coordinate vectors."""

    __slots__ = ("num", "den", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in r] for r in rows]
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
        # the lcm of the reduced denominators leaves gcd(den, entries) = 1
        den = self.den = lcm(*(x.denominator for r in rows for x in r if x))
        self.num = tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in rows)

    @staticmethod
    def from_ints(rows, ncols, den=1):
        """The matrix rows / den for int rows and a positive int den, as given.

        The trusted constructor: entries are not coerced, only the common
        gcd of den and the entries is divided out.
        """
        m = Mat.__new__(Mat)
        m.num, m.den = _canonical(tuple(map(tuple, rows)), den)
        m.nrows = len(m.num)
        m.ncols = ncols
        return m

    @staticmethod
    def from_sparse_cols(cols, nrows):
        """Matrix whose j-th column is the {row index: rational} dict cols[j].

        Only the listed entries are read; they are cleared to one
        denominator once.
        """
        den = lcm(*(x.denominator for col in cols for x in col.values()))
        rows = [[0] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                rows[i][j] = x.numerator * (den // x.denominator)
        return Mat.from_ints(rows, len(cols), den)

    @staticmethod
    def zero(nrows, ncols):
        return Mat.from_ints(((0,) * ncols,) * nrows, ncols)

    @staticmethod
    def identity(n):
        return Mat.scalar(n, 1)

    @staticmethod
    def scalar(n, c):
        """c times the n x n identity."""
        c = Fraction(c)
        x = c.numerator
        return Mat.from_ints([(0,) * i + (x,) + (0,) * (n - i - 1) for i in range(n)],
                             n, c.denominator)

    @staticmethod
    def from_cols(cols, nrows):
        """Matrix whose j-th column is cols[j] (each of length nrows)."""
        return Mat(cols, nrows).T

    @property
    def rows(self):
        """The entries as a tuple of `Fraction` rows, built on each access."""
        return tuple(_fractions(r, self.den) for r in self.num)

    @property
    def T(self):
        num = tuple(zip(*self.num)) if self.nrows else ((),) * self.ncols
        return Mat.from_ints(num, self.nrows, self.den)

    def col(self, j):
        den = self.den
        return tuple(Fraction(r[j], den) if r[j] else _F0 for r in self.num)

    def take(self, rows=None, cols=None):
        """The submatrix on the listed row and column indices (all when None)."""
        num = self.num if rows is None else [self.num[i] for i in rows]
        if cols is None:
            return Mat.from_ints(num, self.ncols, self.den)
        return Mat.from_ints([[r[j] for j in cols] for r in num], len(cols), self.den)

    def __matmul__(self, other):
        """Product visiting only the nonzeros of each row pair.

        Sparse factors such as the spin module's signed permutations cost
        what they hold, not n * k * ncols.
        """
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        ncols = other.ncols
        bnz = [[(j, y) for j, y in enumerate(row) if y] for row in other.num]
        out = []
        for arow in self.num:
            acc = [0] * ncols
            for t, x in enumerate(arow):
                if x:
                    for j, y in bnz[t]:
                        acc[j] += x * y
            out.append(acc)
        return Mat.from_ints(out, ncols, self.den * other.den)

    def apply(self, vec):
        """Matrix-vector product, vec of length ncols."""
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch in apply")
        ints, vden = vec_ints(vec)
        nz = [(j, y) for j, y in enumerate(ints) if y]
        den = self.den * vden
        out = []
        for row in self.num:
            s = sum(row[j] * y for j, y in nz)
            out.append(Fraction(s, den) if s else _F0)
        return tuple(out)

    def _combine(self, other, op, what):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch in {what}")
        if self.den == other.den:
            rows = [tuple(map(op, r1, r2)) for r1, r2 in zip(self.num, other.num)]
            return Mat.from_ints(rows, self.ncols, self.den)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        rows = [[op(x * fa, y * fb) for x, y in zip(r1, r2)]
                for r1, r2 in zip(self.num, other.num)]
        return Mat.from_ints(rows, self.ncols, den)

    def __add__(self, other):
        return self._combine(other, add, "add")

    def __sub__(self, other):
        return self._combine(other, sub, "sub")

    def __neg__(self):
        return Mat.from_ints([[-x for x in r] for r in self.num], self.ncols, self.den)

    def scale(self, c):
        c = Fraction(c)
        x = c.numerator
        return Mat.from_ints([[x * a for a in r] for r in self.num], self.ncols,
                             self.den * c.denominator)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, self.num))

    def is_zero(self):
        return not any(any(r) for r in self.num)

    def trace(self):
        return Fraction(sum(self.num[i][i] for i in range(min(self.nrows, self.ncols))),
                        self.den)

    def rref(self):
        """Return (reduced row echelon Mat, pivot column list)."""
        work, pivots = _echelon(self.num, self.ncols)
        # row i over its pivot is the reduced row; bring all to one denominator
        den = lcm(*(row[p] for row, p in zip(work, pivots)))
        rows = [[x * (den // row[p]) for x in row] for row, p in zip(work, pivots)]
        rows += [(0,) * self.ncols] * (self.nrows - len(pivots))
        return Mat.from_ints(rows, self.ncols, den), pivots

    def pivots(self):
        """The pivot columns of `rref()`, from the forward pass alone."""
        return _echelon(self.num, self.ncols, reduced=False)[1]

    def rank(self):
        return len(self.pivots())

    def nullspace(self):
        """Canonical (rref-derived) kernel basis as the rows of a Mat, one per free
        column, which keeps Jordan chain choices deterministic.

        The row of free column f is 1 at f, minus the rref's column f at
        the pivots, and 0 elsewhere.
        """
        red, pivots = self.rref()
        pivset = set(pivots)
        den = red.den
        basis = []
        for f in range(self.ncols):
            if f in pivset:
                continue
            v = [0] * self.ncols
            v[f] = den
            for row, p in zip(red.num, pivots):
                v[p] = -row[f]
            basis.append(v)
        return Mat.from_ints(basis, self.ncols, den)

    def solve(self, rhs):
        """X with self @ X = rhs, or None if some column of rhs is inconsistent.

        One reduction of the augmented matrix answers every column; each
        column of X is the particular solution with the free coordinates 0.
        """
        if rhs.nrows != self.nrows:
            raise ValueError("rhs row mismatch")
        n = self.ncols
        red, pivots = self.hstack(rhs).rref()
        if pivots and pivots[-1] >= n:  # the first inconsistent column is a pivot
            return None
        x = [(0,) * rhs.ncols] * n
        for row, p in zip(red.num, pivots):
            x[p] = row[n:]
        return Mat.from_ints(x, rhs.ncols, red.den)

    def inv(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        red, pivots = self.hstack(Mat.identity(n)).rref()
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return red.take(cols=range(n, 2 * n))

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

    def _over(self, den):
        """The int rows over the multiple `den` of self.den."""
        f = den // self.den
        return self.num if f == 1 else [[x * f for x in r] for r in self.num]

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        den = lcm(self.den, other.den)
        rows = [tuple(a) + tuple(b) for a, b in zip(self._over(den), other._over(den))]
        return Mat.from_ints(rows, self.ncols + other.ncols, den)

    def vstack(self, *others):
        """self with the rows of each of `others` below it, in order."""
        if any(o.ncols != self.ncols for o in others):
            raise ValueError("col mismatch in vstack")
        mats = (self, *others)
        den = lcm(*(m.den for m in mats))
        return Mat.from_ints([r for m in mats for r in m._over(den)], self.ncols, den)

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

