"""Exact linear algebra, and its kernels against a plain-Fraction oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from odirac.exactla import Mat, charpoly
from conftest import subspace_eq
from helpers import row_space, subspace_intersect

F = Fraction


def oracle_rref(rows, ncols):
    """Gauss-Jordan on Fraction entries, one field operation at a time."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[pr], rows[r] = rows[r], rows[pr]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def oracle_matmul(a, b, ncols):
    return [[sum((arow[t] * b[t][j] for t in range(len(b))), F(0)) for j in range(ncols)]
            for arow in a]


def rand_mat(rng, n, m, den=4):
    return [[F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(m)]
            for _ in range(n)]


def test_rref_identity():
    m = Mat.identity(3)
    red, piv = m.rref()
    assert red == m and piv == [0, 1, 2]


def test_solve_and_nullspace():
    a = Mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert a.rank() == 2
    ns = a.nullspace()
    assert ns.nrows == 1
    assert (a @ ns.T).is_zero()
    rhs = a @ Mat([[1, 0], [2, 1], [-1, 0]])
    x = a.solve(rhs)
    assert a @ x == rhs
    assert a.solve(Mat([[1], [0], [0]])) is None  # inconsistent


def test_inverse_roundtrip():
    a = Mat([[2, 1], [1, 1]])
    assert a @ a.inv() == Mat.identity(2)
    with pytest.raises(ValueError):
        Mat([[1, 2], [2, 4]]).inv()


def test_charpoly_known():
    assert charpoly(Mat([[2]])) == [F(1), F(-2)]
    assert charpoly(Mat([[0, 1], [0, 0]])) == [F(1), F(0), F(0)]
    assert charpoly(Mat([[1, 0], [0, 2]])) == [F(1), F(-3), F(2)]


def test_scalar_is_scaled_identity():
    for n in (0, 1, 3, 5):
        for c in (0, 1, -3, F(7, 2), F(-2, 9)):
            assert Mat.scalar(n, c) == Mat.identity(n).scale(c), (n, c)


def test_power():
    n = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert n.power(2) == n @ n
    assert n.power(3).is_zero()
    assert n.power(0) == Mat.identity(3)


def test_subspace_arithmetic():
    e = Mat.identity(3)
    a = e.take(rows=[0, 1])
    b = e.take(rows=[1, 2])
    assert a.vstack(b).rank() == 3
    meet = subspace_intersect(a, b)
    assert subspace_eq(meet, e.take(rows=[1]))
    assert row_space(Mat([[1, 0, 0], [2, 0, 0]])) == e.take(rows=[0])


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def matrices(draw, nrows, ncols):
    """Dense, rank-deficient, zero-row or signed-permutation rows, n x m."""
    kind = draw(st.sampled_from(["dense", "low_rank", "zero_rows", "signed_perm"]))
    if kind == "signed_perm" and nrows == ncols:
        perm = draw(st.permutations(range(ncols)))
        signs = draw(st.lists(st.sampled_from([F(-1), F(1)]), min_size=nrows, max_size=nrows))
        scale = draw(rationals.filter(bool))
        return [[scale * s if j == p else F(0) for j in range(ncols)]
                for p, s in zip(perm, signs)]
    if kind == "low_rank":
        k = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
        left = draw(st.lists(st.lists(rationals, min_size=k, max_size=k),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols),
                              min_size=k, max_size=k))
        return oracle_matmul(left, right, ncols)
    rows = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if kind == "zero_rows" and nrows:
        for i in draw(st.lists(st.integers(0, nrows - 1), max_size=nrows)):
            rows[i] = [F(0)] * ncols
    return rows


@st.composite
def matmul_operands(draw):
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    if draw(st.booleans()):
        n = k = m  # square, so both factors can be signed permutations
    return k, m, draw(matrices(n, k)), draw(matrices(k, m))


@settings(max_examples=100, deadline=None)
@given(matmul_operands())
def test_kernels_match_fraction_oracle(operands):
    k, m, a, b = operands
    red, pivots = Mat(a, k).rref()
    want_rows, want_pivots = oracle_rref(a, k)
    assert pivots == want_pivots
    assert red == Mat(want_rows, k)
    # the forward pass alone gives the same pivots, and the rank is their count
    assert Mat(a, k).pivots() == pivots
    assert Mat(a, k).rank() == len(Mat(a, k).pivots())
    assert Mat(a, k) @ Mat(b, m) == Mat(oracle_matmul(a, b, m), m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_rank_nullity_property(seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    a = Mat(rand_mat(rng, n, m), m)
    ns = a.nullspace()
    assert a.rank() + ns.nrows == m
    assert (a @ ns.T).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_charpoly_cayley_hamilton(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    a = Mat(rand_mat(rng, n, n, den=2), n)
    coeffs = charpoly(a)
    # evaluate p(a) by Horner
    acc = Mat.zero(n, n)
    for c in coeffs:
        acc = acc @ a + Mat.identity(n).scale(c)
    assert acc.is_zero()


# -- the int-rows-over-one-denominator representation ----------------------

def assert_canonical(m):
    """den > 0, int entries, and gcd(den, entries) = 1."""
    assert isinstance(m.den, int) and m.den > 0
    assert all(type(x) is int for r in m.num for x in r)
    assert gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert len(m.num) == m.nrows and all(len(r) == m.ncols for r in m.num)


def ref_transpose(a, nrows, ncols):
    return [[a[i][j] for i in range(nrows)] for j in range(ncols)]


def ref_solution(a, rhs, ncols):
    """The solution with free coordinates zero, or None, from the oracle rref."""
    red, pivots = oracle_rref([list(r) + [y] for r, y in zip(a, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[ncols]
    return tuple(x)


def ref_solve(a, rhs, ncols, k):
    """ref_solution for each of the k columns of rhs, as rows; None if any is None."""
    cols = [ref_solution(a, [r[j] for r in rhs], ncols) for j in range(k)]
    if None in cols:
        return None
    return [[col[i] for col in cols] for i in range(ncols)]


def ref_row_space(a, ncols):
    red, pivots = oracle_rref(a, ncols)
    return red[:len(pivots)]


def ref_intersect(a, b, ncols):
    """The row space of the combinations c_a a with c_a a + c_b b = 0."""
    n = len(a) + len(b)
    combos = ref_nullspace(ref_transpose(list(a) + list(b), n, ncols), n)
    meet = [[sum((c[i] * a[i][j] for i in range(len(a))), F(0)) for j in range(ncols)]
            for c in combos]
    return ref_row_space(meet, ncols)


def ref_nullspace(a, ncols):
    red, pivots = oracle_rref(a, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def ref_charpoly(a, n):
    """Faddeev-LeVerrier on plain Fraction lists."""
    coeffs = [F(1)]
    mk = [list(r) for r in a]
    for k in range(1, n + 1):
        if k > 1:
            shifted = [[x + (coeffs[-1] if i == j else 0) for j, x in enumerate(r)]
                       for i, r in enumerate(mk)]
            mk = oracle_matmul(a, shifted, n)
        coeffs.append(-sum((mk[i][i] for i in range(n)), F(0)) / k)
    return coeffs


@st.composite
def operands(draw):
    n, m, k = (draw(st.integers(0, 5)) for _ in range(3))
    if draw(st.booleans()):
        n = m  # square: inv and charpoly apply
    return (n, m, k, draw(matrices(n, m)), draw(matrices(n, m)), draw(matrices(m, k)),
            draw(matrices(n, k)), draw(st.lists(rationals, min_size=m, max_size=m)),
            draw(st.lists(rationals, min_size=n, max_size=n)), draw(rationals))


# Fixed inputs for the differential test: 0-row, 0-column and all-zero
# operands, and solves against a rank-2 matrix (row 3 is row 1 + row 2):
# two consistent columns, then three columns whose inconsistent column
# (0, 0, 1) comes first, in the middle or last.
_RANK2 = [[F(1), F(2), F(0)], [F(0), F(0), F(3)], [F(1), F(2), F(3)]]
_GOOD = [[F(3), F(1, 2), F(7, 2)], [F(-2), F(5), F(3)]]
_BAD = [F(0), F(0), F(1)]
_C32 = [[F(1), F(0)], [F(0), F(1)], [F(2), F(-1)]]
_B23 = [[F(1), F(-1), F(2)], [F(0), F(1, 3), F(1)]]


def _rank2_solve(bad_at=None):
    cols = list(_GOOD)
    if bad_at is not None:
        cols.insert(bad_at, _BAD)
    k = len(cols)
    return (3, 3, k, _RANK2, _RANK2[::-1], [[F(i == j) for j in range(k)] for i in range(3)],
            [list(r) for r in zip(*cols)], [F(1), F(-1), F(2)], _BAD, F(3))


@settings(max_examples=60, deadline=None)
@given(operands())
@example((0, 0, 0, [], [], [], [], [], [], F(1)))
@example((0, 3, 2, [], [], _C32, [], [F(1), F(0), F(-1)], [], F(2)))
@example((2, 3, 2, [[F(0)] * 3] * 2, _B23, _C32, [[F(1), F(0)], [F(0), F(0)]],
          [F(1), F(0), F(-1)], [F(0), F(0)], F(-1)))
@example(_rank2_solve())
@example(_rank2_solve(0))
@example(_rank2_solve(1))
@example(_rank2_solve(2))
def test_every_operation_matches_fraction_reference(ops):
    n, m, k, a, b, c, d, v, rhs, s = ops
    ma, mb, mc, md = Mat(a, m), Mat(b, m), Mat(c, k), Mat(d, k)

    def same(got, want_rows, ncols):
        if want_rows is None:
            assert got is None
            return
        assert_canonical(got)
        assert (got.nrows, got.ncols) == (len(want_rows), ncols)
        assert got.rows == tuple(tuple(r) for r in want_rows)
        assert all(type(x) is F for r in got.rows for x in r)

    for mat, rows, ncols in ((ma, a, m), (mb, b, m), (mc, c, k)):
        same(mat, rows, ncols)
    same(ma + mb, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)], m)
    same(ma - mb, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)], m)
    same(-ma, [[-x for x in r] for r in a], m)
    same(ma.scale(s), [[s * x for x in r] for r in a], m)
    same(ma.T, ref_transpose(a, n, m), n)
    same(ma.hstack(md), [list(r1) + list(r2) for r1, r2 in zip(a, d)], m + k)
    same(ma.vstack(mb), list(a) + list(b), m)
    same(ma @ mc, oracle_matmul(a, c, k), k)
    assert ma.apply(v) == tuple(sum((x * y for x, y in zip(r, v)), F(0)) for r in a)
    red, pivots = oracle_rref(a, m)
    assert ma.rank() == len(pivots)
    same(row_space(ma), ref_row_space(a, m), m)
    same(ma.nullspace(), ref_nullspace(a, m), m)
    same(subspace_intersect(ma, mb), ref_intersect(a, b, m), m)
    for x, y in ((a, []), ([], a), ([], [])):  # a 0-row operand
        same(subspace_intersect(Mat(x, m), Mat(y, m)), ref_intersect(x, y, m), m)
    same(ma.solve(md), ref_solve(a, d, m, k), k)
    col = [[y] for y in rhs]
    same(ma.solve(Mat(col, 1)), ref_solve(a, col, m, 1), 1)
    image = [[y] for y in ma.apply(v)]
    same(ma.solve(Mat(image, 1)), ref_solve(a, image, m, 1), 1)
    if n == m:
        assert ma.trace() == sum((a[i][i] for i in range(n)), F(0))
        assert charpoly(ma) == ref_charpoly(a, n)
        if len(pivots) < n:
            with pytest.raises(ValueError):
                ma.inv()
        else:
            inv_rows, _ = oracle_rref([list(r) + [F(i == j) for j in range(n)]
                                       for i, r in enumerate(a)], 2 * n)
            same(ma.inv(), [r[n:] for r in inv_rows], n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_equal_matrices_share_one_form(n, m, data):
    """Every route to the same matrix gives equal num, den and hash."""
    a = data.draw(matrices(n, m))
    s = data.draw(rationals.filter(bool))
    base = Mat(a, m)
    t = data.draw(st.integers(1, 30))
    routes = [
        Mat.from_ints([[x * t for x in r] for r in base.num], m, base.den * t),
        Mat([[str(x) for x in r] for r in a], m),
        base.scale(s).scale(1 / s),
        (base + base) - base,
        -(-base),
        base.T.T,
        base.hstack(Mat.zero(n, 1)).take(cols=range(m)),
        Mat.zero(0, m).vstack(base),
        Mat.identity(n) @ base,
    ]
    for got in routes:
        assert_canonical(got)
        assert got == base and hash(got) == hash(base)
    zeros = [base - base, base.scale(0), Mat.zero(n, m)]
    for z in zeros:
        assert_canonical(z)
        assert z == Mat.zero(n, m) and z.den == 1 and hash(z) == hash(Mat.zero(n, m))
