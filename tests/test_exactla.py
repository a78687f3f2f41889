"""Exact linear algebra, and its kernels against a plain-Fraction oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odirac.exactla import (Mat, charpoly, span_basis, subspace_dim,
                            subspace_eq, subspace_intersect, subspace_sum)

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
    assert len(ns) == 1
    assert not any(a.apply(ns[0]))
    rhs = a.apply((F(1), F(2), F(-1)))
    x = a.solve(rhs)
    assert a.apply(x) == rhs
    assert a.solve((1, 0, 0)) is None  # inconsistent


def test_inverse_roundtrip():
    a = Mat([[2, 1], [1, 1]])
    assert a @ a.inv() == Mat.identity(2)
    with pytest.raises(ValueError):
        Mat([[1, 2], [2, 4]]).inv()


def test_charpoly_known():
    assert charpoly(Mat([[2]])) == [F(1), F(-2)]
    assert charpoly(Mat([[0, 1], [0, 0]])) == [F(1), F(0), F(0)]
    assert charpoly(Mat([[1, 0], [0, 2]])) == [F(1), F(-3), F(2)]


def test_power():
    n = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert n.power(2) == n @ n
    assert n.power(3).is_zero()
    assert n.power(0) == Mat.identity(3)


def test_subspace_arithmetic():
    e1, e2, e3 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    a = [e1, e2]
    b = [e2, e3]
    assert subspace_dim(subspace_sum(a, b)) == 3
    meet = subspace_intersect(a, b, 3)
    assert subspace_eq(meet, [e2])
    assert span_basis([e1, (F(2), F(0), F(0))]) == [e1]


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
    assert Mat(a, k) @ Mat(b, m) == Mat(oracle_matmul(a, b, m), m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_rank_nullity_property(seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    a = Mat(rand_mat(rng, n, m), m)
    ns = a.nullspace()
    assert a.rank() + len(ns) == m
    for v in ns:
        assert not any(a.apply(v))


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
