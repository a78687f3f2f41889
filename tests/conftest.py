import pytest
from fractions import Fraction

from odirac.exactla import Mat, span_basis
from odirac.scenarios import pair_context as ctx


@pytest.fixture(scope="session")
def a1():
    """sl(2) with h = t."""
    return ctx("A1")


@pytest.fixture(scope="session")
def a2_su21():
    """sl(3) with the one-string subsystem (the su(2,1)-type pair)."""
    return ctx("A2", [(1, 0)])


@pytest.fixture(scope="session")
def a2_t():
    """sl(3) with h = t."""
    return ctx("A2")


def frac(x):
    return Fraction(x)


def subspace_le(a, b):
    """True iff span(a) is contained in span(b)."""
    bb = span_basis(b)
    if not bb:
        return not any(any(v) for v in a)
    m = Mat.from_cols(bb, len(bb[0]))
    return all(m.solve(v) is not None for v in a)


def subspace_eq(a, b):
    return span_basis(a) == span_basis(b)
