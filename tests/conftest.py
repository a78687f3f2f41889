import pytest
from fractions import Fraction

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
