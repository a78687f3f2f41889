import pytest
from fractions import Fraction

from odirac.scenarios import pair_context as ctx
from helpers import row_space


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


def spin_weight(sm, mask):
    """The weight of the spin basis vector u_mask: top(S) minus its q-roots."""
    w = sm.top_weight
    for i, beta in enumerate(sm.q_pos):
        if mask >> i & 1:
            w = w - beta
    return w


def full_drop(sm):
    """The drop of all of q+ below top(S): the sum of every positive q-root."""
    return tuple(map(sum, zip((0,) * sm.pair.rank, *sm.q_pos)))


def spin_weights(sm):
    """The weight of every spin basis vector, in mask order."""
    return [spin_weight(sm, mask) for mask in range(sm.dim)]


def spin_parity(mask):
    """0 for an even wedge degree, 1 for an odd one."""
    return mask.bit_count() & 1


def parity_indices(sm, sign):
    """The spin basis vectors of one parity: +1 even, -1 odd."""
    want = 0 if sign > 0 else 1
    return [mask for mask in range(sm.dim) if spin_parity(mask) == want]


def frac(x):
    return Fraction(x)


def subspace_le(a, b):
    """True iff the row space of the Mat a lies in the row space of the Mat b."""
    return b.T.solve(a.T) is not None


def subspace_eq(a, b):
    """True iff the Mats a and b have the same row space (same canonical basis)."""
    return row_space(a) == row_space(b)
