"""The grouped eigensolve driver against the per-position one it replaced.

``core._solve`` takes k elements of one signature as one (m, k, n_b, n_b)
stack per block size, the m positions of that size stacked by
``core._grouped``, and makes one ``_jacobi_eigh`` call per size.
``_grouped_solve`` groups per-position stacks, solves them and splits the
results back per position. ``_per_position_solve`` is the driver's earlier
body, one driver call per block position, kept verbatim as a named oracle. On
signatures that repeat block sizes, with slices whose entries are
non-finite or whose Frobenius squares underflow or overflow (the 2^-e
rescale), at the default sweep budget and at one sweep, the grouped driver
must give every position the oracle's (w, u) bit for bit, or raise the
exception, type and message, that the oracle raises: the fault of the
lowest failing element, and of that element's first failing block.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import core
from awkit.errors import BadArgument, NonConvergence
from test_jacobi_stack import KINDS, _slice, outcome, same_bits


def _per_position_solve(stacks, vectors: bool) -> list:
    """The one caller of _jacobi_eigh: per block position, the (w, u) of its
    stack of k elements' blocks, unchecked (checked by eigh_hermitian, or
    formed Hermitian), by the stop rule _JACOBI_OFF_TOL and _MAX_SWEEPS and
    without a numpy warning. It raises the fault of the lowest element that
    fails, and of that element's first failing block."""
    solved, faults = [], {}
    with np.errstate(over="ignore", invalid="ignore"):
        for s in stacks:
            w, u, block_faults = core._jacobi_eigh(
                s, core._JACOBI_OFF_TOL, core._MAX_SWEEPS, vectors
            )
            for i, exc in block_faults.items():
                faults.setdefault(i, exc)
            solved.append((w, u))
    if faults:
        raise faults[min(faults)]
    return solved


def _grouped_solve(stacks, vectors: bool) -> list:
    """core._solve on stacks grouped by block size, split back per position."""
    positions, groups = core._grouped(stacks)
    solved = [None] * len(stacks)
    for p, (w, u) in zip(positions, core._solve(positions, groups, vectors)):
        for i, b in enumerate(p):
            solved[b] = (w[i], None if u is None else u[i])
    return solved


@st.composite
def families(draw):
    """(stacks, vectors, max_sweeps): k in 0..5 elements over 1-6 block
    positions whose sizes are drawn from a pool of one or two sizes in 1..4,
    so that sizes repeat; up to three slices are replaced by a drawn kind
    (non-finite, underflowing or overflowing squares among them)."""
    pool = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    sig = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    k = draw(st.sampled_from((3, 5, 1, 4, 2, 0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stacks = [
        np.array([_slice("random", n, rng) for _ in range(k)], dtype=np.complex128).reshape(k, n, n)
        for n in sig
    ]
    if k:
        slot = st.tuples(st.integers(0, len(sig) - 1), st.integers(0, k - 1), st.sampled_from(KINDS))
        count = draw(st.sampled_from((2, 1, 3, 0)))
        for b, j, kind in draw(st.lists(slot, min_size=count, max_size=3)):
            stacks[b][j] = _slice(kind, sig[b], rng)
    return stacks, draw(st.booleans()), draw(st.sampled_from((1, core._MAX_SWEEPS)))


@settings(max_examples=300, deadline=None)
@given(families())
def test_grouped_solve_matches_the_per_position_solve_bit_for_bit(drawn):
    stacks, vectors, max_sweeps = drawn
    with mock.patch.object(core, "_MAX_SWEEPS", max_sweeps):
        with np.errstate(all="ignore"):
            want = outcome(lambda: _per_position_solve(stacks, vectors))
        got = outcome(lambda: _grouped_solve(stacks, vectors))
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want) == len(stacks)
    for (w, u), (w_want, u_want) in zip(got, want):
        assert same_bits(w, w_want)
        if vectors:
            assert same_bits(u, u_want)
        else:
            assert u is None and u_want is None


def test_a_fault_maps_to_the_lowest_element_then_its_first_block():
    # sizes (3, 2, 3, 2): positions 0 and 2 share one driver call, 1 and 3
    # the other. Element 1 fails at position 2 (a non-finite entry) and at
    # position 1 (an eigenvalue past the float range), element 2 at
    # position 0: element 1's fault at position 1 is raised, although its
    # driver call comes second
    rng = np.random.default_rng(5)
    sig = (3, 2, 3, 2)
    stacks = [np.array([_slice("random", n, rng) for _ in range(3)]) for n in sig]
    stacks[2][1, 1, 1] = np.nan
    stacks[1][1] = 1.5e308
    stacks[0][2, 0, 1] = np.inf
    with mock.patch.object(core, "_jacobi_eigh", wraps=core._jacobi_eigh) as driver:
        got = outcome(lambda: _grouped_solve(stacks, vectors=False))
    assert [call.args[0].shape for call in driver.call_args_list] == [(6, 3, 3), (6, 2, 2)]
    assert got == (BadArgument, "an eigenvalue of a block lies past the float range")
    assert got == outcome(lambda: _per_position_solve(stacks, vectors=False))
    # at one sweep, element 0 fails first: its 3x3 blocks do not converge
    with mock.patch.object(core, "_MAX_SWEEPS", 1):
        got = outcome(lambda: _grouped_solve(stacks, vectors=True))
        assert got[0] is NonConvergence
        assert got == outcome(lambda: _per_position_solve(stacks, vectors=True))


def test_no_elements_solve_to_empty_rows():
    stacks = [np.zeros((0, n, n), np.complex128) for n in (2, 1, 2)]
    for vectors in (False, True):
        solved = _grouped_solve(stacks, vectors)
        assert [w.shape for w, _ in solved] == [(0, 2), (0, 1), (0, 2)]
        assert [u is None for _, u in solved] == [not vectors] * 3
