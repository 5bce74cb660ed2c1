"""The stacked Jacobi driver against the per-block solve it replaced.

``_reference_jacobi_eigh`` is the earlier body of ``awkit.core._jacobi_eigh``,
which solved one 2-D block and raised its failure, kept verbatim as a named
oracle. On a (k, n, n) stack the driver must give every slice the oracle's
eigenvalues and eigenvectors bit for bit (signed zeros included), and report
as its fault exactly the exception, type and message, that the oracle raises
on that slice: so the same slices fail. Two slice kinds changed on purpose.
A slice whose Frobenius norm overflows, which the oracle rejected, is now
solved at scale 2^-e: it must match the oracle on the scaled slice, with
the eigenvalues scaled back by 2^e. A slice with a non-finite entry fails
as before, with a message that names the entry. ``_eigh_blocks`` solves
one element's blocks as stacks of one and must raise the first failure in
block order, or return the oracle's bits in read-only eigenvalue arrays
and owning, F-ordered unitary blocks.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import core
from awkit.errors import BadArgument, NonConvergence


def _reference_jacobi_eigh(mat, rel_off_tol, max_sweeps, vectors=True):
    """Cyclic Jacobi diagonalization of one Hermitian block.

    Returns ascending eigenvalues and the unitary of eigenvector columns,
    or None in its place when vectors is false. Raises NonConvergence when
    the off-diagonal Frobenius mass is still above rel_off_tol * ||mat||_F
    after max_sweeps full sweeps, and BadArgument when that norm overflows;
    callers run it under np.errstate(over="ignore"), so that the overflow
    raises without a numpy warning.
    """
    n = mat.shape[0]
    vecs = np.eye(n, dtype=np.complex128) if vectors else None
    if n == 1:
        return np.array([mat[0, 0].real]), vecs
    a = 0.5 * (np.asarray(mat, dtype=np.complex128) + mat.conj().T)
    scale = float(np.linalg.norm(a))
    if not math.isfinite(scale):
        # a target of inf would stop the sweeps before the first rotation
        raise BadArgument("Frobenius norm of a block overflows")
    if scale == 0.0:
        big = float(np.abs(a).max())
        if big == 0.0:
            return np.zeros(n), vecs
        # every square underflowed: solve a 2^-e, whose largest entry lies in
        # [1/2, 1), and scale its eigenvalues back by 2^e
        e = math.frexp(big)[1]
        w, u = _reference_jacobi_eigh(np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e),
                                      rel_off_tol, max_sweeps, vectors)
        return np.ldexp(w, e), u
    target = rel_off_tol * scale
    off = core._jacobi_sweeps(a, vecs, target, target / (2.0 * n), max_sweeps)
    if off > target:
        raise NonConvergence(
            f"Jacobi sweep budget exhausted at off-diagonal mass {off:.3e}"
        )
    w = np.real(np.diagonal(a)).copy()
    order = np.argsort(w, kind="stable")
    if vecs is None:
        return w[order], None
    # vecs[:, order] is an F-ordered view of a temporary; copy it to own it
    return w[order], vecs[:, order].copy(order="F")


# per slice: 1e-170 makes every square of an entry underflow, 1e160 makes
# them overflow (||slice||_F reads inf): both are solved rescaled
KINDS = ("random", "near-diagonal", "degenerate", "zero", "underflow", "overflow", "non-finite")


def _slice(kind, n, rng):
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    if kind == "near-diagonal":
        return np.diag(rng.uniform(-1, 1, n)).astype(np.complex128) + 1e-9 * m
    if kind == "degenerate":
        q, _ = np.linalg.qr(m)
        return (q * rng.choice([-1.0, 0.5, 2.0], n)) @ q.conj().T
    if kind == "zero":
        # signed zeros, which the solve reads as +0 eigenvalues
        return np.where(rng.random((n, n)) < 0.5, -0.0, 0.0) * (1 + 1j)
    if kind == "underflow":
        return 1e-170 * m
    if kind == "overflow":
        return 1e160 * m
    if kind == "non-finite":
        m[rng.integers(n), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        return m
    return m


@st.composite
def stacks(draw):
    """(stack, rel_off_tol, max_sweeps, vectors): k in 1..40 slices of one
    size n in 1..8, each of a drawn kind, not yet hermitized."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.array([_slice(kind, n, rng) for kind in kinds])
    rel = draw(st.sampled_from((1e-14, 1e-8)))
    return stack, rel, draw(st.sampled_from((1, 2, 100))), draw(st.booleans())


def outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def failed(o) -> bool:
    return isinstance(o[0], type)


def expected(m, rel, max_sweeps, vectors):
    """What the driver must give one slice m: the oracle's outcome, except
    that a slice whose Frobenius norm overflows is the oracle's solve of the
    slice scaled by 2^-e, its eigenvalues scaled back by 2^e, and that the
    fault of a non-finite entry names it (a 1x1 slice is read off as is)."""
    a = 0.5 * (m + m.conj().T)
    if len(m) > 1 and np.isfinite(a).all() and not math.isfinite(float(np.linalg.norm(a))):
        e = math.frexp(float(np.abs(a).max()))[1]
        o = outcome(lambda: _reference_jacobi_eigh(
            np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e), rel, max_sweeps, vectors
        ))
        return o if failed(o) else (np.ldexp(o[0], e), o[1])
    o = outcome(lambda: _reference_jacobi_eigh(m, rel, max_sweeps, vectors))
    if failed(o) and o == (BadArgument, "Frobenius norm of a block overflows"):
        assert not np.isfinite(m).all()
        return BadArgument, core._NON_FINITE
    return o


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_stacked_driver_matches_per_block_solve_bit_for_bit(drawn):
    stack, rel, max_sweeps, vectors = drawn
    k, n = stack.shape[:2]
    with np.errstate(all="ignore"):
        w, u, faults = core._jacobi_eigh(stack, rel, max_sweeps, vectors)
        want = [expected(m, rel, max_sweeps, vectors) for m in stack]
    assert w.shape == (k, n)
    assert (u is None) is not vectors
    assert set(faults) == {i for i, o in enumerate(want) if failed(o)}
    for i, o in enumerate(want):
        if i in faults:
            assert (type(faults[i]), str(faults[i])) == o
            continue
        assert same_bits(w[i], o[0])
        if vectors:
            assert same_bits(u[i], o[1])


@st.composite
def elements(draw):
    """(blocks, rel_off_tol, max_sweeps, vectors): 1-4 blocks of sizes 1-8,
    each of a drawn kind, not yet hermitized; _eigh_blocks is run with the
    stop rule patched to (rel_off_tol, max_sweeps)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    blocks = [_slice(draw(st.sampled_from(KINDS)), n, rng) for n in sizes]
    rel = draw(st.sampled_from((1e-14, 1e-8)))
    return blocks, rel, draw(st.sampled_from((1, 2, 100))), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(elements())
def test_eigh_blocks_raises_the_first_fault_or_returns_owning_blocks(drawn):
    blocks, rel, max_sweeps, vectors = drawn
    with np.errstate(all="ignore"):
        want = [expected(m, rel, max_sweeps, vectors) for m in blocks]
        with mock.patch.multiple(core, _JACOBI_OFF_TOL=rel, _MAX_SWEEPS=max_sweeps):
            got = outcome(lambda: core._eigh_blocks(blocks, core.DEFAULT_TOL, vectors))
    faults = [o for o in want if failed(o)]
    if faults:
        assert got == faults[0]
        return
    assert (got.unitary is None) is not vectors
    for b, (w, u) in enumerate(want):
        assert same_bits(got.eigenvalues[b], w)
        assert not got.eigenvalues[b].flags.writeable
        if vectors:
            v = got.unitary.blocks[b]
            assert same_bits(v, u)
            assert v.base is None and v.flags.f_contiguous


def test_an_empty_stack_solves_nothing():
    for n in (1, 3):
        w, u, faults = core._jacobi_eigh(np.zeros((0, n, n), np.complex128), 1e-14, 100)
        assert w.shape == (0, n) and u.shape == (0, n, n) and faults == {}
