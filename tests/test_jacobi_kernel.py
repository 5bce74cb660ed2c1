"""The list-based Jacobi kernel against the numpy-scalar kernel it replaced.

``_reference_sweeps`` is the earlier body of ``awkit.core._jacobi_sweeps``,
which rotated numpy complex128 scalars in place, kept verbatim as a named
oracle. The list kernel must return the same off-diagonal mass, rotated
block and eigenvectors bit for bit (signed zeros included), and a solve
through ``_eigh_blocks`` must return or raise exactly what it did with the
oracle. Without eigenvectors (vecs None) the kernel must still return the
same mass and block, and ``eigh_hermitian(h, vectors=False)`` the same eigenvalues or
the same exception as the full solve.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awkit import core
from awkit.core import AlgebraElement, eigh_hermitian, frobenius_norm
from awkit.errors import NonConvergence, NotSelfAdjoint


def _reference_sweeps(a, vecs, target, skip, max_sweeps):
    """Cyclic Jacobi sweeps over one Hermitian block, in place.

    Returns the final off-diagonal Frobenius mass. The mass is accumulated
    entry by entry, not as ||a||^2 - ||diag||^2, which cancels catastrophically.
    """
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    off += abs(a[i, j]) ** 2
        off = math.sqrt(off)
        if off <= target:
            return off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sp = (t * c) * phase
                spc = sp.conjugate()
                for i in range(n):
                    cp = a[i, p]
                    cq = a[i, q]
                    a[i, p] = c * cp - spc * cq
                    a[i, q] = sp * cp + c * cq
                for j in range(n):
                    rp = a[p, j]
                    rq = a[q, j]
                    a[p, j] = c * rp - sp * rq
                    a[q, j] = spc * rp + c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = complex(a[p, p].real, 0.0)
                a[q, q] = complex(a[q, q].real, 0.0)
                for i in range(n):
                    vp = vecs[i, p]
                    vq = vecs[i, q]
                    vecs[i, p] = c * vp - spc * vq
                    vecs[i, q] = sp * vp + c * vq
    off = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                off += abs(a[i, j]) ** 2
    return math.sqrt(off)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# 1e160 makes squares overflow (the mass and ||a||_F read inf); 1e-150 and
# 1e150 are far from unit scale but square within range
SCALES = (1.0, 1e-150, 1e150, 1e160)
BUDGETS = (1, 2, 100)  # max_sweeps


@st.composite
def matrices(draw, scales=SCALES):
    """One scaled square matrix of dimension 1..8, not yet hermitized.

    Entries in [-1, 1] include signed zeros. Kinds: generic complex,
    real-symmetric, already diagonal, and unitarily rotated spectra with
    repeated eigenvalues.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("complex", "real", "diagonal", "degenerate")))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
    re = np.array(draw(entries)).reshape(n, n)
    im = np.array(draw(entries)).reshape(n, n)
    if kind == "complex":
        m = re + 1j * im
    elif kind == "real":
        m = re.astype(np.complex128)
    elif kind == "diagonal":
        m = np.diag(re.diagonal()).astype(np.complex128)
    else:
        q, _ = np.linalg.qr(re + 1j * im)
        lam = np.array(draw(st.lists(st.sampled_from((-1.0, 0.5, 2.0)), min_size=n, max_size=n)))
        m = (q * lam) @ q.conj().T
    return m * draw(st.sampled_from(scales))


@st.composite
def blocks(draw):
    """(matrix, relative off tolerance, sweep budget) for one block."""
    m = draw(matrices())
    rel = draw(st.sampled_from((1e-14, 1e-8, 1.0)))
    return m, rel, draw(st.sampled_from(BUDGETS))


def outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


# |4.536| ** 2 is one ulp below 4.536 * 4.536 with the C pow of glibc; at
# rel = 1.0 the kernel returns the first mass, which shows the difference
@example((np.array([[0.0, 4.536], [4.536, 0.0]], dtype=np.complex128), 1.0, 1))
@settings(max_examples=200)
@given(blocks())
def test_list_kernel_matches_numpy_scalar_kernel_bit_for_bit(block):
    m, rel, max_sweeps = block
    n = m.shape[0]
    a = 0.5 * (m + m.conj().T)
    a_ref, a_new, a_val = a.copy(), a.copy(), a.copy()
    v_ref = np.eye(n, dtype=np.complex128)
    v_new = v_ref.copy()
    # numpy warns where a square overflows; both kernels then read inf
    with np.errstate(over="ignore"):
        target = rel * float(np.linalg.norm(a))
        skip = target / (2.0 * n)
        off_ref = _reference_sweeps(a_ref, v_ref, target, skip, max_sweeps)
        off_new = core._jacobi_sweeps(a_new, v_new, target, skip, max_sweeps)
        off_val = core._jacobi_sweeps(a_val, None, target, skip, max_sweeps)
    assert same_bits(np.float64(off_new), np.float64(off_ref))
    assert same_bits(a_new, a_ref)
    assert same_bits(v_new, v_ref)
    assert same_bits(np.float64(off_val), np.float64(off_ref))
    assert same_bits(a_val, a_ref)

    with mock.patch.multiple(core, _JACOBI_OFF_TOL=rel, _MAX_SWEEPS=max_sweeps):
        with mock.patch.object(core, "_jacobi_sweeps", _reference_sweeps):
            want = outcome(lambda: core._eigh_blocks([m], core.DEFAULT_TOL))
        got = outcome(lambda: core._eigh_blocks([m], core.DEFAULT_TOL))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same_bits(got.eigenvalues[0], want.eigenvalues[0])
        assert same_bits(got.unitary.blocks[0], want.unitary.blocks[0])


@st.composite
def hermitian_elements(draw):
    """(element, sweep budget): one to three hermitized blocks of dimension 1..8.

    No 1e160 scale: there ||h||_F overflows, so the self-adjointness slack
    pos_slack (1 + ||h||_F) is infinite and no skew part is detected.
    """
    mats = draw(st.lists(matrices(scales=(1.0, 1e-150, 1e150)), min_size=1, max_size=3))
    element = AlgebraElement([0.5 * (m + m.conj().T) for m in mats])
    return element, draw(st.sampled_from(BUDGETS))


@settings(max_examples=200)
@given(hermitian_elements())
def test_eigenvalues_only_mode_matches_full_solve_bit_for_bit(drawn):
    h, max_sweeps = drawn
    with np.errstate(over="ignore"), mock.patch.object(core, "_MAX_SWEEPS", max_sweeps):
        full = outcome(lambda: eigh_hermitian(h))
        vals = outcome(lambda: eigh_hermitian(h, vectors=False))
        if isinstance(full, tuple):
            assert full[0] is NonConvergence
            assert vals == full
        else:
            assert vals.unitary is None
            assert len(vals.eigenvalues) == len(full.eigenvalues)
            for got, want in zip(vals.eigenvalues, full.eigenvalues):
                assert same_bits(got, want)
                assert not got.flags.writeable
            with pytest.raises(ValueError, match="eigenvalues-only"):
                vals.assemble(np.sqrt)
        # a skew part well above the slack at every scale
        skew = h + 1j * (1.0 + frobenius_norm(h)) * AlgebraElement.identity(h.signature)
        want = outcome(lambda: eigh_hermitian(skew))
        assert want == (NotSelfAdjoint, "eigh_hermitian input must be self-adjoint")
        assert outcome(lambda: eigh_hermitian(skew, vectors=False)) == want
