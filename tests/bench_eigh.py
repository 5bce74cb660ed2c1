"""Timing of the two readers of the one Jacobi driver on one random
Hermitian block per size: _eigh_blocks, which accumulates eigenvectors, and
_eigh_extremes, which reads the extreme eigenvalues alone; and of the
stacked Jacobi kernel on k random Hermitian blocks of one size, eigenvalues
only, as the order-limit certificate solves them, and on the 21
near-diagonal 8x8 Gram matrices of the resolvent ladder's diagnostics, at
unit scale and with every other slice at a scale whose squares underflow
(solved rescaled).

    PYTHONPATH=src python -m pytest tests/bench_eigh.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it.
"""

import numpy as np
import pytest

from awkit.core import _eigh_blocks, _eigh_extremes, _jacobi_eigh


def _hermitian(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m + m.conj().T


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_eigh_blocks(benchmark, n):
    eig = benchmark(_eigh_blocks, [_hermitian(n)])
    assert eig.eigenvalues[0].shape == (n,) and eig.unitary.blocks[0].shape == (n, n)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_eigh_extremes(benchmark, n):
    ((lo, hi),) = benchmark(_eigh_extremes, [_hermitian(n)[None]])
    assert lo <= hi


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("k", [1, 8, 32])
def test_jacobi_stack(benchmark, k, n):
    rng = np.random.default_rng(100 * k + n)
    m = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    w, u, faults = benchmark(_jacobi_eigh, m + m.conj().swapaxes(1, 2), 1e-14, 100, False)
    assert w.shape == (k, n) and u is None and not faults


@pytest.mark.parametrize("underflow", [False, True])
def test_jacobi_diagnostics_stack(benchmark, underflow):
    rng = np.random.default_rng(21)
    d = np.diag(rng.uniform(0.1, 2.0, 8))
    e = d + 1e-9 * (rng.standard_normal((21, 8, 8)) + 1j * rng.standard_normal((21, 8, 8)))
    grams = e.conj().swapaxes(1, 2) @ e
    if underflow:
        grams[::2] *= 1e-170
    w, u, faults = benchmark(_jacobi_eigh, grams, 1e-14, 100, False)
    assert w.shape == (21, 8) and u is None and not faults
