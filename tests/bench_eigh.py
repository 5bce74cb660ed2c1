"""Timing of eigh_hermitian on one random Hermitian block per size, with
and without eigenvector accumulation, and of the stacked Jacobi driver on k
random Hermitian blocks of one size, eigenvalues only, as the order-limit
certificate solves them.

    PYTHONPATH=src python -m pytest tests/bench_eigh.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it.
"""

import numpy as np
import pytest

from awkit.core import AlgebraElement, _jacobi_eigh, eigh_hermitian


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_eigh_hermitian(benchmark, n, vectors):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = AlgebraElement([m + m.conj().T])
    eig = benchmark(eigh_hermitian, h, vectors=vectors)
    assert eig.eigenvalues[0].shape == (n,)
    assert (eig.unitary is None) is not vectors


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("k", [1, 8, 32])
def test_jacobi_stack(benchmark, k, n):
    rng = np.random.default_rng(100 * k + n)
    m = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    w, u, faults = benchmark(_jacobi_eigh, m + m.conj().swapaxes(1, 2), 1e-14, 100, False)
    assert w.shape == (k, n) and u is None and not faults
