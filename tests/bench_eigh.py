"""Timing of eigh_hermitian on one random Hermitian block per size, with
and without eigenvector accumulation.

    PYTHONPATH=src python -m pytest tests/bench_eigh.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it.
"""

import numpy as np
import pytest

from awkit.core import AlgebraElement, eigh_hermitian


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_eigh_hermitian(benchmark, n, vectors):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = AlgebraElement([m + m.conj().T])
    eig = benchmark(eigh_hermitian, h, vectors=vectors)
    assert eig.eigenvalues[0].shape == (n,)
    assert (eig.unitary is None) is not vectors
