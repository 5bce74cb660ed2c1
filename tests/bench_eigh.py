"""Timing of eigh_hermitian on one random Hermitian block per size.

    PYTHONPATH=src python -m pytest tests/bench_eigh.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it.
"""

import numpy as np
import pytest

from awkit.core import AlgebraElement, eigh_hermitian


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_eigh_hermitian(benchmark, n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = AlgebraElement([m + m.conj().T])
    eig = benchmark(eigh_hermitian, h)
    assert eig.eigenvalues[0].shape == (n,)
