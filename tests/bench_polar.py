"""Timing of polar_regularized on the full ladder (n_max = 2^20), by signature.

    PYTHONPATH=src python -m pytest tests/bench_polar.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it.
"""

import numpy as np
import pytest

from awkit.core import AlgebraElement
from awkit.polar import polar_regularized
from awkit.sampling import haar_unitary_block


@pytest.mark.parametrize("sig", [(1,), (2, 3), (8,), (3, 5, 8)], ids=str)
def test_polar_regularized(benchmark, sig):
    # x = W diag(sigma) V* per block, sigma in [0.1, 2]: every rung runs
    rng = np.random.default_rng(sum(sig))
    x = AlgebraElement([
        (haar_unitary_block(n, rng) * rng.uniform(0.1, 2.0, n)) @ haar_unitary_block(n, rng)
        for n in sig
    ])
    result = benchmark(polar_regularized, x)
    assert len(result.diagnostics) == 21
