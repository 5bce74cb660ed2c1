"""Timing of the polar layer by signature: polar_regularized on the full
ladder (n_max = 2^20) and on n_max = 64, polar_residuals alone on the
ladder's result, and verify_polar on the ladder's u; and spectral_cut on
each input kind of the self-test.

    PYTHONPATH=src python -m pytest tests/bench_polar.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it.
"""

import numpy as np
import pytest

from awkit.core import AlgebraElement
from awkit.polar import (
    cut_residuals,
    polar_regularized,
    polar_residuals,
    spectral_cut,
    verify_polar,
)
from awkit.sampling import haar_unitary_block

SIGNATURES = [(1,), (2, 3), (8,), (3, 5, 8)]


def _element(sig):
    # x = W diag(sigma) V* per block, sigma in [0.1, 2]: every rung runs
    rng = np.random.default_rng(sum(sig))
    return AlgebraElement([
        (haar_unitary_block(n, rng) * rng.uniform(0.1, 2.0, n)) @ haar_unitary_block(n, rng)
        for n in sig
    ])


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_polar_regularized(benchmark, sig):
    result = benchmark(polar_regularized, _element(sig))
    assert len(result.diagnostics) == 21


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_polar_regularized_nmax_64(benchmark, sig):
    result = benchmark(polar_regularized, _element(sig), 64)
    assert len(result.diagnostics) == 7


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_polar_residuals(benchmark, sig):
    # each round checks a fresh copy of x against the ladder's result on that
    # copy, so that no norm memoized by an earlier round is read; the ladder
    # runs in the untimed setup
    x = _element(sig)

    def fresh():
        y = AlgebraElement(x.blocks)
        return (y, polar_regularized(y)), {}

    check = benchmark.pedantic(polar_residuals, setup=fresh, rounds=50)
    assert check.accepted


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_verify_polar(benchmark, sig):
    # a fresh copy of x per round, so that no memoized norm is read; the
    # ladder that produced u ran on another copy
    x = _element(sig)
    u = polar_regularized(AlgebraElement(x.blocks)).u
    accepted = benchmark.pedantic(
        verify_polar, setup=lambda: ((AlgebraElement(x.blocks), u), {}), rounds=50
    )
    assert accepted


# |x*| a projection, invertible, and singular with a gap, on one 8 x 8 block
CUT_SINGULAR_VALUES = {
    "projection": [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    "invertible": np.linspace(0.5, 2.0, 8),
    "gap": [0.0, 0.0, 0.6, 0.8, 1.0, 1.2, 1.5, 1.7],
}


@pytest.mark.parametrize("kind", sorted(CUT_SINGULAR_VALUES))
def test_spectral_cut(benchmark, kind):
    rng = np.random.default_rng(8)
    x = AlgebraElement([
        (haar_unitary_block(8, rng) * np.asarray(CUT_SINGULAR_VALUES[kind]))
        @ haar_unitary_block(8, rng)
    ])
    # a fresh copy per round, so that no memoized ||x|| is read
    cut = benchmark.pedantic(
        spectral_cut, setup=lambda: ((AlgebraElement(x.blocks),), {}), rounds=50
    )
    assert cut_residuals(x, cut).accepted
