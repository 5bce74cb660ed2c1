"""Timing of closure_correspondence and spectral_measure on seeded
degenerate normal elements, by signature.

    PYTHONPATH=src python -m pytest tests/bench_lattice.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it. Each round builds the subalgebra, the
two MASAs and the element afresh, as one CLI call does, so memoized data
from an earlier round is not reused.
"""

import numpy as np
import pytest

from awkit.core import AlgebraElement
from awkit.lattice import Subalgebra, closure_correspondence, generate_masa
from awkit.sampling import haar_unitary_block
from awkit.spectral import spectral_measure

SIGNATURES = [(5,), (3, 4), (5, 5)]


def degenerate_normal(sig) -> AlgebraElement:
    """U diag(lambda) U* per block, lambda drawn from three complex points."""
    rng = np.random.default_rng(sum(sig))
    points = np.array([1.0, -0.5 + 1j, 2j])
    blocks = []
    for n in sig:
        u = haar_unitary_block(n, rng)
        blocks.append((u * rng.choice(points, n)) @ u.conj().T)
    return AlgebraElement(blocks)


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_closure_correspondence(benchmark, sig):
    blocks = degenerate_normal(sig).blocks

    def closure():
        g = AlgebraElement(blocks)
        b = Subalgebra.from_generators([g])
        return closure_correspondence(b, generate_masa([g], 1), generate_masa([g], 2))

    assert benchmark(closure).accepted


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_spectral_measure(benchmark, sig):
    blocks = degenerate_normal(sig).blocks
    m = benchmark(lambda: spectral_measure(AlgebraElement(blocks)))
    assert m.domain_spectrum.total_dim == sum(sig)
