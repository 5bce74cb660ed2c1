"""Timing of the lattice layer and of spectral_measure on seeded degenerate
normal elements, by signature, and on 21 distinct eigenvalues over three
blocks: a whole closure (b = C*(g) from Subalgebra.of_normal, its two MASAs
and closure_correspondence), generate_masa's two MASAs alone, and
closure_correspondence alone. Also spectral_measure and
minimal_projections, the two callers of the one atom routine, by
signature, and check_regularity by the number of spectrum points.

    PYTHONPATH=src python -m pytest tests/bench_lattice.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it. Each round builds the subalgebra, the
two MASAs and the element afresh, as one CLI call does, so memoized data
from an earlier round is not reused; where only one step is timed, the
others are built in the round's untimed setup.
"""

import numpy as np
import pytest

from awkit.core import AlgebraElement
from awkit.lattice import (
    Subalgebra,
    closure_correspondence,
    generate_masa,
    minimal_projections,
)
from awkit.sampling import haar_unitary_block
from awkit.spectral import check_regularity, spectral_measure

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


def distinct_points() -> AlgebraElement:
    """diag(1..21) over three blocks of 7: 21 minimal projections."""
    return AlgebraElement([np.diag(np.arange(1.0, 8.0) + 7 * k) for k in range(3)])


CASES = pytest.mark.parametrize(
    "x",
    [*map(degenerate_normal, SIGNATURES), distinct_points()],
    ids=[*map(str, SIGNATURES), "21-points"],
)


@CASES
def test_closure_correspondence(benchmark, x):
    blocks = x.blocks

    def closure():
        g = AlgebraElement(blocks)
        b = Subalgebra.of_normal(g)
        return closure_correspondence(b, generate_masa([g], 1), generate_masa([g], 2))

    assert benchmark(closure).accepted


@CASES
def test_generate_masa(benchmark, x):
    """The two MASAs of one closure call, which share one joint eigensolve."""
    blocks = x.blocks

    def masas():
        g = AlgebraElement(blocks)
        return generate_masa([g], 1), generate_masa([g], 2)

    assert all(d.is_masa() for d in benchmark(masas))


@CASES
def test_closure_correspondence_alone(benchmark, x):
    blocks = x.blocks

    def fresh():
        g = AlgebraElement(blocks)
        return (Subalgebra.of_normal(g), generate_masa([g], 1), generate_masa([g], 2)), {}

    corr = benchmark.pedantic(closure_correspondence, setup=fresh, rounds=100)
    assert corr.accepted


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_spectral_measure(benchmark, sig):
    blocks = degenerate_normal(sig).blocks
    m = benchmark(lambda: spectral_measure(AlgebraElement(blocks)))
    assert sum(m.domain_spectrum.multiplicities) == sum(sig)


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_minimal_projections(benchmark, sig):
    """The algebra the element of test_spectral_measure generates, rebuilt
    from its basis each round so that no memoized projections are reused."""
    b = Subalgebra.from_generators([degenerate_normal(sig)])
    found = benchmark(lambda: minimal_projections(Subalgebra(b.signature, b.basis)))
    assert len(found) == b.dim


@pytest.mark.parametrize("n_points", [4, 8, 12])
def test_check_regularity(benchmark, n_points):
    """One block with n_points distinct eigenvalues on the unit circle."""
    rng = np.random.default_rng(n_points)
    u = haar_unitary_block(n_points, rng)
    points = np.exp(2j * np.pi * np.arange(n_points) / n_points)
    m = spectral_measure(AlgebraElement([(u * points) @ u.conj().T]))
    assert len(m.domain_spectrum.points) == n_points
    assert benchmark(check_regularity, m)
