"""Spectral atoms are the minimal projections of the algebra a generates.

The paper's spectral decomposition of a normal a lives inside the
algebra: at finite dimension its atoms are exactly the minimal projections
of C*(a), and each lies in every MASA around a as a sum of that MASA's
rank-one projections. spectral_measure and minimal_projections both read
their atoms off one routine, so on degenerate normal elements (Hypothesis
is derandomized in conftest.py) the two agree atom for atom, and every
atom is its own face supremum in MASAs refined from three seeds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import lattice
from awkit.core import DEFAULT_TOL, AlgebraElement, operator_norm
from awkit.lattice import (
    CLOSURE_RESIDUAL_TOL,
    Subalgebra,
    generate_masa,
    minimal_projections,
)
from awkit.sampling import haar_unitary_block
from awkit.spectral import spectral_measure

POOL = (1.0, -0.5, 2j, 0.7 - 0.7j)


@st.composite
def degenerate_normal(draw):
    """U diag(lambda) U* per block, 1-2 blocks of dimension 1-5, lambda from
    four pool points, so most points repeat."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for n in dims:
        vals = np.array([POOL[draw(st.integers(0, 3))] for _ in range(n)])
        u = haar_unitary_block(n, rng)
        blocks.append((u * vals) @ u.conj().T)
    return AlgebraElement(blocks)


@settings(max_examples=60)
@given(a=degenerate_normal(), seeds=st.lists(st.integers(0, 1000), min_size=3, max_size=3))
def test_spectral_atoms_are_the_minimal_projections_inside_every_masa(a, seeds):
    projections = list(spectral_measure(a).atoms.values())
    minimal = [q.element for q in minimal_projections(Subalgebra.from_generators([a]))]
    assert len(projections) == len(minimal)
    # distinct atoms lie 1 apart, so each is near exactly one projection
    for p in projections:
        assert min(operator_norm(p.element - q) for q in minimal) <= CLOSURE_RESIDUAL_TOL
    for seed in seeds:
        stacks = lattice._rank_one_stacks(generate_masa([a], seed), DEFAULT_TOL)
        for p, s in zip(projections, lattice._face_suprema(projections, stacks, DEFAULT_TOL)):
            assert operator_norm(s - p.element) <= CLOSURE_RESIDUAL_TOL
