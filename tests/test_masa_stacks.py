"""The MASA checks on stacks of rank-one projections against the
element-by-element bodies they replaced.

A MASA is handled as one (n_k, n_k, n_k) stack of its rank-one projections
per block position k. Three earlier bodies are kept verbatim here as named
oracles:

- ``_reference_commutes``, the body of ``Subalgebra._commutes``: every pair
  of basis elements commutes within 2 pos_slack, formed as elements. It was
  generate_masa's postcondition and is_masa's test on a MASA.
- ``_reference_contains_subalgebra``, ``Subalgebra.contains_subalgebra``
  with the ``contains``, ``membership_residual`` and ``project`` it called:
  each basis element of b is projected on the MASA's vectorized basis.
- ``_reference_require_atom_sums``, the face suprema of b's minimal
  projections, summed element by element over the overlaps ``_overlap``
  measures.

On degenerate normal generators of 1-2 blocks of dimension 2-8, seeded
MASAs around them, conjugated by a unitary near 1 and with one projection
skewed off its partners, and slacks down to 1e-16, the stacked rules must
give the oracles' verdicts, and the face suprema must agree within SUM_TOL
entrywise, or both raise the same exception.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import lattice
from awkit.core import (
    DEFAULT_TOL,
    AlgebraElement,
    Projection,
    ToleranceConfig,
    _tol,
    frobenius_norm,
    joint_eigenspaces,
)
from awkit.errors import NotContained
from awkit.lattice import Subalgebra, _unvec, _vec, generate_masa, minimal_projections
from awkit.sampling import haar_unitary_block

# largest entrywise difference of a face supremum from the oracle's
SUM_TOL = 1e-12

# --- the earlier bodies, verbatim -----------------------------------------------


def _reference_commutes(s, t):
    for i, a in enumerate(s.basis):
        for b in s.basis[i + 1 :]:
            if frobenius_norm(a * b - b * a) > t.pos_slack * 2.0:
                return False
    return True


def _project(s, x):
    m = s._basis_matrix()
    coeff = m.conj() @ _vec(x)
    return _unvec(coeff @ m, s.signature)


def _contains(s, x, tol=None):
    t = _tol(tol)
    return frobenius_norm(x - _project(s, x)) <= t.pos_slack * (1.0 + frobenius_norm(x))


def _reference_contains_subalgebra(s, other, tol=None):
    return all(_contains(s, b, tol) for b in other.basis)


def _overlap(x, y):
    """Re tr(x y), summed over the blocks."""
    return sum(float(np.trace(a @ b).real) for a, b in zip(x.blocks, y.blocks))


def _reference_require_atom_sums(minimal, masa_minimal, t):
    """The face suprema s_1..s_m of b's minimal projections e_1..e_m in the
    MASA: s_i sums the MASA's rank-one projections that e_i overlaps by more
    than 1/2. Raise NotContained unless each s_i is e_i within pos_slack (1 +
    ||e_i||_F)."""
    sums = []
    for e in minimal:
        recover = AlgebraElement.zeros(e.element.signature)
        for f in masa_minimal:
            if _overlap(e.element, f.element) > 0.5:
                recover = recover + f.element
        if frobenius_norm(recover - e.element) > t.pos_slack * (
            1.0 + frobenius_norm(e.element)
        ):
            raise NotContained(
                "a minimal projection is not a sum of the MASA's rank-one projections"
            )
        sums.append(recover)
    return sums


# --- inputs ---------------------------------------------------------------------

POOL = (1.0, -0.5, 2j, 0.7 - 0.7j)


def _degenerate(picks, rng):
    """U diag(lambda) U* per block, lambda the POOL points of the indices in
    picks, one list per block, with the first point repeated."""
    blocks = []
    for idx in picks:
        vals = np.array(POOL)[idx]
        vals[1] = vals[0]
        u = haar_unitary_block(len(idx), rng)
        blocks.append((u * vals) @ u.conj().T)
    return AlgebraElement(blocks)


@st.composite
def degenerate_normal(draw):
    dims = draw(st.lists(st.integers(2, 8), min_size=1, max_size=2))
    picks = [draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for n in dims]
    return _degenerate(picks, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def _near_one(n, rng, angle):
    """exp(i angle h) for a random Hermitian h."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(a + a.conj().T)
    return (v * np.exp(1j * angle * w)) @ v.conj().T


def _candidate(masa, rng, tilt, skew):
    """The MASA's rank-one projections, conjugated by a unitary tilt away
    from 1 per block, with the first projection of the first block turned
    by the angle skew toward the second: its stacks and the subalgebra its
    slices span as elements."""
    stacks = []
    for p in lattice._rank_one_stacks(masa, DEFAULT_TOL):
        u = _near_one(p.shape[-1], rng, tilt)
        stacks.append(u @ p @ u.conj().T)
    # p_0 onto cos v_0 + sin v_1, for unit vectors v_0, v_1 of p_0, p_1
    p = stacks[0]
    v0 = p[0][:, np.argmax(np.abs(np.diagonal(p[0])))]
    v1 = p[1][:, np.argmax(np.abs(np.diagonal(p[1])))]
    v0, v1 = v0 / np.linalg.norm(v0), v1 / np.linalg.norm(v1)
    v = np.cos(skew) * v0 + np.sin(skew) * v1
    v = v / np.linalg.norm(v)
    p[0] = np.outer(v, v.conj())
    sig = masa.signature
    elements = [
        AlgebraElement([q if j == k else np.zeros((n, n)) for j, n in enumerate(sig)])
        for k, stack in enumerate(stacks)
        for q in stack
    ]
    return stacks, Subalgebra(sig, tuple(elements))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


# --- comparison -----------------------------------------------------------------


@settings(max_examples=80)
@given(
    g=degenerate_normal(),
    seed=st.integers(0, 2**32 - 1),
    tilt=st.sampled_from([0.0, 1e-12, 1e-6, 0.3]),
    skew=st.sampled_from([0.0, 1e-12, 1e-6, 0.3]),
    slack=st.sampled_from([None, 1e-16, 1e-12, 1e-6]),
)
def test_stacked_checks_match_element_bodies(g, seed, tilt, skew, slack):
    t = _tol(None if slack is None else ToleranceConfig(pos_slack=slack))
    b = Subalgebra.from_generators([g])
    minimal = minimal_projections(b)
    rng = np.random.default_rng(seed)
    stacks, cand = _candidate(generate_masa([g], seed % 1000), rng, tilt, skew)

    assert lattice._stacks_commute(stacks, t) == _reference_commutes(cand, t)
    assert lattice._stacks_contain(stacks, b, t) == _reference_contains_subalgebra(cand, b, t)

    masa_minimal = [Projection._of(e) for e in cand.basis]
    want = _outcome(_reference_require_atom_sums, minimal, masa_minimal, t)
    got = _outcome(lattice._face_suprema, minimal, stacks, t)
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for s, r in zip(got, want):
        assert s.signature == r.signature
        assert max(float(np.abs(x - y).max()) for x, y in zip(s.blocks, r.blocks)) <= SUM_TOL


def _fixed(seed):
    """A degenerate normal element of signature (5, 3)."""
    rng = np.random.default_rng(seed)
    return _degenerate([rng.integers(0, 4, n) for n in (5, 3)], rng)


@pytest.mark.parametrize("seed", range(4))
def test_stored_stacks_are_the_ones_read_off_minimal_projections(seed):
    # a copy of the MASA without its memo reads its stacks off its minimal
    # projections, in their sorted order: the same slices within 1e-12
    d = generate_masa([_fixed(seed)], seed)
    stored = lattice._rank_one_stacks(d, DEFAULT_TOL)
    read = lattice._rank_one_stacks(Subalgebra(d.signature, d.basis), DEFAULT_TOL)
    for p, q in zip(stored, read):
        assert p.shape == q.shape == (p.shape[-1],) * 3
        assert not p.flags.writeable and not q.flags.writeable
        gaps = np.abs(p[:, None] - q[None, :]).max(axis=(-2, -1))
        assert sorted(gaps.argmin(axis=1).tolist()) == list(range(len(p)))
        assert gaps.min(axis=1).max() <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_generated_masa_passes_the_element_commutation_rule(seed):
    # generate_masa stores is_commutative, so is_masa on its MASA reads the
    # memo; the element rule itself still holds on the MASA it returns, and
    # at a slack rounding can fail it agrees with the stacked rule
    d = generate_masa([_fixed(seed)], seed)
    assert Subalgebra._commutes(d, DEFAULT_TOL)
    tight = ToleranceConfig(pos_slack=1e-16)
    stacks = lattice._rank_one_stacks(d, DEFAULT_TOL)
    assert Subalgebra._commutes(d, tight) == lattice._stacks_commute(stacks, tight)


def test_masas_of_one_element_share_one_joint_eigensolve(monkeypatch):
    g = _fixed(7)
    fresh = joint_eigenspaces([g])
    calls = []

    def counted(family, tol=None):
        calls.append(len(family))
        return joint_eigenspaces(family, tol)

    monkeypatch.setattr(lattice, "joint_eigenspaces", counted)
    d1, d2 = generate_masa([g], 1), generate_masa([g], 2)
    assert calls == [1]
    # the refinement worked on copies: the shared bases are read-only and
    # still the solve's, and the two MASAs differ
    shared = g._memo[("joint_eigenspaces", DEFAULT_TOL)]
    for (basis, groups), (want, want_groups) in zip(shared, fresh):
        assert not basis.flags.writeable
        assert np.array_equal(basis, want)
        assert [i.tolist() for i in groups] == [i.tolist() for i in want_groups]
    assert not all(np.array_equal(x, y) for x, y in zip(d1.basis[0].blocks, d2.basis[0].blocks))
