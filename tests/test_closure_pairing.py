"""The atom pairing of the closure correspondence against the loop it
replaced.

``_reference_closure_correspondence`` is an earlier body of
``awkit.lattice.closure_correspondence``, kept verbatim with a local copy
of its ``_subset_sums`` as a named oracle. It took the range projection of
each of b's minimal projections and paired each of the 2^m projections p of
the closure with the range projection of the sum of those under p
(``sup_projections``), an eigensolve per p. The correspondence now pairs
the m face suprema of b's minimal projections, computed in each MASA; every
projection of the closure is a sum of distinct ones.

On the degenerate normal generators, MASA seeds and slacks of
``test_closure_once.py`` (Hypothesis is derandomized in conftest.py), both
must give the same verdict, or raise the same exception with the same
message. The new pairs, summed over the minimal projections the oracle
finds under each of its p, must reproduce that p and its partner within
PAIR_TOL, and the deltas agree within PAIR_TOL. A second MASA whose face
suprema are tilted away from the first's is rejected. Under unitary
conjugation of the generator the correspondence is accepted with the same
closure dimension.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import lattice
from awkit.core import (
    AlgebraElement,
    Projection,
    ToleranceConfig,
    _remember,
    _tol,
    adjoint,
    operator_norm,
    range_projection,
)
from awkit.errors import PostconditionFailed
from awkit.lattice import (
    CLOSURE_RESIDUAL_TOL,
    ClosureCorrespondence,
    Subalgebra,
    closure_correspondence,
    generate_masa,
    minimal_projections,
    monotone_closure,
    spans_equal,
    sup_projections,
)
from awkit.sampling import haar_unitary_block

# largest entrywise change of a partner, and change of delta, allowed
PAIR_TOL = 1e-12

# --- the earlier body, verbatim -------------------------------------------------


def _overlap(x, y):
    """Re tr(x y), summed over the blocks."""
    return sum(float(np.trace(a @ b).real) for a, b in zip(x.blocks, y.blocks))


def _subset_sums(ps, signature):
    """The sum of every subset of ps, subset j holding ps[i] for each set bit
    i of j, each summed from zero in increasing i."""
    sums = []
    for j_mask in range(1 << len(ps)):
        total = AlgebraElement.zeros(signature)
        for i, p in enumerate(ps):
            if j_mask >> i & 1:
                total = total + p.element
        sums.append(total)
    return sums


def _reference_closure_correspondence(b, masa1, masa2, tol=None):
    """Pair every projection of the closure in the first MASA with the
    supremum of its face computed inside the second MASA.

    Both MASAs are checked as monotone_closure checks them. The closure does
    not depend on the MASA: every face supremum is a sum of b's minimal
    projections, so the two closures are the one closure memoized on b. The
    pairing, the identity map at finite dimension, is verified within
    pos_slack on every one of its 2^m projections.
    """
    t = _tol(tol)
    c1 = monotone_closure(b, masa1, t)
    c2 = monotone_closure(b, masa2, t)
    face_gens = [
        (e.element, e.rank(), range_projection(e.element, t))
        for e in minimal_projections(b, t)
    ]
    zero = AlgebraElement.zeros(b.signature)
    pairs = []
    delta = 0.0
    for p in _subset_sums(minimal_projections(c1, t), b.signature):
        # e and p commute and p sums minimal projections, so tr(e p) is
        # tr(e) when e <= p and 0 otherwise, up to roundoff
        face = [rp for e, rank, rp in face_gens if 2.0 * _overlap(e, p) > rank]
        partner = sup_projections(face, t) if face else Projection._of(zero)
        gap = operator_norm(p - partner.element, t)
        if gap > t.pos_slack * 2.0:
            raise PostconditionFailed("closure correspondence is not the identity map")
        delta = max(delta, gap)
        pairs.append((Projection._of(p), partner))
    return ClosureCorrespondence(pairs=tuple(pairs), closures=(c1, c2), delta=delta)


# --- comparison -----------------------------------------------------------------


def _outcome(correspondence, b, masa1, masa2, tol):
    try:
        return correspondence(b, masa1, masa2, tol)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _close(x, y):
    return all(
        float(np.abs(a - c).max(initial=0.0)) <= PAIR_TOL for a, c in zip(x.blocks, y.blocks)
    )


def _assert_same(b, masa1, masa2, tol=None):
    want = _outcome(_reference_closure_correspondence, b, masa1, masa2, tol)
    got = _outcome(closure_correspondence, b, masa1, masa2, tol)
    if isinstance(want, tuple):
        assert got == want
        return None
    assert isinstance(got, ClosureCorrespondence)
    assert got.accepted == want.accepted
    minimal = minimal_projections(b, tol)
    assert len(got.pairs) == len(minimal) and len(want.pairs) == 2 ** len(minimal)
    for p, partner in want.pairs:
        # the oracle's face test: b's minimal projections under p
        under = [2.0 * _overlap(e.element, p.element) > e.rank() for e in minimal]
        sums = [AlgebraElement.zeros(b.signature) for _ in range(2)]
        for inside, pair in zip(under, got.pairs):
            if inside:
                sums = [total + q.element for total, q in zip(sums, pair)]
        assert _close(sums[0], p.element) and _close(sums[1], partner.element)
    assert abs(got.delta - want.delta) <= PAIR_TOL
    return got


def diag_el(*vals_per_block):
    return AlgebraElement([np.diag(np.array(v, dtype=complex)) for v in vals_per_block])


POOL = (1.0, -0.5, 2j, 0.7 - 0.7j)


@st.composite
def degenerate_normal(draw):
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for n in dims:
        vals = np.array([POOL[draw(st.integers(0, 3))] for _ in range(n)])
        u = haar_unitary_block(n, rng)
        blocks.append((u * vals) @ u.conj().T)
    return AlgebraElement(blocks)


@settings(max_examples=60)
@given(
    g=degenerate_normal(),
    seeds=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
    slack=st.sampled_from([None, 1e-6, 1e-12, 0.3]),
)
def test_pairing_matches_range_projection_body(g, seeds, slack):
    tol = None if slack is None else ToleranceConfig(pos_slack=slack)
    b = Subalgebra.from_generators([g])
    _assert_same(b, *(generate_masa([g], seed) for seed in seeds), tol)


@settings(max_examples=40)
@given(
    g=degenerate_normal(),
    v_seed=st.integers(0, 2**32 - 1),
    seeds=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
)
def test_correspondence_under_unitary_conjugation(g, v_seed, seeds):
    # V g V* generates the conjugate subalgebra: its closure has the same
    # dimension m, and the correspondence pairs its m face suprema
    rng = np.random.default_rng(v_seed)
    v = AlgebraElement([haar_unitary_block(n, rng) for n in g.signature])
    dims = []
    for x in (g, v * g * adjoint(v)):
        corr = closure_correspondence(
            Subalgebra.from_generators([x]), *(generate_masa([x], s) for s in seeds)
        )
        dims.append(corr.closures[0].dim)
        assert corr.accepted
        assert len(corr.pairs) == dims[-1]
        assert corr.delta <= CLOSURE_RESIDUAL_TOL
    assert dims[0] == dims[1]


def _rotated_degenerate():
    rng = np.random.default_rng(11)
    blocks = []
    for vals in ([1.0, 1.0, 2j, 2j, -1.0], [1.0, 2j, 2j]):
        u = haar_unitary_block(len(vals), rng)
        blocks.append((u * np.array(vals)) @ u.conj().T)
    return AlgebraElement(blocks)


@pytest.mark.parametrize("slack", [1e-20, 1e-16, 1e-12, 1e-10, 0.3, 0.9])
def test_pairing_matches_on_fixed_generators(slack):
    # below roundoff the MASA check fails in both; from 1e-12 up the oracle
    # pairs the 2^3 projections and the correspondence the 3 face suprema
    g = _rotated_degenerate()
    t = ToleranceConfig(pos_slack=slack)
    corr = _assert_same(Subalgebra.from_generators([g]), *(generate_masa([g], s) for s in (1, 2)), t)
    assert (corr is None) == (slack < 1e-12)
    if corr is not None:
        assert len(corr.pairs) == 3 and corr.accepted


def test_pairing_matches_when_masas_equal():
    d = generate_masa([diag_el([1, 2, 3])], 0)
    corr = _assert_same(d, d, d)
    assert len(corr.pairs) == 3 and corr.delta <= CLOSURE_RESIDUAL_TOL


def _tilt(stacks, rng, angle=1e-6):
    """u p u* for each (k, n, n) stack p of blocks at one block position,
    for a unitary u = exp(i angle h) per position with h Hermitian."""
    out = []
    for p in stacks:
        n = p.shape[-1]
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, v = np.linalg.eigh(a + a.conj().T)
        u = (v * np.exp(1j * angle * w)) @ v.conj().T
        out.append(u @ p @ u.conj().T)
    return tuple(out)


def test_pairing_still_checks_the_closure_against_b():
    # the second MASA's stored rank-one projections, tilted by one unitary
    # near 1, are still orthogonal projections summing to 1 and fall in the
    # same faces; their sums lie within the atom check's slack of b's
    # minimal projections, but the closure they generate is tilted about
    # 1e-6 from b, above SPAN_ANGLE_TOL. The closure in the first MASA,
    # untouched, is accepted.
    g = _rotated_degenerate()
    b = Subalgebra.from_generators([g])
    t = ToleranceConfig(pos_slack=1e-4)
    d1, d2 = generate_masa([g], 1, t), generate_masa([g], 2, t)
    tilted = _tilt(lattice._rank_one_stacks(d2, t), np.random.default_rng(0))
    _remember(d2, "rank_one_stacks", t, tilted)
    assert monotone_closure(b, d1, t).dim == 3
    assert _assert_same(b, d1, d2, t) is None
    with pytest.raises(PostconditionFailed, match="moved at finite dimension"):
        closure_correspondence(b, d1, d2, t)
    with pytest.raises(PostconditionFailed, match="moved at finite dimension"):
        closure_correspondence(b, d2, d1, t)


def test_pairing_rejects_a_perturbed_supremum(monkeypatch):
    # one face supremum of the second MASA scaled by 1 + 1e-3: the closure
    # it generates spans b, but its pair's gap is 1e-3
    g = _rotated_degenerate()
    b = Subalgebra.from_generators([g])
    d1, d2 = generate_masa([g], 1), generate_masa([g], 2)
    body = lattice._face_suprema

    def perturbed(minimal, stacks, t):
        sums = body(minimal, stacks, t)
        if stacks is lattice._rank_one_stacks(d2, t):
            sums[0] = 1.001 * sums[0]
        return sums

    monkeypatch.setattr(lattice, "_face_suprema", perturbed)
    assert spans_equal(monotone_closure(b, d2), b)
    with pytest.raises(PostconditionFailed, match="not the identity map"):
        closure_correspondence(b, d1, d2)
    assert closure_correspondence(b, d1, d1).delta == 0.0
