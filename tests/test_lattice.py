"""Projection lattice tests: suprema, annihilators, MASAs, closures."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awkit.core import (
    DEFAULT_TOL,
    AlgebraElement,
    Projection,
    ToleranceConfig,
    adjoint,
    frobenius_norm,
    loewner_leq,
    operator_norm,
    range_projection,
)
from awkit.errors import (
    NotCommuting,
    NotContained,
    NotNormal,
    PostconditionFailed,
    SignatureMismatch,
)
from awkit.lattice import (
    CLOSURE_RESIDUAL_TOL,
    SPAN_ANGLE_TOL,
    Subalgebra,
    _vec,
    closure_correspondence,
    generate_masa,
    minimal_projections,
    monotone_closure,
    principal_angles,
    relative_commutant,
    spans_equal,
)
from awkit.sampling import haar_unitary_block


def el(*blocks):
    return AlgebraElement([np.array(b, dtype=complex) for b in blocks])


def diag_el(*vals_per_block):
    return AlgebraElement([np.diag(np.array(v, dtype=complex)) for v in vals_per_block])


# --- suprema and annihilators ---------------------------------------------------
# In finite dimension the supremum of a family of projections is the range
# projection of their sum, and the largest projection annihilating a family of
# positive elements is 1 minus the range projection of theirs.


def _sup_projections(ps):
    total = ps[0].element
    for p in ps[1:]:
        total = total + p.element
    return range_projection(total)


def _max_annihilator(fam):
    total = fam[0]
    for s in fam[1:]:
        total = total + s
    return AlgebraElement.identity(total.signature) - range_projection(total).element


def test_sup_projections_frozen_examples():
    p1 = Projection(diag_el([1, 0, 0]))
    p2 = Projection(diag_el([0, 1, 0]))
    assert np.allclose(
        _sup_projections([p1, p2]).element.blocks[0], np.diag([1.0, 1.0, 0.0])
    )
    assert _sup_projections([p1]).element == p1.element
    # sum of diag(1,0) and the rank-1 at (1,1)/sqrt(2) has rank 2
    q = Projection(el([[0.5, 0.5], [0.5, 0.5]]))
    r = Projection(diag_el([1, 0]))
    assert np.allclose(
        _sup_projections([r, q]).element.blocks[0], np.eye(2), atol=1e-12
    )


def test_sup_projections_properties():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        u = haar_unitary_block(n, rng)
        ps = []
        for _ in range(3):
            mask = rng.integers(0, 2, size=n).astype(float)
            m = (u * mask) @ u.conj().T
            ps.append(Projection(el(0.5 * (m + m.conj().T))))
        s = _sup_projections(ps)
        assert operator_norm(_sup_projections([s]).element - s.element) <= 1e-12  # idempotent
        s_rev = _sup_projections(list(reversed(ps)))
        assert operator_norm(s.element - s_rev.element) <= 1e-9
        for p in ps:
            assert loewner_leq(p.element, s.element)
        extra = Projection(el(u[:, :1] @ u[:, :1].conj().T))
        bigger = _sup_projections(ps + [extra])
        assert loewner_leq(s.element, bigger.element)


def test_max_annihilator_frozen_examples():
    q = _max_annihilator([diag_el([1, 0, 0])])
    assert np.allclose(q.blocks[0], np.diag([0.0, 1.0, 1.0]))
    one = AlgebraElement.identity((3,))
    assert _max_annihilator([one]) == AlgebraElement.zeros((3,))
    # orthogonal complement of the rank-1 range of [[1,1],[1,1]]
    q = _max_annihilator([el([[1, 1], [1, 1]])])
    assert np.allclose(q.blocks[0], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_max_annihilator_kills_family_and_is_maximal():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        fam = []
        for _ in range(2):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g[:, : n // 2] = 0  # force shared kernel occasionally
            fam.append(el(g.conj().T @ g))
        q = _max_annihilator(fam)
        for s in fam:
            assert operator_norm(q * s) <= 1e-10 * (1 + operator_norm(s))
        # any projection annihilating the family lies under the projection
        # onto the common kernel, read off an SVD of the stacked members
        stacked = np.vstack([s.blocks[0] for s in fam])
        _, sv, vh = np.linalg.svd(stacked)
        null = vh[int(np.sum(sv > 1e-9 * max(1.0, sv[0]))) :].conj().T
        kernel = el(null @ null.conj().T)
        assert loewner_leq(kernel, q)
        assert operator_norm(q - kernel) <= 1e-9


# --- subalgebras and MASAs ------------------------------------------------------


def test_from_generators_closes_and_contains_identity():
    g = el([[0, 1], [0, 0]])
    s = Subalgebra.from_generators([g])
    # 1, g, g*, g g*, g* g span all of M_2
    assert s.dim == 4
    assert s.contains(AlgebraElement.identity((2,)))
    for a in s.basis:
        for b in s.basis:
            assert s.contains(a * b)
        assert s.contains(adjoint(a))


def test_from_generators_rejects_mixed_signatures():
    gens = [AlgebraElement.identity((2,)), AlgebraElement.identity((3,))]
    with pytest.raises(SignatureMismatch, match=r"signatures differ: \(2,\) vs \(3,\)"):
        Subalgebra.from_generators(gens)


def test_membership_rejects_element_of_another_signature():
    s = Subalgebra.from_generators([diag_el([1, 2])])
    with pytest.raises(SignatureMismatch, match=r"signatures differ: \(2,\) vs \(2, 1\)"):
        s.contains(AlgebraElement.identity((2, 1)))


def test_generate_masa_dimension_forced():
    one = AlgebraElement.identity((2,))
    d = generate_masa([one], 0)
    assert d.dim == 2
    assert d.is_masa()


def test_generate_masa_eigenspace_refinement():
    g = diag_el([1, 1, 2])
    d = generate_masa([g], 7)
    assert d.dim == 3
    assert d.contains(g)
    # refinement of the degenerate eigenspace keeps e3 fixed
    assert d.contains(diag_el([0, 0, 1]))


def test_generate_masa_relative_commutant_is_itself():
    # oracle: independent null-space solve in plain numpy
    rng = np.random.default_rng(11)
    for sig in [(3,), (2, 2)]:
        u_blocks = [haar_unitary_block(n, rng) for n in sig]
        vals = [np.diag([1.0, 1.0, 2.0][: n]) for n in sig]
        g = AlgebraElement([u @ v @ u.conj().T for u, v in zip(u_blocks, vals)])
        d = generate_masa([g], 13)
        c = relative_commutant(d)
        assert c.dim == d.dim
        assert spans_equal(c, d)

        # independent oracle per block: stack [x, b] = 0 constraints
        for k, n in enumerate(sig):
            rows = []
            eye = np.eye(n)
            for b in d.basis:
                bk = b.blocks[k]
                rows.append(np.kron(bk, eye) - np.kron(eye, bk.T))
            null = np.linalg.svd(np.vstack(rows))[2]
            sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
            dim_null = int(np.sum(sv <= 1e-10 * sv[0])) + (n * n - len(sv) if len(sv) < n * n else 0)
            assert dim_null == n  # diagonal algebra in that block


def test_generate_masa_rejects_bad_generators():
    with pytest.raises(NotNormal):
        generate_masa([el([[0, 1], [0, 0]])], 0)
    x = el([[0, 1], [1, 0]])
    z = diag_el([1, -1])
    with pytest.raises(NotCommuting):
        generate_masa([x, z], 0)


def test_minimal_projections_of_commutative_algebra():
    b = Subalgebra.from_generators([diag_el([1, 1, 2])])
    assert b.dim == 2
    ps = minimal_projections(b)
    assert len(ps) == 2
    mats = sorted([p.element.blocks[0] for p in ps], key=lambda m: m[0, 0].real)
    assert np.allclose(mats[0], np.diag([0.0, 0.0, 1.0]), atol=1e-10)
    assert np.allclose(mats[1], np.diag([1.0, 1.0, 0.0]), atol=1e-10)


def test_minimal_projections_span_blocks():
    # scalars in C + C have a single minimal projection: the identity
    s = Subalgebra.from_generators([AlgebraElement.identity((1, 1))])
    ps = minimal_projections(s)
    assert len(ps) == 1
    assert ps[0].element == AlgebraElement.identity((1, 1))


def test_minimal_projection_count_postcondition():
    # the value tuples of the two basis elements' atoms, sqrt(2) apart,
    # cluster into one at a gap of cluster_tol = 1.5
    t = ToleranceConfig(rank_cutoff=0.5, cluster_tol=1.5)
    b = Subalgebra.from_generators([el([[1.0]], [[2.0j]])], t)
    assert b.dim == 2
    with pytest.raises(PostconditionFailed, match="found 1 minimal projections in a 2-dim"):
        minimal_projections(b, t)


def test_of_normal_is_the_span_of_the_spectral_atoms():
    g = diag_el([1, 1, 2j], [2j])
    b = Subalgebra.of_normal(g)
    assert b.dim == 2
    # orthonormal basis e_i / sqrt(rank e_i), stored commutative with the
    # atoms, largest block traces first, as its minimal projections
    gram = np.array([[np.vdot(_vec(x), _vec(y)) for y in b.basis] for x in b.basis])
    assert np.allclose(gram, np.eye(2), atol=1e-15)
    assert b._memo[("is_commutative", DEFAULT_TOL)] is True
    ps = minimal_projections(b)
    assert [p.element for p in ps] == [diag_el([1, 1, 0], [0]), diag_el([0, 0, 1], [1])]
    assert spans_equal(b, Subalgebra.from_generators([g]))


def test_of_normal_rejects_what_its_atoms_do_not_span():
    with pytest.raises(NotNormal):
        Subalgebra.of_normal(el([[0, 1], [0, 0]]))
    # 1 and 1 + 1e-8 merge into one atom at the point 1 + 5e-9, which misses
    # both by 5e-9, above 1e-9 (1 + ||g||) = 3e-9
    with pytest.raises(PostconditionFailed, match="span of its spectral atoms"):
        Subalgebra.of_normal(diag_el([1, 1 + 1e-8, 2]))
    assert Subalgebra.of_normal(diag_el([1, 1 + 4e-9, 2])).dim == 2


# --- monotone closure -----------------------------------------------------------


def test_closure_fixed_point_examples():
    b = Subalgebra.from_generators([diag_el([1, 1, 2])])
    d = generate_masa([diag_el([1, 1, 2])], 0)
    closed = monotone_closure(b, d)
    assert closed.dim == 2
    assert spans_equal(closed, b)

    assert spans_equal(monotone_closure(d, d), d)

    scalars = Subalgebra.from_generators([AlgebraElement.identity((3,))])
    assert spans_equal(monotone_closure(scalars, d), scalars)


def test_closure_rejects_non_contained():
    b = Subalgebra.from_generators([el([[0, 1], [1, 0]])])
    d = generate_masa([diag_el([1, -1])], 0)
    with pytest.raises(NotContained):
        monotone_closure(b, d)


def test_correspondence_rotated_masa_is_identity():
    # D2 diagonalizes after rotating span{e1,e2} by pi/4; both suprema equal
    # the joint eigenprojection diag(1,1,0)
    g = diag_el([1, 1, 2])
    b = Subalgebra.from_generators([g])
    d = generate_masa([g], 1)
    d2 = generate_masa([g], 2)
    assert not spans_equal(d, d2)  # refinements differ inside the eigenspace
    corr = closure_correspondence(b, d, d2)
    assert len(corr.pairs) == 2  # the face suprema of the 2 minimal projections
    for p, q in corr.pairs:
        assert operator_norm(p.element - q.element) <= 1e-9
    # the face supremum diag(1,1,0) appears among the pairs
    found = any(
        np.allclose(p.element.blocks[0], np.diag([1.0, 1.0, 0.0]), atol=1e-9)
        for p, _ in corr.pairs
    )
    assert found


def test_correspondence_explicit_rotation():
    # second MASA built by hand: rotate span{e1, e2} by pi/4 and keep e3
    g = diag_el([1, 1, 2])
    b = Subalgebra.from_generators([g])
    d = generate_masa([g], 0)
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    vecs = [np.array([c, s, 0.0]), np.array([-s, c, 0.0]), np.array([0.0, 0.0, 1.0])]
    basis = [el(np.outer(v, v.conj())) for v in vecs]
    d2 = Subalgebra((3,), tuple(basis))
    assert d2.is_masa()
    corr = closure_correspondence(b, d, d2)
    for p, q in corr.pairs:
        assert operator_norm(p.element - q.element) <= 1e-9


def test_masa_is_generated_by_its_projections():
    # maximal commutative subalgebras are spanned by their projections
    d = generate_masa([diag_el([1, 1, 2])], 9)
    ps = minimal_projections(d)
    regenerated = Subalgebra.from_generators([p.element for p in ps])
    assert spans_equal(regenerated, d)


def test_correspondence_trivial_when_masas_equal():
    d = generate_masa([diag_el([1, 2, 3])], 0)
    corr = closure_correspondence(d, d, d)
    assert len(corr.pairs) == 3
    for p, q in corr.pairs:
        assert p.element == q.element or operator_norm(p.element - q.element) <= 1e-9


def test_correspondence_preserves_products():
    g = diag_el([1, 1, 2, 3])
    b = Subalgebra.from_generators([g])
    d = generate_masa([g], 3)
    d2 = generate_masa([g], 4)
    corr = closure_correspondence(b, d, d2)
    pairs = list(corr.pairs)
    for p1, q1 in pairs:
        for p2, q2 in pairs:
            lhs = p1.element * p2.element
            rhs = q1.element * q2.element
            assert operator_norm(lhs - rhs) <= 1e-8


def test_principal_angles_detect_difference():
    d = generate_masa([diag_el([1, 1, 2])], 1)
    d2 = generate_masa([diag_el([1, 1, 2])], 2)
    assert spans_equal(d, d)
    angles = principal_angles(d, d2)
    assert float(angles[-1]) > 1e-3


def test_correspondence_carries_closures_and_delta():
    g = diag_el([1, 1, 2, 3], [2, 2])
    b = Subalgebra.from_generators([g])
    d = generate_masa([g], 5)
    d2 = generate_masa([g], 6)
    corr = closure_correspondence(b, d, d2)
    c1, c2 = corr.closures
    assert c1 is not c2  # computed once in each MASA
    assert spans_equal(c1, monotone_closure(b, d))
    assert spans_equal(c2, monotone_closure(b, d2))
    assert corr.delta == max(operator_norm(p.element - q.element) for p, q in corr.pairs)
    assert corr.delta <= 1e-9


def test_correspondence_residuals_and_accept_rule():
    g = diag_el([1, 1, 2, 3], [2, 2])
    b = Subalgebra.from_generators([g])
    corr = closure_correspondence(b, generate_masa([g], 5), generate_masa([g], 6))
    c1, c2 = corr.closures
    assert corr.residuals == {
        "closure_span_angle": float(principal_angles(c1, c2)[-1]),
        "correspondence_delta": corr.delta,
    }
    assert corr.accepted
    # the delta bound is CLOSURE_RESIDUAL_TOL, inclusive
    assert replace(corr, delta=CLOSURE_RESIDUAL_TOL).accepted
    assert not replace(corr, delta=2.0 * CLOSURE_RESIDUAL_TOL).accepted
    # closures of one dimension but different spans are declined
    other = Subalgebra.from_generators([diag_el([1, 2, 2, 3], [2, 2])])
    assert other.dim == c1.dim
    apart = replace(corr, closures=(c1, other))
    assert not apart.accepted
    assert apart.residuals["closure_span_angle"] > SPAN_ANGLE_TOL


@pytest.mark.parametrize("slack", [1e-10, 0.3, 0.6, 0.9])
def test_correspondence_faces_need_no_slack(slack):
    # a rank-one minimal projection e orthogonal to p has ||e - e p||_F = 1,
    # within any slack of 1/2 or more; the face test must still leave it out
    g = diag_el([1, 1, 2, 3], [2, 2])
    b = Subalgebra.from_generators([g])
    t = ToleranceConfig(pos_slack=slack)
    corr = closure_correspondence(b, generate_masa([g], 5, t), generate_masa([g], 6, t), t)
    assert corr.delta <= 1e-12
    assert corr.accepted


@settings(max_examples=20)
@given(
    points=st.lists(st.lists(st.integers(0, 23), min_size=1, max_size=8), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(points=[list(range(8 * k, 8 * k + 8)) for k in range(3)], seed=0)
def test_closure_dimension_counts_distinct_eigenvalues(points, seed):
    # g = U diag(lambda) U* per block, lambda among 24 points of the unit
    # circle: b's minimal projections are g's spectral projections, one per
    # distinct eigenvalue across the blocks, and so are the face suprema
    # paired in each MASA
    rng = np.random.default_rng(seed)
    blocks = []
    for idx in points:
        u = haar_unitary_block(len(idx), rng)
        blocks.append((u * np.exp(2j * np.pi * np.array(idx) / 24)) @ u.conj().T)
    g = AlgebraElement(blocks)
    b = Subalgebra.from_generators([g])
    corr = closure_correspondence(b, generate_masa([g], 1), generate_masa([g], 2))
    distinct = len({v for idx in points for v in idx})
    assert [c.dim for c in corr.closures] == [distinct, distinct]
    assert len(corr.pairs) == distinct
    assert corr.accepted
