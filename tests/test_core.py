"""Core algebra tests: frozen hand-computed examples plus seeded property sweeps.

numpy.linalg routines serve as the independent oracle for the Jacobi-based
paths throughout.
"""

import math
from unittest import mock

import numpy as np
import pytest

from awkit import core
from awkit.core import (
    AlgebraElement,
    Projection,
    ToleranceConfig,
    adjoint,
    eigh_hermitian,
    frobenius_norm,
    is_self_adjoint,
    loewner_leq,
    operator_norm,
    positive_sqrt,
    range_projection,
    simultaneous_eigh,
)
from awkit.errors import (
    BadArgument,
    NonConvergence,
    NotPositive,
    NotSelfAdjoint,
    SignatureMismatch,
)
from awkit.sampling import haar_unitary_block, random_element, random_self_adjoint, random_signature


def el(*blocks):
    return AlgebraElement([np.array(b, dtype=complex) for b in blocks])


def test_element_validation():
    with pytest.raises(ValueError):
        AlgebraElement([])
    with pytest.raises(ValueError):
        el([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        el([[np.nan, 0], [0, 0]])
    with pytest.raises(ValueError):
        el([[np.inf, 0], [0, 0]])


def test_element_immutability():
    x = el([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0
    with pytest.raises(AttributeError):
        x.blocks = ()


def test_signature_mismatch_rejected():
    x = el([[1]])
    y = el([[1, 0], [0, 1]])
    with pytest.raises(SignatureMismatch):
        x + y
    with pytest.raises(SignatureMismatch):
        x * y


def test_identity_and_arithmetic():
    one = AlgebraElement.identity((2, 3))
    assert one.signature == (2, 3)
    x = random_element((2, 3), np.random.default_rng(7))
    assert one * x == x
    assert x * one == x
    assert (x - x) == AlgebraElement.zeros((2, 3))
    assert 2 * x == x + x


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(pos_slack=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(cluster_tol=1e-12, rank_cutoff=1e-10)
    for name in ("pos_slack", "cluster_tol", "rank_cutoff"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                ToleranceConfig(**{name: bad})


# --- adjoint -----------------------------------------------------------------


def test_adjoint_frozen_examples():
    x = el([[0, 1j], [0, 0]])
    expect = np.array([[0, 0], [-1j, 0]])
    assert np.array_equal(adjoint(x).blocks[0], expect)
    one = AlgebraElement.identity((3,))
    assert adjoint(one) == one


def test_adjoint_involution_and_antimultiplicativity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sig = random_signature(rng)
        x = random_element(sig, rng)
        y = random_element(sig, rng)
        assert adjoint(adjoint(x)) == x
        # oracle: plain numpy conjugate transposition, expanded directly
        lhs = adjoint(x * y)
        rhs_blocks = [
            (a @ b).conj().T for a, b in zip(x.blocks, y.blocks)
        ]
        scale = frobenius_norm(x) * frobenius_norm(y)
        for lb, rb in zip(lhs.blocks, rhs_blocks):
            assert np.abs(lb - rb).max() <= 1e-12 * scale
        # anti-multiplicativity through the library route as well
        assert frobenius_norm(lhs - adjoint(y) * adjoint(x)) <= 1e-12 * scale


# --- operator norm -----------------------------------------------------------


def test_operator_norm_frozen_examples():
    assert operator_norm(el(np.diag([1.0, -3.0]))) == pytest.approx(3.0, abs=1e-12)
    # singular values of [[0,2],[0,0]] are {2, 0}, by hand
    assert operator_norm(el([[0, 2], [0, 0]])) == pytest.approx(2.0, abs=1e-12)
    assert operator_norm(AlgebraElement.zeros((2, 2))) == 0.0


def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        sig = random_signature(rng)
        x = random_element(sig, rng)
        oracle = max(np.linalg.norm(b, 2) for b in x.blocks)
        assert operator_norm(x) == pytest.approx(oracle, rel=1e-11)


def test_cstar_identity():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = random_element(random_signature(rng), rng)
        n = operator_norm(x)
        assert abs(operator_norm(adjoint(x) * x) - n * n) <= 1e-9 * (1 + n * n)


# --- Loewner order -----------------------------------------------------------


def test_loewner_frozen_examples():
    assert loewner_leq(el(np.diag([1.0, 0.0])), el(np.diag([1.0, 1.0])))
    # 1 - [[0,1],[1,0]] has eigenvalues {0, 2}, by hand
    assert loewner_leq(el([[0, 1], [1, 0]]), AlgebraElement.identity((2,)))
    # difference has eigenvalue -1, by hand
    assert not loewner_leq(el(np.diag([2.0, 0.0])), el(np.diag([1.0, 1.0])))


def test_loewner_rejects_non_self_adjoint():
    with pytest.raises(NotSelfAdjoint):
        loewner_leq(el([[0, 1], [0, 0]]), AlgebraElement.identity((2,)))


def test_loewner_reflexive_transitive_antisymmetric():
    rng = np.random.default_rng(19)
    tol = ToleranceConfig()
    for _ in range(15):
        sig = random_signature(rng, max_blocks=2, dims=(1, 5))
        a = random_self_adjoint(sig, rng)
        bump1 = random_element(sig, rng)
        bump2 = random_element(sig, rng)
        b = a + adjoint(bump1) * bump1
        c = b + adjoint(bump2) * bump2
        assert loewner_leq(a, a)
        assert loewner_leq(a, b) and loewner_leq(b, c) and loewner_leq(a, c)
        if loewner_leq(b, a):
            assert operator_norm(a - b) <= 10 * tol.pos_slack * (1 + operator_norm(a))


# --- Hermitian eigendecomposition --------------------------------------------


def test_eigh_frozen_examples():
    eig = eigh_hermitian(el(np.diag([3.0, 1.0])))
    assert np.allclose(eig.eigenvalues[0], [1.0, 3.0])
    assert np.allclose(np.abs(eig.unitary.blocks[0]), [[0, 1], [1, 0]])
    # char poly of [[0,1],[1,0]] is l^2 - 1, by hand
    eig = eigh_hermitian(el([[0, 1], [1, 0]]))
    assert np.allclose(eig.eigenvalues[0], [-1.0, 1.0])
    # char poly of [[0,-i],[i,0]] is l^2 - 1, by hand
    eig = eigh_hermitian(el([[0, -1j], [1j, 0]]))
    assert np.allclose(eig.eigenvalues[0], [-1.0, 1.0])


def test_eigh_against_lapack_oracle():
    rng = np.random.default_rng(23)
    tol = ToleranceConfig()
    for _ in range(30):
        sig = random_signature(rng)
        h = random_self_adjoint(sig, rng)
        eig = eigh_hermitian(h)
        scale = 1 + operator_norm(h)
        for w, u, b in zip(eig.eigenvalues, eig.unitary.blocks, h.blocks):
            assert np.allclose(w, np.linalg.eigvalsh(b), atol=1e-11 * scale)
            n = b.shape[0]
            assert np.abs(u.conj().T @ u - np.eye(n)).max() <= tol.pos_slack
            assert np.abs((u * w) @ u.conj().T - b).max() <= tol.pos_slack * scale


def test_eigh_rejects_non_self_adjoint():
    with pytest.raises(NotSelfAdjoint):
        eigh_hermitian(el([[0, 1], [0, 0]]))


def test_eigh_non_convergence_budget():
    rng = np.random.default_rng(29)
    h = random_self_adjoint((8,), rng)
    with mock.patch.object(core, "_MAX_SWEEPS", 1), pytest.raises(NonConvergence):
        eigh_hermitian(h)


# --- positive square root ----------------------------------------------------


def test_positive_sqrt_frozen_examples():
    s = positive_sqrt(el(np.diag([4.0, 9.0])))
    assert np.allclose(s.blocks[0], np.diag([2.0, 3.0]))
    # eigenvalues of [[2,1],[1,2]] are {1, 3}, by hand
    r3 = math.sqrt(3.0)
    s = positive_sqrt(el([[2, 1], [1, 2]]))
    expect = 0.5 * np.array([[r3 + 1, r3 - 1], [r3 - 1, r3 + 1]])
    assert np.allclose(s.blocks[0], expect, atol=1e-12)
    z = AlgebraElement.zeros((2,))
    assert positive_sqrt(z) == z


def test_positive_sqrt_rejects_negative():
    with pytest.raises(NotPositive):
        positive_sqrt(el(np.diag([1.0, -1.0])))


def test_positive_sqrt_square_and_commutation():
    rng = np.random.default_rng(31)
    tol = ToleranceConfig()
    for _ in range(20):
        sig = random_signature(rng)
        x = random_element(sig, rng)
        h = adjoint(x) * x
        s = positive_sqrt(h)
        scale = tol.pos_slack * (1 + operator_norm(h))
        assert operator_norm(s * s - h) <= scale
        assert operator_norm(s * h - h * s) <= scale
        assert loewner_leq(AlgebraElement.zeros(sig), s)


# --- range projection ---------------------------------------------------------


def test_range_projection_frozen_examples():
    p = range_projection(el(np.diag([3.0, 0.0])))
    assert np.allclose(p.element.blocks[0], np.diag([1.0, 0.0]))
    z = AlgebraElement.zeros((2,))
    assert range_projection(z).element == z
    # rank-1 eigenprojection for eigenvalue 2, by hand
    p = range_projection(el([[1, 1], [1, 1]]))
    assert np.allclose(p.element.blocks[0], [[0.5, 0.5], [0.5, 0.5]])


def test_range_projection_fixes_input_and_is_minimal():
    rng = np.random.default_rng(37)
    tol = ToleranceConfig()
    for _ in range(20):
        sig = random_signature(rng, max_blocks=2, dims=(2, 6))
        h = random_self_adjoint(sig, rng)
        p = range_projection(h).element
        assert operator_norm(p * h - h) <= tol.pos_slack * (1 + operator_norm(h))
        # a coarser eigenvalue cut keeps more eigenvectors, so dominates rp(h)
        eig = eigh_hermitian(h)
        coarse = eig.assemble(lambda w: np.where(np.abs(w) > 1e-14, 1.0, 0.0))
        assert loewner_leq(p, coarse)


# --- pseudo-inverse on range (HermitianEigenSystem.inverse) -------------------


def test_pseudo_inverse_frozen_examples():
    t = ToleranceConfig()
    r = eigh_hermitian(el(np.diag([2.0, 0.0]))).inverse(t)
    assert np.allclose(r.blocks[0], np.diag([0.5, 0.0]))
    one = AlgebraElement.identity((3,))
    assert eigh_hermitian(one).inverse(t) == one
    # [[2,1],[1,2]] is invertible; inverse computed by hand
    r = eigh_hermitian(el([[2, 1], [1, 2]])).inverse(t)
    assert np.allclose(r.blocks[0], [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], atol=1e-12)


def test_pseudo_inverse_times_input_is_range_projection():
    rng = np.random.default_rng(41)
    tol = ToleranceConfig()
    for _ in range(20):
        sig = random_signature(rng)
        x = random_element(sig, rng)
        h = adjoint(x) * x
        r = eigh_hermitian(h).inverse(tol)
        p = range_projection(h).element
        assert operator_norm(h * r - p) <= 100 * tol.pos_slack * (1 + operator_norm(h))


# --- projections and orthogonal families --------------------------------------


def test_projection_validation():
    with pytest.raises(ValueError):
        Projection(el([[0.5, 0], [0, 0]]))
    with pytest.raises(ValueError):
        Projection(el([[0, 1], [0, 0]]))
    p = Projection(el(np.diag([1.0, 0.0])))
    assert p.rank() == 1


def test_orthogonal_projection_sums_are_least_upper_bounds():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        cuts = sorted(rng.choice(np.arange(1, n + 1), size=min(3, n), replace=False))
        family = []
        start = 0
        for c in cuts:
            if c > start:
                v = u[:, start:c]
                family.append(el(v @ v.conj().T))
                start = c
        total = family[0]
        for p in family[1:]:
            total = total + p
        q = Projection(total)  # sum of pairwise orthogonal projections is a projection
        for p in family:
            assert loewner_leq(p, q.element)
        # least among sampled dominating projections
        dom = el(u @ u.conj().T)  # identity, dominates everything
        assert loewner_leq(q.element, dom)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_block_whose_norm_overflows_is_solved_rescaled():
    # ||h||_F overflows, so h is solved at the scale of its largest entry and
    # its eigenvalues scaled back: 0 and 2e200, as LAPACK gives them
    h = [[1e200, 1e200], [1e200, 1e200]]
    want = np.linalg.eigvalsh(np.array(h))
    eig = eigh_hermitian(el(h))
    assert np.allclose(eig.eigenvalues[0], want, rtol=1e-15, atol=1e185)
    w = eig.eigenvalues[0]
    assert core._extremes(el(h).blocks) == (w[0], w[-1])
    assert np.allclose(eig.assemble(lambda w: w).blocks[0], h, rtol=1e-14)
    basis, groups = simultaneous_eigh([np.array(h, dtype=complex)])
    assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-15)
    # a 1x1 block is read off at any scale, and a larger one solves there too
    assert eigh_hermitian(el([[1e300]])).eigenvalues[0].tolist() == [1e300]
    w = eigh_hermitian(el(np.diag([1e300, -2e300]))).eigenvalues[0]
    assert w.tolist() == [-2e300, 1e300]
    # entries whose Hermitian part overflows when formed, but not its spectrum
    w = eigh_hermitian(el(np.diag([1e308, -1e308]))).eigenvalues[0]
    assert w.tolist() == [-1e308, 1e308]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigenvalue_past_the_float_range_raises_bad_argument():
    # the largest eigenvalues are 2e308, 2.4e308 and |z| = 2.1e308, past the
    # float range; |z| itself overflows though its parts do not, and the
    # public self-adjointness check still passes that Hermitian block
    z = 1.5e308 * (1 + 1j)
    past = "eigenvalue of a block lies past the float range"
    for h in ([[1e308] * 2] * 2, [[8e307] * 3] * 3, [[0, z], [z.conjugate(), 0]]):
        with pytest.raises(BadArgument, match=past):
            simultaneous_eigh([np.array(h, dtype=complex)])
        with pytest.raises(BadArgument, match=past):
            eigh_hermitian(el(h))
        with pytest.raises(BadArgument, match=past):
            core._extremes(el(h).blocks)
    # just inside the range the same kind of block solves
    w = eigh_hermitian(el([[8e307] * 2] * 2)).eigenvalues[0]
    assert np.allclose(w, [0.0, 1.6e308], rtol=1e-15, atol=1e293)


def test_frobenius_norm_past_the_float_range_is_rescaled():
    # the sum of squares overflows, so the norm is s ||x/s||_F with s the
    # largest part of an entry; |z|^2 overflows, and vdot reads it as nan
    assert frobenius_norm(el([[1e200, 1e200], [1e200, 1e200]])) == 2e200
    assert frobenius_norm(el([[3e307j]], [[-4e307]])) == pytest.approx(5e307, rel=1e-15)
    z = 1.5e308 * (1 + 1j)
    x = el([[0, z], [z.conjugate(), 0]])
    assert frobenius_norm(x) == math.inf
    assert is_self_adjoint(x)
    # a finite norm keeps the bits of the plain sum of squares
    rng = np.random.default_rng(2)
    blocks = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (3, 5)]
    plain = math.sqrt(sum(np.vdot(b, b).real for b in blocks))
    assert frobenius_norm(el(*blocks)) == plain


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frobenius_norm_of_a_non_finite_entry_is_not_rescaled():
    # with an inf or nan entry the norm is the plain sum of squares, inf or
    # nan as it falls, never a rescaled finite value
    from awkit.core import _frobenius, _is_self_adjoint_blocks

    for blocks in (
        [np.array([[0, math.inf], [1e308, 0]], dtype=complex)],
        [np.zeros((1, 1), dtype=complex), np.array([[math.inf, 1e308]], dtype=complex)],
        [np.array([[1e308, complex(1e308, math.inf)]])],
        [np.array([[math.nan, 1e308]], dtype=complex)],
    ):
        plain = math.sqrt(sum(np.vdot(b, b).real for b in blocks))
        assert not math.isfinite(plain)
        got = _frobenius(blocks)
        assert got == plain or (math.isnan(got) and math.isnan(plain))
        # so a skew part with such an entry never passes the self-adjoint rule
        eye = [np.eye(b.shape[0], dtype=complex) for b in blocks]
        assert not _is_self_adjoint_blocks(eye, blocks, ToleranceConfig())
    # an element whose defects overflow is never certified a projection
    with pytest.raises(BadArgument):
        Projection(el([[0, 1e308], [-1e308, 0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cluster_gap_past_the_float_range_splits_distinct_eigenvalues():
    # ||m||_F overflows, but the gap is taken at the rescaled norm, so the
    # eigenvalues +-1e308 and 0, 2e200 fall into two groups
    for h in (np.diag([1e308, -1e308]), [[1e200] * 2] * 2):
        basis, groups = simultaneous_eigh([np.array(h, dtype=complex)])
        assert [g.tolist() for g in groups] == [[0], [1]]
        assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-15)


def test_compression_scalar_within_the_gap_keeps_its_group_unrotated():
    # the first part's eigenvalues 1 and 1 + 1e-9 lie in one group (gap
    # 1e-8 ||m||_F); the second part is roundoff on it, and its eigenvectors
    # would mix the first part's: the group stays whole and unrotated
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    first = np.diag([1.0, 1.0 + 1e-9, 2.0]).astype(complex)
    basis, groups = simultaneous_eigh([first, 1e-20 * (a + a.conj().T)])
    assert [g.tolist() for g in groups] == [[0, 1], [2]]
    assert np.array_equal(basis, simultaneous_eigh([first])[0])


def test_later_part_rotates_a_group_the_earlier_part_leaves_degenerate():
    # the first part is roundoff, so its solve separates nothing; the second
    # has eigenvalues 1 and 1 + 1.3e-8 in a Haar basis, within its gap 1e-8
    # ||m||_F, and only its rotation resolves its eigenvectors
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = haar_unitary_block(2, rng)
        second = (u * np.array([1.0, 1.0 + 1.3e-8])) @ u.conj().T
        basis, groups = simultaneous_eigh([1e-17 * (a + a.conj().T), second])
        assert [g.tolist() for g in groups] == [[0, 1]]
        rotated = basis.conj().T @ second @ basis
        assert abs(rotated[0, 1]) <= 1e-15
        assert abs(rotated[1, 1] - rotated[0, 0]) == pytest.approx(1.3e-8, rel=1e-6)


def test_block_whose_squares_underflow_is_solved_rescaled():
    # every entry squares to 0, so ||h||_F underflows; the block is solved
    # at the scale of its largest entry and its eigenvalues scaled back
    h = el(np.diag([3e-170, 1e-170]))
    eig = eigh_hermitian(h)
    assert eig.eigenvalues[0].tolist() == [1e-170, 3e-170]
    assert eig.assemble(lambda w: w) == h
    assert core._extremes(h.blocks) == (1e-170, 3e-170)
    # subnormal entries too
    w = eigh_hermitian(el([[0.0, 1e-310], [1e-310, 0.0]])).eigenvalues[0]
    assert w.tolist() == [-1e-310, 1e-310]


def test_norm_whose_gram_squares_underflow():
    # x*x holds 2e-200, whose squares underflow: the norm is 2e-100, not 0
    assert operator_norm(el(np.full((2, 2), 1e-100))) == pytest.approx(2e-100, rel=1e-15)


@pytest.mark.parametrize(
    "entry",
    [
        eigh_hermitian,
        lambda h: loewner_leq(AlgebraElement.zeros((1, 2)), h),
        positive_sqrt,
        range_projection,
        lambda h: eigh_hermitian(h).inverse(ToleranceConfig()),
    ],
    ids=["eigh_hermitian", "loewner_leq", "positive_sqrt", "range_projection", "pseudo_inverse"],
)
def test_public_entry_points_still_check_their_input(entry):
    # internal operands skip the check; outside input does not
    with pytest.raises(NotSelfAdjoint):
        entry(el([[1.0]], [[0, 1], [0, 0]]))


def test_projection_still_certifies_outside_input():
    with pytest.raises(ValueError, match="fails idempotency"):
        Projection(el(np.diag([1.0, 0.5])))
    with pytest.raises(ValueError, match="fails self-adjointness"):
        Projection(el([[0, 1], [0, 0]]))
