"""Polar decomposition tests: both routes, uniqueness gate, spectral cuts."""

import numpy as np
import pytest

from awkit import core
from awkit.core import (
    AlgebraElement,
    HermitianEigenSystem,
    Projection,
    ToleranceConfig,
    adjoint,
    loewner_leq,
    operator_norm,
    positive_sqrt,
    range_projection,
)
from awkit.errors import BadCut, ZeroElement
from awkit.order import build_certificate, verify_certificate
from awkit.polar import (
    CUT_RESIDUAL_TOL,
    PolarResult,
    SpectralCut,
    cut_residuals,
    polar_direct,
    polar_regularized,
    polar_residuals,
    resolvent_gap_inequality,
    spectral_cut,
    verify_polar,
)
from awkit.sampling import (
    element_with_singular_values,
    random_element,
    random_signature,
    random_unitary,
)


def el(*blocks):
    return AlgebraElement([np.array(b, dtype=complex) for b in blocks])


def diag_el(*vals_per_block):
    return AlgebraElement([np.diag(np.array(v, dtype=complex)) for v in vals_per_block])


def check_invariants(x, res, tol=1e-9):
    scale = 1 + operator_norm(x)
    u, ustar = res.u, adjoint(res.u)
    assert operator_norm(u * ustar * u - u) <= tol
    assert operator_norm(x - res.absxstar * u) <= tol * scale
    assert operator_norm(x - u * res.absx) <= tol * scale
    assert operator_norm(ustar * u - range_projection(res.absx).element) <= tol
    assert operator_norm(u * ustar - range_projection(res.absxstar).element) <= tol


# --- direct route ----------------------------------------------------------------


def test_polar_direct_frozen_example():
    # hand SVD: x = e1 e2^T, so u = x, |x| = diag(0,1), |x*| = diag(1,0)
    x = el([[0, 1], [0, 0]])
    res = polar_direct(x)
    assert np.allclose(res.u.blocks[0], [[0, 1], [0, 0]], atol=1e-12)
    assert np.allclose(res.absx.blocks[0], np.diag([0.0, 1.0]), atol=1e-12)
    assert np.allclose(res.absxstar.blocks[0], np.diag([1.0, 0.0]), atol=1e-12)
    check_invariants(x, res)


def test_polar_direct_unitary_and_zero():
    rng = np.random.default_rng(4)
    w = random_unitary((3,), rng)
    res = polar_direct(w)
    assert operator_norm(res.u - w) <= 1e-10
    assert operator_norm(res.absx - AlgebraElement.identity((3,))) <= 1e-10

    z = AlgebraElement.zeros((2, 3))
    res = polar_direct(z)
    assert res.u == z


def test_polar_direct_matches_svd_oracle():
    rng = np.random.default_rng(10)
    for _ in range(15):
        sig = random_signature(rng, max_blocks=2, dims=(1, 6))
        x = random_element(sig, rng)
        res = polar_direct(x)
        check_invariants(x, res)
        for xb, ub in zip(x.blocks, res.u.blocks):
            w, s, vh = np.linalg.svd(xb)
            keep = s > 1e-10 * max(1.0, s[0] if s.size else 1.0)
            oracle = (w[:, keep]) @ vh[keep, :]
            assert np.abs(ub - oracle).max() <= 1e-9


# --- regularized route -------------------------------------------------------------


def test_regularized_scalar_ladder_oracle():
    # scalar oracle: for x = diag(1, -2) each rung is diag(1/(1/n+1), -2/(1/n+2))
    x = diag_el([1.0, -2.0])
    res = polar_regularized(x, n_max=16)
    assert np.allclose(res.u.blocks[0], np.diag([1.0, -1.0]), atol=1e-12)
    ladder = [n for n, _ in res.diagnostics]
    assert ladder == [1, 2, 4, 8, 16]
    for n, gap in res.diagnostics:
        u_n = np.diag([1.0 / (1.0 / n + 1.0), -2.0 / (1.0 / n + 2.0)])
        expect_gap = np.abs(u_n - np.diag([1.0, -1.0])).max()
        assert gap == pytest.approx(expect_gap, abs=1e-12)
    gaps = [g for _, g in res.diagnostics]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # strictly decreasing


def test_regularized_projection_input():
    p = diag_el([1.0, 0.0, 1.0])
    res = polar_regularized(p, n_max=64)
    assert operator_norm(res.u - p) <= 1e-10


def test_regularized_nilpotent_diagnostics():
    x = el([[0, 1], [0, 0]])
    res = polar_regularized(x, n_max=32)
    assert np.allclose(res.u.blocks[0], [[0, 1], [0, 0]], atol=1e-12)
    for n, gap in res.diagnostics:
        assert gap == pytest.approx((1.0 / n) / (1.0 / n + 1.0), abs=1e-12)


def test_regularized_agrees_with_direct():
    rng = np.random.default_rng(20)
    tol = ToleranceConfig()
    for _ in range(10):
        sig = random_signature(rng, max_blocks=2, dims=(1, 6))
        x = random_element(sig, rng)
        reg = polar_regularized(x)
        direct = polar_direct(x)
        assert operator_norm(reg.u - direct.u) <= 10 * tol.rank_cutoff
        check_invariants(x, reg)


def _rank_deficient_inputs():
    rng = np.random.default_rng(31)
    for _ in range(5):
        s = np.concatenate([rng.uniform(0.1, 2.0, size=3), np.zeros(2)])
        yield element_with_singular_values((5,), [rng.permutation(s)], rng)


def test_regularized_absx_clamps_rank_deficient_input():
    # |x| keeps no roundoff eigenvalues on ker x, so u*u matches rp(|x|)
    for x in _rank_deficient_inputs():
        res = polar_regularized(x)
        assert range_projection(res.absx).rank() == 3
        check_invariants(x, res)


def test_regularized_matches_direct_on_rank_deficient_input():
    # the ladder's resolvent vanishes on ker |x|, so the kernel roundoff of x
    # is not amplified by n and the snapped u agrees with the direct route
    for x in _rank_deficient_inputs():
        assert operator_norm(polar_regularized(x).u - polar_direct(x).u) <= 1e-12


def test_regularized_takes_two_square_roots(monkeypatch):
    # |x| and |x*|, one from each eigensystem; u, the rungs' limit, is read
    # off the eigensystem of x*x without another root
    calls = []
    root = HermitianEigenSystem.root

    def counted(eig, t):
        calls.append(eig)
        return root(eig, t)

    monkeypatch.setattr(HermitianEigenSystem, "root", counted)
    svals = [np.array([0.0, 0.7, 1.3]), np.array([0.4, 1.0])]
    x = element_with_singular_values((3, 2), svals, np.random.default_rng(31))
    res = polar_regularized(x)
    assert len(calls) == 2
    check_invariants(x, res)


def test_regularized_ladder_bound_and_certificate():
    rng = np.random.default_rng(22)
    for _ in range(5):
        sig = (int(rng.integers(2, 6)),)
        svals = [np.concatenate([[0.0], rng.uniform(0.3, 2.0, size=sig[0] - 1)])]
        x = element_with_singular_values(sig, svals, rng)
        sigma_min = min(v for v in svals[0] if v > 0)
        res = polar_regularized(x, n_max=2**12)
        for n, gap in res.diagnostics:
            assert gap <= (1.0 / n) / (1.0 / n + sigma_min) + 1e-9
        # ladder gaps feed an order-convergence certificate at rate 1/sigma_min
        cert = build_certificate(
            [u for _, u in _ladder_terms(x, res)],
            res.u,
            1.0 / sigma_min,
            indices=[n for n, _ in res.diagnostics],
        )
        assert verify_certificate(cert).accepted


def _ladder_terms(x, res):
    from awkit.core import eigh_hermitian

    eig = eigh_hermitian(adjoint(x) * x)
    out = []
    for n, _ in res.diagnostics:
        resolvent = eig.assemble(lambda w: 1.0 / (1.0 / n + np.sqrt(np.maximum(w, 0.0))))
        out.append((n, x * resolvent))
    return out


def test_monotone_ladder_for_self_adjoint_input():
    rng = np.random.default_rng(24)
    from awkit.core import eigh_hermitian

    for _ in range(5):
        g = random_element((4,), rng)
        x = g + adjoint(g)
        absx = positive_sqrt(adjoint(x) * x)
        eig = eigh_hermitian(absx)

        def res_at(n):
            return eig.assemble(lambda w: 1.0 / (1.0 / n + w))

        prev_pos = prev_neg = None
        for n in (1, 2, 4, 8, 16):
            pos = absx * res_at(n)
            neg = (absx - x) * res_at(n)
            if prev_pos is not None:
                assert loewner_leq(prev_pos, pos)
                assert loewner_leq(prev_neg, neg)
            prev_pos, prev_neg = pos, neg


# --- uniqueness gate ---------------------------------------------------------------


def test_polar_residuals_names_and_accept_rule():
    x = el([[0, 1], [0, 0]], [[2, 0], [1, 1]])
    for res in (polar_direct(x), polar_regularized(x)):
        check = polar_residuals(x, res)
        assert list(check.residuals) == [
            "reconstruction_left",
            "reconstruction_right",
            "partial_isometry",
            "initial_projection",
            "final_projection",
        ]
        assert check.accepted
        assert max(check.residuals.values()) <= 1e-12
        assert check.accepted == verify_polar(x, res.u)
    # a wrong u fails the shared rule and the bare-u wrapper alike; with
    # u -> -u the defect x - |x*| u is 2x, reported relative to 1 + ||x||
    wrong = PolarResult(
        u=-1.0 * res.u,
        absx=res.absx,
        absxstar=res.absxstar,
        initial=res.initial,
        final=res.final,
    )
    check = polar_residuals(x, wrong)
    norm_x = operator_norm(x)
    assert check.residuals["reconstruction_left"] == pytest.approx(2 * norm_x / (1 + norm_x))
    assert not check.accepted
    assert not verify_polar(x, wrong.u)


def test_verify_polar_accepts_genuine_and_rejects_tampered():
    rng = np.random.default_rng(26)
    x = element_with_singular_values(
        (4,), [np.array([0.0, 0.6, 1.1, 1.7])], rng
    )
    u = polar_direct(x).u
    assert verify_polar(x, u)
    assert not verify_polar(x, -1.0 * u)

    one = AlgebraElement.identity((4,))
    ker_left = one - range_projection(positive_sqrt(x * adjoint(x))).element
    ker_right = one - range_projection(positive_sqrt(adjoint(x) * x)).element
    w = 0.1 * (ker_left * random_element((4,), rng) * ker_right)
    assert operator_norm(w) > 1e-6  # tampering is macroscopic
    # the factorization x = |x*| (u + w) still holds; only u*u detects it
    assert operator_norm(x - positive_sqrt(x * adjoint(x)) * (u + w)) <= 1e-9
    assert not verify_polar(x, u + w)

    assert not verify_polar(x, np.exp(0.3j) * u)


# --- spectral cut ------------------------------------------------------------------


def test_cut_singular_branch_frozen_example():
    x = diag_el([2.0, 0.5, 0.0])
    cut = spectral_cut(x, mu=1.0)
    assert np.allclose(cut.p.element.blocks[0], np.diag([1.0, 0.0, 0.0]), atol=1e-10)
    assert np.allclose(cut.a.blocks[0], np.diag([0.5, 0.0, 0.0]), atol=1e-10)
    absxstar = positive_sqrt(x * adjoint(x))
    assert operator_norm(cut.a * absxstar - cut.p.element) <= 1e-10


def test_cut_of_a_projection_like_input():
    rng = np.random.default_rng(28)
    # |x*| is a projection exactly when all singular values are 0 or 1: the
    # cut at 1/2 keeps its range, so p = x x* and a = p
    x = element_with_singular_values((3,), [np.array([1.0, 1.0, 0.0])], rng)
    cut = spectral_cut(x)
    assert cut.mu == pytest.approx(0.5, abs=1e-15)
    assert operator_norm(cut.p.element - x * adjoint(x)) <= 1e-10
    assert operator_norm(cut.a - cut.p.element) <= 1e-10


def test_cut_of_an_invertible_input():
    x = el([[2, 1], [1, 2]])
    cut = spectral_cut(x)
    # singular values 1 and 3: the cut at half the smallest keeps both
    assert cut.mu == pytest.approx(0.5, abs=1e-15)
    assert operator_norm(cut.p.element - AlgebraElement.identity((2,))) <= 1e-12
    absxstar = positive_sqrt(x * adjoint(x))
    assert operator_norm(cut.a * absxstar - AlgebraElement.identity((2,))) <= 1e-10


def test_cut_invariants_on_random_gap_inputs():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        svals = np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=n - 1)])
        x = element_with_singular_values((n,), [svals], rng)
        cut = spectral_cut(x)
        absxstar = positive_sqrt(x * adjoint(x))
        p = cut.p.element
        assert operator_norm(p) > 0.5  # p != 0
        for lhs, rhs in [(cut.a, p), (cut.a, absxstar), (p, absxstar)]:
            assert operator_norm(lhs * rhs - rhs * lhs) <= 1e-9
        assert operator_norm(cut.a * absxstar - p) <= 1e-9
        inner = cut.a * (x * adjoint(x)) * cut.a
        assert operator_norm(positive_sqrt(inner) - p) <= 1e-9


def test_cut_below_roundoff_solves_the_operands_it_forms():
    # at pos_slack 1e-20 the corner p x x* p and the residual's a x x* a
    # fail a self-adjointness or positivity check on roundoff alone; the cut
    # forms both, so it solves them unchecked and accepts
    t = ToleranceConfig(pos_slack=1e-20)
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        svals = np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=n - 1)])
        x = element_with_singular_values((n,), [svals], rng)
        assert cut_residuals(x, spectral_cut(x, tol=t), t).accepted


def _cut_inputs():
    rng = np.random.default_rng(32)
    return {
        "projection": element_with_singular_values((3,), [np.array([1.0, 1.0, 0.0])], rng),
        "invertible": el([[2, 1], [1, 2]]),
        "gap": element_with_singular_values((4,), [np.array([0.0, 0.6, 1.1, 1.7])], rng),
    }


@pytest.mark.parametrize("kind", ["projection", "invertible", "gap"])
def test_cut_residuals_names_and_accept_rule(kind):
    x = _cut_inputs()[kind]
    cut = spectral_cut(x)
    # the cut carries the |x*| it was taken from, bit for bit
    assert cut.absxstar == positive_sqrt(x * adjoint(x))
    check = cut_residuals(x, cut)
    assert list(check.residuals) == [
        "cut_identity",
        "sqrt_identity",
        "commutator_ap",
        "commutator_a_absxstar",
        "commutator_p_absxstar",
    ]
    assert check.nonzero and check.accepted
    assert max(check.residuals.values()) <= CUT_RESIDUAL_TOL
    # a doubled a breaks both identities, and a zero p is declined outright
    doubled = SpectralCut(p=cut.p, a=2.0 * cut.a, absxstar=cut.absxstar, mu=cut.mu)
    check = cut_residuals(x, doubled)
    assert check.residuals["cut_identity"] == pytest.approx(1.0)
    assert check.nonzero and not check.accepted
    zero = Projection(AlgebraElement.zeros(x.signature))
    check = cut_residuals(
        x, SpectralCut(p=zero, a=0.0 * cut.a, absxstar=cut.absxstar, mu=cut.mu)
    )
    assert max(check.residuals.values()) == 0.0
    assert not check.nonzero and not check.accepted


def _count_solves(monkeypatch):
    """Record, for each Jacobi driver call, whether it accumulates
    eigenvectors."""
    body = core._jacobi_eigh
    solves = []

    def counted(mats, rel_off_tol, max_sweeps, vectors=True):
        solves.append(vectors)
        return body(mats, rel_off_tol, max_sweeps, vectors)

    monkeypatch.setattr(core, "_jacobi_eigh", counted)
    return solves


@pytest.mark.parametrize("kind", ["projection", "invertible", "gap"])
def test_cut_solves_the_norm_and_x_x_star_only(monkeypatch, kind):
    # |x*|, p and a are all read off the one eigensystem of x x*
    x = _cut_inputs()[kind]
    solves = _count_solves(monkeypatch)
    spectral_cut(x)
    assert solves == [False, True]


@pytest.mark.parametrize("values", [[[0.5, 1.0, 1.7]], [[0.5, 1.0, 1.7], [1.2], [0.8, 1.4]]])
def test_regularized_solves_x_star_x_x_x_star_and_the_diagnostics(monkeypatch, values):
    # at unit scale the Gram bounds decide every stop test: one full solve
    # per block of x*x and of x x*, and one eigenvalues-only driver call per
    # block position for all 21 diagnostics
    sig = tuple(map(len, values))
    x = element_with_singular_values(sig, [np.array(v) for v in values], np.random.default_rng(33))
    solves = _count_solves(monkeypatch)
    result = polar_regularized(x)
    assert len(result.diagnostics) == 21
    assert solves == [True] * 2 * len(sig) + [False] * len(sig)


def test_cut_rejections():
    with pytest.raises(ZeroElement):
        spectral_cut(AlgebraElement.zeros((2,)))
    x = diag_el([2.0, 0.5, 0.0])
    with pytest.raises(BadCut):
        spectral_cut(x, mu=5.0)
    with pytest.raises(BadCut):
        spectral_cut(x, mu=-1.0)


# --- resolvent gap inequality --------------------------------------------------------


def test_gap_inequality_zero_and_scalar_cases():
    assert resolvent_gap_inequality(AlgebraElement.zeros((2,)), 1, 2)
    # scalar oracle: (s(r_n - r_m) * 2)^2 <= 2 * 2 s^2 (r_n - r_m)^2 with equality
    assert resolvent_gap_inequality(diag_el([1.0, 2.0]), 1, 3)


def test_gap_inequality_random_sweep():
    rng = np.random.default_rng(32)
    for _ in range(20):
        sig = random_signature(rng, max_blocks=2, dims=(1, 6))
        x = random_element(sig, rng)
        n = int(rng.integers(1, 64))
        m = int(rng.integers(n + 1, 65))
        assert resolvent_gap_inequality(x, n, m)


# --- blockwise reduction -------------------------------------------------------------


def test_blockwise_reduction_bit_for_bit():
    rng = np.random.default_rng(34)
    for _ in range(5):
        sig = random_signature(rng, max_blocks=3, dims=(1, 5))
        if len(sig) == 1:
            sig = sig + (2,)
        x = random_element(sig, rng)
        whole_direct = polar_direct(x)
        whole_reg = polar_regularized(x, n_max=2**10)
        for k, n in enumerate(sig):
            single = AlgebraElement([x.blocks[k]])
            part_direct = polar_direct(single)
            part_reg = polar_regularized(single, n_max=2**10)
            assert np.array_equal(whole_direct.u.blocks[k], part_direct.u.blocks[0])
            assert np.array_equal(whole_direct.absx.blocks[k], part_direct.absx.blocks[0])
            assert np.array_equal(whole_reg.u.blocks[k], part_reg.u.blocks[0])
