"""The polar verifier's range projections, read off the held eigensystems.

``_range_projection_polar_residuals`` is the earlier body of
``awkit.polar.polar_residuals``, kept as a named oracle. It took the range
projections that u*u and u u* must equal as ``range_projection`` of
result.absx and result.absxstar, two checked eigensolves of operators the
route had just assembled. Both routes and ``verify_polar`` now carry them
as ``PolarResult.initial`` and ``.final``, read off the eigensystems of x*x
and x x* by the rule of root (``HermitianEigenSystem.support``).
``_range_projection_verify_polar`` is the earlier ``verify_polar``, which
fed that body.

``_per_defect_polar_residuals`` is the body that followed it, kept as a
named oracle: it formed each of the five defects as an element and took its
operator_norm, one eigensolve per defect. ``polar_residuals`` now stacks the
five defects per block position and takes their norms in one core._norms
call. On the genuine u of either route and on candidates built from it,
at the default sweep budget and at one sweep, both return the same
residuals to the bit and the same verdict, or raise the same exception
with the same message. On candidates scaled so that a defect's Gram matrix
or u u* u overflows, ``polar_residuals`` raises BadArgument before any
solve, which the oracle matches at the default budget, where no solve of
an earlier defect fails first. The oracle met an operand of another signature (a u, or an |x|, from
another algebra) where its defect loop reached it, after the solves of the
defects before it; ``polar_residuals`` checks every operand against u's
signature first (the precedence rule of ``awkit.core``), so those
candidates are asserted directly to raise SignatureMismatch, naming the
operand's signature and then u's, with no call of the Jacobi driver.

On x = s W diag(sigma) V* per block, sigma = 0 with probability 0.3, at
scales s in {1e-5, 1, 1e2}, each carried projection has the rank of the
oracle's and lies within PROJECTION_ATOL of it in operator norm, and
initial and final have the same rank. The new and the old verifier accept
the same candidates: the genuine u of either route, -u, e^{i theta} u, and
u + w with w mapping ker |x| into ker |x*|.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from awkit import core, polar
from awkit.core import (
    _NON_FINITE,
    AlgebraElement,
    ToleranceConfig,
    _eigh_blocks,
    _tol,
    adjoint,
    operator_norm,
    range_projection,
)
from awkit.errors import BadArgument, SignatureMismatch
from awkit.polar import (
    PolarResiduals,
    PolarResult,
    polar_direct,
    polar_regularized,
    polar_residuals,
    verify_polar,
)
from awkit.sampling import haar_unitary_block, random_element


def _range_projection_polar_residuals(
    x: AlgebraElement, result: PolarResult, tol: ToleranceConfig | None = None
) -> PolarResiduals:
    """Residuals of the polar identities (Higham, Functions of Matrices,
    SIAM 2008, ch. 8) for result.u, read against result.absx and
    result.absxstar rather than recomputing |x| and |x*|.

    Both polar routes build |x| and |x*| as positive_sqrt would, so
    their results can be passed as they are; any other candidate u must
    come with those two square roots (see verify_polar).
    """
    t = _tol(tol)
    u, ustar = result.u, adjoint(result.u)
    defects = {
        "reconstruction_left": operator_norm(x - result.absxstar * u, t),
        "reconstruction_right": operator_norm(x - u * result.absx, t),
        "partial_isometry": operator_norm(u * ustar * u - u, t),
        "initial_projection": operator_norm(
            ustar * u - range_projection(result.absx, t).element, t
        ),
        "final_projection": operator_norm(
            u * ustar - range_projection(result.absxstar, t).element, t
        ),
    }
    scale = 1.0 + operator_norm(x, t)
    thr = 10.0 * t.pos_slack * scale
    accepted = all(v <= thr for v in defects.values())
    residuals = {
        name: v / scale if name.startswith("reconstruction") else v
        for name, v in defects.items()
    }
    return PolarResiduals(residuals=residuals, accepted=accepted)


def _range_projection_verify_polar(
    x: AlgebraElement, u: AlgebraElement, tol: ToleranceConfig | None = None
) -> bool:
    """The earlier verify_polar: |x| and |x*| from its own solves, handed
    with u to the range-projection body."""
    t = _tol(tol)
    absx = _eigh_blocks((adjoint(x) * x).blocks).root(t)
    absxstar = _eigh_blocks((x * adjoint(x)).blocks).root(t)
    # the old body never reads the projections: pass absx's own as fillers
    filler = range_projection(absx, t)
    result = PolarResult(u=u, absx=absx, absxstar=absxstar, initial=filler, final=filler)
    return _range_projection_polar_residuals(x, result, t).accepted


def _per_defect_polar_residuals(
    x: AlgebraElement, result: PolarResult, tol: ToleranceConfig | None = None
) -> PolarResiduals:
    """Residuals of the polar identities (Higham, Functions of Matrices,
    SIAM 2008, ch. 8) for result.u, read against result.absx,
    result.absxstar and their range projections result.initial and
    result.final rather than recomputing any of them.

    Both polar routes build |x| and |x*| as positive_sqrt would, and their
    range projections by the same cut (HermitianEigenSystem.support), so
    their results can be passed as they are; any other candidate u must
    come with those four (see verify_polar). The only eigensolves are the
    five defect norms: both routes and verify_polar memoize ||x||.
    """
    t = _tol(tol)
    u, ustar = result.u, adjoint(result.u)
    defects = {
        "reconstruction_left": operator_norm(x - result.absxstar * u, t),
        "reconstruction_right": operator_norm(x - u * result.absx, t),
        "partial_isometry": operator_norm(u * ustar * u - u, t),
        "initial_projection": operator_norm(ustar * u - result.initial.element, t),
        "final_projection": operator_norm(u * ustar - result.final.element, t),
    }
    scale = 1.0 + operator_norm(x, t)
    thr = 10.0 * t.pos_slack * scale
    accepted = all(v <= thr for v in defects.values())
    residuals = {
        name: v / scale if name.startswith("reconstruction") else v
        for name, v in defects.items()
    }
    return PolarResiduals(residuals=residuals, accepted=accepted)


SIGNATURES = [(1,), (2, 3), (8,), (3, 5, 8)]
SCALES = [1e-5, 1.0, 1e2]
SEEDS = range(4)
PROJECTION_ATOL = 1e-12


def _element(sig, scale, seed):
    """x = scale W diag(sigma) V* per block, W and V Haar, sigma = 0 with
    probability 0.3 and U[0.1, 2] otherwise."""
    rng = np.random.default_rng([seed, len(sig), sum(sig), SCALES.index(scale)])
    blocks = []
    for n in sig:
        sigma = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.1, 2.0, n))
        w, v = haar_unitary_block(n, rng), haar_unitary_block(n, rng)
        blocks.append((w * (scale * sigma)) @ v.conj().T)
    return AlgebraElement(blocks)


def _held_by_verify_polar(monkeypatch, x, u):
    """The PolarResult that verify_polar builds for u."""
    seen = []
    body = polar.polar_residuals

    def recording(y, result, tol=None):
        seen.append(result)
        return body(y, result, tol)

    monkeypatch.setattr(polar, "polar_residuals", recording)
    verify_polar(x, u)
    (result,) = seen
    return result


def _assert_held_projections(result):
    assert result.initial.rank() == result.final.rank()
    for held, root in ((result.initial, result.absx), (result.final, result.absxstar)):
        oracle = range_projection(root)
        assert held.rank() == oracle.rank()
        assert operator_norm(held.element - oracle.element) <= PROJECTION_ATOL


cases = pytest.mark.parametrize(
    "sig,scale,seed",
    [(sig, scale, seed) for sig in SIGNATURES for scale in SCALES for seed in SEEDS],
    ids=str,
)


@cases
def test_routes_carry_the_range_projections_of_their_roots(sig, scale, seed):
    x = _element(sig, scale, seed)
    for route in (polar_direct, polar_regularized):
        result = route(AlgebraElement(x.blocks))
        _assert_held_projections(result)
        new = polar_residuals(x, result)
        old = _range_projection_polar_residuals(x, result)
        assert new.accepted == old.accepted
        assert list(new.residuals) == list(old.residuals)


@cases
def test_verify_polar_builds_the_range_projections_of_its_roots(monkeypatch, sig, scale, seed):
    x = _element(sig, scale, seed)
    result = _held_by_verify_polar(monkeypatch, x, polar_direct(x).u)
    _assert_held_projections(result)


@cases
def test_new_and_old_verifiers_accept_the_same_candidates(sig, scale, seed):
    x = _element(sig, scale, seed)
    rng = np.random.default_rng(seed)
    for route in (polar_direct, polar_regularized):
        genuine = route(AlgebraElement(x.blocks))
        u = genuine.u
        one = AlgebraElement.identity(x.signature)
        w = (one - genuine.final.element) * random_element(x.signature, rng)
        w = 0.1 * (w * (one - genuine.initial.element))
        candidates = [u, -1.0 * u, np.exp(1j * rng.uniform(0.3, 5.9)) * u, u + w]
        for cand in candidates:
            assert verify_polar(x, cand) == _range_projection_verify_polar(x, cand)


def test_the_cases_exercise_acceptance_and_kernels():
    # some draws have a kernel (u + w differs from u), and the genuine u is
    # accepted on most of them: the comparisons above are not vacuous
    kernels = accepted = 0
    for sig in SIGNATURES:
        for scale in SCALES:
            for seed in SEEDS:
                x = _element(sig, scale, seed)
                result = polar_direct(x)
                kernels += result.initial.rank() < sum(sig)
                accepted += verify_polar(x, result.u)
    total = len(SIGNATURES) * len(SCALES) * len(SEEDS)
    assert kernels >= total // 3
    assert accepted >= total // 2


def _residuals_outcome(residuals, x, result):
    try:
        check = residuals(x, result)
    except Exception as exc:  # the exception is part of the outcome compared
        return ("raised", type(exc), str(exc))
    return ("checked", check.accepted, [(k, v.hex()) for k, v in check.residuals.items()])


def _tampered_results(x, rng):
    """Results of both routes, with candidates that make the defects
    overflow; then results with a u or an |x| of another signature."""
    other = random_element((*x.signature, 1), rng)
    formed, mismatched = [], []
    for route in (polar_direct, polar_regularized):
        genuine = route(AlgebraElement(x.blocks))
        u = genuine.u
        formed += [
            genuine,
            replace(genuine, u=-1.0 * u),
            replace(genuine, u=u + 1e-3 * random_element(x.signature, rng)),
            replace(genuine, u=1e150 * u),  # u u* u overflows, the Gram matrices before it do not
            replace(genuine, u=1e200 * u),  # every defect's Gram matrix overflows
        ]
        mismatched += [replace(genuine, u=other), replace(genuine, absx=other)]
    return formed, mismatched


def _assert_mismatch_unsolved(x, result):
    """polar_residuals raises SignatureMismatch on result, naming the
    signature of the first operand that differs from u's, without a solve."""
    u = result.u.signature
    operands = (x, result.absxstar, result.absx, result.initial.element, result.final.element)
    first = next(y.signature for y in operands if y.signature != u)
    with mock.patch.object(core, "_jacobi_eigh", wraps=core._jacobi_eigh) as driver:
        with pytest.raises(SignatureMismatch) as raised:
            polar_residuals(x, result)
    assert str(raised.value) == f"signatures differ: {first} vs {u}"
    assert driver.call_count == 0


@cases
@pytest.mark.parametrize("sweeps", [core._MAX_SWEEPS, 1], ids=["default-sweeps", "one-sweep"])
def test_stacked_residuals_match_the_per_defect_oracle(sig, scale, seed, sweeps):
    x = _element(sig, scale, seed)
    formed, mismatched = _tampered_results(x, np.random.default_rng(seed))
    for result in formed:
        with mock.patch.object(core, "_MAX_SWEEPS", sweeps):
            with mock.patch.object(core, "_jacobi_eigh", wraps=core._jacobi_eigh) as driver:
                new = _residuals_outcome(polar_residuals, x, result)
        budget = sweeps
        if new == ("raised", BadArgument, _NON_FINITE):
            # raised before any solve, so no solve that fails at this budget
            # comes first: the oracle's outcome at the default budget
            assert driver.call_count == 0
            budget = core._MAX_SWEEPS
        with mock.patch.object(core, "_MAX_SWEEPS", budget):
            with np.errstate(over="ignore", invalid="ignore"):
                assert new == _residuals_outcome(_per_defect_polar_residuals, x, result)
    for result in mismatched:
        _assert_mismatch_unsolved(x, result)


def test_an_absx_of_another_algebra_raises_before_any_solve():
    x = _element((2, 3), 1.0, 0)
    result = polar_direct(x)
    other = random_element((2, 3, 1), np.random.default_rng(0))
    _assert_mismatch_unsolved(x, replace(result, absx=other))
