"""The stacked resolvent ladder against the body that built each rung on its own.

``_per_rung_polar_regularized`` is the earlier body of
``awkit.polar.polar_regularized``, kept as a named oracle. It assembled
each rung's resolvent, term, stop-test Gram matrix and diagnostic as
separate elements. The ladder now builds all rungs at once, one (k, n, n)
array per block, from the one eigensystem of x*x, and decides the stop
tests in rung order on the stacked Gram matrices. The oracle's subject is
that stacking, so it takes u as the ladder does, as the rungs' closed-form
limit x (x*x)^{-1/2} on the range of |x|, in place of the snap of its last
rung that it was written with (``tests/test_polar_ladder.py`` keeps the
snap, and compares within a bound).

The two must agree bit for bit: the bytes of u, |x|, |x*| and the range
projections of |x| and |x*|, every diagnostic's n and the bytes of its gap,
or the type and message of the exception raised. The draws cover 1-3 blocks of dimension 1-8, zero
singular values, scales from 1e-12 to 1e12, n_max in {1, 2, 64, 2^20} and
three tolerance configurations, inputs whose ladder stops early and inputs
whose stop-test difference lands near rank_cutoff, where the eigensolve
decides. The last tests break the ladder on purpose, and the comparison
must see each breakage.
"""

import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import core, polar
from awkit.core import (
    AlgebraElement,
    HermitianEigenSystem,
    ToleranceConfig,
    _NON_FINITE,
    _eigh_blocks,
    _norm_against,
    _tol,
    adjoint,
    operator_norm,
)
from awkit.errors import BadArgument, NonConvergence, SlowConvergence
from awkit.polar import DEFAULT_LADDER_MAX, PolarResult, _ladder, polar_regularized
from awkit.sampling import haar_unitary_block


def _per_rung_polar_regularized(
    x: AlgebraElement,
    n_max: int = DEFAULT_LADDER_MAX,
    tol: ToleranceConfig | None = None,
) -> PolarResult:
    """Polar decomposition through the resolvent ladder x (1/n + |x|)^{-1}.

    Runs geometric indices up to n_max and stops early once successive
    terms stabilize below rank_cutoff; u is the rungs' limit. Raises
    SlowConvergence when the final gap exceeds the analytic bound
    (1/n) / (1/n + sigma_min) by more than 10 pos_slack.

    Each diagnostic is ||(u_n - u) V||, V the unitary of the ladder's
    eigensystem of x*x: the norm of u_n - u, since V is unitary, read off a
    Gram matrix that V makes diagonal up to roundoff.
    """
    t = _tol(tol)
    if n_max < 1:
        raise BadArgument("n_max must be at least 1")
    gram = adjoint(x) * x
    eig = _eigh_blocks(gram.blocks, t)
    cutoff = eig.rank_cutoff(t)
    sigma = [np.sqrt(np.maximum(w, 0.0)) for w in eig.eigenvalues]
    kept = [s[s * s > cutoff] for s in sigma]
    sigma_min = min((float(s.min()) for s in kept if s.size), default=None)
    absx = eig.root(t)
    eig_star = _eigh_blocks((x * adjoint(x)).blocks, t)

    terms: list[tuple[int, AlgebraElement]] = []
    prev = None
    for n in _ladder(n_max):
        # x vanishes on ker |x|, so the resolvent is set to 0 there rather
        # than ~n, which would amplify the roundoff of x on that kernel
        resolvent = eig.assemble(
            lambda w: np.where(w > cutoff, 1.0 / (1.0 / n + np.sqrt(np.maximum(w, 0.0))), 0.0)
        )
        u_n = x * resolvent
        terms.append((n, u_n))
        if prev is not None and _norm_against(u_n - prev, t.rank_cutoff, t) < t.rank_cutoff:
            break
        prev = u_n

    last_n = terms[-1][0]
    u = x * eig.inverse_root(t)
    diagnostics = tuple((n, operator_norm((u_n - u) * eig.unitary, t)) for n, u_n in terms)
    if sigma_min is not None:
        bound = (1.0 / last_n) / (1.0 / last_n + sigma_min)
        if diagnostics[-1][1] > bound + 10.0 * t.pos_slack:
            raise SlowConvergence(
                f"ladder gap {diagnostics[-1][1]:.3e} above bound {bound:.3e} at n={last_n}"
            )
    return PolarResult(
        u=u,
        absx=absx,
        absxstar=eig_star.root(t),
        initial=eig.support(t),
        final=eig_star.support(t),
        diagnostics=diagnostics,
    )


N_MAX = (1, 2, 64, DEFAULT_LADDER_MAX)

TOLS = {
    "default": ToleranceConfig(),
    "fine-cut": ToleranceConfig(rank_cutoff=1e-13),
    "below-roundoff": ToleranceConfig(pos_slack=1e-20),
}


def _element(sig, seed, singular_values):
    """x = W diag(sigma) V* per block, W and V Haar; singular_values(rng, n)
    gives each block's sigma."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sig:
        w, v = haar_unitary_block(n, rng), haar_unitary_block(n, rng)
        blocks.append((w * singular_values(rng, n)) @ v.conj().T)
    return AlgebraElement(blocks)


def _bytes(x):
    return tuple(b.tobytes() for b in x.blocks)


def _outcome(ladder, x, n_max, t):
    """Everything one ladder call returns, as bytes, or the exception it raised."""
    # a fresh copy, so that neither body sees the other's memoized norms
    x = AlgebraElement(x.blocks)
    try:
        r = ladder(x, n_max, t)
    except Exception as exc:  # the exception is part of the outcome compared
        return ("raised", type(exc), str(exc))
    diagnostics = tuple((n, struct.pack("<d", gap)) for n, gap in r.diagnostics)
    return (
        "result",
        _bytes(r.u),
        _bytes(r.absx),
        _bytes(r.absxstar),
        _bytes(r.initial.element),
        _bytes(r.final.element),
        diagnostics,
    )


def _pair(x, n_max, t):
    """(the ladder's outcome, the per-rung body's outcome)."""
    return _outcome(polar_regularized, x, n_max, t), _outcome(
        _per_rung_polar_regularized, x, n_max, t
    )


def _assert_same(x, n_max, t):
    got, expected = _pair(x, n_max, t)
    assert got == expected


signatures = st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=80)
@given(
    sig=signatures,
    seed=seeds,
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
    log_scale=st.floats(-12.0, 12.0),
    n_max=st.sampled_from(N_MAX),
    tol=st.sampled_from(sorted(TOLS)),
)
def test_stacked_ladder_matches_per_rung_body(sig, seed, zero_frac, log_scale, n_max, tol):
    def sigma(rng, n):
        s = rng.uniform(0.1, 2.0, n) * 10.0**log_scale
        return np.where(rng.uniform(size=n) < zero_frac, 0.0, s)

    _assert_same(_element(sig, seed, sigma), n_max, TOLS[tol])


def _stops_early(rng, n):
    # a step moves u by about 1/(n s), below rank_cutoff = 1e-10 once
    # n > 1e10 / s: by rung 15 of 21 for s >= 1e6
    s = 10.0 ** (6.0 + rng.uniform(0.0, 2.0, n))
    s[rng.uniform(size=n) < 0.3] = 0.0
    return s


@settings(max_examples=30)
@given(sig=signatures, seed=seeds, tol=st.sampled_from(sorted(TOLS)))
def test_stacked_ladder_matches_where_it_stops_early(sig, seed, tol):
    x = _element(sig, seed, _stops_early)
    _assert_same(x, DEFAULT_LADDER_MAX, TOLS[tol])
    assert len(polar_regularized(x).diagnostics) < len(_ladder(DEFAULT_LADDER_MAX))


def _near_threshold(rung, factor, t):
    """Singular values whose smallest, s_min, moves u by about
    rank_cutoff / factor between rungs n/2 and n = 2^rung: the stop test there
    lies inside the factor 2 where the Gram bounds decide nothing."""
    s_min = factor / (2**rung * t.rank_cutoff)

    def sigma(rng, k):
        s = s_min * 10.0 ** rng.uniform(0.0, 1.0, k)
        s[0] = s_min
        return s

    return sigma


@settings(max_examples=40)
@given(sig=signatures, seed=seeds, rung=st.integers(1, 20), factor=st.floats(0.6, 1.8))
def test_stacked_ladder_matches_near_the_stop_threshold(sig, seed, rung, factor):
    t = TOLS["default"]
    _assert_same(_element(sig, seed, _near_threshold(rung, factor, t)), DEFAULT_LADDER_MAX, t)


def test_ladder_past_the_float_range_stops_as_the_per_rung_body():
    # 1/n overflows past 2^1024: no rung that the ladder reaches computes it
    x = _element((3, 2), 5, _stops_early)
    _assert_same(x, 2**1100, TOLS["default"])
    assert len(polar_regularized(x, 2**1100).diagnostics) < 30


@settings(max_examples=60)
@given(
    n=st.integers(1, 8),
    k=st.integers(1, 22),
    seed=seeds,
    fortran=st.booleans(),
    log_scale=st.floats(-12.0, 12.0),
)
def test_assemble_stack_slices_are_assemble_bits(n, k, seed, fortran, log_scale):
    rng = np.random.default_rng(seed)
    u = haar_unitary_block(n, rng)
    u = np.asfortranarray(u) if fortran else np.ascontiguousarray(u)
    eig = HermitianEigenSystem((np.zeros(n),), AlgebraElement._of([u.copy()]))
    values = rng.uniform(0.0, 2.0, (k, n)) * 10.0**log_scale
    values[:, rng.uniform(size=n) < 0.3] = 0.0
    (stack,) = eig.assemble_stack([values])
    for i in range(k):
        assert stack[i].tobytes() == eig.assemble(lambda w: values[i]).blocks[0].tobytes()


# Deliberate breakages: each must make the comparison fail.

BROKEN_INPUTS = [((3, 5), 1), ((8,), 2), ((2, 4, 1), 3)]


def _early(sig, seed):
    return _element(sig, seed, _stops_early)


def _stop_breaking(monkeypatch, breakage):
    """Route the ladder's stop tests through breakage(gram_blocks, bound, t, body)."""
    body = polar._gram_against
    monkeypatch.setattr(
        polar, "_gram_against", lambda g, bound, t: breakage(g, bound, t, body)
    )


@pytest.mark.parametrize("sig,seed", BROKEN_INPUTS)
def test_stopping_one_rung_late_is_caught(monkeypatch, sig, seed):
    x = _early(sig, seed)
    _assert_same(x, DEFAULT_LADDER_MAX, TOLS["default"])
    stopped = []

    def late(g, bound, t, body):
        value = body(g, bound, t)
        if value < bound and not stopped:
            stopped.append(value)
            return bound
        return value

    _stop_breaking(monkeypatch, late)
    got, expected = _pair(x, DEFAULT_LADDER_MAX, TOLS["default"])
    assert got != expected


@pytest.mark.parametrize("sig,seed", BROKEN_INPUTS)
def test_stop_test_on_the_wrong_rung_is_caught(monkeypatch, sig, seed):
    x = _early(sig, seed)
    previous = []

    def stale(g, bound, t, body):
        # the Gram matrix of the rung before, except at the first test
        read = previous[-1] if previous else g
        previous.append(g)
        return body(read, bound, t)

    _stop_breaking(monkeypatch, stale)
    got, expected = _pair(x, DEFAULT_LADDER_MAX, TOLS["default"])
    assert got != expected


@pytest.mark.parametrize("sig,seed", BROKEN_INPUTS)
def test_skipped_hermitization_is_caught(monkeypatch, sig, seed):
    x = _element(sig, seed, lambda rng, n: rng.uniform(0.1, 2.0, n))
    _assert_same(x, DEFAULT_LADDER_MAX, TOLS["default"])

    def unhermitized(self, values):
        return [
            (u * np.asarray(v, dtype=np.complex128)[:, None, :]) @ u.conj().T
            for v, u in zip(values, self.unitary.blocks)
        ]

    monkeypatch.setattr(core.HermitianEigenSystem, "assemble_stack", unhermitized)
    got, expected = _pair(x, DEFAULT_LADDER_MAX, TOLS["default"])
    assert got != expected


@pytest.mark.parametrize(
    "fault_rung,non_finite_rung",
    [(0, None), (3, None), (20, None), (0, 5), (4, 5), (5, 5), (6, 5), (3, 0)],
)
def test_diagnostic_faults_are_raised_in_rung_order(monkeypatch, fault_rung, non_finite_rung):
    # the ladder solves all its diagnostics in one driver call per block,
    # and must still raise what the per-rung body raises: the solve fault of
    # a rung before the first non-finite rung, else that rung's BadArgument
    x = _element((3, 2), 9, lambda rng, n: rng.uniform(0.5, 2.0, n))
    t = TOLS["default"]
    assert len(polar_regularized(x, DEFAULT_LADDER_MAX, t).diagnostics) == 21
    injected = NonConvergence("injected into one rung's diagnostic solve")

    # the ladder: the fault goes into slice fault_rung of every driver call
    # that _gram_norms makes, and _finite_rungs' second call, on the
    # diagnostics, stops at non_finite_rung
    inside, finite_calls = [], []
    gram_norms, driver, finite_rungs = polar._gram_norms, core._jacobi_eigh, polar._finite_rungs

    def diagnostics(stacks, tol):
        inside.append(True)
        try:
            return gram_norms(stacks, tol)
        finally:
            inside.pop()

    def faulty_driver(mats, rel_off_tol, max_sweeps, vectors=True):
        w, u, faults = driver(mats, rel_off_tol, max_sweeps, vectors)
        if inside and fault_rung < len(mats):
            faults.setdefault(fault_rung, injected)
        return w, u, faults

    def finite(k, stacks):
        finite_calls.append(k)
        n = finite_rungs(k, stacks)
        if len(finite_calls) == 2 and non_finite_rung is not None:
            return min(n, non_finite_rung)
        return n

    monkeypatch.setattr(polar, "_gram_norms", diagnostics)
    monkeypatch.setattr(core, "_jacobi_eigh", faulty_driver)
    monkeypatch.setattr(polar, "_finite_rungs", finite)

    # the per-rung body: rung i's diagnostic is its (i + 1)-th operator_norm
    # call, which forms the rung's element (BadArgument when non-finite) and
    # then solves it
    rungs, norm_body = [], operator_norm

    def norm(y, tol=None):
        i = len(rungs)
        rungs.append(i)
        if i == non_finite_rung:
            raise BadArgument(_NON_FINITE)
        if i == fault_rung:
            raise injected
        return norm_body(y, tol)

    monkeypatch.setattr(sys.modules[__name__], "operator_norm", norm)
    got, expected = _pair(x, DEFAULT_LADDER_MAX, t)
    assert got == expected
    assert len(rungs) == min(fault_rung, 21 if non_finite_rung is None else non_finite_rung) + 1
    if non_finite_rung is not None and non_finite_rung <= fault_rung:
        assert got == ("raised", BadArgument, _NON_FINITE)
    else:
        assert got == ("raised", NonConvergence, str(injected))
