"""The resolvent ladder against the body that eigensolved every stop test
and snapped its last rung.

``_reference_polar_regularized`` is the earlier body of
``awkit.polar.polar_regularized``, kept verbatim as a named oracle. It
decided the ladder's stop test ``||u_n - u_{n-1}|| < rank_cutoff`` with a
full ``operator_norm``, took u by snapping the last rung u_N onto a partial
isometry, u_N pinv(|u_N|), and measured each diagnostic as
``operator_norm(u_n - u)``. The ladder now decides the stop test by the
Gram-bounds rule of ``core._norm_against`` (``core._gram_against``), takes
u as the rungs' limit in closed form, x (x*x)^{-1/2} on the range of |x|
from the eigensystem of x*x it already holds, and measures each diagnostic
as ||(u_n - u) V|| with V the unitary of that eigensystem. In exact
arithmetic the snap and the limit are the same u, so only roundoff moves.
(``tests/test_polar_stacked.py`` holds the ladder to the body that built
each rung on its own, bit for bit.)

On inputs with zero singular values, at scales from 1e-12 to 1e12, for
several ladder lengths, on inputs whose ladder stops early, and on inputs
whose stop-test difference lands near rank_cutoff (so that the eigensolve
still runs), both must return the same bytes for |x|, |x*| and their range
projections and the same diagnostic indices n, or raise the same exception
with the same message. u must lie within U_ATOL and each gap within
GAP_ATOL of the reference's, both absolute: u is a partial isometry, and
each gap lies in [0, 1]. In 1500 draws of the first test's kind the
largest differences measured were 7.3e-13 on u, at n_max 1 and 2 where the
snapped rung lies far from the limit, and 1.8e-14 on a gap.

One mismatch is allowed, at pos_slack 1e-20 only: a result where the other
body raises SlowConvergence. There the final gap equals the analytic bound
in exact arithmetic and 10 pos_slack is far below its roundoff, so either
verdict is roundoff; both final gaps must then lie within GAP_ATOL of
bound + 10 pos_slack.

The reference re-checks the self-adjointness and the positivity of the
matrices it forms, in positive_sqrt and in its snap's
_pseudo_inverse_on_range (a copy of the earlier public function of that
name, which reads the positivity rule core._is_positive in place of the
deleted HermitianEigenSystem.is_positive), which below roundoff (pos_slack
1e-20) fail on roundoff; the ladder checks none of them. Where the
reference raises NotSelfAdjoint or NotPositive, the ladder must return what
the reference returns with those checks made no-ops.

The last tests pin the Jacobi sweeps of one ladder call, hold each gap to
the analytic bound (1/n) / (1/n + sigma_min) that it equals in exact
arithmetic, and check the ladder's covariance u(V x W*) = V u(x) W* under
block unitaries V and W.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import core, polar
from awkit.core import (
    AlgebraElement,
    ToleranceConfig,
    _tol,
    adjoint,
    eigh_hermitian,
    operator_norm,
    positive_sqrt,
)
from awkit.errors import BadArgument, NotPositive, NotSelfAdjoint, SlowConvergence
from awkit.polar import DEFAULT_LADDER_MAX, PolarResult, _ladder, polar_regularized
from awkit.sampling import haar_unitary_block


def _pseudo_inverse_on_range(
    h: AlgebraElement, tol: ToleranceConfig | None = None
) -> AlgebraElement:
    """Inverse of a positive element on its range, zero on its kernel."""
    t = _tol(tol)
    eig = eigh_hermitian(h, t)
    if not core._is_positive(eig.min_eigenvalue, eig.max_eigenvalue, t):
        raise NotPositive(f"min eigenvalue {eig.min_eigenvalue:.3e} below slack")
    return eig.inverse(t)


def _reference_polar_regularized(
    x: AlgebraElement,
    n_max: int = DEFAULT_LADDER_MAX,
    tol: ToleranceConfig | None = None,
) -> PolarResult:
    """Polar decomposition through the resolvent ladder x (1/n + |x|)^{-1}.

    Runs geometric indices up to n_max, stops early once successive terms
    stabilize below rank_cutoff, and snaps the final term onto an exact
    partial isometry with one direct-route projection (disclosed through the
    diagnostics). Raises SlowConvergence when the final gap exceeds the
    analytic bound (1/n) / (1/n + sigma_min).
    """
    t = _tol(tol)
    if n_max < 1:
        raise BadArgument("n_max must be at least 1")
    gram = adjoint(x) * x
    eig = eigh_hermitian(gram, t)
    cutoff = eig.rank_cutoff(t)
    sigma = [np.sqrt(np.maximum(w, 0.0)) for w in eig.eigenvalues]
    kept = [s[s * s > cutoff] for s in sigma]
    sigma_min = min((float(s.min()) for s in kept if s.size), default=None)
    absx = eig.root(t)
    absxstar = positive_sqrt(x * adjoint(x), t)
    # the range projections the ladder carries, by the rule of root
    initial = eig.support(t)
    final = eigh_hermitian(x * adjoint(x), t).support(t)

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
        if prev is not None and operator_norm(u_n - prev, t) < t.rank_cutoff:
            break
        prev = u_n

    last_n, last_u = terms[-1]
    # the direct route's u for last_u, without its unused |last_u*|
    u = last_u * _pseudo_inverse_on_range(positive_sqrt(adjoint(last_u) * last_u, t), t)
    diagnostics = tuple((n, operator_norm(u_n - u, t)) for n, u_n in terms)
    if sigma_min is not None:
        bound = (1.0 / last_n) / (1.0 / last_n + sigma_min)
        if diagnostics[-1][1] > bound + 10.0 * t.pos_slack:
            raise SlowConvergence(
                f"ladder gap {diagnostics[-1][1]:.3e} above bound {bound:.3e} at n={last_n}"
            )
    return PolarResult(
        u=u, absx=absx, absxstar=absxstar, initial=initial, final=final, diagnostics=diagnostics
    )


N_MAX = (1, 2, 64, DEFAULT_LADDER_MAX)

TOLS = {
    "default": ToleranceConfig(),
    "fine-cut": ToleranceConfig(rank_cutoff=1e-13),
    # below roundoff: a Gram matrix that is not exactly Hermitian fails the
    # reference's check
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


U_ATOL = 1e-11
GAP_ATOL = 1e-12


def _held_to(exc):
    """(final gap, bound) that the ladder which raised SlowConvergence exc
    compared, read from its frame: the message rounds both to 4 digits."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame.f_locals
    return frame["diagnostics"][-1][1], frame["bound"]


def _outcome(ladder, x, n_max, t):
    """(strict part, the result or the raised exception) of one ladder call."""
    # a fresh copy, so that neither route sees the other's memoized norms
    x = AlgebraElement(x.blocks)
    try:
        r = ladder(x, n_max, t)
    except Exception as exc:  # the exception is part of the outcome compared
        return ("raised", type(exc), str(exc)), exc
    ns = tuple(n for n, _ in r.diagnostics)
    projections = (_bytes(r.initial.element), _bytes(r.final.element))
    return ("result", _bytes(r.absx), _bytes(r.absxstar), projections, ns), r


def _assert_same(x, n_max, t):
    expected, ref = _outcome(_reference_polar_regularized, x, n_max, t)
    if expected[0] == "raised" and expected[1] in (NotSelfAdjoint, NotPositive):
        with mock.patch.object(core, "_require_self_adjoint", lambda *args: None), \
                mock.patch.object(core, "_is_positive", lambda *args: True):
            expected, ref = _outcome(_reference_polar_regularized, x, n_max, t)
    got, new = _outcome(polar_regularized, x, n_max, t)
    if {got[0], expected[0]} == {"raised", "result"}:
        # the SlowConvergence verdict at the analytic bound, decided by roundoff
        raised, kept = (new, ref) if got[0] == "raised" else (ref, new)
        assert isinstance(raised, SlowConvergence) and t is TOLS["below-roundoff"], (got, expected)
        gap, bound = _held_to(raised)
        for final in (gap, kept.diagnostics[-1][1]):
            assert abs(final - (bound + 10.0 * t.pos_slack)) <= GAP_ATOL
        return
    assert got == expected
    if got[0] == "result":
        assert operator_norm(new.u - ref.u) <= U_ATOL
        for (_, g), (_, r) in zip(new.diagnostics, ref.diagnostics):
            assert abs(g - r) <= GAP_ATOL, (g, r)


signatures = st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60)
@given(
    sig=signatures,
    seed=seeds,
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
    log_scale=st.floats(-12.0, 12.0),
    n_max=st.sampled_from(N_MAX),
    tol=st.sampled_from(sorted(TOLS)),
)
def test_ladder_matches_reference(sig, seed, zero_frac, log_scale, n_max, tol):
    def sigma(rng, n):
        s = rng.uniform(0.1, 2.0, n) * 10.0**log_scale
        return np.where(rng.uniform(size=n) < zero_frac, 0.0, s)

    _assert_same(_element(sig, seed, sigma), n_max, TOLS[tol])


@settings(max_examples=30)
@given(sig=signatures, seed=seeds, log_sigma=st.floats(5.0, 8.0), zeros=st.booleans())
def test_ladder_matches_reference_where_it_stops_early(sig, seed, log_sigma, zeros):
    def sigma(rng, n):
        s = 10.0 ** (log_sigma + rng.uniform(0.0, 0.5, n))
        if zeros:
            s[rng.uniform(size=n) < 0.3] = 0.0
        return s

    x = _element(sig, seed, sigma)
    _assert_same(x, DEFAULT_LADDER_MAX, TOLS["default"])
    assert len(polar_regularized(x).diagnostics) < len(_ladder(DEFAULT_LADDER_MAX))


def _undecided(gram_blocks, bound):
    """True when the Gram bounds leave ||x|| against bound to the eigensolve,
    given the blocks of x*x."""
    diagonals = [b.diagonal().real for b in gram_blocks]
    lo = max(float(d.max()) for d in diagonals)
    hi = max(float(d.sum()) for d in diagonals)
    return not (lo >= 4.0 * bound * bound or hi < 0.25 * bound * bound)


@settings(max_examples=40)
@given(
    sig=signatures,
    seed=seeds,
    rung=st.integers(1, 20),
    factor=st.floats(0.6, 1.8),
)
def test_ladder_matches_reference_near_the_stop_threshold(sig, seed, rung, factor):
    # between rungs n/2 and n a singular value s moves u by about 1/(n s),
    # so the smallest one puts the stop-test difference at rank_cutoff /
    # factor at rung n: inside the factor 2 on either side where the Gram
    # bounds decide nothing
    t = TOLS["default"]
    n = 2**rung
    s_min = factor / (n * t.rank_cutoff)

    def sigma(rng, k):
        s = s_min * 10.0 ** rng.uniform(0.0, 1.0, k)
        s[0] = s_min
        return s

    x = _element(sig, seed, sigma)
    _assert_same(x, DEFAULT_LADDER_MAX, t)
    seen = []

    def spy(gram_blocks, bound):
        seen.append(_undecided(gram_blocks, bound))
        return gram_against(gram_blocks, bound)

    gram_against = polar._gram_against
    with mock.patch.object(polar, "_gram_against", spy):
        polar_regularized(AlgebraElement(x.blocks), DEFAULT_LADDER_MAX, t)
    assert any(seen)


def test_ladder_jacobi_sweeps(monkeypatch):
    # bench_polar's (8,) draw, all 21 rungs: 23 solves, those of x*x and
    # x x* and one per diagnostic; 125 sweeps when each diagnostic solved
    # (u_n - u)*(u_n - u) afresh, and 25 solves while the last rung was
    # snapped onto u through two more
    rng = np.random.default_rng(8)
    x = AlgebraElement([
        (haar_unitary_block(8, rng) * rng.uniform(0.1, 2.0, 8)) @ haar_unitary_block(8, rng)
    ])
    sweeps_body, mass_body = core._jacobi_sweeps, core._off_mass
    solves, masses = [], []

    def sweeps(*args):
        solves.append(args[0].shape[0])
        return sweeps_body(*args)

    def mass(rows):
        masses.append(len(rows))
        return mass_body(rows)

    monkeypatch.setattr(core, "_jacobi_sweeps", sweeps)
    monkeypatch.setattr(core, "_off_mass", mass)
    assert len(polar_regularized(x).diagnostics) == 21
    assert len(solves) == 23
    # a solve reads the mass once per sweep, and once more to stop; the
    # snap's two solves took 14 of the 40 sweeps
    assert len(masses) - len(solves) == 26


@settings(max_examples=40)
@given(
    sig=signatures,
    seed=seeds,
    zero_frac=st.sampled_from([0.0, 0.3]),
    log_scale=st.floats(-4.0, 4.0),
    n_max=st.sampled_from(N_MAX),
)
def test_ladder_gaps_are_the_analytic_bound(sig, seed, zero_frac, log_scale, n_max):
    # u_n - u = u (f_n(|x|) - P), so ||u_n - u|| = (1/n) / (1/n + sigma_min)
    # in exact arithmetic, with sigma_min the smallest nonzero singular value
    drawn = []

    def sigma(rng, n):
        s = rng.uniform(0.1, 2.0, n) * 10.0**log_scale
        drawn.append(np.where(rng.uniform(size=n) < zero_frac, 0.0, s))
        return drawn[-1]

    x = _element(sig, seed, sigma)
    kept = np.concatenate(drawn)
    kept = kept[kept > 0.0]
    result = polar_regularized(x, n_max)
    for n, gap in result.diagnostics:
        bound = (1.0 / n) / (1.0 / n + kept.min()) if kept.size else 0.0
        assert abs(gap - bound) <= GAP_ATOL, (n, gap, bound)


def _haar(sig, rng):
    return AlgebraElement([haar_unitary_block(n, rng) for n in sig])


@settings(max_examples=40)
@given(sig=signatures, seed=seeds)
def test_ladder_is_unitarily_covariant(sig, seed):
    def sigma(rng, n):
        s = rng.uniform(0.1, 2.0, n)
        return np.where(rng.uniform(size=n) < 0.3, 0.0, s)

    x = _element(sig, seed, sigma)
    rng = np.random.default_rng(seed + 1)
    v, w = _haar(sig, rng), _haar(sig, rng)
    moved = polar_regularized(v * x * adjoint(w))
    fixed = polar_regularized(x)
    assert operator_norm(moved.u - v * fixed.u * adjoint(w)) <= 1e-10
    assert [n for n, _ in moved.diagnostics] == [n for n, _ in fixed.diagnostics]
    for (_, a), (_, b) in zip(moved.diagnostics, fixed.diagnostics):
        assert abs(a - b) <= 1e-12
