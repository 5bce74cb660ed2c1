"""The resolvent ladder against the body that eigensolved every stop test.

``_reference_polar_regularized`` is the earlier body of
``awkit.polar.polar_regularized``, which decided the ladder's stop test
``||u_n - u_{n-1}|| < rank_cutoff`` with a full ``operator_norm``, kept
verbatim as a named oracle. The ladder now decides it with
``core._norm_against``. On inputs with zero singular values, at scales from
1e-12 to 1e12, for several ladder lengths, on inputs whose ladder stops
early, and on inputs whose stop-test difference lands near rank_cutoff (so
that the eigensolve still runs), both must return the same bytes for u,
|x| and |x*| and the same diagnostics, or raise the same exception with the
same message.
"""

import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import polar
from awkit.core import (
    AlgebraElement,
    ToleranceConfig,
    _tol,
    adjoint,
    eigh_hermitian,
    operator_norm,
    positive_sqrt,
    pseudo_inverse_on_range,
)
from awkit.errors import BadArgument, SlowConvergence
from awkit.polar import DEFAULT_LADDER_MAX, PolarResult, _ladder, polar_regularized
from awkit.sampling import haar_unitary_block


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
    u = last_u * pseudo_inverse_on_range(positive_sqrt(adjoint(last_u) * last_u, t), t)
    diagnostics = tuple((n, operator_norm(u_n - u, t)) for n, u_n in terms)
    if sigma_min is not None:
        bound = (1.0 / last_n) / (1.0 / last_n + sigma_min)
        if diagnostics[-1][1] > bound + 10.0 * t.pos_slack:
            raise SlowConvergence(
                f"ladder gap {diagnostics[-1][1]:.3e} above bound {bound:.3e} at n={last_n}"
            )
    return PolarResult(u=u, absx=absx, absxstar=absxstar, diagnostics=diagnostics)


N_MAX = (1, 2, 64, DEFAULT_LADDER_MAX)

TOLS = {
    "default": ToleranceConfig(),
    "fine-cut": ToleranceConfig(rank_cutoff=1e-13),
    # below roundoff: a Gram matrix that is not exactly Hermitian fails its check
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
    # a fresh copy, so that neither route sees the other's memoized norms
    x = AlgebraElement(x.blocks)
    try:
        r = ladder(x, n_max, t)
    except Exception as exc:  # the exception is part of the outcome compared
        return ("raised", type(exc), str(exc))
    diagnostics = tuple((n, struct.pack("<d", g)) for n, g in r.diagnostics)
    return ("result", _bytes(r.u), _bytes(r.absx), _bytes(r.absxstar), diagnostics)


def _assert_same(x, n_max, t):
    expected = _outcome(_reference_polar_regularized, x, n_max, t)
    assert _outcome(polar_regularized, x, n_max, t) == expected


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


def _undecided(x, bound):
    """True when the Gram bounds of x leave ||x|| against bound to the eigensolve."""
    diagonals = [b.diagonal().real for b in (adjoint(x) * x).blocks]
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

    def spy(diff, bound, tol):
        seen.append(_undecided(diff, bound))
        return norm_against(diff, bound, tol)

    norm_against = polar._norm_against
    with mock.patch.object(polar, "_norm_against", spy):
        polar_regularized(AlgebraElement(x.blocks), DEFAULT_LADDER_MAX, t)
    assert any(seen)
