"""Polar decomposition and the spectral-cut construction.

Two routes to the same partial isometry: a direct route through the
eigendecomposition of x*x, and a regularized route through the resolvent
ladder u_n = x (1/n + |x|)^{-1} along geometric indices, snapped onto an
exact partial isometry. The direct route serves as the independent oracle
for the ladder. The spectral cut produces a nonzero projection p and a
positive a with a |x*| = p by truncating the spectrum of |x*| below a cut
point; its three branches cover projections, invertible elements, and
singular elements with a spectral gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AlgebraElement,
    Projection,
    ToleranceConfig,
    _eigh_blocks,
    _norm_against,
    _tol,
    adjoint,
    loewner_leq,
    operator_norm,
    positive_sqrt,
    pseudo_inverse_on_range,
    range_projection,
)
from .errors import BadArgument, BadCut, NotProjection, SlowConvergence, ZeroElement
from .spectral import BorelSubset, measure_of, spectral_measure

__all__ = [
    "PolarResult",
    "PolarResiduals",
    "SpectralCut",
    "CutResiduals",
    "CUT_RESIDUAL_TOL",
    "polar_direct",
    "polar_regularized",
    "polar_residuals",
    "verify_polar",
    "spectral_cut",
    "cut_residuals",
    "resolvent_gap_inequality",
    "DEFAULT_LADDER_MAX",
]

DEFAULT_LADDER_MAX = 2**20
CUT_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class PolarResult:
    """Partial isometry u with x = |x*| u = u |x|.

    diagnostics holds (n, ||u_n - u||) ladder pairs when the regularized
    route produced the result.
    """

    u: AlgebraElement
    absx: AlgebraElement
    absxstar: AlgebraElement
    diagnostics: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class PolarResiduals:
    """The five polar identities as named residuals, with the accept rule.

    residuals maps the fixed names reconstruction_left (x = |x*| u),
    reconstruction_right (x = u |x|), partial_isometry (u u* u = u),
    initial_projection (u*u = rp(|x|)) and final_projection
    (u u* = rp(|x*|)) to block operator norms of the defects; the two
    reconstruction residuals are divided by 1 + ||x||. accepted holds when
    every unscaled defect is at most 10 pos_slack (1 + ||x||).
    """

    residuals: dict[str, float]
    accepted: bool


@dataclass(frozen=True)
class SpectralCut:
    """Projection p and positive a with a, p, |x*| commuting and a |x*| = p.

    absxstar is the |x*| the cut was taken from.
    """

    p: Projection
    a: AlgebraElement
    absxstar: AlgebraElement
    mu: float | None = None


@dataclass(frozen=True)
class CutResiduals:
    """The five spectral-cut identities as named residuals, with the accept rule.

    residuals maps the fixed names cut_identity (a |x*| = p), sqrt_identity
    ((a x x* a)^{1/2} = p), commutator_ap, commutator_a_absxstar and
    commutator_p_absxstar to block operator norms of the defects. nonzero
    holds when ||p|| > 1/2; accepted holds when p is nonzero and every
    residual is at most CUT_RESIDUAL_TOL.
    """

    residuals: dict[str, float]
    nonzero: bool
    accepted: bool


def polar_direct(
    x: AlgebraElement, tol: ToleranceConfig | None = None
) -> PolarResult:
    """Polar decomposition through the eigendecomposition of x*x.

    u = x pinv(|x|) vanishes on ker |x|; the zero element yields u = 0.
    """
    t = _tol(tol)
    absx = _eigh_blocks((adjoint(x) * x).blocks, t).root(t)
    absxstar = _eigh_blocks((x * adjoint(x)).blocks, t).root(t)
    u = x * pseudo_inverse_on_range(absx, t)
    return PolarResult(u=u, absx=absx, absxstar=absxstar)


def _ladder(n_max: int) -> list[int]:
    ns, n = [], 1
    while n < n_max:
        ns.append(n)
        n *= 2
    ns.append(n_max)
    return ns


def polar_regularized(
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
    eig = _eigh_blocks(gram.blocks, t)
    cutoff = eig.rank_cutoff(t)
    sigma = [np.sqrt(np.maximum(w, 0.0)) for w in eig.eigenvalues]
    kept = [s[s * s > cutoff] for s in sigma]
    sigma_min = min((float(s.min()) for s in kept if s.size), default=None)
    absx = eig.root(t)
    absxstar = _eigh_blocks((x * adjoint(x)).blocks, t).root(t)

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

    last_n, last_u = terms[-1]
    # the direct route's u for last_u, without its unused |last_u*|
    abs_last = _eigh_blocks((adjoint(last_u) * last_u).blocks, t).root(t)
    u = last_u * pseudo_inverse_on_range(abs_last, t)
    diagnostics = tuple((n, operator_norm(u_n - u, t)) for n, u_n in terms)
    if sigma_min is not None:
        bound = (1.0 / last_n) / (1.0 / last_n + sigma_min)
        if diagnostics[-1][1] > bound + 10.0 * t.pos_slack:
            raise SlowConvergence(
                f"ladder gap {diagnostics[-1][1]:.3e} above bound {bound:.3e} at n={last_n}"
            )
    return PolarResult(u=u, absx=absx, absxstar=absxstar, diagnostics=diagnostics)


def polar_residuals(
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


def verify_polar(
    x: AlgebraElement, u: AlgebraElement, tol: ToleranceConfig | None = None
) -> bool:
    """Uniqueness gate: accept u only when every polar identity holds.

    A thin wrapper over polar_residuals for a bare candidate u: it computes
    |x| and |x*| as both polar routes do and applies the same accept rule.
    """
    t = _tol(tol)
    absx = _eigh_blocks((adjoint(x) * x).blocks, t).root(t)
    absxstar = _eigh_blocks((x * adjoint(x)).blocks, t).root(t)
    return polar_residuals(x, PolarResult(u=u, absx=absx, absxstar=absxstar), t).accepted


def spectral_cut(
    x: AlgebraElement,
    mu: float | None = None,
    tol: ToleranceConfig | None = None,
) -> SpectralCut:
    """Cut the spectrum of |x*| below mu to produce p != 0 and positive a
    with a |x*| = (a x x* a)^{1/2} = p.

    Branches: |x*| a projection -> (a, p) = (1, x x*), taken when both
    |||x*|^2 - |x*||| <= pos_slack (1 + ||x||) and x x* passes Projection's
    absolute 2 pos_slack rule; |x*| invertible -> (p, a) = (1, (x x*)^{-1/2});
    otherwise remove the spectrum inside [0, mu], defaulting mu to half the
    smallest nonzero spectrum point.
    """
    t = _tol(tol)
    if mu is not None and not np.isfinite(mu):
        raise BadArgument("cut point must be finite")
    norm_x = operator_norm(x, t)
    if norm_x <= t.pos_slack:
        raise ZeroElement("spectral cut needs a nonzero element")
    if mu is not None and not 0.0 < mu < norm_x:
        raise BadCut(f"cut point must lie strictly between 0 and {norm_x:.6g}")
    gram_star = x * adjoint(x)
    absxstar = _eigh_blocks(gram_star.blocks, t).root(t)
    sig = x.signature
    one = AlgebraElement.identity(sig)

    bound = t.pos_slack * (1.0 + norm_x)
    if _norm_against(absxstar * absxstar - absxstar, bound, t) <= bound:
        try:
            return SpectralCut(p=Projection(gram_star, t), a=one, absxstar=absxstar)
        except NotProjection:
            pass  # x x* fails the absolute rule: cut |x*| as a general element

    eig = _eigh_blocks(absxstar.blocks, t, vectors=False)
    cutoff = eig.rank_cutoff(t)
    if eig.min_eigenvalue > cutoff:
        return SpectralCut(
            p=Projection._of(one), a=pseudo_inverse_on_range(absxstar, t), absxstar=absxstar
        )

    m = spectral_measure(absxstar, t)
    points = sorted(m.domain_spectrum.points, key=lambda p: p.real)
    if mu is None:
        nonzero = [p.real for p in points if p.real > cutoff]
        if not nonzero:
            raise BadCut("no clustered spectrum point of |x*| lies above the rank cutoff")
        mu = nonzero[0] / 2.0
    inside = [p for p in points if p.real <= mu]
    p_el = one - measure_of(m, BorelSubset.of(inside)).element
    corner = p_el * gram_star * p_el
    a = positive_sqrt(pseudo_inverse_on_range(corner, t), t)
    return SpectralCut(p=Projection._of(p_el), a=a, absxstar=absxstar, mu=float(mu))


def cut_residuals(
    x: AlgebraElement, cut: SpectralCut, tol: ToleranceConfig | None = None
) -> CutResiduals:
    """Residuals of the spectral-cut identities for cut, read against
    cut.absxstar rather than recomputing |x*|."""
    t = _tol(tol)
    p, a, absxstar = cut.p.element, cut.a, cut.absxstar
    inner = a * (x * adjoint(x)) * a
    residuals = {
        "cut_identity": operator_norm(a * absxstar - p, t),
        "sqrt_identity": operator_norm(positive_sqrt(inner, t) - p, t),
        "commutator_ap": operator_norm(a * p - p * a, t),
        "commutator_a_absxstar": operator_norm(a * absxstar - absxstar * a, t),
        "commutator_p_absxstar": operator_norm(p * absxstar - absxstar * p, t),
    }
    nonzero = _norm_against(p, 0.5, t) > 0.5
    accepted = nonzero and all(v <= CUT_RESIDUAL_TOL for v in residuals.values())
    return CutResiduals(residuals=residuals, nonzero=nonzero, accepted=accepted)


def resolvent_gap_inequality(
    x: AlgebraElement, n: int, m: int, tol: ToleranceConfig | None = None
) -> bool:
    """Check the squared resolvent-gap bound in the Loewner order.

    With R_j = (1/j + |x|)^{-1}, D = R_n - R_m and S = x D + D x*, verifies
    0 <= S^2 and S^2 <= 2 (x D^2 x* + D x* x D).
    """
    t = _tol(tol)
    if n < 1 or m < 1:
        raise BadArgument("resolvent indices must be positive")
    gram = adjoint(x) * x
    eig = _eigh_blocks(gram.blocks, t)

    def resolvent(j: int) -> AlgebraElement:
        return eig.assemble(lambda w: 1.0 / (1.0 / j + np.sqrt(np.maximum(w, 0.0))))

    delta = resolvent(n) - resolvent(m)
    s = x * delta + delta * adjoint(x)
    s2 = s * s
    rhs = 2.0 * (x * delta * delta * adjoint(x) + delta * gram * delta)
    zero = AlgebraElement.zeros(x.signature)
    return loewner_leq(zero, s2, t) and loewner_leq(s2, rhs, t)
