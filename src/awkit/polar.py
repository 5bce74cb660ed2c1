"""Polar decomposition and the spectral-cut construction.

Two routes to the same partial isometry: a direct route through the
eigendecomposition of x*x, and a regularized route through the resolvent
ladder u_n = x (1/n + |x|)^{-1} along geometric indices, snapped onto an
exact partial isometry. The direct route serves as the independent oracle
for the ladder. The ladder's diagnostics ||u_n - u|| are measured as
||(u_n - u) V|| with V the unitary of its eigensystem of x*x: V leaves the
norm unchanged, and since u_n - u = u (f_n(|x|) - P), with
f_n(s) = s / (1/n + s) and P the range projection of |x|, the Gram matrix
in that basis is diagonal up to roundoff, so its Jacobi solve stops after
0-1 sweeps.

Every rung depends only on that eigensystem, so the ladder builds its rungs
stacked, one (k, n, n) array per block, rather than as k separate elements.
This changes no bit of any result: elementwise float and complex steps are
exact or correctly rounded entry by entry, however the arrays are laid
out, and numpy's stacked matmul makes the same BLAS call on each slice as
the 2-D matmul on the same layout. Only the Jacobi solves, which numpy
cannot reproduce bit for bit, stay per slice. Both routes memoize ||x|| from
their solve of x*x, so polar_residuals reads its scale without an eigensolve.

The spectral cut produces a nonzero projection p and a positive a with
a |x*| = p by truncating the spectrum of |x*| below a cut point; its three
branches cover projections, invertible elements, and singular elements
with a spectral gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AlgebraElement,
    Projection,
    ToleranceConfig,
    _NON_FINITE,
    _eigh_blocks,
    _gram_against,
    _gram_norm,
    _norm_against,
    _remember_norm,
    _tol,
    adjoint,
    loewner_leq,
    operator_norm,
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
    route produced the result, each norm measured in the eigenbasis of x*x
    (a unitary factor leaves it unchanged).
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
    eig = _eigh_blocks((adjoint(x) * x).blocks, t)
    _remember_norm(x, eig, t)
    absx = eig.root(t)
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


def _finite_rungs(k: int, stacks) -> int:
    """How many leading rungs of k hold only finite entries. Each stack is a
    list of per-block (j, n, n) arrays whose slices are the last j rungs."""
    ok = np.ones(k, dtype=bool)
    for stack in stacks:
        for s in stack:
            ok[k - len(s):] &= np.isfinite(s).all(axis=(1, 2))
    return k if ok.all() else int(ok.argmin())


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
    analytic bound (1/n) / (1/n + sigma_min) by more than 10 pos_slack.

    The rungs are built together from the one eigensystem V diag(w) V* of
    x*x, one (k, n, n) array per block: the resolvent values of all k rungs,
    V diag(r) V* and x times it, and the Gram matrices of consecutive
    differences. The stop tests are decided in rung order by _gram_against,
    the rule of _norm_against, and the rungs after the first that stops are
    dropped unread. Each diagnostic is ||(u_n - u) V||, the norm of u_n - u
    since V is unitary, read off a Gram matrix that V makes diagonal up to
    roundoff. Each slice has the bits of the rung built on its own (see the
    module docstring), and a rung raises, in rung order, what it raised on
    its own: the BadArgument of a non-finite entry, an eigensolve's error,
    or the OverflowError of an n past the float range.
    """
    t = _tol(tol)
    if n_max < 1:
        raise BadArgument("n_max must be at least 1")
    eig = _eigh_blocks((adjoint(x) * x).blocks, t)
    _remember_norm(x, eig, t)
    cutoff = eig.rank_cutoff(t)
    sigma = [np.sqrt(np.maximum(w, 0.0)) for w in eig.eigenvalues]
    kept = [s[s * s > cutoff] for s in sigma]
    sigma_min = min((float(s.min()) for s in kept if s.size), default=None)
    absx = eig.root(t)
    absxstar = _eigh_blocks((x * adjoint(x)).blocks, t).root(t)

    ns = _ladder(n_max)
    inverses, overflow = [], None
    for n in ns:
        try:
            inverses.append(1.0 / n)
        except OverflowError as exc:  # raised once the ladder reaches this rung
            overflow = exc
            break
    k = len(inverses)
    inv = np.array(inverses)[:, None]
    # x vanishes on ker |x|, so the resolvent is set to 0 there rather than
    # ~n, which would amplify the roundoff of x on that kernel
    resolvents = eig.assemble_stack(
        [np.where(w > cutoff, 1.0 / (inv + s), 0.0) for w, s in zip(eig.eigenvalues, sigma)]
    )
    terms = [b @ r for b, r in zip(x.blocks, resolvents)]
    steps = [u[1:] - u[:-1] for u in terms]
    grams = [d.swapaxes(-1, -2).conj() @ d for d in steps]
    finite = _finite_rungs(k, (resolvents, terms, steps, grams))
    for last in range(k):
        if last == finite:
            raise BadArgument(_NON_FINITE)
        if last and _gram_against([g[last - 1] for g in grams], t.rank_cutoff, t) < t.rank_cutoff:
            break
    else:
        if overflow is not None:
            raise overflow

    last_u = AlgebraElement._of([u[last].copy() for u in terms])
    # the direct route's u for last_u, without its unused |last_u*|
    abs_last = _eigh_blocks((adjoint(last_u) * last_u).blocks, t).root(t)
    u = last_u * pseudo_inverse_on_range(abs_last, t)
    gaps = [u_n[: last + 1] - b for u_n, b in zip(terms, u.blocks)]
    rotated = [g @ v for g, v in zip(gaps, eig.unitary.blocks)]
    gap_grams = [e.swapaxes(-1, -2).conj() @ e for e in rotated]
    finite = _finite_rungs(last + 1, (gaps, rotated, gap_grams))
    diagnostics = []
    for i in range(last + 1):
        if i == finite:
            raise BadArgument(_NON_FINITE)
        diagnostics.append((ns[i], _gram_norm([g[i] for g in gap_grams], t)))
    last_n = ns[last]
    if sigma_min is not None:
        bound = (1.0 / last_n) / (1.0 / last_n + sigma_min)
        if diagnostics[-1][1] > bound + 10.0 * t.pos_slack:
            raise SlowConvergence(
                f"ladder gap {diagnostics[-1][1]:.3e} above bound {bound:.3e} at n={last_n}"
            )
    return PolarResult(u=u, absx=absx, absxstar=absxstar, diagnostics=tuple(diagnostics))


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
    smallest nonzero spectrum point, and take a = (p x x* p)^{-1/2} on the
    range of p.
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
    # the corner p x x* p is formed here: solved unchecked, and inverted
    # under the square root in its own eigensystem
    corner = p_el * gram_star * p_el
    a = _eigh_blocks(corner.blocks, t).inverse_root(t)
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
        "sqrt_identity": operator_norm(_eigh_blocks(inner.blocks, t).root(t) - p, t),
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
