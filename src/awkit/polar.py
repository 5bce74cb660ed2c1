"""Polar decomposition and the spectral-cut construction.

Two routes to the same partial isometry: a direct route through the
eigendecomposition of x*x, and a regularized route through the resolvent
ladder u_n = x (1/n + |x|)^{-1} along geometric indices. The ladder's u is
the limit of its rungs, read in closed form off the eigensystem
V diag(w) V* of x*x that the rungs are built from: x V diag(w^{-1/2}) V* on
the range of |x|, 0 on its kernel. The direct route, which inverts the |x|
it has assembled, serves as the independent oracle for the ladder. The
ladder's diagnostics ||u_n - u|| are measured as ||(u_n - u) V||: V leaves
the norm unchanged, and since u_n - u = u (f_n(|x|) - P), with
f_n(s) = s / (1/n + s) and P the range projection of |x|, the Gram matrix
in that basis is diagonal up to roundoff, so its Jacobi solve stops after
0-1 sweeps.

Every rung depends only on that eigensystem, so the ladder builds its rungs
stacked, one (k, n, n) array per block, rather than as k separate elements.
This changes no bit of any result: elementwise float and complex steps are
exact or correctly rounded entry by entry, however the arrays are laid
out, and numpy's stacked matmul makes the same BLAS call on each slice as
the 2-D matmul on the same layout. The diagnostics' Gram matrices are
solved the same way, one eigenvalues-only Jacobi call per block over all
rungs (core._gram_norms), each slice with the bits of its own solve. Both
routes memoize ||x|| from their solve of x*x, so polar_residuals reads its
scale without an eigensolve.

Both routes also carry the range projections of |x| and |x*|, read off the
eigensystems of x*x and x x* they build |x| and |x*| from by the rule of
root (HermitianEigenSystem.support): each keeps exactly the singular values
its square root keeps. polar_residuals compares u*u and u u* with them, and
verify_polar builds them from its own two solves.

The spectral cut produces a nonzero projection p and a positive a with
a |x*| = p by one rule on the eigensystem of x x* from which it builds
|x*|: p keeps the singular values of x above the cut point mu, and a
inverts them there.
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
    _gram_norms,
    _norm_against,
    _raised,
    _remember_norm,
    _tol,
    adjoint,
    loewner_leq,
    operator_norm,
)
from .errors import BadArgument, BadCut, SlowConvergence, ZeroElement

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

    initial and final are the range projections of absx and absxstar, which
    u*u and u u* must equal: each is 1 where the eigenvalues of x*x (for
    initial) or of x x* (for final) lie above the rank cutoff, the values
    that absx and absxstar keep.

    diagnostics holds (n, ||u_n - u||) ladder pairs when the regularized
    route produced the result, each norm measured in the eigenbasis of x*x
    (a unitary factor leaves it unchanged).
    """

    u: AlgebraElement
    absx: AlgebraElement
    absxstar: AlgebraElement
    initial: Projection
    final: Projection
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

    absxstar is the |x*| the cut was taken from, and mu the cut point used:
    p is the spectral projection of |x*| on (mu, inf).
    """

    p: Projection
    a: AlgebraElement
    absxstar: AlgebraElement
    mu: float


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


def _polar_frame(x: AlgebraElement, t: ToleranceConfig):
    """The solves every polar route starts from: x*x, which memoizes ||x||,
    then x x*. Returns the eigensystem of x*x and, as a dict, the
    PolarResult fields absx, absxstar, initial and final read off the two."""
    eig = _eigh_blocks((adjoint(x) * x).blocks, t)
    _remember_norm(x, eig, t)
    eig_star = _eigh_blocks((x * adjoint(x)).blocks, t)
    return eig, dict(
        absx=eig.root(t),
        absxstar=eig_star.root(t),
        initial=eig.support(t),
        final=eig_star.support(t),
    )


def polar_direct(
    x: AlgebraElement, tol: ToleranceConfig | None = None
) -> PolarResult:
    """Polar decomposition through the eigendecomposition of x*x.

    u = x pinv(|x|) vanishes on ker |x|; the zero element yields u = 0.
    It inverts the |x| it has assembled, in an unchecked solve of its own,
    so that it stays independent of the ladder's closed-form limit; a root
    it has built is positive, and is not checked again.
    """
    t = _tol(tol)
    _, frame = _polar_frame(x, t)
    inverse = _eigh_blocks(frame["absx"].blocks, t).inverse(t)
    return PolarResult(u=x * inverse, **frame)


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

    Runs geometric indices up to n_max and stops early once successive
    terms stabilize below rank_cutoff. u is the limit of the rungs,
    x (x*x)^{-1/2} on the range of |x| and 0 on its kernel, and each
    diagnostic is the distance ||u_n - u|| of a rung from it. Raises
    SlowConvergence when the final gap exceeds the analytic bound
    (1/n) / (1/n + sigma_min), which it equals in exact arithmetic, by more
    than 10 pos_slack.

    The rungs are built together from the one eigensystem V diag(w) V* of
    x*x, one (k, n, n) array per block: the resolvent values of all k rungs,
    V diag(r) V* and x times it, and the Gram matrices of consecutive
    differences. The stop tests are decided in rung order by _gram_against,
    the rule of _norm_against, and the rungs after the first that stops are
    dropped unread. Each diagnostic is ||(u_n - u) V||, the norm of u_n - u
    since V is unitary, read off a Gram matrix that V makes diagonal up to
    roundoff; one _gram_norms call takes all of them. Each slice has the
    bits of the rung built on its own (see the module docstring), and a rung
    raises, in rung order, what it raised on its own: the BadArgument of a
    non-finite entry, an eigensolve's error, or the OverflowError of an n
    past the float range.
    """
    t = _tol(tol)
    if n_max < 1:
        raise BadArgument("n_max must be at least 1")
    eig, frame = _polar_frame(x, t)
    cutoff = eig.rank_cutoff(t)
    sigma = [np.sqrt(np.maximum(w, 0.0)) for w in eig.eigenvalues]
    kept = [s[s * s > cutoff] for s in sigma]
    sigma_min = min((float(s.min()) for s in kept if s.size), default=None)

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

    u = x * eig.inverse_root(t)
    gaps = [u_n[: last + 1] - b for u_n, b in zip(terms, u.blocks)]
    rotated = [g @ v for g, v in zip(gaps, eig.unitary.blocks)]
    gap_grams = [e.swapaxes(-1, -2).conj() @ e for e in rotated]
    finite = _finite_rungs(last + 1, (gaps, rotated, gap_grams))
    # in rung order: the first solve fault before the first non-finite rung
    diagnostics = tuple(zip(ns, map(_raised, _gram_norms([g[:finite] for g in gap_grams], t))))
    if finite <= last:
        raise BadArgument(_NON_FINITE)
    last_n = ns[last]
    if sigma_min is not None:
        bound = (1.0 / last_n) / (1.0 / last_n + sigma_min)
        if diagnostics[-1][1] > bound + 10.0 * t.pos_slack:
            raise SlowConvergence(
                f"ladder gap {diagnostics[-1][1]:.3e} above bound {bound:.3e} at n={last_n}"
            )
    return PolarResult(u=u, diagnostics=diagnostics, **frame)


def polar_residuals(
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


def verify_polar(
    x: AlgebraElement, u: AlgebraElement, tol: ToleranceConfig | None = None
) -> bool:
    """Uniqueness gate: accept u only when every polar identity holds.

    A thin wrapper over polar_residuals for a bare candidate u: it solves
    x*x and x x* once each, builds |x|, |x*| and their range projections
    from them as both polar routes do, sharing nothing with the route that
    produced u, and applies the same accept rule. Like the routes, it
    memoizes ||x|| from its solve of x*x.
    """
    t = _tol(tol)
    _, frame = _polar_frame(x, t)
    return polar_residuals(x, PolarResult(u=u, **frame), t).accepted


def spectral_cut(
    x: AlgebraElement,
    mu: float | None = None,
    tol: ToleranceConfig | None = None,
) -> SpectralCut:
    """Cut the spectrum of |x*| at mu to produce p != 0 and positive a
    with a |x*| = (a x x* a)^{1/2} = p.

    One rule on the eigensystem V diag(w) V* of x x*, from which |x*| is
    built: the singular values sigma = w^{1/2} are kept where w lies above
    its rank cutoff, as in |x*| itself, mu defaults to half the smallest kept
    sigma, and p = V 1_{sigma > mu} V* and a = V (1/sigma) 1_{sigma > mu} V*.
    A projection |x*| gives p = x x* and a = p, an invertible one p = 1 and
    a = |x*|^{-1}.
    """
    t = _tol(tol)
    if mu is not None and not np.isfinite(mu):
        raise BadArgument("cut point must be finite")
    norm_x = operator_norm(x, t)
    if norm_x <= t.pos_slack:
        raise ZeroElement("spectral cut needs a nonzero element")
    if mu is not None and not 0.0 < mu < norm_x:
        raise BadCut(f"cut point must lie strictly between 0 and {norm_x:.6g}")
    eig = _eigh_blocks((x * adjoint(x)).blocks, t)
    cutoff = eig.rank_cutoff(t)

    def sigma(w):
        return np.sqrt(np.where(w > cutoff, w, 0.0))

    kept = np.concatenate([sigma(w) for w in eig.eigenvalues])
    kept = kept[kept > 0.0]
    if not kept.size:
        raise BadCut("no singular value of x lies above the rank cutoff")
    if mu is None:
        mu = float(kept.min()) / 2.0
    p = eig.assemble(lambda w: np.where(sigma(w) > mu, 1.0, 0.0))
    # mu is positive, so the clamp keeps 1/sigma off 0
    a = eig.assemble(lambda w: np.where(sigma(w) > mu, 1.0 / np.maximum(sigma(w), mu), 0.0))
    return SpectralCut(p=Projection._of(p), a=a, absxstar=eig.root(t), mu=float(mu))


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
