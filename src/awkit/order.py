"""Order convergence as verifiable finite certificates.

A certificate witnesses convergence of a sequence by four self-adjoint
component sequences squeezed between their limits and a shared scalar
dominator envelope 2 eps_n 1, together with an analytic c/n tail bound that
discharges the part of the statement a finite prefix cannot see. The builder
turns norm convergence into such a witness; the verifier re-checks every
condition and reports the first failure. Both work on stacked blocks: each
block position of all terms or components is one numpy array, and the
eigenvalue solves of each block position are one call of the stacked Jacobi
driver. A solve that fails is raised where the element-by-element checks
would have met it, so every value, decision and exception is theirs.

The builder forms the components on the same stacks it gathers for the
gaps: per block position, the Hermitian and skew parts of all terms and the
envelope times the identity are one numpy expression each, the elementwise
steps of real_part, imag_part, e * 1 and + with their bits. Each component
sequence is sealed once per stack (AlgebraElement._of_stacks), one
finiteness check and one read-only flag per block position, and its
elements are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .core import (
    AlgebraElement,
    ToleranceConfig,
    _NON_FINITE,
    _eigh_blocks,
    _eigh_extremes,
    _frobenius,
    _gram_norms,
    _is_positive,
    _is_self_adjoint_blocks,
    _max_abs,
    _raised,
    _tol,
    adjoint,
    frobenius_norm,
    imag_part,
    is_self_adjoint,
    operator_norm,
    real_part,
)
from .errors import BadArgument, EnvelopeViolation, SignatureMismatch

__all__ = [
    "DominatorEnvelope",
    "OrderLimitCertificate",
    "LimitReport",
    "build_certificate",
    "verify_certificate",
    "limit_calculus_check",
    "LOWER_BOUND",
    "UPPER_BOUND",
    "SUM_DECOMPOSITION",
    "ENVELOPE_MONOTONICITY",
    "TAIL",
]

# failing_condition tags, in the priority order the verifier reports them
LOWER_BOUND = "lower-bound"
UPPER_BOUND = "upper-bound"
SUM_DECOMPOSITION = "sum-decomposition"
ENVELOPE_MONOTONICITY = "envelope-monotonicity"
TAIL = "tail"

_I_POWERS = (1j, -1.0 + 0j, -1j, 1.0 + 0j)  # i^k for k = 1..4


@dataclass(frozen=True)
class DominatorEnvelope:
    """Scalar dominator prefix eps_n plus the declared c/n tail bound."""

    eps: tuple[float, ...]
    tail_rate: float


@dataclass(frozen=True)
class OrderLimitCertificate:
    """Finite-prefix witness of order convergence of ``terms`` to ``limit``.

    components[k][j] is the k-th self-adjoint component sequence at prefix
    position j; the dominator is 2 eps_j 1 shared across components.
    """

    indices: tuple[int, ...]
    terms: tuple[AlgebraElement, ...]
    limit: AlgebraElement
    components: tuple[tuple[AlgebraElement, ...], ...]
    component_limits: tuple[AlgebraElement, ...]
    envelope: DominatorEnvelope


@dataclass(frozen=True)
class LimitReport:
    accepted: bool
    worst_residual: float
    failing_condition: str | None = None


def build_certificate(
    seq: Sequence[AlgebraElement],
    limit: AlgebraElement,
    tail_rate: float,
    tol: ToleranceConfig | None = None,
    indices: Sequence[int] | None = None,
) -> OrderLimitCertificate:
    """Convert norm convergence at rate tail_rate/n into an order certificate.

    Raises EnvelopeViolation when some prefix term exceeds the declared
    bound. ``indices`` defaults to 1..N; explicit ascending naturals are
    accepted for subsequences such as geometric ladders. The gaps
    ||a_n - limit|| come from one stack of Gram matrices per block position,
    with the values and exceptions of operator_norm(a_n - limit) term by term.
    The components are formed on the stacks of the terms, one per block
    position, and sealed once per stack; a Hermitian or skew part that
    overflows raises BadArgument, as real_part and imag_part do.
    """
    t = _tol(tol)
    if len(seq) == 0:
        raise BadArgument("sequence must be non-empty")
    # a NaN rate would pass every tail check, an infinite one vacuously
    if not 0.0 <= tail_rate < math.inf:
        raise BadArgument("tail_rate must be finite and non-negative")
    if indices is None:
        indices = tuple(range(1, len(seq) + 1))
    else:
        indices = tuple(int(i) for i in indices)
        if len(indices) != len(seq):
            raise BadArgument("indices length must match sequence length")
        if any(i < 1 for i in indices) or any(
            a >= b for a, b in zip(indices, indices[1:])
        ):
            raise BadArgument("indices must be ascending naturals")
    sig = limit.signature
    # ||a - limit|| per term, from one stack of Gram matrices per block position
    terms = _gather(seq, sig)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = [s - b for s, b in zip(terms, limit.blocks)]
        gram = [_adj(d) @ d for d in diff]
        finite = _each(np.isfinite, diff + gram)
    solved = [a.signature == sig and f for a, f in zip(seq, finite)]
    norms = iter(_gram_norms([g[solved] for g in gram], t))
    gaps = []
    for a, f in zip(seq, finite):
        if a.signature != sig:
            raise SignatureMismatch(f"signatures differ: {a.signature} vs {sig}")
        if not f:
            raise BadArgument(_NON_FINITE)
        gaps.append(_raised(next(norms)))
    for n, g in zip(indices, gaps):
        if g > tail_rate / n + t.pos_slack:
            raise EnvelopeViolation(
                f"term at index {n} lies {g:.3e} from the limit, over {tail_rate}/{n}"
            )
    eps = []
    running = 0.0
    for g in reversed(gaps):
        running = max(running, g)
        eps.append(running)
    eps.reverse()

    # the elementwise steps of real_part, imag_part, e * one and +, one
    # stack per block position; a part that overflows raises BadArgument
    scaled = np.array(eps)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        im, ones, re = [], [], []
        for s, n in zip(terms, sig):
            e1 = scaled * np.eye(n, dtype=np.complex128)
            im.append((-0.5j) * (s - _adj(s)) + e1)
            ones.append(e1)
            re.append(0.5 * (s + _adj(s)) + e1)
        comp1 = tuple(AlgebraElement._of_stacks(im))
        comp2 = tuple(AlgebraElement._of_stacks(ones))
        comp4 = tuple(AlgebraElement._of_stacks(re))
    comp3 = comp2
    zero = AlgebraElement.zeros(sig)
    return OrderLimitCertificate(
        indices=indices,
        terms=tuple(seq),
        limit=limit,
        components=(comp1, comp2, comp3, comp4),
        component_limits=(imag_part(limit), zero, zero, real_part(limit)),
        envelope=DominatorEnvelope(eps=tuple(eps), tail_rate=float(tail_rate)),
    )


def _check_shape(c: OrderLimitCertificate):
    n = len(c.indices)
    if n == 0 or len(c.terms) != n or len(c.envelope.eps) != n:
        raise ValueError("certificate prefix lengths disagree")
    if len(c.components) != 4 or len(c.component_limits) != 4:
        raise ValueError("certificate needs exactly four component sequences")
    if any(len(comp) != n for comp in c.components):
        raise ValueError("component sequence length disagrees with prefix")


def _gather(elements, sig) -> list[np.ndarray]:
    """One (len(elements), n_b, n_b) array per block position b of sig. An
    element of another signature contributes zeros, which are never read."""
    return [
        np.array([x.blocks[b] if x.signature == sig else np.zeros((n, n), np.complex128)
                  for x in elements])
        for b, n in enumerate(sig)
    ]


def _adj(a: np.ndarray) -> np.ndarray:
    """Adjoint of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _each(test, stacks) -> list:
    """Per slot of the leading axes: test holds at every entry at every block position."""
    return np.logical_and.reduce([test(a).all(axis=(-2, -1)) for a in stacks]).tolist()


# Below this modulus no square of an entry, and no sum of fewer than 2^64 of
# them, overflows, so the Frobenius norm is finite and an exactly zero skew
# part passes the is_self_adjoint rule; with a larger entry the norm may be
# NaN, which fails it, and the rule itself is evaluated.
_SQUARES_FINITE = 2.0**480


def verify_certificate(
    c: OrderLimitCertificate, tol: ToleranceConfig | None = None
) -> LimitReport:
    """Re-check every certificate condition; failure is a report, not an exception.

    Measured residuals per condition, reported against the first failure in
    priority order: lower-bound, upper-bound, sum-decomposition,
    envelope-monotonicity, tail.

    The checks run on stacked blocks. For each block position the blocks of
    all 4N components and their four limits form one (4, N + 1, n_b, n_b)
    array, and the differences, their skew and Hermitian parts, and the
    N + 1 sum-decomposition residuals with their Gram matrices are one numpy
    expression each, and the eigenvalues of the components and of the Gram
    matrices are one stacked solve per block position each. Every value,
    decision and exception is the one the same checks give on elements, one
    component at a time: a component whose skew part is not
    exactly zero, or that has an entry of 2^480 or more, is tested with the
    is_self_adjoint rule, and an overflowing intermediate raises BadArgument
    as element arithmetic does.
    """
    t = _tol(tol)
    _check_shape(c)
    eps = c.envelope.eps
    n = len(c.indices)
    sig = c.limit.signature
    residuals = {
        LOWER_BOUND: 0.0,
        UPPER_BOUND: 0.0,
        SUM_DECOMPOSITION: 0.0,
        ENVELOPE_MONOTONICITY: 0.0,
        TAIL: 0.0,
    }
    failing = {tag: False for tag in residuals}

    with np.errstate(over="ignore", invalid="ignore"):
        # one stack per run of component sequences whose limits share a
        # signature; a well-formed certificate has a single run
        runs = [
            (lsig, tuple(ks))
            for lsig, ks in groupby(range(4), key=lambda k: c.component_limits[k].signature)
        ]
        for lsig, ks in runs:
            parts = [
                p.reshape(len(ks), n + 1, *p.shape[1:])
                for p in _gather(
                    [x for k in ks for x in (*c.components[k], c.component_limits[k])], lsig
                )
            ]
            diff = [p[:, :n] - p[:, n:] for p in parts]
            skew = [d - _adj(d) for d in diff]
            herm = [0.5 * (d + _adj(d)) for d in diff]
            finite = _each(np.isfinite, diff + skew)
            exact = _each(lambda a: a == 0, skew)
            small = _each(lambda a: np.abs(a) < _SQUARES_FINITE, diff)
            finite_herm = _each(np.isfinite, herm)

            def checked():
                """Per component in the order of the checks: the exception
                it raises (and no further ones), its skew defect, or None
                when it reaches the eigensolve."""
                for i, k in enumerate(ks):
                    for j in range(n):
                        x = c.components[k][j]
                        if x.signature != lsig:
                            yield i, j, SignatureMismatch(
                                f"signatures differ: {x.signature} vs {lsig}"
                            )
                            return
                        if not finite[i][j]:
                            yield i, j, BadArgument(_NON_FINITE)
                            return
                        if not (exact[i][j] and small[i][j]):
                            skew_ij = [s[i, j] for s in skew]
                            if not _is_self_adjoint_blocks([d[i, j] for d in diff], skew_ij, t):
                                yield i, j, _frobenius(skew_ij)
                                continue
                        if not finite_herm[i][j]:
                            yield i, j, BadArgument(_NON_FINITE)
                            return
                        yield i, j, None

            statuses = list(checked())
            rows = [i for i, _, status in statuses if status is None]
            cols = [j for _, j, status in statuses if status is None]
            extremes = iter(_eigh_extremes([h[rows, cols] for h in herm], t))
            for i, j, status in statuses:
                if isinstance(status, Exception):
                    raise status
                if status is not None:
                    residuals[LOWER_BOUND] = max(residuals[LOWER_BOUND], status)
                    failing[LOWER_BOUND] = True
                    continue
                lo, hi = _raised(next(extremes))
                residuals[LOWER_BOUND] = max(residuals[LOWER_BOUND], -lo)
                if not _is_positive(lo, hi, t):
                    failing[LOWER_BOUND] = True
                bound = 2.0 * eps[j]
                up_resid = max(0.0, hi - bound)
                residuals[UPPER_BOUND] = max(residuals[UPPER_BOUND], up_resid)
                if up_resid > t.pos_slack * (1.0 + _max_abs(lo, hi) + bound):
                    failing[UPPER_BOUND] = True

        if runs != [(sig, (0, 1, 2, 3))]:
            # some component has another signature than the limit: the sum
            # of the first term's parts meets it and raises
            total = AlgebraElement.zeros(sig)
            for k in range(4):
                total = total + _I_POWERS[k] * c.components[k][0]
        # parts is now the single (4, N + 1, n_b, n_b) stack; row N holds the limits
        wholes = (*c.terms, c.limit)
        targets = _gather(wholes, sig)
        total = [np.zeros_like(a) for a in targets]
        for k in range(4):
            total = [s + _I_POWERS[k] * p[k] for s, p in zip(total, parts)]
        diff = [s - a for s, a in zip(total, targets)]
        gram = [_adj(d) @ d for d in diff]
        finite_total = _each(np.isfinite, total)
        finite = _each(np.isfinite, diff + gram)
        solved = [
            ft and a.signature == sig and f for a, ft, f in zip(wholes, finite_total, finite)
        ]
        # operator_norm(total - a), from the Gram matrix it would form
        norms = iter(_gram_norms([g[solved] for g in gram], t))
        for j, a in enumerate(wholes):
            if not finite_total[j]:
                raise BadArgument(_NON_FINITE)
            if a.signature != sig:
                raise SignatureMismatch(f"signatures differ: {sig} vs {a.signature}")
            if not finite[j]:
                raise BadArgument(_NON_FINITE)
            r = _raised(next(norms))
            residuals[SUM_DECOMPOSITION] = max(residuals[SUM_DECOMPOSITION], r)
            # pos_slack (1 + ||a||) >= pos_slack, so ||a|| is only needed above pos_slack
            if r > t.pos_slack and r > t.pos_slack * (1.0 + operator_norm(a, t)):
                failing[SUM_DECOMPOSITION] = True

    for j in range(len(eps)):
        drop = max(0.0, -eps[j])
        rise = max(0.0, eps[j + 1] - eps[j]) if j + 1 < len(eps) else 0.0
        r = max(drop, rise)
        residuals[ENVELOPE_MONOTONICITY] = max(residuals[ENVELOPE_MONOTONICITY], r)
        if r > t.pos_slack:
            failing[ENVELOPE_MONOTONICITY] = True

    last = c.indices[-1]
    tail_resid = max(0.0, eps[-1] - c.envelope.tail_rate / last)
    residuals[TAIL] = max(residuals[TAIL], tail_resid)
    if tail_resid > t.pos_slack or not 0.0 <= c.envelope.tail_rate < math.inf:
        failing[TAIL] = True

    worst = max(residuals.values())
    for tag in (LOWER_BOUND, UPPER_BOUND, SUM_DECOMPOSITION, ENVELOPE_MONOTONICITY, TAIL):
        if failing[tag]:
            return LimitReport(accepted=False, worst_residual=worst, failing_condition=tag)
    return LimitReport(accepted=True, worst_residual=worst, failing_condition=None)


def _common_positions(c1: OrderLimitCertificate, c2: OrderLimitCertificate):
    pos2 = {n: j for j, n in enumerate(c2.indices)}
    pairs = [(j, pos2[n]) for j, n in enumerate(c1.indices) if n in pos2]
    if not pairs:
        raise ValueError("certificates share no indices")
    return pairs


def limit_calculus_check(
    c1: OrderLimitCertificate,
    c2: OrderLimitCertificate,
    x: AlgebraElement,
    y: AlgebraElement,
    tol: ToleranceConfig | None = None,
) -> LimitReport:
    """Check the limit calculus on a certified pair: sum, two-sided module
    action, product, order preservation on aligned indices, and the norm
    upper bound. Derived certificates are built with analytic tail rates and
    re-verified; the combined report carries the first failing condition.
    """
    t = _tol(tol)
    sig = c1.limit.signature
    if c2.limit.signature != sig or x.signature != sig or y.signature != sig:
        raise SignatureMismatch("limit calculus needs a single ambient algebra")
    pairs = _common_positions(c1, c2)
    idx = [c1.indices[j1] for j1, _ in pairs]
    r1, r2 = c1.envelope.tail_rate, c2.envelope.tail_rate

    worst = 0.0
    failing: str | None = None

    def absorb(report: LimitReport):
        nonlocal worst, failing
        worst = max(worst, report.worst_residual)
        if not report.accepted and failing is None:
            failing = report.failing_condition

    def derived(seq, limit, rate):
        try:
            cert = build_certificate(seq, limit, rate, t, indices=idx)
        except EnvelopeViolation:
            return LimitReport(accepted=False, worst_residual=float("inf"), failing_condition=TAIL)
        return verify_certificate(cert, t)

    # (i) sum
    absorb(derived(
        [c1.terms[j1] + c2.terms[j2] for j1, j2 in pairs],
        c1.limit + c2.limit,
        r1 + r2,
    ))
    # (ii) two-sided module action on the first sequence
    nx, ny = operator_norm(x, t), operator_norm(y, t)
    absorb(derived(
        [x * c1.terms[j1] * y for j1, _ in pairs],
        x * c1.limit * y,
        r1 * nx * ny,
    ))
    # (iii) product
    bound_b = max(
        max(operator_norm(c2.terms[j2], t) for _, j2 in pairs),
        operator_norm(c2.limit, t),
    )
    absorb(derived(
        [c1.terms[j1] * c2.terms[j2] for j1, j2 in pairs],
        c1.limit * c2.limit,
        r1 * bound_b + r2 * operator_norm(c1.limit, t),
    ))
    # (iv) order preservation where the termwise hypothesis holds
    diffs = (c2.terms[j2] - c1.terms[j1] for j1, j2 in pairs)
    hypothesis = all(
        is_self_adjoint(d, t)
        and _eigh_blocks(real_part(d).blocks, t, vectors=False).is_positive(t)
        for d in diffs
    )
    if hypothesis:
        d = c2.limit - c1.limit
        defect = frobenius_norm(d - adjoint(d))
        eig = _eigh_blocks(real_part(d).blocks, t, vectors=False)
        resid = max(0.0, -eig.min_eigenvalue, defect)
        worst = max(worst, resid)
        if resid > t.pos_slack * (1.0 + eig.max_abs_eigenvalue) and failing is None:
            failing = LOWER_BOUND
    # (v) norm bound from the prefix
    for c in (c1, c2):
        prefix_max = max(operator_norm(a, t) for a in c.terms)
        overshoot = max(
            0.0, operator_norm(c.limit, t) - prefix_max - 8.0 * c.envelope.eps[0]
        )
        worst = max(worst, overshoot)
        if overshoot > t.pos_slack * (1.0 + prefix_max) and failing is None:
            failing = UPPER_BOUND

    return LimitReport(accepted=failing is None, worst_residual=worst, failing_condition=failing)
