"""Order convergence as verifiable finite certificates.

A certificate witnesses convergence of a sequence by four self-adjoint
component sequences squeezed between their limits and a shared scalar
dominator envelope 2 eps_n 1, together with an analytic c/n tail bound that
discharges the part of the statement a finite prefix cannot see. The builder
turns norm convergence into such a witness; the verifier re-checks every
condition and reports the first failure.

A certificate of N terms over the signature (n_1, ..., n_r) is held as
stacks, two per block position b:

- ``sequence[b]``, a (N + 1, n_b, n_b) complex128 array: row j < N is block
  b of the term at prefix position j, and row N is block b of the limit;
- ``parts[b]``, a (4, N + 1, n_b, n_b) complex128 array: ``parts[b][k, j]``
  is block b of the k-th component at prefix position j, and row N holds
  block b of the k-th component limit.

The builder writes both, read-only. Builder and verifier stack the
positions of each block size once (core._grouped). Per block size, the
differences, skew and Hermitian parts, the sums of the four components
and their residuals against the sequence, and the Gram matrices are one
numpy expression each, and the eigenvalues of the components and of the
Gram matrices are one stacked Jacobi driver call each. Elements are made
only where a caller asks for them: the ``terms`` and ``limit`` of a
certificate are views of its sequence stacks (AlgebraElement._of_stacks),
made on first use. Every value and decision is the one the
element-by-element checks give.

The builder stacks its terms and limit once and forms the components on
that stack: the Hermitian and skew parts of all rows and the envelope times
the identity are one numpy expression each, the elementwise steps of
real_part, imag_part, e * 1 and + with their bits, and all stacks are
checked for finiteness once. On malformed input the builder and verifier
raise by the precedence rule of awkit.core: an operand of another
signature than the limit first, then a non-finite intermediate, then the
first solve fault in element order. Each ``parts[b]`` is a view of the
builder's stack of its block size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    AlgebraElement,
    ToleranceConfig,
    _NON_FINITE,
    _adj,
    _all_finite,
    _check_signatures,
    _eigh_extremes,
    _extremes,
    _frobenius,
    _gram_norms,
    _grouped,
    _is_positive,
    _is_self_adjoint_blocks,
    _max_abs,
    _norms,
    _slots,
    _tol,
    adjoint,
    frobenius_norm,
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


@dataclass(frozen=True, eq=False)
class OrderLimitCertificate:
    """Finite-prefix witness of order convergence of N terms to a limit.

    Held as two read-only stacks per block position b of the limit's
    signature. ``sequence[b]`` is (N + 1, n_b, n_b): the terms in rows
    0..N-1 and the limit in row N. ``parts[b]`` is (4, N + 1, n_b, n_b):
    ``parts[b][k, j]`` is the k-th self-adjoint component at prefix position
    j, and row N holds the k-th component limit. The dominator is 2 eps_j 1,
    shared across components.

    ``terms`` and ``limit`` are elements whose blocks are views of the
    sequence stacks, made on first use.
    """

    indices: tuple[int, ...]
    sequence: tuple[np.ndarray, ...]
    parts: tuple[np.ndarray, ...]
    envelope: DominatorEnvelope

    @cached_property
    def _sequence_elements(self) -> list[AlgebraElement]:
        return AlgebraElement._of_stacks(self.sequence)

    @property
    def terms(self) -> tuple[AlgebraElement, ...]:
        return tuple(self._sequence_elements[:-1])

    @property
    def limit(self) -> AlgebraElement:
        return self._sequence_elements[-1]


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
    bound. ``indices`` defaults to 1..N; explicit ascending natural numbers
    (int or numpy integers, not bool) are accepted for subsequences such as
    geometric ladders. The terms and the limit are stacked once, one
    (N + 1, n_b, n_b) array per block position, after their signatures are
    checked, and the stacks of each block size once more for the stacked
    steps. The gaps ||a_n - limit|| are one core._norms call on the
    stacked differences, with the values of operator_norm(a_n - limit) term
    by term; a non-finite difference or Gram matrix raises before any solve
    (the precedence rule of awkit.core). The components are formed on the
    same stacks and checked for finiteness once; a Hermitian or skew part
    that overflows raises BadArgument, as real_part and imag_part do.
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
        indices = tuple(indices)
        if len(indices) != len(seq):
            raise BadArgument("indices length must match sequence length")
        _check_indices(indices)
        indices = tuple(map(int, indices))
    sig = limit.signature
    _check_signatures(seq, sig)
    n = len(seq)
    sequence = [np.array([*(a.blocks[b] for a in seq), lim]) for b, lim in enumerate(limit.blocks)]
    # per group of m block positions of one size n_b, (m, N + 1, n_b, n_b)
    positions, stacked = _grouped(sequence)
    # ||a - limit|| per term
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = _norms(positions, [s[:, :n] - s[:, n:] for s in stacked])
    for i, g in zip(indices, gaps):
        if g > tail_rate / i + t.pos_slack:
            raise EnvelopeViolation(
                f"term at index {i} lies {g:.3e} from the limit, over {tail_rate}/{i}"
            )
    eps = []
    running = 0.0
    for g in reversed(gaps):
        running = max(running, g)
        eps.append(running)
    eps.reverse()

    # the elementwise steps of imag_part, e * one, + and real_part; the
    # limit's row gets its imaginary and real parts, and zeros in between
    scaled = np.array(eps)[:, None, None]
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s in stacked:
            e1 = scaled * np.eye(s.shape[-1], dtype=np.complex128)
            p = np.zeros((len(s), 4, *s.shape[1:]), dtype=np.complex128)
            p[:, 0] = (-0.5j) * (s - _adj(s))
            p[:, 0, :n] += e1
            p[:, 1, :n] = p[:, 2, :n] = e1
            p[:, 3] = 0.5 * (s + _adj(s))
            p[:, 3, :n] += e1
            parts.append(p)
    if not _all_finite(parts):
        raise BadArgument(_NON_FINITE)
    # the certificate's component stacks are views of the groups'
    for a in sequence + parts:
        a.flags.writeable = False
    parts = [parts[g][i] for g, i in _slots(positions)]
    return OrderLimitCertificate(
        indices=indices,
        sequence=tuple(sequence),
        parts=tuple(parts),
        envelope=DominatorEnvelope(eps=tuple(eps), tail_rate=float(tail_rate)),
    )


def _check_indices(indices) -> None:
    """Raise BadArgument unless indices are ascending natural numbers: ints
    or numpy integers, not bools, and not floats even when integral."""
    if (
        # type(i) is int first: the Integral check is ten times slower
        not all(
            type(i) is int or (isinstance(i, numbers.Integral) and not isinstance(i, bool))
            for i in indices
        )
        or any(i < 1 for i in indices)
        or any(a >= b for a, b in zip(indices, indices[1:]))
    ):
        raise BadArgument("indices must be ascending naturals")


def _check_shape(c: OrderLimitCertificate):
    """The checks of a certificate's operands, before any arithmetic: the
    prefix lengths, the indices, and the block sizes of the component
    stacks against the sequence's."""
    n = len(c.indices)
    if n == 0 or len(c.envelope.eps) != n or any(s.shape[0] != n + 1 for s in c.sequence):
        raise ValueError("certificate prefix lengths disagree")
    if any(p.shape[0] != 4 for p in c.parts):
        raise ValueError("certificate needs exactly four component sequences")
    if any(p.shape[1] != n + 1 for p in c.parts):
        raise ValueError("component sequence length disagrees with prefix")
    _check_indices(c.indices)
    sig = tuple(s.shape[-1] for s in c.sequence)
    parts_sig = tuple(p.shape[-1] for p in c.parts)
    if parts_sig != sig:
        raise SignatureMismatch(f"signatures differ: {parts_sig} vs {sig}")


def _each(test, stacks) -> list:
    """Per slot of the axes between the position axis and the matrix axes of
    stacks grouped by block size: test holds at every entry at every block
    position."""
    return np.logical_and.reduce([test(a).all(axis=(0, -2, -1)) for a in stacks]).tolist()


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

    The checks stack the certificate's stacks of each block size once. Per
    block size the differences of the components from their limits, their
    skew and Hermitian parts, and the N + 1 sum-decomposition residuals
    against the sequence with their Gram matrices are one numpy expression
    each, and the eigenvalues of the components and of the Gram matrices
    are one stacked solve per block size each. Every value and decision is
    the one the same checks give on elements, one component at a time:
    a component whose skew part is not exactly zero, or that has an entry
    of 2^480 or more, is tested with the is_self_adjoint rule. A norm ||a||
    of a term or the limit is solved only where the sum-decomposition
    residual exceeds pos_slack. An eps_j that is negative or not finite
    fails envelope-monotonicity with residual inf.

    Malformed input raises by the precedence rule of awkit.core. Before any
    arithmetic, _check_shape checks the prefix lengths (ValueError), the
    indices (BadArgument) and the block sizes of the component stacks
    against the sequence's (SignatureMismatch). Before any solve, a
    non-finite stacked intermediate raises BadArgument; of the Hermitian
    parts, only those of components that pass the is_self_adjoint rule are
    read. Then the first solve fault is raised, the components' before the
    residuals', and those before the norms'.
    """
    t = _tol(tol)
    _check_shape(c)
    eps = c.envelope.eps
    n = len(c.indices)
    residuals = {
        LOWER_BOUND: 0.0,
        UPPER_BOUND: 0.0,
        SUM_DECOMPOSITION: 0.0,
        ENVELOPE_MONOTONICITY: 0.0,
        TAIL: 0.0,
    }
    failing = {tag: False for tag in residuals}

    # per block size, parts (m, 4, N + 1, n_b, n_b) and sequence
    # (m, N + 1, n_b, n_b) of its m positions
    positions, parts = _grouped(c.parts)
    _, sequence = _grouped(c.sequence)
    where = _slots(positions)

    with np.errstate(over="ignore", invalid="ignore"):
        diff = [p[:, :, :n] - p[:, :, n:] for p in parts]
        skew = [d - _adj(d) for d in diff]
        herm = [0.5 * (d + _adj(d)) for d in diff]
        total = [np.zeros_like(p[:, 0]) for p in parts]
        for k in range(4):
            total = [s + _I_POWERS[k] * p[:, k] for s, p in zip(total, parts)]
        residual = [s - a for s, a in zip(total, sequence)]
        gram = [_adj(d) @ d for d in residual]
        # a non-finite difference leaves a non-finite entry in its skew
        # part, and a non-finite sum or residual one on the Gram diagonal
        if not _all_finite(skew + gram):
            raise BadArgument(_NON_FINITE)

        # the is_self_adjoint rule per component, unless its skew part is
        # exactly zero and its entries lie below 2^480; its norms sum in
        # block order
        exact = _each(lambda a: a == 0, skew)
        small = _each(lambda a: np.abs(a) < _SQUARES_FINITE, diff)
        rows, cols = [], []
        for k in range(4):
            for j in range(n):
                if not (exact[k][j] and small[k][j]):
                    skew_kj = [skew[g][i, k, j] for g, i in where]
                    diff_kj = [diff[g][i, k, j] for g, i in where]
                    if not _is_self_adjoint_blocks(diff_kj, skew_kj, t):
                        residuals[LOWER_BOUND] = max(residuals[LOWER_BOUND], _frobenius(skew_kj))
                        failing[LOWER_BOUND] = True
                        continue
                rows.append(k)
                cols.append(j)
        solved = [h[:, rows, cols] for h in herm]
        if not _all_finite(solved):
            raise BadArgument(_NON_FINITE)

        for j, (lo, hi) in zip(cols, _eigh_extremes(positions, solved)):
            residuals[LOWER_BOUND] = max(residuals[LOWER_BOUND], -lo)
            if not _is_positive(lo, hi, t):
                failing[LOWER_BOUND] = True
            bound = 2.0 * eps[j]
            up_resid = max(0.0, hi - bound)
            residuals[UPPER_BOUND] = max(residuals[UPPER_BOUND], up_resid)
            if up_resid > t.pos_slack * (1.0 + _max_abs(lo, hi) + bound):
                failing[UPPER_BOUND] = True

        # operator_norm(total - a), from the Gram matrix it would form; the
        # threshold pos_slack (1 + ||a||) >= pos_slack, so ||a|| is only
        # needed where r exceeds pos_slack
        sums = _gram_norms(positions, gram)
        over = [j for j, r in enumerate(sums) if r > t.pos_slack]
        norms = dict(zip(over, _norms(positions, [s[:, over] for s in sequence]))) if over else {}
        for j, r in enumerate(sums):
            residuals[SUM_DECOMPOSITION] = max(residuals[SUM_DECOMPOSITION], r)
            if j in norms and r > t.pos_slack * (1.0 + norms[j]):
                failing[SUM_DECOMPOSITION] = True

    for j in range(len(eps)):
        if not 0.0 <= eps[j] < math.inf:
            # max(0.0, nan) is 0.0: a NaN envelope would pass every bound
            r = math.inf
        else:
            r = max(0.0, eps[j + 1] - eps[j]) if j + 1 < len(eps) else 0.0
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
        is_self_adjoint(d, t) and _is_positive(*_extremes(real_part(d).blocks), t)
        for d in diffs
    )
    if hypothesis:
        d = c2.limit - c1.limit
        defect = frobenius_norm(d - adjoint(d))
        lo, hi = _extremes(real_part(d).blocks)
        resid = max(0.0, -lo, defect)
        worst = max(worst, resid)
        if resid > t.pos_slack * (1.0 + _max_abs(lo, hi)) and failing is None:
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
