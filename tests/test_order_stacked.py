"""The stacked certificate against the element-built one it replaced.

``OrderLimitCertificate`` holds one stack per block position: the terms with
the limit in row N, and the four components with their limits in row N.
Its named oracle here is the element-built certificate it replaced:
``_ElementCertificate`` holds the same data as ``AlgebraElement``s, and
``_gather`` stacks elements of one signature, one np.array per block
position, so ``_stacked`` turns an element-built certificate into the
stacked one. ``_elements`` reads a stacked certificate back as elements,
views of its stacks made by ``AlgebraElement._of_stacks``.

``_reference_verify`` is the earlier body of ``awkit.order.verify_certificate``,
which checked one component at a time on ``AlgebraElement`` intermediates,
kept verbatim as a named oracle (its eigenvalues-only solve,
``eigh_hermitian(real_part(d), t, vectors=False)``, now reads the same
extreme eigenvalues off ``core._extremes``), with ``_reference_check_shape``,
the earlier per-element signature walk. On built certificates, on certificates
tampered toward each failing condition, and on ones whose arithmetic
overflows or that are not self-adjoint, at the default sweep budget and at
one sweep, the stacked verifier must return the same report on the
gathered certificate, with ``worst_residual`` equal to the bit, or raise the
same exception with the same message.

``_reference_build_certificate`` is the earlier body of
``awkit.order.build_certificate``, which took each gap as
``operator_norm(a - limit)`` and built the components element by element,
kept verbatim as a named oracle. On converging sequences with one term
replaced (equal to the limit, beyond the rate, a gap whose Gram squares
underflow, a difference, Gram matrix or Frobenius norm that overflows, a
limit near 1e308 that the term equals, whose Hermitian part overflows) the
stacked builder must return a certificate with the same bits or raise the
same exception.

Both comparisons also run on signatures of 3-6 block positions drawn from
the sizes 1 and 2, so every such example repeats a size and the stacked
code works on groups of positions of one size.

The oracles met a malformed operand where their element loops reached it,
after the solves of the elements before it; the stacked code checks its
operands first (the precedence rule of ``awkit.core``). So those cases are
asserted directly, with the Jacobi driver counting its calls: a term of
another signature, or a stack of another block size, raises
SignatureMismatch, and a non-finite difference or Gram matrix BadArgument,
with no solve. The latter is then compared with the oracle at the default
budget, where no solve fails before it.
"""

import math
import re
import struct
import warnings
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import core
from awkit.core import (
    _NON_FINITE,
    AlgebraElement,
    ToleranceConfig,
    _check_signatures,
    _extremes,
    _is_positive,
    _max_abs,
    _tol,
    adjoint,
    frobenius_norm,
    imag_part,
    is_self_adjoint,
    operator_norm,
    real_part,
)
from awkit.errors import BadArgument, EnvelopeViolation, SignatureMismatch
from awkit.order import (
    _I_POWERS,
    ENVELOPE_MONOTONICITY,
    LOWER_BOUND,
    SUM_DECOMPOSITION,
    TAIL,
    UPPER_BOUND,
    DominatorEnvelope,
    LimitReport,
    OrderLimitCertificate,
    _check_indices,
    build_certificate,
    verify_certificate,
)
from awkit.sampling import random_element


@dataclass(frozen=True)
class _ElementCertificate:
    """The certificate as elements: components[k][j] is the k-th component
    sequence at prefix position j."""

    indices: tuple[int, ...]
    terms: tuple[AlgebraElement, ...]
    limit: AlgebraElement
    components: tuple[tuple[AlgebraElement, ...], ...]
    component_limits: tuple[AlgebraElement, ...]
    envelope: DominatorEnvelope


def _gather(elements) -> list[np.ndarray]:
    """One (len(elements), n_b, n_b) array per block position b of elements
    of one signature."""
    return [np.array(blocks) for blocks in zip(*(x.blocks for x in elements))]


def _stacked(e: _ElementCertificate) -> OrderLimitCertificate:
    """The stacked certificate of an element-built one."""
    rows = [x for comp, lim in zip(e.components, e.component_limits) for x in (*comp, lim)]
    parts = [p.reshape(4, -1, *p.shape[1:]) for p in _gather(rows)]
    return OrderLimitCertificate(
        indices=e.indices,
        sequence=tuple(_gather((*e.terms, e.limit))),
        parts=tuple(parts),
        envelope=e.envelope,
    )


def _elements(c: OrderLimitCertificate) -> _ElementCertificate:
    """The element views of a stacked certificate: its terms and limit, and
    views of its part stacks, row k (N + 1) + j of the flattened stacks
    being parts[b][k, j]."""
    rows = AlgebraElement._of_stacks([p.reshape(-1, *p.shape[2:]) for p in c.parts])
    step = c.parts[0].shape[1]
    return _ElementCertificate(
        indices=c.indices,
        terms=c.terms,
        limit=c.limit,
        components=tuple(tuple(rows[k * step : (k + 1) * step - 1]) for k in range(4)),
        component_limits=tuple(rows[(k + 1) * step - 1] for k in range(4)),
        envelope=c.envelope,
    )


def _reference_check_shape(c: _ElementCertificate):
    """The checks of a certificate's operands, before any arithmetic: the
    prefix lengths, the indices, and the signature of every term, component
    and component limit against the limit's."""
    n = len(c.indices)
    if n == 0 or len(c.terms) != n or len(c.envelope.eps) != n:
        raise ValueError("certificate prefix lengths disagree")
    if len(c.components) != 4 or len(c.component_limits) != 4:
        raise ValueError("certificate needs exactly four component sequences")
    if any(len(comp) != n for comp in c.components):
        raise ValueError("component sequence length disagrees with prefix")
    _check_indices(c.indices)
    components = (x for comp in c.components for x in comp)
    _check_signatures((*c.terms, *components, *c.component_limits), c.limit.signature)


def _reference_verify(c, tol=None):
    """Re-check every certificate condition; failure is a report, not an exception.

    Measured residuals per condition, reported against the first failure in
    priority order: lower-bound, upper-bound, sum-decomposition,
    envelope-monotonicity, tail.
    """
    t = _tol(tol)
    _reference_check_shape(c)
    eps = c.envelope.eps
    one = AlgebraElement.identity(c.limit.signature)
    residuals = {
        LOWER_BOUND: 0.0,
        UPPER_BOUND: 0.0,
        SUM_DECOMPOSITION: 0.0,
        ENVELOPE_MONOTONICITY: 0.0,
        TAIL: 0.0,
    }
    failing = {tag: False for tag in residuals}

    for k in range(4):
        comp_limit = c.component_limits[k]
        for j in range(len(c.indices)):
            d = c.components[k][j] - comp_limit
            if not is_self_adjoint(d, t):
                defect = frobenius_norm(d - adjoint(d))
                residuals[LOWER_BOUND] = max(residuals[LOWER_BOUND], defect)
                failing[LOWER_BOUND] = True
                continue
            lo, hi = _extremes(real_part(d).blocks)
            residuals[LOWER_BOUND] = max(residuals[LOWER_BOUND], -lo)
            if not _is_positive(lo, hi, t):
                failing[LOWER_BOUND] = True
            bound = 2.0 * eps[j]
            up_resid = max(0.0, hi - bound)
            residuals[UPPER_BOUND] = max(residuals[UPPER_BOUND], up_resid)
            if up_resid > t.pos_slack * (1.0 + _max_abs(lo, hi) + bound):
                failing[UPPER_BOUND] = True

    for j, a in enumerate(c.terms):
        total = AlgebraElement.zeros(c.limit.signature)
        for k in range(4):
            total = total + _I_POWERS[k] * c.components[k][j]
        r = operator_norm(total - a, t)
        residuals[SUM_DECOMPOSITION] = max(residuals[SUM_DECOMPOSITION], r)
        # pos_slack (1 + ||a||) >= pos_slack, so ||a|| is only needed above pos_slack
        if r > t.pos_slack and r > t.pos_slack * (1.0 + operator_norm(a, t)):
            failing[SUM_DECOMPOSITION] = True
    total = AlgebraElement.zeros(c.limit.signature)
    for k in range(4):
        total = total + _I_POWERS[k] * c.component_limits[k]
    r = operator_norm(total - c.limit, t)
    residuals[SUM_DECOMPOSITION] = max(residuals[SUM_DECOMPOSITION], r)
    if r > t.pos_slack and r > t.pos_slack * (1.0 + operator_norm(c.limit, t)):
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


TAMPERS = (
    "none",
    "lower",
    "upper",
    "term",
    "zero-term",
    "lone-component",
    "limit",
    "monotone",
    "tail",
    "skew-small",
    "skew-large",
    "signature",
    "limit-signature",
    "sequence-signature",
    "term-signature",
    "overflow",
    "overflow-sum",
)

# (tolerances, Jacobi sweep budget) per name
TOLS = {
    "default": (ToleranceConfig(), core._MAX_SWEEPS),
    "one-sweep": (ToleranceConfig(), 1),
    "tight": (ToleranceConfig(pos_slack=1e-16), core._MAX_SWEEPS),
    # below roundoff: a Gram matrix that is not exactly Hermitian fails its check
    "below-roundoff": (ToleranceConfig(pos_slack=1e-30), core._MAX_SWEEPS),
}


def _non_hermitian(sig, rng, scale):
    return AlgebraElement([
        scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) for n in sig
    ])


def _huge(sig, rng, hermitian=False):
    """Entries of magnitude 1e300 to 1e308: their sums, differences and squares overflow."""
    blocks = [
        10.0 ** rng.uniform(300, 308, (n, n)) * rng.choice([-1.0, 1.0, 1j, -1j], (n, n))
        for n in sig
    ]
    if hermitian:
        blocks = [0.5 * b + 0.5 * b.conj().T for b in blocks]
    return AlgebraElement(blocks)


def _set(seq, j, value):
    return tuple(value if i == j else x for i, x in enumerate(seq))


def _certificate(sig, n_terms, seed, tamper):
    """An element-built certificate of n_terms over sig, tampered."""
    rng = np.random.default_rng(seed)
    limit = random_element(sig, rng)
    seq = []
    for n in range(1, n_terms + 1):
        bump = random_element(sig, rng)
        seq.append(limit + bump * (rng.uniform(0.5, 1.0) / (n * operator_norm(bump))))
    c = _elements(build_certificate(seq, limit, 1.0))
    k, j = int(rng.integers(4)), int(rng.integers(n_terms))
    one = AlgebraElement.identity(sig)
    other = (*sig, 1)

    def component(cert, value):
        comps = _set(cert.components, k, _set(cert.components[k], j, value))
        return replace(cert, components=comps)

    x = c.components[k][j]
    if tamper == "lower":
        return component(c, x - rng.uniform(1e-3, 1.0) * one)
    if tamper == "upper":
        return component(c, x + (2.0 * c.envelope.eps[j] + rng.uniform(1e-3, 1.0)) * one)
    if tamper == "term":
        return replace(c, terms=_set(c.terms, j, c.terms[j] + random_element(sig, rng)))
    if tamper == "zero-term":
        # ||a|| = 0 passes every check, so only the residual's own Gram matrix can fail one
        return replace(c, terms=_set(c.terms, j, AlgebraElement.zeros(sig)))
    if tamper == "lone-component":
        # terms and limit zero: only the sum row of component (k, j) is nonzero
        zero = AlgebraElement.zeros(sig)
        zeros = _elements(build_certificate([zero] * n_terms, zero, 1.0))
        return component(zeros, _non_hermitian(sig, rng, 1.0))
    if tamper == "limit":
        return replace(c, limit=c.limit + 1e-3 * random_element(sig, rng))
    if tamper == "monotone":
        # a rise after the first position; a single term has none to raise
        eps = list(c.envelope.eps)
        eps[max(j, 1) % n_terms] += rng.uniform(1e-3, 1.0)
        return replace(c, envelope=replace(c.envelope, eps=tuple(eps)))
    if tamper == "tail":
        return replace(c, envelope=replace(c.envelope, tail_rate=0.1))
    if tamper == "skew-small":
        return component(c, x + _non_hermitian(sig, rng, 1e-13))
    if tamper == "skew-large":
        return component(c, x + _non_hermitian(sig, rng, 1e-3))
    if tamper == "signature":
        return component(c, random_element(other, rng))
    if tamper == "limit-signature":
        lims = _set(c.component_limits, k, random_element(other, rng))
        return replace(c, component_limits=lims)
    if tamper == "sequence-signature":
        # a whole component sequence and its limit in another algebra
        comps = _set(c.components, k, tuple(random_element(other, rng) for _ in range(n_terms)))
        lims = _set(c.component_limits, k, random_element(other, rng))
        return replace(c, components=comps, component_limits=lims)
    if tamper == "term-signature":
        return replace(c, terms=_set(c.terms, j, random_element(other, rng)))
    if tamper == "overflow":
        return component(c, _huge(sig, rng))
    if tamper == "overflow-sum":
        big = _huge(sig, rng, hermitian=True)
        comps = tuple(_set(comp, j, big) for comp in c.components)
        return replace(c, components=comps)
    return c


NON_FINITE = ("raised", BadArgument, _NON_FINITE)

# tampers with an operand of another signature, and with entries whose
# stacked arithmetic may overflow
SIGNATURE_TAMPERS = ("signature", "limit-signature", "sequence-signature", "term-signature")
OVERFLOW_TAMPERS = ("overflow", "overflow-sum")


def _grown(stack, grow):
    """A zero stack whose last two axes are grow larger than stack's."""
    return np.zeros((*stack.shape[:-2], *(d + grow for d in stack.shape[-2:])), dtype=complex)


def _resigned(c, seed, tamper):
    """The stacked certificate c with one stack in another algebra.

    A stacked certificate cannot hold elements of two signatures, so each
    signature tamper becomes a stack of another block size: a component
    stack or a sequence stack at one block position, grown by one, or an
    extra 1x1 block position of the components or of the sequence."""
    b = int(np.random.default_rng(seed).integers(len(c.sequence)))
    if tamper == "signature":
        return replace(c, parts=_set(c.parts, b, _grown(c.parts[b], 1)))
    if tamper == "limit-signature":
        return replace(c, sequence=_set(c.sequence, b, _grown(c.sequence[b], 1)))
    if tamper == "sequence-signature":
        return replace(c, parts=(*c.parts, _grown(c.parts[0][..., :0, :0], 1)))
    return replace(c, sequence=(*c.sequence, _grown(c.sequence[0][..., :0, :0], 1)))


def _signatures(c):
    """The block sizes of the component stacks and of the sequence stacks."""
    return tuple(p.shape[-1] for p in c.parts), tuple(s.shape[-1] for s in c.sequence)


def _solving(run):
    """run()'s outcome, and whether it called the Jacobi driver."""
    with mock.patch.object(core, "_jacobi_eigh", wraps=core._jacobi_eigh) as driver:
        out = run()
    return out, driver.called


def _outcome(verify, c, t):
    try:
        r = verify(c, t)
    except Exception as exc:  # the exception is part of the outcome compared
        return ("raised", type(exc), str(exc))
    return ("report", r.accepted, r.failing_condition, struct.pack("<d", r.worst_residual))


SIGNATURES = st.lists(st.integers(1, 8), min_size=1, max_size=4).map(tuple)
# sizes 1 and 2 over 3-6 block positions: every signature repeats a size, so
# each example runs the stacked steps and solves on groups of positions
REPEATED_SIZES = st.lists(st.sampled_from((1, 2)), min_size=3, max_size=6).map(tuple)


def _check_verifier(tamper, sig, n_terms, seed, tol):
    e = _certificate(sig, n_terms, seed, tamper)
    if tamper in SIGNATURE_TAMPERS:
        c = _resigned(_stacked(_certificate(sig, n_terms, seed, "none")), seed, tamper)
    else:
        c = _stacked(e)
    t, sweeps = TOLS[tol]
    with mock.patch.object(core, "_MAX_SWEEPS", sweeps):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, solved = _solving(lambda: _outcome(verify_certificate, c, t))
    if tamper in SIGNATURE_TAMPERS:
        parts_sig, sequence_sig = _signatures(c)
        assert parts_sig != sequence_sig
        assert got == ("raised", SignatureMismatch, f"signatures differ: {parts_sig} vs {sequence_sig}")
        assert not solved
        # the element-built certificate's oracle raises the same exception type
        with mock.patch.object(core, "_MAX_SWEEPS", sweeps):
            assert _outcome(_reference_verify, e, t)[:2] == ("raised", SignatureMismatch)
        return
    if tamper in OVERFLOW_TAMPERS and got == NON_FINITE:
        assert not solved
        sweeps = core._MAX_SWEEPS
    with mock.patch.object(core, "_MAX_SWEEPS", sweeps):
        with np.errstate(over="ignore", invalid="ignore"):
            assert got == _outcome(_reference_verify, e, t)


@pytest.mark.parametrize("tamper", TAMPERS)
@settings(max_examples=15)
@given(
    sig=SIGNATURES,
    n_terms=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from(sorted(TOLS)),
)
def test_stacked_verifier_matches_reference(tamper, sig, n_terms, seed, tol):
    _check_verifier(tamper, sig, n_terms, seed, tol)


@pytest.mark.parametrize("tamper", TAMPERS)
@settings(max_examples=15)
@given(
    sig=REPEATED_SIZES,
    n_terms=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from(sorted(TOLS)),
)
def test_stacked_verifier_matches_reference_on_repeated_sizes(tamper, sig, n_terms, seed, tol):
    _check_verifier(tamper, sig, n_terms, seed, tol)


def _reference_build_certificate(seq, limit, tail_rate, tol=None, indices=None):
    """Convert norm convergence at rate tail_rate/n into an order certificate.

    Raises EnvelopeViolation when some prefix term exceeds the declared
    bound. ``indices`` defaults to 1..N; explicit ascending naturals are
    accepted for subsequences such as geometric ladders.
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
    gaps = [operator_norm(a - limit, t) for a in seq]
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

    one = AlgebraElement.identity(sig)
    re_terms = [real_part(a) for a in seq]
    im_terms = [imag_part(a) for a in seq]
    comp1 = tuple(im + e * one for im, e in zip(im_terms, eps))
    comp2 = tuple(e * one for e in eps)
    comp3 = comp2
    comp4 = tuple(re + e * one for re, e in zip(re_terms, eps))
    zero = AlgebraElement.zeros(sig)
    return _ElementCertificate(
        indices=indices,
        terms=tuple(seq),
        limit=limit,
        components=(comp1, comp2, comp3, comp4),
        component_limits=(imag_part(limit), zero, zero, real_part(limit)),
        envelope=DominatorEnvelope(eps=tuple(eps), tail_rate=float(tail_rate)),
    )


# how one term of a converging sequence is replaced; every other term stays
# within rate 1 of the limit
SEQUENCE_TAMPERS = (
    "none",
    "equal",  # a - limit = 0: a zero Gram matrix
    "envelope",  # beyond rate 1/n
    "tiny",  # the Gram entries' squares underflow: the rescaled solve
    "subnormal",  # the Gram entries themselves underflow to zero or subnormals
    "term-signature",
    "limit-signature",
    "overflow",  # a - limit overflows
    "gram-overflow",  # a - limit is finite, its Gram matrix is not
    "scale-overflow",  # the Gram matrix is finite, its Frobenius norm is not
    "component-overflow",  # a term equals a limit near 1e308: a + a* overflows
)


def _overflowing_real_part(sig, rng):
    """Entries of magnitude 1e300 to 1.5e308 with a diagonal of 1.5e308: a + a* overflows."""
    return AlgebraElement([
        np.where(np.eye(n, dtype=bool), 1.5e308, b) for b, n in zip(_huge(sig, rng).blocks, sig)
    ])


def _sequence(sig, n_terms, seed, tamper):
    rng = np.random.default_rng(seed)
    limit = random_element(sig, rng)
    seq = []
    for n in range(1, n_terms + 1):
        bump = random_element(sig, rng)
        seq.append(limit + bump * (rng.uniform(0.5, 1.0) / (n * operator_norm(bump))))
    j = int(rng.integers(n_terms))
    bump = random_element(sig, rng)
    other = (*sig, 1)
    replaced = {
        "equal": limit,
        "envelope": limit + 2.0 * bump / operator_norm(bump),
        "tiny": limit + 1e-160 * bump,
        "subnormal": limit + 1e-170 * bump,
        "term-signature": random_element(other, rng),
        "overflow": _huge(sig, rng),
        "gram-overflow": limit + 1e160 * bump,
        "scale-overflow": limit + 1e100 * bump,
    }.get(tamper)
    if replaced is not None:
        seq[j] = replaced
    if tamper == "limit-signature":
        limit = random_element(other, rng)
    if tamper == "component-overflow":
        # shifted onto the new limit, the other terms stay within rate 1 of it
        huge = _overflowing_real_part(sig, rng)
        seq = [huge + (a - limit) for a in seq]
        limit = seq[j] = huge
    return seq, limit


def _bits(x):
    return tuple(b.tobytes() for b in x.blocks)


def _build_outcome(build, seq, limit, t):
    try:
        c = build(seq, limit, 1.0, t)
    except Exception as exc:  # the exception is part of the outcome compared
        return ("raised", type(exc), str(exc))
    if isinstance(c, OrderLimitCertificate):
        c = _elements(c)
    return (
        "built",
        c.indices,
        struct.pack(f"<{len(c.envelope.eps)}d", *c.envelope.eps),
        c.envelope.tail_rate,
        tuple(_bits(x) for comp in c.components for x in comp),
        tuple(_bits(x) for x in c.component_limits),
        _bits(c.limit) == _bits(limit) and [_bits(a) for a in c.terms] == [_bits(a) for a in seq],
    )


def _check_builder(tamper, sig, n_terms, seed, tol):
    seq, limit = _sequence(sig, n_terms, seed, tamper)
    t, sweeps = TOLS[tol]
    with mock.patch.object(core, "_MAX_SWEEPS", sweeps):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, solved = _solving(lambda: _build_outcome(build_certificate, seq, limit, t))
    if tamper in ("term-signature", "limit-signature"):
        a = next(a for a in seq if a.signature != limit.signature)
        message = f"signatures differ: {a.signature} vs {limit.signature}"
        assert got == ("raised", SignatureMismatch, message)
        assert not solved
        return
    if tamper in ("overflow", "gram-overflow"):
        assert got == NON_FINITE
        assert not solved
        sweeps = core._MAX_SWEEPS
    with mock.patch.object(core, "_MAX_SWEEPS", sweeps):
        with np.errstate(over="ignore", invalid="ignore"):
            assert got == _build_outcome(_reference_build_certificate, seq, limit, t)


@pytest.mark.parametrize("tamper", SEQUENCE_TAMPERS)
@settings(max_examples=15)
@given(
    sig=SIGNATURES,
    n_terms=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from(sorted(TOLS)),
)
def test_stacked_builder_matches_reference(tamper, sig, n_terms, seed, tol):
    _check_builder(tamper, sig, n_terms, seed, tol)


@pytest.mark.parametrize("tamper", SEQUENCE_TAMPERS)
@settings(max_examples=15)
@given(
    sig=REPEATED_SIZES,
    n_terms=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from(sorted(TOLS)),
)
def test_stacked_builder_matches_reference_on_repeated_sizes(tamper, sig, n_terms, seed, tol):
    _check_builder(tamper, sig, n_terms, seed, tol)


@pytest.mark.parametrize("sig", [(1,), (2, 2), (3,)])
def test_a_term_whose_gram_norm_overflows_fails_its_envelope_at_every_block_size(sig):
    # the tampered term lies about 1e100 from the limit: its Gram matrix is
    # finite, its Frobenius norm is not, and the solve rescales it, so a
    # block of dimension >= 2 gets the envelope's verdict, as a 1x1 block does
    seq, limit = _sequence(sig, 4, 7, "scale-overflow")
    gaps = [max(np.linalg.norm(a - b, 2) for a, b in zip(x.blocks, limit.blocks)) for x in seq]
    j = int(np.argmax(gaps))
    assert gaps[j] > 1e99
    message = f"term at index {j + 1} lies {gaps[j]:.3e} from the limit"
    with pytest.raises(EnvelopeViolation, match=re.escape(message)):
        build_certificate(seq, limit, 1.0)


@pytest.mark.parametrize("sig", [(1,), (2, 3), (4,)])
def test_a_term_whose_hermitian_part_overflows_raises_in_both_builders(sig):
    seq, limit = _sequence(sig, 3, 5, "component-overflow")
    assert any(a == limit for a in seq)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _build_outcome(_reference_build_certificate, seq, limit, ToleranceConfig())
    assert expected == ("raised", BadArgument, "non-finite entry in block")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BadArgument, match="non-finite entry in block"):
            build_certificate(seq, limit, 1.0)



def _replaced_component(k, j, value):
    """A built certificate over (3, 2) with component (k, j) set to value."""
    e = _certificate((3, 2), 4, k + j, "none")
    return _stacked(replace(e, components=_set(e.components, k, _set(e.components[k], j, value))))


@pytest.mark.parametrize("b,grow", [(0, 1), (1, 2), (1, -1)])
def test_a_component_stack_of_another_block_size_raises_before_any_solve(b, grow):
    c = _stacked(_certificate((3, 2), 4, b, "none"))
    c = replace(c, parts=_set(c.parts, b, _grown(c.parts[b], grow)))
    parts_sig = tuple(n + grow if i == b else n for i, n in enumerate((3, 2)))
    got, solved = _solving(lambda: _outcome(verify_certificate, c, None))
    assert got == ("raised", SignatureMismatch, f"signatures differ: {parts_sig} vs (3, 2)")
    assert not solved


@pytest.mark.parametrize("k,j", [(1, 0), (2, 3), (3, 1)])
def test_an_overflowing_component_raises_before_any_solve(k, j):
    c = _replaced_component(k, j, _huge((3, 2), np.random.default_rng(j)))
    got, solved = _solving(lambda: _outcome(verify_certificate, c, None))
    assert got == NON_FINITE
    assert not solved


@pytest.mark.parametrize("sig", [(1,), (2, 1, 3), (1, 2, 2, 1, 2, 1)])
def test_built_stacks_are_read_only_and_the_elements_are_views_of_them(sig):
    seq, limit = _sequence(sig, 5, 11, "none")
    c = build_certificate(seq, limit, 1.0)
    assert _signatures(c) == (sig, sig)
    for s, p, n in zip(c.sequence, c.parts, sig):
        assert s.shape == (6, n, n) and p.shape == (4, 6, n, n)
        assert s.dtype == p.dtype == np.complex128
        assert not s.flags.writeable and not p.flags.writeable
    # row N of the sequence is the limit, rows 0..N-1 the terms, bit for bit
    assert _bits(c.limit) == _bits(limit)
    assert [_bits(a) for a in c.terms] == [_bits(a) for a in seq]
    e = _elements(c)
    for b in range(len(sig)):
        for k in range(4):
            assert e.component_limits[k].blocks[b].base is not None
            assert np.shares_memory(e.component_limits[k].blocks[b], c.parts[b])
            for j in range(5):
                view = e.components[k][j].blocks[b]
                assert np.array_equal(view, c.parts[b][k, j]) and not view.flags.writeable
                assert np.shares_memory(view, c.parts[b])
        assert np.shares_memory(c.limit.blocks[b], c.sequence[b])
    # the views are made once and kept
    assert c.terms[0] is c.terms[0] and c.limit is c.limit


def test_verify_makes_no_element():
    seq, limit = _sequence((1, 2, 2, 1, 2, 1), 8, 3, "none")
    c = build_certificate(seq, limit, 1.0)
    refuse = mock.Mock(side_effect=AssertionError("an element was made"))
    with mock.patch.object(AlgebraElement, "_of_stacks", refuse), mock.patch.object(
        AlgebraElement, "_of", refuse
    ), mock.patch.object(AlgebraElement, "__init__", refuse):
        report = verify_certificate(c)
    assert report.accepted
