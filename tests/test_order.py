"""Order-limit certificate tests: builder round-trips, tamper tags, calculus."""

import math
from dataclasses import replace

import numpy as np
import pytest

from awkit.core import AlgebraElement, ToleranceConfig, operator_norm
from awkit.errors import BadArgument, EnvelopeViolation, SignatureMismatch
from awkit.order import (
    DominatorEnvelope,
    ENVELOPE_MONOTONICITY,
    LimitReport,
    LOWER_BOUND,
    SUM_DECOMPOSITION,
    TAIL,
    UPPER_BOUND,
    build_certificate,
    limit_calculus_check,
    verify_certificate,
)
from awkit.sampling import random_element, random_signature
from awkit.selftest import _shifted


def scalar_sequence(n_terms, sig=(2,)):
    one = AlgebraElement.identity(sig)
    return [one / n for n in range(1, n_terms + 1)], AlgebraElement.zeros(sig)


def decaying_sequence(rng, sig, n_terms, rate=1.0):
    """limit + perturbations of norm exactly rate * theta_n / n, theta in [.5, 1]."""
    limit = random_element(sig, rng)
    seq = []
    for n in range(1, n_terms + 1):
        bump = random_element(sig, rng)
        bump = bump * ((rate * rng.uniform(0.5, 1.0) / n) / operator_norm(bump))
        seq.append(limit + bump)
    return seq, limit


def test_build_scalar_sequence():
    seq, limit = scalar_sequence(6)
    cert = build_certificate(seq, limit, 1.0)
    assert np.allclose(cert.envelope.eps, [1 / n for n in range(1, 7)])
    report = verify_certificate(cert)
    assert report.accepted and report.failing_condition is None


def test_build_alternating_sequence():
    # sup over the tail computed by direct enumeration as the oracle
    sig = (2,)
    seq = [
        AlgebraElement([np.diag([(-1.0) ** n / n, 0.0])]) for n in range(1, 8)
    ]
    limit = AlgebraElement.zeros(sig)
    gaps = [1.0 / n for n in range(1, 8)]
    expected_eps = [max(gaps[m:]) for m in range(7)]
    cert = build_certificate(seq, limit, 1.0)
    assert np.allclose(cert.envelope.eps, expected_eps)
    assert verify_certificate(cert).accepted


def test_build_rejects_non_null_sequence():
    # a norm-1 sequence violates any declared c/n bound once the prefix
    # reaches indices beyond c
    sig = (2,)
    for rate in (1.0, 3.0, 10.0):
        n_terms = int(rate) + 2
        seq = [
            AlgebraElement([np.diag([(-1.0) ** n, 0.0])]) for n in range(1, n_terms + 1)
        ]
        with pytest.raises(EnvelopeViolation):
            build_certificate(seq, AlgebraElement.zeros(sig), rate)


def test_build_empty_sequence_rejected():
    with pytest.raises(ValueError):
        build_certificate([], AlgebraElement.zeros((2,)), 1.0)


def test_roundtrip_random_sequences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sig = random_signature(rng, max_blocks=2, dims=(1, 4))
        seq, limit = decaying_sequence(rng, sig, int(rng.integers(3, 9)))
        cert = build_certificate(seq, limit, 1.0)
        report = verify_certificate(cert)
        assert report.accepted, report
        # soundness: ||a_n - a|| <= 8 eps_n per index
        for a, e in zip(seq, cert.envelope.eps):
            assert operator_norm(a - limit) <= 8 * e + 1e-12


def _shift_component(cert, k, j, delta):
    return replace(cert, parts=_shifted(cert.parts, (k, j), delta))


def test_tamper_component_shift_down_tags_lower_bound():
    seq, limit = scalar_sequence(5)
    cert = build_certificate(seq, limit, 1.0)
    bad = _shift_component(cert, 3, 1, -3.0 * cert.envelope.eps[1])
    report = verify_certificate(bad)
    assert not report.accepted
    assert report.failing_condition == LOWER_BOUND


def test_tamper_component_shift_up_tags_upper_bound():
    seq, limit = scalar_sequence(5)
    cert = build_certificate(seq, limit, 1.0)
    bad = _shift_component(cert, 3, 1, 3.0 * cert.envelope.eps[1])
    report = verify_certificate(bad)
    assert not report.accepted
    assert report.failing_condition == UPPER_BOUND


def test_tamper_term_tags_sum_decomposition():
    seq, limit = scalar_sequence(5)
    cert = build_certificate(seq, limit, 1.0)
    bad = replace(cert, sequence=_shifted(cert.sequence, 2, 0.5))
    report = verify_certificate(bad)
    assert not report.accepted
    assert report.failing_condition == SUM_DECOMPOSITION


def _tamper_term(cert, shift):
    return replace(cert, sequence=_shifted(cert.sequence, 2, shift))


def test_sum_decomposition_threshold_boundary():
    # the term residual is shift; the threshold is pos_slack (1 + ||a||) with
    # ||a|| = 1/3 + shift, so 1.2 pos_slack lies inside it and 1.5 above it
    slack = ToleranceConfig().pos_slack
    seq, limit = scalar_sequence(5)
    cert = build_certificate(seq, limit, 1.0)

    inside = verify_certificate(_tamper_term(cert, 1.2 * slack))
    assert slack < inside.worst_residual < slack * (1.0 + 1.0 / 3.0)
    assert inside.accepted

    above = verify_certificate(_tamper_term(cert, 1.5 * slack))
    assert above.worst_residual > slack * (1.0 + 1.0 / 3.0 + 1.5 * slack)
    assert not above.accepted
    assert above.failing_condition == SUM_DECOMPOSITION


def test_tamper_envelope_tags_monotonicity():
    seq, limit = scalar_sequence(5)
    cert = build_certificate(seq, limit, 1.0)
    eps = list(cert.envelope.eps)
    eps[2] = eps[1] + 0.25
    bad = replace(cert, envelope=DominatorEnvelope(eps=tuple(eps), tail_rate=cert.envelope.tail_rate))
    report = verify_certificate(bad)
    assert not report.accepted
    assert report.failing_condition == ENVELOPE_MONOTONICITY


def test_tamper_tail_rate_tags_tail():
    seq, limit = scalar_sequence(5)
    cert = build_certificate(seq, limit, 1.0)
    n_last = cert.indices[-1]
    bad = replace(
        cert,
        envelope=DominatorEnvelope(
            eps=cert.envelope.eps,
            tail_rate=cert.envelope.eps[-1] * n_last / 2.0,
        ),
    )
    report = verify_certificate(bad)
    assert not report.accepted
    assert report.failing_condition == TAIL


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
def test_build_rejects_non_finite_or_negative_rate(rate):
    # max(0, eps - nan / n) is 0, so a NaN rate would pass every tail check
    seq, limit = scalar_sequence(5)
    with pytest.raises(ValueError, match="tail_rate"):
        build_certificate(seq, limit, rate)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_verify_tags_non_finite_tail_rate(rate):
    seq, limit = scalar_sequence(5)
    cert = build_certificate(seq, limit, 1.0)
    bad = replace(cert, envelope=DominatorEnvelope(eps=cert.envelope.eps, tail_rate=rate))
    report = verify_certificate(bad)
    assert not report.accepted
    assert report.failing_condition == TAIL


def _flat_certificate(eps):
    """Terms 5 * 1 converging to 0 by the certificate's own components:
    components 1-3 are 0, component 4 is 5 * 1, all within 2 eps_j of
    their limits only when eps_j >= 2.5."""
    seq, limit = scalar_sequence(4)
    cert = build_certificate(seq, limit, 1.0)
    sequence = np.zeros((5, 2, 2), dtype=complex)
    sequence[:4] = 5.0 * np.eye(2)
    parts = np.zeros((4, 5, 2, 2), dtype=complex)
    parts[3, :4] = 5.0 * np.eye(2)
    return replace(
        cert,
        sequence=(sequence,),
        parts=(parts,),
        envelope=DominatorEnvelope(eps=eps, tail_rate=1.0),
    )


def test_verify_rejects_a_nan_envelope():
    # max(0.0, nan) is 0.0: the upper-bound, monotonicity and tail residuals
    # of a NaN envelope all read 0, and the certificate was accepted
    report = verify_certificate(_flat_certificate((math.nan,) * 4))
    assert report == LimitReport(False, math.inf, ENVELOPE_MONOTONICITY)
    # the same certificate with a finite envelope fails its tail
    assert verify_certificate(_flat_certificate((2.5,) * 4)).failing_condition == TAIL


@pytest.mark.parametrize("bad", [math.inf, -math.inf, -1e-12])
def test_verify_gives_an_envelope_entry_that_is_infinite_or_negative_residual_inf(bad):
    report = verify_certificate(_flat_certificate((2.5, 2.5, 2.5, bad)))
    assert not report.accepted
    assert report.worst_residual == math.inf


@pytest.mark.parametrize("indices", [(1, 2, 3, 0), (4, 3, 2, 1), (1, 2, 2, 3)])
def test_builder_and_verifier_reject_indices_that_are_not_ascending_naturals(indices):
    # (1, 2, 3, 0) escaped the verifier as ZeroDivisionError, and (4, 3, 2, 1)
    # was accepted, its tail checked at the smallest index
    seq, limit = scalar_sequence(4)
    cert = build_certificate(seq, limit, 1.0)
    with pytest.raises(BadArgument, match="indices must be ascending naturals"):
        verify_certificate(replace(cert, indices=indices))
    with pytest.raises(BadArgument, match="indices must be ascending naturals"):
        build_certificate(seq, limit, 1.0, indices=indices)


@pytest.mark.parametrize("indices", [(1.9, 2.2, 3.7), (True, 2, 3), (1.0, 2.0, 3.0)])
def test_builder_rejects_indices_that_are_not_integers(indices):
    # (1.9, 2.2, 3.7) was truncated to (1, 2, 3), and True read as 1
    seq, limit = scalar_sequence(3)
    with pytest.raises(BadArgument, match="indices must be ascending naturals"):
        build_certificate(seq, limit, 1.0, indices=indices)


@pytest.mark.parametrize("indices", [(1.5, 2.5, 3.5), (True, 2, 3), (1, 2, np.bool_(True))])
def test_verifier_rejects_indices_that_are_not_integers(indices):
    # (1.5, 2.5, 3.5) was accepted, its tail checked at 3.5
    seq, limit = scalar_sequence(3)
    cert = build_certificate(seq, limit, 1.0)
    with pytest.raises(BadArgument, match="indices must be ascending naturals"):
        verify_certificate(replace(cert, indices=indices))


def test_numpy_integer_indices_are_accepted():
    seq, limit = scalar_sequence(3)
    cert = build_certificate(seq, limit, 1.0, indices=np.array([1, 2, 3]))
    assert cert.indices == (1, 2, 3) and all(type(i) is int for i in cert.indices)
    assert verify_certificate(cert).accepted
    numpy_ints = (np.int32(1), np.uint8(2), np.int64(3))
    assert verify_certificate(replace(cert, indices=numpy_ints)).accepted


def test_calculus_scalar_examples():
    seq, limit = scalar_sequence(6)
    c1 = build_certificate(seq, limit, 1.0)
    c2 = build_certificate(seq, limit, 1.0)
    x = AlgebraElement([np.diag([1.0, 0.0])])
    report = limit_calculus_check(c1, c2, x, x)
    assert report.accepted, report
    assert report.worst_residual <= 1e-9


def test_calculus_random_certified_pairs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sig = random_signature(rng, max_blocks=2, dims=(1, 4))
        n_terms = int(rng.integers(3, 7))
        seq1, lim1 = decaying_sequence(rng, sig, n_terms)
        c1 = build_certificate(seq1, lim1, 1.0)
        # second sequence dominates the first termwise, so order preservation
        # is exercised with a true hypothesis
        bump = random_element(sig, rng)
        from awkit.core import adjoint

        q = adjoint(bump) * bump
        seq2 = [a + q for a in seq1]
        c2 = build_certificate(seq2, lim1 + q, 1.0)
        x = random_element(sig, rng)
        y = random_element(sig, rng)
        report = limit_calculus_check(c1, c2, x, y)
        assert report.accepted, report
        assert report.worst_residual <= 1e-9


def test_calculus_signature_mismatch():
    seq, limit = scalar_sequence(4, sig=(2,))
    c1 = build_certificate(seq, limit, 1.0)
    seq3, limit3 = scalar_sequence(4, sig=(3,))
    c3 = build_certificate(seq3, limit3, 1.0)
    x = AlgebraElement.identity((2,))
    with pytest.raises(SignatureMismatch):
        limit_calculus_check(c1, c3, x, x)


def test_explicit_ladder_indices():
    sig = (2,)
    one = AlgebraElement.identity(sig)
    ladder = [1, 2, 4, 8, 16]
    seq = [one * (1.0 / n) for n in ladder]
    cert = build_certificate(seq, AlgebraElement.zeros(sig), 1.0, indices=ladder)
    assert cert.indices == tuple(ladder)
    assert verify_certificate(cert).accepted
