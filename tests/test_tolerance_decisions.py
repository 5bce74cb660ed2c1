"""Every site of a tolerance decision flips at the same threshold.

A diagonal block is solved exactly by the Jacobi sweep, so h = diag(1, -d)
has eigenvalues exactly 1 and -d. The positivity threshold is then
pos_slack (1 + max |w|) = 2 pos_slack, and the rank cut of diag(1, w) is
rank_cutoff max(1, max |w|) = rank_cutoff. Each case sits 1e-6 (relative)
on one side of its threshold. Two more heads, diag(1, 1, .) and diag(4, .),
tell the largest eigenvalue from the Frobenius norm and max(1, .) from 1; a
site that scales its slack or cutoff by anything else decides differently
from the others on one of them. The two readers of the atoms,
spectral_measure and minimal_projections, merge two eigenvalues at one
cluster gap, taken from the largest value tuple.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from awkit.core import (
    DEFAULT_TOL,
    AlgebraElement,
    ToleranceConfig,
    eigh_hermitian,
    loewner_leq,
    positive_sqrt,
    range_projection,
)
from awkit.errors import NotPositive, PostconditionFailed
from awkit.lattice import Subalgebra, minimal_projections
from awkit.order import LOWER_BOUND, build_certificate, limit_calculus_check, verify_certificate
from awkit.polar import polar_regularized
from awkit.spectral import spectral_measure

SIDES = {"inside": 1.0 - 1e-6, "outside": 1.0 + 1e-6}
HEADS = pytest.mark.parametrize(
    "head", [(1.0,), (1.0, 1.0), (4.0,)], ids=["diag1", "diag11", "diag4"]
)


def diag(*values):
    return AlgebraElement([np.diag(np.array(values, dtype=complex))])


def raises_not_positive(fn, h):
    try:
        fn(h)
    except NotPositive:
        return True
    return False


def certificate_tags_lower_bound(h):
    """A one-term certificate whose fourth component minus its limit is h;
    the term is rebuilt from the tampered components so nothing else fails."""
    sig, top = h.signature, float(np.abs(h.blocks[0]).max())
    # eps = top, so h stays under the upper bound 2 eps
    cert = build_certificate([top * AlgebraElement.identity(sig)], AlgebraElement.zeros(sig), top)
    parts = tuple(p.copy() for p in cert.parts)
    sequence = tuple(s.copy() for s in cert.sequence)
    for p, s, b in zip(parts, sequence, h.blocks):
        p[3, 0] = b + p[3, 1]
        s[0] = sum(power * p[k, 0] for k, power in enumerate((1j, -1.0, -1j, 1.0)))
    report = verify_certificate(replace(cert, parts=parts, sequence=sequence))
    assert report.accepted or report.failing_condition == LOWER_BOUND
    return not report.accepted


def calculus_hypothesis_holds(h):
    """Terms differ by h, limits by -1: the order-preservation step reports
    LOWER_BOUND exactly when its termwise hypothesis h >= 0 was accepted."""
    sig = h.signature
    zero, one = AlgebraElement.zeros(sig), AlgebraElement.identity(sig)
    c1 = build_certificate([zero], zero, 10.0)
    c2 = build_certificate([h], -1.0 * one, 10.0)
    report = limit_calculus_check(c1, c2, one, one)
    assert report.failing_condition in (None, LOWER_BOUND)
    return report.failing_condition == LOWER_BOUND


@pytest.mark.parametrize("side", sorted(SIDES))
@HEADS
def test_positivity_sites_flip_together(side, head):
    d = (1.0 + max(head)) * DEFAULT_TOL.pos_slack * SIDES[side]
    h = diag(*head, -d)
    zero = AlgebraElement.zeros(h.signature)
    positive = side == "inside"
    decisions = {
        "loewner_leq": loewner_leq(zero, h),
        "positive_sqrt": not raises_not_positive(positive_sqrt, h),
        "verify_certificate": not certificate_tags_lower_bound(h),
        "limit_calculus_check": calculus_hypothesis_holds(h),
    }
    assert decisions == dict.fromkeys(decisions, positive)


@pytest.mark.parametrize("side", sorted(SIDES))
@HEADS
def test_rank_cut_sites_flip_together(side, head):
    w = DEFAULT_TOL.rank_cutoff * max(head) * SIDES[side]
    h = diag(*head, w)
    kept = side == "outside"
    last = len(head)
    root = positive_sqrt(h).blocks[0][last, last]
    inverse = eigh_hermitian(h).inverse(DEFAULT_TOL).blocks[0][last, last]
    inverse_root = eigh_hermitian(h).inverse_root(DEFAULT_TOL).blocks[0][last, last]
    # x*x = diag(head, s*s) with s*s on the same side of the cut as w
    x = diag(*np.sqrt(head), np.sqrt(w))
    absx = polar_regularized(x).absx.blocks[0][last, last]
    decisions = {
        "range_projection": range_projection(h).rank() == last + 1,
        "positive_sqrt": root != 0.0,
        "inverse": inverse != 0.0,
        "inverse_root": inverse_root != 0.0,
        "polar_regularized": absx != 0.0,
    }
    assert decisions == dict.fromkeys(decisions, kept)


def minimal_count(b, tol):
    """How many minimal projections of b the atoms give, also where the
    count fails its postcondition."""
    try:
        return len(minimal_projections(b, tol))
    except PostconditionFailed as exc:
        return int(re.match(r"found (\d+) minimal", str(exc)).group(1))


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_atom_sites_flip_together(side, scale):
    # the eigenvalues s and s i lie sqrt(2) s apart, and the largest |z| is
    # s >= 1, so spectral_measure's gap is cluster_tol s; the algebra they
    # generate is the diagonal one, whose orthonormal basis gives the two
    # columns value tuples of norm 1, sqrt(2) apart, and the gap cluster_tol
    a = diag(scale, scale * 1j)
    tol = ToleranceConfig(cluster_tol=math.sqrt(2.0) / SIDES[side])
    merged = side == "inside"
    b = Subalgebra.from_generators([a], tol)
    assert b.dim == 2
    decisions = {
        "spectral_measure": len(spectral_measure(a, tol).atoms) == 1,
        "minimal_projections": minimal_count(b, tol) == 1,
    }
    assert decisions == dict.fromkeys(decisions, merged)
