"""core._norm_against: a norm-threshold test decided from Gram bounds.

For every bound and each of <, <=, > and >=, the value it returns must
give the verdict operator_norm gives, ties included: at the exact norm,
one roundoff unit either side of it, at twice and half of it, at the edges
of its own two shortcuts and far from the norm. It must raise what
operator_norm raises, and it must leave the element's memo as it found it.
"""

import operator
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import core, polar
from awkit.core import (
    AlgebraElement,
    ToleranceConfig,
    _norm_against,
    adjoint,
    eigh_hermitian,
    operator_norm,
)
from awkit.errors import BadArgument, NonConvergence, NotSelfAdjoint
from awkit.polar import polar_regularized
from awkit.sampling import haar_unitary_block

COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)
DEFAULT = ToleranceConfig()


def _fresh(x):
    return AlgebraElement(x.blocks)


def _gram_bounds(x):
    diagonals = [b.diagonal().real for b in (adjoint(x) * x).blocks]
    return max(float(d.max()) for d in diagonals), max(float(d.sum()) for d in diagonals)


def _bounds(norm, lo, hi):
    """Bounds at, next to and away from the norm and the shortcuts' edges."""
    out = [norm, 2.0 * norm, 0.5 * norm, 1e-3 * norm, 1e3 * norm, 0.0, 1.0]
    out += [norm * (1.0 + 1e-15), norm * (1.0 - 1e-15)]
    for edge in (0.5 * np.sqrt(lo), 2.0 * np.sqrt(hi), np.sqrt(lo), np.sqrt(hi)):
        out += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    return out


def _assert_agrees(x, t=DEFAULT):
    try:
        exact = operator_norm(_fresh(x), t)
    except BadArgument as exc:  # the Jacobi scale overflows: so must the helper
        with pytest.raises(BadArgument, match=re.escape(str(exc))):
            _norm_against(x, 1.0, t)
        return
    lo, hi = _gram_bounds(x)
    for bound in _bounds(exact, lo, hi):
        value = _norm_against(x, bound, t)
        for cmp in COMPARISONS:
            assert cmp(value, bound) == cmp(exact, bound), (cmp, value, exact, bound)
    assert getattr(x, "_memo", None) in (None, {})


@st.composite
def elements(draw):
    """1-3 blocks of dim 1-8 at scales 1e-120 to 1e77, past both ends of the
    range where the Gram bounds decide, from Haar factors and singular values
    that may be zero (all but one: then ||x||^2 is the trace), repeated or
    spread over 1e6."""
    sig = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.one_of(st.floats(-120.0, 77.0), st.floats(-2.0, 2.0)))
    shapes = ["generic", "rank-deficient", "rank-one", "equal", "spread", "diagonal"]
    shape = draw(st.sampled_from(shapes))
    blocks = []
    for n in sig:
        if shape == "equal":
            s = np.ones(n)
        elif shape == "spread":
            s = 10.0 ** rng.uniform(-6.0, 0.0, n)
        else:
            s = rng.uniform(0.1, 2.0, n)
        if shape == "rank-deficient":
            s[rng.uniform(size=n) < 0.5] = 0.0
        if shape == "rank-one":
            s[1:] = 0.0
        if shape == "diagonal":
            blocks.append(np.diag(scale * s).astype(np.complex128))
            continue
        w, v = haar_unitary_block(n, rng), haar_unitary_block(n, rng)
        blocks.append((w * (scale * s)) @ v.conj().T)
    return AlgebraElement(blocks)


@settings(max_examples=150)
@given(x=elements())
def test_verdicts_match_operator_norm(x):
    _assert_agrees(x)


def test_zero_element():
    _assert_agrees(AlgebraElement.zeros((1, 3, 2)))
    assert _norm_against(AlgebraElement.zeros((2,)), 1e-10, DEFAULT) == 0.0


def test_where_the_eigensolve_scale_underflows():
    # x*x has entries near 1e-200, whose squares underflow: the eigensolve's
    # Frobenius scale is 0 and it solves the block rescaled; below the range
    # where the bounds decide, the helper must give the eigensolve's verdict
    x = AlgebraElement([np.full((2, 2), 1e-100)])
    assert _norm_against(x, 1e-140, DEFAULT) == operator_norm(_fresh(x))
    _assert_agrees(x)
    # a 1 x 1 block is read off without a scale
    _assert_agrees(AlgebraElement([np.full((2, 2), 1e-100), [[1e-100]]]))


def test_same_bad_argument_on_overflow():
    x = AlgebraElement([np.full((2, 2), 1e160)])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BadArgument) as exact:
            operator_norm(_fresh(x))
        with pytest.raises(BadArgument) as decided:
            _norm_against(x, 1.0, DEFAULT)
    assert str(decided.value) == str(exact.value)


def test_same_not_self_adjoint_below_roundoff():
    # the Gram matrix x*x is not exactly Hermitian, so eigh_hermitian rejects
    # it at pos_slack 1e-20; operator_norm forms it itself and solves it
    # unchecked, to the bits it gives at the default tolerance
    x = AlgebraElement([haar_unitary_block(3, np.random.default_rng(5)) * 2.0])
    t = ToleranceConfig(pos_slack=1e-20)
    norm = operator_norm(_fresh(x), t)
    assert struct.pack("<d", norm) == struct.pack("<d", operator_norm(_fresh(x)))
    _assert_agrees(x, t)
    with pytest.raises(NotSelfAdjoint, match="eigh_hermitian input must be self-adjoint"):
        eigh_hermitian(adjoint(x) * x, t)


def test_memoized_norm_is_returned_and_memo_is_left_alone():
    x = AlgebraElement([[[3.0, 4.0], [0.0, 0.0]]])  # lo = 16, ||x||^2 = 25
    assert _norm_against(x, 1.0, DEFAULT) == 4.0  # sqrt(lo), decided
    assert getattr(x, "_memo", None) is None
    norm = operator_norm(x)
    assert norm == 5.0
    memo = dict(x._memo)
    for bound in (1e-9, norm, 1e9):
        assert _norm_against(x, bound, DEFAULT) == norm
    assert x._memo == memo


def test_skipped_eigensolve_raises_no_non_convergence():
    # documented difference: a sweep budget too small to converge raises
    # only where the eigensolve runs
    rng = np.random.default_rng(2)
    w, v = haar_unitary_block(6, rng), haar_unitary_block(6, rng)
    x = AlgebraElement([(w * np.arange(1.0, 7.0)) @ v])
    with mock.patch.object(core, "_MAX_SWEEPS", 1):
        with pytest.raises(NonConvergence):
            operator_norm(_fresh(x))
        lo, _ = _gram_bounds(x)
        assert _norm_against(x, 1e-3, DEFAULT) == np.sqrt(lo)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its first argument."""
    body = getattr(module, name)
    seen = []

    def counted(first, *args, **kwargs):
        seen.append(first)
        return body(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return seen


def test_ladder_loop_makes_no_operator_norm_call(monkeypatch):
    # at unit scale the Gram bounds decide every stop test, made on the
    # stacked Gram matrices by the Gram-level rule: the eigensolves are |x|
    # and |x*| and one stacked Gram norm call for all diagnostics entries,
    # and no element's operator_norm runs
    rng = np.random.default_rng(4)
    x = AlgebraElement([
        (haar_unitary_block(n, rng) * rng.uniform(0.5, 2.0, n)) @ haar_unitary_block(n, rng)
        for n in (3, 5)
    ])
    norms = _counting(monkeypatch, core, "_operator_norm")
    solves = _counting(monkeypatch, core, "_eigh_blocks")
    own_solves = _counting(monkeypatch, polar, "_eigh_blocks")
    stop_tests = _counting(monkeypatch, polar, "_gram_against")
    diagnostics = _counting(monkeypatch, polar, "_gram_norms")
    result = polar_regularized(x)
    rungs = len(result.diagnostics)
    assert len(stop_tests) == rungs - 1 == 20
    assert len(norms) == 0
    assert len(solves) + len(own_solves) == 2
    assert [[len(g) for g in stacks] for stacks in diagnostics] == [[rungs, rungs]]
