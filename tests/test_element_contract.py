"""The AlgebraElement constructor contract.

The public constructor copies and validates its input; arithmetic results
come from the internal constructor, which skips the copy and shape check
but still rejects non-finite entries and freezes every block. The stacked
internal constructor wraps k elements as views of one read-only stack per
block position, under the same finiteness check. The CLI's loader, which
validates what it reads, hands its fresh stacks to the stacked constructor.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit import cli
from awkit.core import (
    AlgebraElement,
    adjoint,
    eigh_hermitian,
    imag_part,
    real_part,
)
from awkit.errors import BadArgument
from awkit.sampling import random_element

signatures = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
seeds = st.integers(0, 2**32 - 1)


def produced(x, y):
    """Every internal producer, applied to elements of equal signature."""
    h = real_part(x)
    eig = eigh_hermitian(h)
    return {
        "add": x + y,
        "sub": x - y,
        "neg": -x,
        "mul": x * y,
        "scalar_mul": x * 2.5,
        "scalar_rmul": (1 - 2j) * x,
        "div": x / 3,
        "adjoint": adjoint(x),
        "real_part": h,
        "imag_part": imag_part(x),
        "assemble": eig.assemble(lambda w: w * w),
        "eigh_unitary": eig.unitary,
    }


def assert_sealed(el, signature, name=""):
    assert el.signature == signature, name
    for b in el.blocks:
        assert b.dtype == np.complex128, name
        assert not b.flags.writeable, name
        assert b.base is None, name


@settings(max_examples=40, deadline=None)
@given(signatures, seeds)
def test_internal_producers_seal_fresh_blocks(sig, seed):
    rng = np.random.default_rng(seed)
    x, y = random_element(sig, rng), random_element(sig, rng)
    for name, el in produced(x, y).items():
        assert_sealed(el, sig, name)


@settings(max_examples=40, deadline=None)
@given(signatures, seeds)
def test_public_constructor_copies(sig, seed):
    rng = np.random.default_rng(seed)
    raw = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in sig]
    x = AlgebraElement(raw)
    before = [b.copy() for b in x.blocks]
    for r in raw:
        r[...] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(x.blocks, before))
    assert_sealed(x, sig)


def test_arithmetic_overflow_raises():
    x = AlgebraElement([[[1e308]]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            x * 10
        with pytest.raises(ValueError, match="non-finite"):
            10 * x
        with pytest.raises(ValueError, match="non-finite"):
            x + x
        with pytest.raises(ValueError, match="non-finite"):
            x - (-x)
        with pytest.raises(ValueError, match="non-finite"):
            x * x
        with pytest.raises(ValueError, match="non-finite"):
            x / 1e-10


def test_signature_is_read_only():
    x = AlgebraElement([np.eye(2), np.eye(3)])
    assert x.signature == (2, 3)
    with pytest.raises(AttributeError):
        x.signature = (5,)
    assert x.signature == (2, 3)


def _stacks(sig, k, rng):
    return [rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)) for n in sig]


@settings(max_examples=40, deadline=None)
@given(signatures, st.integers(0, 4), seeds)
def test_stacked_constructor_wraps_read_only_views(sig, k, seed):
    stacks = _stacks(sig, k, np.random.default_rng(seed))
    expected = [s.copy() for s in stacks]
    elements = AlgebraElement._of_stacks(stacks)
    assert len(elements) == k
    for j, el in enumerate(elements):
        assert el.signature == sig
        for b, stack, want in zip(el.blocks, stacks, expected):
            assert b.dtype == np.complex128
            assert not b.flags.writeable
            assert b.base is stack
            assert not stack.flags.writeable
            assert np.array_equal(b, want[j])
        # element arithmetic reads the views as it reads owning blocks
        assert el + el == AlgebraElement([2.0 * w[j] for w in expected])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_stacked_constructor_rejects_non_finite_entries(bad):
    stacks = _stacks((2, 1, 3), 3, np.random.default_rng(0))
    stacks[2][1, 0, 2] = bad
    with pytest.raises(BadArgument, match="non-finite entry in block"):
        AlgebraElement._of_stacks(stacks)


@settings(max_examples=40, deadline=None)
@given(signatures, seeds)
def test_loaded_element_is_a_view_of_read_only_stacks(sig, seed):
    x = random_element(sig, np.random.default_rng(seed))
    loaded = cli.element_from_json(json.loads(json.dumps(cli.element_to_json(x))))
    assert loaded == x
    assert loaded.signature == sig
    for b in loaded.blocks:
        assert b.dtype == np.complex128
        assert not b.flags.writeable
        # a slice of one stack of the whole sequence, N = 1 here
        assert b.base is not None and not b.base.flags.writeable
