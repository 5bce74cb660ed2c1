"""Seeded random generators for elements, used by tests and the self-test harness."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import AlgebraElement

__all__ = [
    "random_signature",
    "random_element",
    "random_self_adjoint",
    "random_unitary",
    "random_normal_element",
    "element_with_singular_values",
]


def random_signature(
    rng: np.random.Generator, max_blocks: int = 3, dims: tuple[int, int] = (1, 8)
) -> tuple[int, ...]:
    r = int(rng.integers(1, max_blocks + 1))
    lo, hi = dims
    return tuple(int(rng.integers(lo, hi + 1)) for _ in range(r))


def _gaussian_block(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_element(
    signature: Sequence[int], rng: np.random.Generator, scale: float = 1.0
) -> AlgebraElement:
    """Complex Gaussian entries, blockwise."""
    return AlgebraElement([scale * _gaussian_block(n, rng) for n in signature])


def random_self_adjoint(
    signature: Sequence[int], rng: np.random.Generator, scale: float = 1.0
) -> AlgebraElement:
    blocks = []
    for n in signature:
        g = _gaussian_block(n, rng)
        blocks.append(scale * 0.5 * (g + g.conj().T))
    return AlgebraElement(blocks)


def haar_unitary_block(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian_block(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary(signature: Sequence[int], rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement([haar_unitary_block(n, rng) for n in signature])


def random_normal_element(
    signature: Sequence[int], rng: np.random.Generator, scale: float = 1.0
) -> AlgebraElement:
    """U diag(complex Gaussian) U* per block; normal by construction."""
    blocks = []
    for n in signature:
        u = haar_unitary_block(n, rng)
        vals = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        blocks.append((u * vals) @ u.conj().T)
    return AlgebraElement(blocks)


def element_with_singular_values(
    signature: Sequence[int],
    singular_values: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> AlgebraElement:
    """W diag(s) V* per block with seeded Haar unitaries W, V."""
    blocks = []
    for n, s in zip(signature, singular_values):
        w = haar_unitary_block(n, rng)
        v = haar_unitary_block(n, rng)
        blocks.append((w * np.asarray(s, dtype=np.float64)) @ v.conj().T)
    return AlgebraElement(blocks)
