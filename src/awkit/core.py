"""Core arithmetic of finite-dimensional *-algebras.

Elements live in a fixed direct sum of square complex matrix blocks and are
immutable; every operation is a pure function. The Hermitian eigensolver is
a cyclic Jacobi sweep, and everything spectral in the higher modules rides
on it: operator norms, Loewner comparisons, positive square roots, range
projections and pseudo-inverses. The sweep rotates Python lists of built-in
complex rather than numpy scalars, and reproduces numpy's complex128
arithmetic bit for bit (see _jacobi_sweeps). Eigenvectors are accumulated
only when a caller reads them: operator norms, Loewner comparisons and
other bound checks ask ``eigh_hermitian`` for eigenvalues alone, through
the same kernel and with the same eigenvalues to the bit.

Blocks are validated once, at the public boundary. ``AlgebraElement(...)``
copies its input to complex128 and checks that every block is square of
dimension >= 1 and finite. The results of arithmetic in this module go
through the private ``AlgebraElement._of``, which trusts its caller to pass
fresh, owning, square complex128 arrays computed from validated blocks; it
still rejects non-finite entries, since arithmetic can overflow, and still
marks every block read-only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    NonConvergence,
    NotPositive,
    NotSelfAdjoint,
    SignatureMismatch,
)

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "AlgebraElement",
    "Projection",
    "HermitianEigenSystem",
    "adjoint",
    "real_part",
    "imag_part",
    "frobenius_norm",
    "trace_inner",
    "operator_norm",
    "loewner_leq",
    "eigh_hermitian",
    "simultaneous_eigh",
    "positive_sqrt",
    "range_projection",
    "pseudo_inverse_on_range",
    "is_self_adjoint",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """All numerical thresholds used by the toolkit.

    pos_slack       absolute slack for positivity / self-adjointness checks
    cluster_tol     relative gap below which eigenvalues are merged
    rank_cutoff     relative threshold below which eigenvalues count as zero
    jacobi_off_tol  relative off-diagonal mass at which the sweep stops
    max_sweeps      hard budget of cyclic Jacobi sweeps
    """

    pos_slack: float = 1e-10
    cluster_tol: float = 1e-8
    rank_cutoff: float = 1e-10
    jacobi_off_tol: float = 1e-14
    max_sweeps: int = 100

    def __post_init__(self):
        for name in ("pos_slack", "cluster_tol", "rank_cutoff", "jacobi_off_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_sweeps <= 0:
            raise ValueError("max_sweeps must be strictly positive")
        if not self.cluster_tol > self.rank_cutoff:
            raise ValueError("cluster_tol must exceed rank_cutoff")


DEFAULT_TOL = ToleranceConfig()


def _tol(tol: ToleranceConfig | None) -> ToleranceConfig:
    return DEFAULT_TOL if tol is None else tol


class AlgebraElement:
    """An element of a finite-dimensional *-algebra, stored blockwise.

    The block signature (n_1, ..., n_r) is fixed per algebra; arithmetic is
    only defined between elements of equal signature. Entries must be finite.

    The constructor copies each block to complex128 and checks that it is a
    square matrix of dimension >= 1 with finite entries. ``_of`` is the
    internal constructor for arithmetic results: its caller guarantees fresh,
    owning, square complex128 arrays, so it skips the copy and the shape
    check. Both reject non-finite entries and mark every block read-only.
    """

    __slots__ = ("blocks", "signature")

    def __init__(self, blocks: Iterable[np.ndarray]):
        mats = []
        for raw in blocks:
            m = np.array(raw, dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
                raise ValueError("blocks must be square matrices of dimension >= 1")
            mats.append(m)
        if not mats:
            raise ValueError("an element needs at least one block")
        self._seal(mats)

    @classmethod
    def _of(cls, mats: list[np.ndarray]) -> "AlgebraElement":
        """Wrap blocks this module has just computed from validated blocks."""
        el = cls.__new__(cls)
        el._seal(mats)
        return el

    def _seal(self, mats: list[np.ndarray]):
        for m in mats:
            if not np.isfinite(m).all():
                raise ValueError("non-finite entry in block")
            m.flags.writeable = False
        object.__setattr__(self, "blocks", tuple(mats))
        object.__setattr__(self, "signature", tuple(m.shape[0] for m in mats))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def total_dim(self) -> int:
        return sum(self.signature)

    @classmethod
    def identity(cls, signature: Sequence[int]) -> "AlgebraElement":
        return cls([np.eye(n, dtype=np.complex128) for n in signature])

    @classmethod
    def zeros(cls, signature: Sequence[int]) -> "AlgebraElement":
        return cls([np.zeros((n, n), dtype=np.complex128) for n in signature])

    def map_blocks(self, fn: Callable[[np.ndarray], np.ndarray]) -> "AlgebraElement":
        return AlgebraElement([fn(b) for b in self.blocks])

    def _check_signature(self, other: "AlgebraElement"):
        if self.signature != other.signature:
            raise SignatureMismatch(
                f"signatures differ: {self.signature} vs {other.signature}"
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_signature(other)
        return AlgebraElement._of([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_signature(other)
        return AlgebraElement._of([a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return AlgebraElement._of([-b for b in self.blocks])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_signature(other)
            return AlgebraElement._of([a @ b for a, b in zip(self.blocks, other.blocks)])
        if isinstance(other, numbers.Number):
            return AlgebraElement._of([complex(other) * b for b in self.blocks])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return AlgebraElement._of([complex(other) * b for b in self.blocks])
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Number):
            return AlgebraElement._of([b / complex(other) for b in self.blocks])
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.signature == other.signature and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
        )

    __hash__ = None

    def __repr__(self):
        return f"AlgebraElement(signature={self.signature})"


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose."""
    # b.T.conj() owns its data (b.conj().T would be a view) and is F-ordered
    return AlgebraElement._of([b.T.conj() for b in x.blocks])


def real_part(x: AlgebraElement) -> AlgebraElement:
    """Self-adjoint part (x + x*)/2."""
    return AlgebraElement._of([0.5 * (b + b.conj().T) for b in x.blocks])


def imag_part(x: AlgebraElement) -> AlgebraElement:
    """Self-adjoint part (x - x*)/2i, so that x = real_part + i imag_part."""
    return AlgebraElement._of([(-0.5j) * (b - b.conj().T) for b in x.blocks])


def frobenius_norm(x: AlgebraElement) -> float:
    return math.sqrt(sum(np.vdot(b, b).real for b in x.blocks))


def trace_inner(x: AlgebraElement, y: AlgebraElement) -> complex:
    """Trace inner product sum_k tr(x_k* y_k)."""
    x._check_signature(y)
    return complex(sum(np.vdot(a, b) for a, b in zip(x.blocks, y.blocks)))


def is_self_adjoint(x: AlgebraElement, tol: ToleranceConfig | None = None) -> bool:
    t = _tol(tol)
    defect = frobenius_norm(x - adjoint(x))
    return defect <= t.pos_slack * (1.0 + frobenius_norm(x))


def _require_self_adjoint(x: AlgebraElement, tol: ToleranceConfig, what: str):
    if not is_self_adjoint(x, tol):
        raise NotSelfAdjoint(f"{what} must be self-adjoint")


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Blockwise eigendecomposition h = U diag(w) U* with ascending w per block.

    unitary is None when the system was computed for its eigenvalues alone
    (``eigh_hermitian(h, vectors=False)``); such a system cannot assemble.
    """

    eigenvalues: tuple[np.ndarray, ...]
    unitary: AlgebraElement | None

    def assemble(self, transform: Callable[[np.ndarray], np.ndarray]) -> AlgebraElement:
        """Rebuild U diag(transform(w)) U*, hermitized exactly when values are real."""
        if self.unitary is None:
            raise ValueError("an eigenvalues-only system has no unitary to assemble")
        blocks = []
        for w, u in zip(self.eigenvalues, self.unitary.blocks):
            vals = np.asarray(transform(w), dtype=np.complex128)
            m = (u * vals) @ u.conj().T
            if np.all(vals.imag == 0.0):
                m = 0.5 * (m + m.conj().T)
            blocks.append(m)
        return AlgebraElement._of(blocks)

    @property
    def min_eigenvalue(self) -> float:
        return min(float(w[0]) for w in self.eigenvalues)

    @property
    def max_abs_eigenvalue(self) -> float:
        return max(max(abs(float(w[0])), abs(float(w[-1]))) for w in self.eigenvalues)


def _off_mass(rows) -> float:
    """Off-diagonal Frobenius mass of a block held as row lists.

    Summed row-major, entry by entry with the diagonal skipped, and never
    as ||a||^2 - ||diag||^2, which cancels catastrophically. Each |a_ij| is
    squared with ``** 2``, that is with C ``pow`` as numpy squares a float64,
    because ``pow(h, 2)`` is not always the correctly rounded ``h * h``.
    A square past the float range raises OverflowError where numpy gives
    inf; the mass is inf either way.
    """
    off = 0.0
    try:
        for i, row in enumerate(rows):
            for j, z in enumerate(row):
                if i != j:
                    off += abs(z) ** 2
    except OverflowError:
        return math.inf
    return math.sqrt(off)


def _jacobi_sweeps(a, vecs, target, skip, max_sweeps):
    """Cyclic Jacobi sweeps over one Hermitian block, in place.

    Returns the final off-diagonal Frobenius mass (see _off_mass). The
    block and the eigenvector matrix are read once into row lists of
    built-in complex, rotated there and written back once at the end: a
    numpy scalar costs several times more per arithmetic operation. With
    vecs None no eigenvectors are accumulated; each entry of the block is
    computed on its own, so the block, the mass and every sweep decision
    are the same to the bit either way. Every
    value is bit-identical to the same rotations on numpy complex128
    scalars, because the lists repeat numpy's arithmetic exactly:

    - division: numpy divides complex128 by float64 through the complex
      divisor (r, +0), as a multiply by the reciprocal 1/r that carries the
      zero imaginary part (Python's apq / r divides, and differs in the
      last bit);
    - squares: ``** 2`` with overflow read as inf, as in _off_mass;
    - products: a real factor enters as complex(c, 0.0), as numpy promotes
      it, rather than relying on how Python multiplies a float into a
      complex; and the off-diagonal mass keeps its summation order.
    """
    rows = a.tolist()
    vrows = None if vecs is None else vecs.tolist()
    n = len(rows)
    for _ in range(max_sweeps):
        off = _off_mass(rows)
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                rp, rq = rows[p], rows[q]
                apq = rp[q]
                r = abs(apq)
                if r <= skip:
                    continue
                s = 1.0 / r
                phase = complex((apq.real + apq.imag * 0.0) * s, (apq.imag - apq.real * 0.0) * s)
                tau = (rq[q].real - rp[p].real) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                cr = 1.0 / math.sqrt(1.0 + t * t)
                c = complex(cr, 0.0)
                sp = complex(t * cr, 0.0) * phase
                spc = sp.conjugate()
                for row in rows:
                    cp = row[p]
                    cq = row[q]
                    row[p] = c * cp - spc * cq
                    row[q] = sp * cp + c * cq
                if vrows is not None:
                    for vrow in vrows:
                        vp = vrow[p]
                        vq = vrow[q]
                        vrow[p] = c * vp - spc * vq
                        vrow[q] = sp * vp + c * vq
                # rows p and q of a, after their columns
                for j in range(n):
                    xp = rp[j]
                    xq = rq[j]
                    rp[j] = c * xp - sp * xq
                    rq[j] = spc * xp + c * xq
                rp[q] = 0j
                rq[p] = 0j
                rp[p] = complex(rp[p].real, 0.0)
                rq[q] = complex(rq[q].real, 0.0)
    else:
        off = _off_mass(rows)
    a[...] = rows
    if vecs is not None:
        vecs[...] = vrows
    return off


def _jacobi_eigh(mat: np.ndarray, rel_off_tol: float, max_sweeps: int, vectors: bool = True):
    """Cyclic Jacobi diagonalization of one Hermitian block.

    Returns ascending eigenvalues and the unitary of eigenvector columns,
    or None in its place when vectors is false. Raises NonConvergence when
    the off-diagonal Frobenius mass is still above rel_off_tol * ||mat||_F
    after max_sweeps full sweeps.
    """
    n = mat.shape[0]
    vecs = np.eye(n, dtype=np.complex128) if vectors else None
    if n == 1:
        return np.array([mat[0, 0].real]), vecs
    a = 0.5 * (np.asarray(mat, dtype=np.complex128) + mat.conj().T)
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n), vecs
    target = rel_off_tol * scale
    off = _jacobi_sweeps(a, vecs, target, target / (2.0 * n), max_sweeps)
    if off > target:
        raise NonConvergence(
            f"Jacobi sweep budget exhausted at off-diagonal mass {off:.3e}"
        )
    w = np.real(np.diagonal(a)).copy()
    order = np.argsort(w, kind="stable")
    if vecs is None:
        return w[order], None
    # vecs[:, order] is an F-ordered view of a temporary; copy it to own it
    return w[order], vecs[:, order].copy(order="F")


def eigh_hermitian(
    h: AlgebraElement, tol: ToleranceConfig | None = None, *, vectors: bool = True
) -> HermitianEigenSystem:
    """Blockwise Hermitian eigendecomposition via cyclic Jacobi sweeps.

    With vectors=False the eigenvectors are not accumulated and the system's
    unitary is None; the eigenvalues are bit-identical to the full solve's.
    Callers that only read eigenvalues (norms, order and bound checks) use it.
    """
    t = _tol(tol)
    _require_self_adjoint(h, t, "eigh_hermitian input")
    values, units = [], []
    for b in h.blocks:
        w, u = _jacobi_eigh(b, t.jacobi_off_tol, t.max_sweeps, vectors)
        w.setflags(write=False)
        values.append(w)
        units.append(u)
    return HermitianEigenSystem(tuple(values), AlgebraElement._of(units) if vectors else None)


def simultaneous_eigh(
    mats: Sequence[np.ndarray], tol: ToleranceConfig | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Jointly diagonalize pairwise-commuting Hermitian matrices of one block.

    Recursive splitting: diagonalize the first matrix, then refine each
    eigenvalue cluster with the compression of the next, and so on. Returns
    the common unitary and the list of joint eigenspace column-index groups.
    """
    t = _tol(tol)
    n = mats[0].shape[0]
    basis = np.eye(n, dtype=np.complex128)
    groups = [np.arange(n)]
    for m in mats:
        gap = t.cluster_tol * max(1.0, float(np.linalg.norm(m)))
        refined = []
        for idx in groups:
            if len(idx) == 1:
                refined.append(idx)
                continue
            v = basis[:, idx]
            comp = v.conj().T @ m @ v
            w, u = _jacobi_eigh(comp, t.jacobi_off_tol, t.max_sweeps)
            basis[:, idx] = v @ u
            start = 0
            for i in range(1, len(w) + 1):
                if i == len(w) or w[i] - w[i - 1] > gap:
                    refined.append(idx[start:i])
                    start = i
        groups = refined
    return basis, groups


def operator_norm(x: AlgebraElement, tol: ToleranceConfig | None = None) -> float:
    """Largest singular value over blocks, via the top eigenvalue of x*x."""
    gram = adjoint(x) * x
    eig = eigh_hermitian(gram, tol, vectors=False)
    top = max(float(w[-1]) for w in eig.eigenvalues)
    return math.sqrt(max(top, 0.0))


def loewner_leq(
    a: AlgebraElement, b: AlgebraElement, tol: ToleranceConfig | None = None
) -> bool:
    """Loewner order test a <= b for self-adjoint elements.

    True iff the minimal eigenvalue of b - a clears -pos_slack * (1 + ||b - a||).
    """
    t = _tol(tol)
    _require_self_adjoint(a, t, "loewner_leq left argument")
    _require_self_adjoint(b, t, "loewner_leq right argument")
    eig = eigh_hermitian(b - a, t, vectors=False)
    return eig.min_eigenvalue >= -t.pos_slack * (1.0 + eig.max_abs_eigenvalue)


def positive_sqrt(
    h: AlgebraElement, tol: ToleranceConfig | None = None
) -> AlgebraElement:
    """Positive square root of a positive element.

    Eigenvalues below the rank cutoff are clamped to zero before the root is
    taken; the square root would otherwise amplify roundoff of order 1e-16
    from products x x* into 1e-8 noise eigenvalues. Anything below
    -pos_slack * (1 + ||h||) raises NotPositive.
    """
    t = _tol(tol)
    eig = eigh_hermitian(h, t)
    norm = eig.max_abs_eigenvalue
    if eig.min_eigenvalue < -t.pos_slack * (1.0 + norm):
        raise NotPositive(f"min eigenvalue {eig.min_eigenvalue:.3e} below slack")
    cutoff = t.rank_cutoff * max(1.0, norm)
    return eig.assemble(lambda w: np.sqrt(np.where(w > cutoff, w, 0.0)))


def range_projection(
    h: AlgebraElement, tol: ToleranceConfig | None = None
) -> "Projection":
    """Smallest projection q with q h = h, for self-adjoint h.

    Sums the eigenprojections of eigenvalues above rank_cutoff * max(1, ||h||).
    """
    t = _tol(tol)
    eig = eigh_hermitian(h, t)
    cutoff = t.rank_cutoff * max(1.0, eig.max_abs_eigenvalue)
    el = eig.assemble(lambda w: np.where(np.abs(w) > cutoff, 1.0, 0.0))
    return Projection(el, t)


def pseudo_inverse_on_range(
    h: AlgebraElement, tol: ToleranceConfig | None = None
) -> AlgebraElement:
    """Inverse of a positive element on its range, zero on its kernel."""
    t = _tol(tol)
    eig = eigh_hermitian(h, t)
    norm = eig.max_abs_eigenvalue
    if eig.min_eigenvalue < -t.pos_slack * (1.0 + norm):
        raise NotPositive(f"min eigenvalue {eig.min_eigenvalue:.3e} below slack")
    cutoff = t.rank_cutoff * max(1.0, norm)

    def invert(w: np.ndarray) -> np.ndarray:
        out = np.zeros_like(w)
        kept = w > cutoff
        out[kept] = 1.0 / w[kept]
        return out

    return eig.assemble(invert)


class Projection:
    """An element certified idempotent and self-adjoint at construction."""

    __slots__ = ("element",)

    def __init__(self, element: AlgebraElement, tol: ToleranceConfig | None = None):
        t = _tol(tol)
        slack = t.pos_slack * 2.0
        if frobenius_norm(element - adjoint(element)) > slack:
            raise ValueError("not a projection: fails self-adjointness")
        if frobenius_norm(element * element - element) > slack:
            raise ValueError("not a projection: fails idempotency")
        object.__setattr__(self, "element", element)

    def __setattr__(self, name, value):
        raise AttributeError("Projection is immutable")

    @property
    def signature(self) -> tuple[int, ...]:
        return self.element.signature

    def rank(self) -> int:
        return int(round(sum(float(np.trace(b).real) for b in self.element.blocks)))

    def __eq__(self, other):
        if not isinstance(other, Projection):
            return NotImplemented
        return self.element == other.element

    __hash__ = None

    def __repr__(self):
        return f"Projection(signature={self.signature}, rank={self.rank()})"
