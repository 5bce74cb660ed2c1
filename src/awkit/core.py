"""Core arithmetic of finite-dimensional *-algebras.

Elements live in a fixed direct sum of square complex matrix blocks and are
immutable; every operation is a pure function. The Hermitian eigensolver is
a cyclic Jacobi sweep, and everything spectral in the higher modules rides
on it: operator norms, Loewner comparisons, positive square roots, range
projections and pseudo-inverses. The sweep rotates Python lists of built-in
complex rather than numpy scalars, and reproduces numpy's complex128 scalar
arithmetic bit for bit, though not its array loops (see _jacobi_sweeps).
Eigenvectors are accumulated only when a caller reads them: operator norms,
Loewner comparisons and other bound checks call ``_eigh_blocks(...,
vectors=False)`` for eigenvalues alone, through the same kernel and with
the same eigenvalues to the bit.

The solver, ``_jacobi_eigh``, takes a (k, n, n) stack of blocks of one size
and raises nothing: it hands back each slice's failure. The hermitization,
the Frobenius scales, the read-off of 1x1 slices and the sort are one numpy
step per stack; the sweep runs slice by slice, and each slice gets the bits,
or the failure, a stack of it alone gets. Every solve enters it through one
of two wrappers, which pass it the stop rule _JACOBI_OFF_TOL and
_MAX_SWEEPS. ``_eigh_blocks`` solves the blocks of one element as stacks of
one, and is the only place that raises a block's failure; it also solves
each compression of ``simultaneous_eigh``. ``_eigh_extremes`` and
``_gram_norms`` solve many elements of one signature at once, one driver
call per block position, and hand each failure back for the caller to raise
in its own order of checks.

Blocks are validated once, at the public boundary. ``AlgebraElement(...)``
copies its input to complex128 and checks that every block is square of
dimension >= 1 and finite. The results of arithmetic in this module go
through the private ``AlgebraElement._of``, which trusts its caller to pass
fresh, owning, square complex128 arrays computed from validated blocks; it
still rejects non-finite entries, since arithmetic can overflow, and still
marks every block read-only.

Self-adjointness and projections are checked where an operand enters from
outside, and nowhere after. ``eigh_hermitian`` checks its input and hands it
to ``_eigh_blocks``, the one Jacobi solve; an operand this package forms
and knows to be Hermitian (a Gram matrix x*x, the real part of an element,
a square root it has assembled, an atom of a spectral measure) goes straight
to ``_eigh_blocks``, whose sweep reads the Hermitian part of each block. A
projection this package assembles (a 0/1 spectral assembly, a sum of
rank-one projections v v*, 1 minus a projection) is wrapped by
``Projection._of`` without its certification; ``Projection(...)`` certifies
an element that may come from outside.

Derived data is memoized on the immutable object it is derived from, keyed
by its name and the resolved ToleranceConfig (see _memoized): an element
keeps its operator norm, its normality verdict and its joint eigensolve,
which its spectral atoms and the MASAs generated around it share. A raised
exception is never cached.

A norm that only feeds a threshold test is decided, where it can be, from
bounds on the Gram matrix rather than by an eigensolve (see _norm_against):
with lo the largest diagonal entry of x*x and hi its largest block trace,
lo <= ||x||^2 <= hi, so ||x|| against a bound b is settled when lo >= 4 b^2
or hi < b^2 / 4, ties included, and eigensolved otherwise. The normality
and generator commutator tests and the spectral cut's projection and
nonzero tests use it; the resolvent ladder's stop test applies the same
rule, _gram_against, to the Gram matrices it has stacked; norms whose value
is reported do not.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BadArgument,
    NonConvergence,
    NotPositive,
    NotProjection,
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
    "operator_norm",
    "loewner_leq",
    "eigh_hermitian",
    "simultaneous_eigh",
    "joint_eigenspaces",
    "positive_sqrt",
    "range_projection",
    "pseudo_inverse_on_range",
    "is_self_adjoint",
    "is_normal",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """All numerical thresholds used by the toolkit.

    pos_slack       slack relative to the input. Positive: min w >= -pos_slack
                    (1 + max |w|) over the eigenvalues w
                    (HermitianEigenSystem.is_positive). Self-adjoint:
                    ||x - x*||_F <= pos_slack (1 + ||x||_F) (is_self_adjoint).
                    Normal: ||a a* - a* a|| <= pos_slack (1 + ||a||^2)
                    (is_normal).
    cluster_tol     relative gap below which eigenvalues are merged
    rank_cutoff     eigenvalues w <= rank_cutoff max(1, max |w|) count as zero
                    (HermitianEigenSystem.rank_cutoff, read by root,
                    inverse_root, support, the range projection, the
                    pseudo-inverse, the ladder and the cut)

    The Jacobi sweep's stop rule is not configurable: it stops once the
    off-diagonal mass is at most _JACOBI_OFF_TOL ||h||_F, and raises
    NonConvergence after _MAX_SWEEPS cyclic sweeps.

    The Frobenius norms of these rules (is_self_adjoint's ||x||_F and
    ||x - x*||_F, simultaneous_eigh's ||m||_F) are overflow-safe: where the
    sum of squares, or the modulus of an entry, overflows while every entry
    is finite, the norm is s ||x/s||_F with s the largest |real or imaginary
    part| of an entry. So with finite entries it is inf only where the norm
    itself lies past the float range, and never nan; an inf entry keeps the
    norm inf and a nan entry nan, as without the rescale; a finite norm
    keeps its bits.

    Rules that still differ: Projection, Subalgebra.is_commutative and
    check_regularity test against an absolute 2 pos_slack; the ladder stops
    once ||u_n - u_{n-1}|| < rank_cutoff;
    _orthonormal_rows cuts singular values relative to the largest: it
    decides the dimension of Subalgebra.from_generators, and so of a
    closure, but not of b = C*(g) (Subalgebra.of_normal), the span of g's
    spectral atoms, which the cluster gap of _joint_atoms decides; the
    cluster gap is cluster_tol max(1, ||m||_F) in simultaneous_eigh and
    cluster_tol max(1, largest value tuple norm) in _joint_atoms, the atoms
    spectral_measure and minimal_projections both read. The limit step of
    limit_calculus_check's order preservation accepts d = lim c2 - lim c1
    when max(0, -min w, ||d - d*||_F) <= pos_slack (1 + max |w|) over the
    eigenvalues w of Re d. relative_commutant skips a block with
    ||b_k||_F <= rank_cutoff, an absolute test, and cuts the constraint's
    singular values s at rank_cutoff max(1, s_0). spectral_cut declines x as
    zero when ||x|| <= pos_slack, an absolute test; it keeps the singular
    values s of x whose square lies above the rank cutoff of x x*, and takes
    p = 1_{s > mu}, a rule with no tolerance. polar_regularized raises
    SlowConvergence when its final gap exceeds the analytic bound by more
    than 10 pos_slack, an absolute margin between two quantities that are
    equal in exact arithmetic: below roundoff, roundoff decides the verdict.
    A monotone closure puts a MASA's rank-one projection f in the face
    supremum of b's minimal projection e when Re tr(e f) > 1/2, a test with
    no tolerance; it accepts that supremum s when ||s - e||_F <= pos_slack
    (1 + ||e||_F); closure_correspondence accepts each pair of suprema when
    their gap is at most 2 pos_slack, an absolute test.
    """

    pos_slack: float = 1e-10
    cluster_tol: float = 1e-8
    rank_cutoff: float = 1e-10

    def __post_init__(self):
        for name in ("pos_slack", "cluster_tol", "rank_cutoff"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.cluster_tol > self.rank_cutoff:
            raise ValueError("cluster_tol must exceed rank_cutoff")


DEFAULT_TOL = ToleranceConfig()

# the Jacobi stop rule: off-diagonal mass relative to ||h||_F, and the sweep
# budget past which a block raises NonConvergence
_JACOBI_OFF_TOL = 1e-14
_MAX_SWEEPS = 100


def _tol(tol: ToleranceConfig | None) -> ToleranceConfig:
    return DEFAULT_TOL if tol is None else tol


_NON_FINITE = "non-finite entry in block"
_MISSING = object()


def _memo_of(owner) -> dict:
    """The private memo of an immutable owner, made on first use."""
    try:
        return owner._memo
    except AttributeError:
        memo = {}
        object.__setattr__(owner, "_memo", memo)
        return memo


def _memoized(owner, name: str, t: ToleranceConfig, compute):
    """compute(owner, t), cached on the immutable owner under (name, t).

    An exception propagates and caches nothing, so the next call computes
    (and fails) afresh.
    """
    memo = _memo_of(owner)
    key = (name, t)
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute(owner, t)
    return value


def _remember(owner, name: str, t: ToleranceConfig, value):
    """Store value as what _memoized(owner, name, t, ...) returns from now on."""
    _memo_of(owner)[(name, t)] = value


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

    __slots__ = ("blocks", "signature", "_memo")

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
                raise BadArgument(_NON_FINITE)
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


def _largest_part(blocks) -> float:
    """The largest |real or imaginary part| of an entry of the blocks."""
    return max(max(float(np.abs(b.real).max()), float(np.abs(b.imag).max())) for b in blocks)


def _frobenius(blocks) -> float:
    """Frobenius norm of a sequence of blocks, summed in block order. Where
    the sum of squares, or the modulus of an entry, overflows while every
    entry is finite, it is s ||x/s||_F with s = _largest_part(blocks); a
    finite norm keeps its bits, and a non-finite entry its inf or nan."""
    value = math.sqrt(sum(np.vdot(b, b).real for b in blocks))
    if math.isfinite(value):
        return value
    s = _largest_part(blocks)
    if not math.isfinite(s):
        return value
    scaled = [b / s for b in blocks]
    return s * math.sqrt(sum(np.vdot(b, b).real for b in scaled))


def frobenius_norm(x: AlgebraElement) -> float:
    return _frobenius(x.blocks)


def _is_self_adjoint_blocks(blocks, skew, t: ToleranceConfig) -> bool:
    """The is_self_adjoint rule on blocks x_b given with their skew parts x_b - x_b*."""
    return _frobenius(skew) <= t.pos_slack * (1.0 + _frobenius(blocks))


def is_self_adjoint(x: AlgebraElement, tol: ToleranceConfig | None = None) -> bool:
    return _is_self_adjoint_blocks(x.blocks, (x - adjoint(x)).blocks, _tol(tol))


def _require_self_adjoint(x: AlgebraElement, tol: ToleranceConfig, what: str):
    if not is_self_adjoint(x, tol):
        raise NotSelfAdjoint(f"{what} must be self-adjoint")


def _max_abs(lo: float, hi: float) -> float:
    """max |w| over eigenvalues w with least lo and largest hi."""
    return max(0.0, hi, -lo)


def _is_positive(lo: float, hi: float, t: ToleranceConfig) -> bool:
    """HermitianEigenSystem.is_positive, given the least and largest eigenvalue."""
    return lo >= -t.pos_slack * (1.0 + _max_abs(lo, hi))


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

    def assemble_stack(self, values: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per block, one (k, n, n) array whose slice i is the block that
        ``assemble`` rebuilds from the real values values[b][i].

        The slices keep assemble's bits: the elementwise steps are exact or
        correctly rounded per entry, and a stacked matmul makes the same BLAS
        call per slice as a 2-D one. The blocks are not wrapped as elements,
        so their entries are not checked for finiteness.
        """
        stacks = []
        for v, u in zip(values, self.unitary.blocks):
            m = (u * np.asarray(v, dtype=np.complex128)[:, None, :]) @ u.conj().T
            stacks.append(0.5 * (m + m.conj().swapaxes(-1, -2)))
        return stacks

    @cached_property
    def min_eigenvalue(self) -> float:
        return min(float(w[0]) for w in self.eigenvalues)

    @cached_property
    def max_eigenvalue(self) -> float:
        return max(float(w[-1]) for w in self.eigenvalues)

    @property
    def max_abs_eigenvalue(self) -> float:
        """max |w|, read off the extreme eigenvalues."""
        return _max_abs(self.min_eigenvalue, self.max_eigenvalue)

    def is_positive(self, t: ToleranceConfig) -> bool:
        """min w >= -pos_slack (1 + max |w|): positive within slack."""
        return _is_positive(self.min_eigenvalue, self.max_eigenvalue, t)

    def rank_cutoff(self, t: ToleranceConfig) -> float:
        """Eigenvalues at or below rank_cutoff max(1, max |w|) count as zero."""
        return t.rank_cutoff * max(1.0, self.max_abs_eigenvalue)

    def root(self, t: ToleranceConfig) -> AlgebraElement:
        """Square root with the eigenvalues at or below the rank cutoff set to 0."""
        cutoff = self.rank_cutoff(t)
        return self.assemble(lambda w: np.sqrt(np.where(w > cutoff, w, 0.0)))

    def inverse_root(self, t: ToleranceConfig) -> AlgebraElement:
        """Inverse square root on the range: w^{-1/2} above the rank cutoff,
        0 at or below it."""
        cutoff = self.rank_cutoff(t)
        # the cutoff is positive, so the clamp keeps 1/sqrt off 0 and below
        return self.assemble(
            lambda w: np.where(w > cutoff, 1.0 / np.sqrt(np.maximum(w, cutoff)), 0.0)
        )

    def inverse(self, t: ToleranceConfig) -> AlgebraElement:
        """Inverse on the range: 1/w above the rank cutoff, 0 at or below it."""
        cutoff = self.rank_cutoff(t)

        def invert(w: np.ndarray) -> np.ndarray:
            out = np.zeros_like(w)
            kept = w > cutoff
            out[kept] = 1.0 / w[kept]
            return out

        return self.assemble(invert)

    def support(self, t: ToleranceConfig) -> "Projection":
        """Range projection of root: 1 above the rank cutoff, 0 at or below
        it, so it keeps exactly the eigenvalues that root keeps."""
        cutoff = self.rank_cutoff(t)
        return Projection._of(self.assemble(lambda w: np.where(w > cutoff, 1.0, 0.0)))


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

    That is numpy's complex128 scalar arithmetic, not its array loops, so
    the rotation is not vectorized over a stack: on an AVX-512 Xeon with
    numpy 2.4, numpy's array complex multiply differed from this product
    (and from numpy's scalar one) in 44% of 100,000 random products, as its
    SIMD loop fuses multiplies and adds, and np.abs of a complex array from
    abs() in 35%; real arithmetic on the parts and np.hypot matched in all.
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


def _jacobi_eigh(mats: np.ndarray, rel_off_tol: float, max_sweeps: int, vectors: bool = True):
    """Cyclic Jacobi diagonalization of a stack of Hermitian blocks.

    mats is a (k, n, n) stack of blocks of one size. Returns (w, u, faults):
    w the (k, n) ascending eigenvalues, row by row; u the (k, n, n)
    unitaries of eigenvector columns, or None when vectors is false; and
    faults, a dict from slice index to the exception that slice fails with,
    in place of its (unspecified) rows: NonConvergence when the off-diagonal
    Frobenius mass is still above rel_off_tol * ||slice||_F after max_sweeps
    full sweeps, BadArgument for a non-finite entry or an eigenvalue past
    the float range. It raises nothing, and warns of nothing under
    np.errstate(over="ignore", invalid="ignore"), as its callers run it.

    A slice whose ||slice||_F^2 underflows to 0 or overflows to inf is
    scaled in place by 2^-e, its largest entry then in [1/2, 1), swept with
    the others, and its eigenvalues scaled back by 2^e. The slice scaled is
    the Hermitian part, or the input where forming that part overflowed.

    Per stack the hermitization, the Frobenius scales, the read-off of 1x1
    slices and the sort are one numpy step each; the rotations run slice by
    slice in _jacobi_sweeps. Each slice gets the bits a stack of it alone
    gets: the elementwise steps are exact or correctly rounded per entry,
    a stacked (1, m) @ (m, 1) product makes the same strided BLAS dot per
    slice as np.linalg.norm, and a stable sort has one outcome.
    """
    k, n = mats.shape[:2]
    # the eigenvector matrices, held transposed: row j of vt[i] is column j
    # of the unitary of slice i, so the sort below takes whole rows
    vt = None
    if vectors:
        vt = np.zeros((k, n, n), dtype=np.complex128)
        vt.reshape(k, n * n)[:, :: n + 1] = 1.0
    if n == 1:
        return mats.real[:, 0].copy(), vt, {}
    a = 0.5 * (np.asarray(mats, dtype=np.complex128) + mats.conj().swapaxes(1, 2))
    col = a.reshape(k, n * n, 1)
    re, im = col.real, col.imag
    squares = (re.swapaxes(1, 2) @ re + im.swapaxes(1, 2) @ im).ravel().tolist()
    faults, scaled = {}, {}
    for i, square in enumerate(squares):
        scale = math.sqrt(square)
        if not 0.0 < scale < math.inf:
            # a target of 0 or inf would sweep to the budget or not at all
            big = float(np.abs(a[i]).max())
            if big == 0.0:
                # its eigenvalues are +0, whatever the signs of its zeros
                a[i] = 0.0
                continue
            m = a[i]
            if not big < math.inf:
                if not np.isfinite(mats[i]).all():
                    faults[i] = BadArgument(_NON_FINITE)
                    continue
                # finite entries whose hermitization or modulus overflowed
                m = mats[i]
                big = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
            e = scaled[i] = math.frexp(big)[1]
            m = np.ldexp(m.real, -e) + 1j * np.ldexp(m.imag, -e)
            a[i] = 0.5 * (m + m.conj().T)
            scale = float(np.linalg.norm(a[i]))
        target = rel_off_tol * scale
        off = _jacobi_sweeps(a[i], None if vt is None else vt[i].T,
                             target, target / (2.0 * n), max_sweeps)
        if off > target:
            faults[i] = NonConvergence(
                f"Jacobi sweep budget exhausted at off-diagonal mass {off:.3e}"
            )
    w = a.diagonal(0, 1, 2).real.copy()
    u = None
    if vt is not None:
        u = vt[np.arange(k)[:, None], w.argsort(kind="stable")].swapaxes(1, 2)
    # a stable sort moves the values as the stable argsort orders them
    w.sort(kind="stable")
    for i, e in scaled.items():
        w[i] = np.ldexp(w[i], e)
        if not np.isfinite(w[i]).all():
            faults.setdefault(i, BadArgument("an eigenvalue of a block lies past the float range"))
    return w, u, faults


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
    return _eigh_blocks(h.blocks, t, vectors)


def _eigh_blocks(blocks, t: ToleranceConfig, vectors: bool = True) -> HermitianEigenSystem:
    """The per-block Jacobi solves, unchecked: for blocks that eigh_hermitian
    has checked or that this package formed Hermitian. Each block is a stack
    of one; the first that fails raises its fault, without a numpy warning."""
    values, units = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for b in blocks:
            w, u, faults = _jacobi_eigh(b[None], _JACOBI_OFF_TOL, _MAX_SWEEPS, vectors)
            if faults:
                raise faults[0]
            w = w[0]
            w.setflags(write=False)
            values.append(w)
            # u[0] is an F-ordered view of a temporary; copy it to own it
            units.append(None if u is None else u[0].copy(order="F"))
    return HermitianEigenSystem(tuple(values), AlgebraElement._of(units) if vectors else None)


def _eigh_extremes(stacks, t: ToleranceConfig) -> list:
    """Eigenvalues-only solves of k elements of one signature, given as one
    (k, n_b, n_b) stack per block position b, unchecked as _eigh_blocks
    takes them: one _jacobi_eigh call per block position.

    Per element, (lo, hi), the min_eigenvalue and max_eigenvalue that
    _eigh_blocks gives on its blocks, or in their place the exception
    _eigh_blocks raises first on them, to be raised by the caller where the
    element's solve comes in its own order of checks.
    """
    k = len(stacks[0])
    out = [None] * k
    los, his = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for s in stacks:
            w, _, faults = _jacobi_eigh(s, _JACOBI_OFF_TOL, _MAX_SWEEPS, vectors=False)
            for i, exc in faults.items():
                if out[i] is None:
                    out[i] = exc
            los.append(w[:, 0].tolist())
            his.append(w[:, -1].tolist())
    for i, (lo, hi) in enumerate(zip(zip(*los), zip(*his))):
        if out[i] is None:
            out[i] = min(lo), max(hi)
    return out


def _raised(outcome):
    """outcome itself, raised when it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# the cluster gap's np.linalg.norm, before its rescale, and a compression may
# overflow; _eigh_blocks then raises the compression's fault without a warning
@np.errstate(over="ignore", invalid="ignore")
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
        norm = float(np.linalg.norm(m))
        if not math.isfinite(norm):
            s = _largest_part([m])
            if math.isfinite(s):
                norm = s * float(np.linalg.norm(m / s))
        gap = t.cluster_tol * max(1.0, norm)
        refined = []
        for idx in groups:
            if len(idx) == 1:
                refined.append(idx)
                continue
            v = basis[:, idx]
            comp = v.conj().T @ m @ v
            eig = _eigh_blocks([comp], t)
            w = eig.eigenvalues[0]
            basis[:, idx] = v @ eig.unitary.blocks[0]
            start = 0
            for i in range(1, len(w) + 1):
                if i == len(w) or w[i] - w[i - 1] > gap:
                    refined.append(idx[start:i])
                    start = i
        groups = refined
    return basis, groups


def joint_eigenspaces(
    family: Sequence[AlgebraElement], tol: ToleranceConfig | None = None
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """simultaneous_eigh per block over the real and imaginary parts of a
    commuting normal family, in family order."""
    parts = [p for x in family for p in (real_part(x), imag_part(x))]
    return [
        simultaneous_eigh([p.blocks[k] for p in parts], tol)
        for k in range(len(family[0].blocks))
    ]


def _eigenspaces(family: Sequence[AlgebraElement], t: ToleranceConfig):
    """joint_eigenspaces of the family. For a lone element it is memoized on
    the element, so its spectral atoms and the MASAs generated around it
    share one solve; its bases are then read-only, and a caller that refines
    them refines a copy."""
    if len(family) > 1:
        return joint_eigenspaces(family, t)
    return _memoized(family[0], "joint_eigenspaces", t, _frozen_eigenspaces)


def _frozen_eigenspaces(g: AlgebraElement, t: ToleranceConfig):
    spaces = joint_eigenspaces([g], t)
    for basis, _ in spaces:
        basis.flags.writeable = False
    return spaces


def _joint_atoms(
    family: Sequence[AlgebraElement], t: ToleranceConfig
) -> list[tuple[np.ndarray, "Projection"]]:
    """The atoms of a commuting normal family: its joint eigenvector columns
    merged by single link on their value tuples.

    Column v of block k carries the tuple of its Rayleigh values v* f_k v
    over the family f. Two columns are linked when their tuples lie within
    cluster_tol max(1, the largest tuple norm). Per atom, in the order of
    its first column (block by block, then column by column), returns the
    (columns, len(family)) array of its columns' tuples in column order and
    the atom itself: sum v v* per block in column order, hermitized once.
    The joint eigensolve of a lone element is the one memoized on it
    (_eigenspaces).
    """
    columns, tuples = [], []
    for k, (basis, _) in enumerate(_eigenspaces(family, t)):
        values = [np.diagonal(basis.conj().T @ f.blocks[k] @ basis) for f in family]
        for c in range(basis.shape[1]):
            columns.append((k, basis[:, c : c + 1]))
            tuples.append([v[c] for v in values])
    tuples = np.array(tuples)
    gap = t.cluster_tol * max(1.0, float(np.linalg.norm(tuples, axis=1).max()))
    near = np.linalg.norm(tuples[:, None] - tuples[None], axis=-1) <= gap
    label = [-1] * len(columns)
    atoms = []
    for first in range(len(columns)):
        if label[first] >= 0:
            continue
        label[first], members = len(atoms), [first]
        for i in members:  # grows as the single links reach new columns
            for j in np.flatnonzero(near[i]).tolist():
                if label[j] < 0:
                    label[j] = label[first]
                    members.append(j)
        members.sort()
        sums = [np.zeros((n, n), dtype=complex) for n in family[0].signature]
        for i in members:
            k, vec = columns[i]
            sums[k] = sums[k] + vec @ vec.conj().T
        atom = Projection._of(AlgebraElement._of([0.5 * (m + m.conj().T) for m in sums]))
        atoms.append((tuples[members], atom))
    return atoms


def operator_norm(x: AlgebraElement, tol: ToleranceConfig | None = None) -> float:
    """Largest singular value over blocks, via the top eigenvalue of x*x."""
    return _memoized(x, "operator_norm", _tol(tol), _operator_norm)


def _operator_norm(x: AlgebraElement, t: ToleranceConfig) -> float:
    return _gram_norm((adjoint(x) * x).blocks, t)


def _gram_norm(gram_blocks, t: ToleranceConfig) -> float:
    """sqrt of the top eigenvalue of the Gram matrix x*x, clamped at 0."""
    return _norm_from_gram(_eigh_blocks(gram_blocks, t, vectors=False).max_eigenvalue)


def _gram_norms(stacks, t: ToleranceConfig) -> list:
    """_gram_norm of k Gram matrices x*x given as one (k, n_b, n_b) stack
    per block position: per element ||x||, or the exception _gram_norm
    raises on it (see _eigh_extremes)."""
    return [
        out if isinstance(out, Exception) else _norm_from_gram(out[1])
        for out in _eigh_extremes(stacks, t)
    ]


def _norm_from_gram(top: float) -> float:
    """||x|| read off top, the largest eigenvalue of the Gram matrix x*x."""
    return math.sqrt(max(top, 0.0))


def _remember_norm(x: AlgebraElement, gram_eig: HermitianEigenSystem, t: ToleranceConfig):
    """Memoize ||x|| read off gram_eig, a solve of adjoint(x) * x: the value
    operator_norm(x, t) computes, since the eigenvalues do not depend on
    whether the solve accumulated eigenvectors."""
    _remember(x, "operator_norm", t, _norm_from_gram(gram_eig.max_eigenvalue))


# the range of max_i (x*x)_ii in which _norm_against decides from the bounds
_GRAM_SCALE_MIN, _GRAM_SCALE_MAX = 1e-150, 1e150


def _norm_against(x: AlgebraElement, bound: float, t: ToleranceConfig) -> float:
    """A value that compares with bound as operator_norm(x, t) does.

    For callers that only test ||x|| <, <=, > or >= bound. A norm already
    memoized on x is returned as it is. Otherwise it forms the Gram matrix
    x*x as _operator_norm does, so it raises the same BadArgument, and
    decides by _gram_against. It never writes to the memo.
    """
    known = getattr(x, "_memo", {}).get(("operator_norm", t), _MISSING)
    if known is not _MISSING:
        return known
    return _gram_against((adjoint(x) * x).blocks, bound, t)


def _gram_against(gram_blocks, bound: float, t: ToleranceConfig) -> float:
    """A value that compares with bound as ||x|| does, given the blocks of
    the Gram matrix x*x.

    Per block, the largest diagonal entry of x*x is at most the top
    eigenvalue and the trace at least; with lo the largest such entry and hi
    the largest block trace, lo <= ||x||^2 <= hi. It returns sqrt(lo) when
    lo >= 4 bound^2 and sqrt(hi) when hi < bound^2 / 4: the factor of 2 on
    each side absorbs the eigensolve's roundoff, so every comparison, ties
    included, gives the exact norm's verdict. In between, and whenever lo
    lies outside [1e-150, 1e150] (near where the eigensolve's Frobenius
    scale underflows or overflows, and its answer may leave the bracket),
    it returns the eigensolved norm, _gram_norm(gram_blocks, t).

    The one difference from operator_norm: a NonConvergence that only a
    skipped eigensolve would have raised (a Gram matrix the sweep cannot
    diagonalize within _MAX_SWEEPS) is not raised.
    """
    diagonals = [b.diagonal().real for b in gram_blocks]
    lo = max(float(d.max()) for d in diagonals)
    if _GRAM_SCALE_MIN <= lo <= _GRAM_SCALE_MAX:
        if lo >= 4.0 * bound * bound:
            return math.sqrt(lo)
        hi = max(float(d.sum()) for d in diagonals)
        if hi < 0.25 * bound * bound:
            return math.sqrt(hi)
    return _gram_norm(gram_blocks, t)


def is_normal(a: AlgebraElement, tol: ToleranceConfig | None = None) -> bool:
    """True when a commutes with its adjoint within slack."""
    return _memoized(a, "is_normal", _tol(tol), _is_normal)


def _is_normal(a: AlgebraElement, t: ToleranceConfig) -> bool:
    astar = adjoint(a)
    norm = operator_norm(a, t)
    bound = t.pos_slack * (1.0 + norm * norm)
    return _norm_against(a * astar - astar * a, bound, t) <= bound


def loewner_leq(
    a: AlgebraElement, b: AlgebraElement, tol: ToleranceConfig | None = None
) -> bool:
    """Loewner order test a <= b for self-adjoint elements.

    True iff the minimal eigenvalue of b - a clears -pos_slack * (1 + ||b - a||).
    """
    t = _tol(tol)
    _require_self_adjoint(a, t, "loewner_leq left argument")
    _require_self_adjoint(b, t, "loewner_leq right argument")
    return _eigh_blocks((b - a).blocks, t, vectors=False).is_positive(t)


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
    if not eig.is_positive(t):
        raise NotPositive(f"min eigenvalue {eig.min_eigenvalue:.3e} below slack")
    return eig.root(t)


def range_projection(
    h: AlgebraElement, tol: ToleranceConfig | None = None
) -> "Projection":
    """Smallest projection q with q h = h, for self-adjoint h.

    Sums the eigenprojections of eigenvalues above rank_cutoff * max(1, ||h||).
    """
    t = _tol(tol)
    eig = eigh_hermitian(h, t)
    cutoff = eig.rank_cutoff(t)
    return Projection._of(eig.assemble(lambda w: np.where(np.abs(w) > cutoff, 1.0, 0.0)))


def pseudo_inverse_on_range(
    h: AlgebraElement, tol: ToleranceConfig | None = None
) -> AlgebraElement:
    """Inverse of a positive element on its range, zero on its kernel."""
    t = _tol(tol)
    eig = eigh_hermitian(h, t)
    if not eig.is_positive(t):
        raise NotPositive(f"min eigenvalue {eig.min_eigenvalue:.3e} below slack")
    return eig.inverse(t)


class Projection:
    """An element certified idempotent and self-adjoint at construction."""

    __slots__ = ("element",)

    def __init__(self, element: AlgebraElement, tol: ToleranceConfig | None = None):
        t = _tol(tol)
        slack = t.pos_slack * 2.0
        # a defect that overflows raises BadArgument, without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            if frobenius_norm(element - adjoint(element)) > slack:
                raise NotProjection("not a projection: fails self-adjointness")
            if frobenius_norm(element * element - element) > slack:
                raise NotProjection("not a projection: fails idempotency")
        object.__setattr__(self, "element", element)

    @classmethod
    def _of(cls, element: AlgebraElement) -> "Projection":
        """Wrap an element that is a projection by construction, uncertified."""
        p = cls.__new__(cls)
        object.__setattr__(p, "element", element)
        return p

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
