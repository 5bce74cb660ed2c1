"""Core arithmetic of finite-dimensional *-algebras.

Elements live in a fixed direct sum of square complex matrix blocks and are
immutable; every operation is a pure function. The Hermitian eigensolver is
a cyclic Jacobi sweep, and everything spectral in the higher modules rides
on it: operator norms, Loewner comparisons, positive square roots, range
projections and pseudo-inverses. The sweep rotates Python lists of built-in
complex rather than numpy scalars, and reproduces numpy's complex128 scalar
arithmetic bit for bit, though not its array loops (see _jacobi_sweeps).

The solver, ``_jacobi_eigh``, takes a (k, n, n) stack of blocks of one size
and raises nothing: it hands back each slice's failure. The hermitization,
the Frobenius scales, the read-off of 1x1 slices and the sort are one numpy
step per stack; the sweep runs slice by slice, and each slice gets the bits,
or the failure, a stack of it alone gets. Its one caller is the driver
``_solve``: it takes k elements of one signature as one (m, k, n, n) stack
per block size, the blocks of the m positions of that size (``_grouped``
stacks the blocks of each position once), makes one call per size, passes
the stop rule _JACOBI_OFF_TOL and _MAX_SWEEPS, and raises the fault of the
lowest element that fails. The stop rule is the module's, not a
ToleranceConfig's, so neither the driver nor the two thin readers of it,
which answer every question, take a tolerance:

- ``_eigh_blocks`` gives the eigensystem, eigenvectors included, of one
  element's blocks; every assembled function of a Hermitian element (a
  square root, a support, an inverse) and each compression of
  ``simultaneous_eigh`` reads it.
- ``_eigh_extremes`` gives the least and largest eigenvalue of each of k
  elements, without accumulating eigenvectors and with the eigenvalues of
  the full solve to the bit. Every question about eigenvalues alone reads
  it: operator norms (``_gram_norms``, and ``_norms`` for a stacked family),
  Loewner comparisons, and the positivity and bound checks of the
  verifiers.

The code that solves such stacks (order.build_certificate,
order.verify_certificate, polar.polar_residuals and the diagnostics of
polar.polar_regularized) checks its operands once, then solves, by one
precedence rule:

1. An operand whose signature differs from the reference raises
   SignatureMismatch before any arithmetic. The reference is the limit's
   signature, or u's for polar_residuals; a certificate holds one stack per
   block position, so verify_certificate compares the block sizes of its
   component stacks with those of its sequence stacks.
2. A non-finite stacked intermediate raises BadArgument(_NON_FINITE) before
   any solve.
3. After that, the first solve fault in element order is raised.

Blocks are validated once, at the public boundary. An element has three
constructors:

- ``AlgebraElement(blocks)``, the public one, copies its input to
  complex128 and checks that every block is square of dimension >= 1 and
  finite.
- ``AlgebraElement._of(mats)`` wraps blocks that are fresh, owning, square
  complex128 arrays computed from validated blocks, or validated by the
  caller (as the CLI's loader does); the results of arithmetic in this
  module go through it. It skips the copy and the shape check, but still
  rejects non-finite entries, since arithmetic can overflow, and marks
  every block read-only.
- ``AlgebraElement._of_stacks(stacks)`` wraps k elements of one signature at
  once, from one fresh (k, n_b, n_b) complex128 stack per block position b:
  element j's blocks are the slice-j views of the stacks. It makes one
  finiteness check and sets one read-only flag per stack, and raises what
  ``_of`` raises on a non-finite entry.

Self-adjointness and projections are checked where an operand enters from
outside, and nowhere after. ``eigh_hermitian`` and ``loewner_leq`` check
their input and hand it to ``_eigh_blocks`` or ``_eigh_extremes``; an
operand this package forms and knows to be Hermitian (a Gram matrix x*x, the
real part of an element, a square root it has assembled, an atom of a
spectral measure, the two sides of the resolvent-gap inequality) goes
straight to them, and the sweep reads the Hermitian part of each block. A
projection this package assembles (a 0/1 spectral assembly, a sum of
rank-one projections v v*, 1 minus a projection) is wrapped by
``Projection._of`` without its certification; ``Projection(...)`` certifies
an element that may come from outside.

Derived data is memoized on the immutable object it is derived from, keyed
by its name and the resolved ToleranceConfig (see _memoized): an element
keeps its operator norm, its normality verdict and its atoms (_joint_atoms),
held with the read-only joint eigenbasis they are read off and the atom of
each basis column, which its spectral measure, C*(g) and the MASAs
generated around it share. A raised exception is never cached.

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
    "positive_sqrt",
    "range_projection",
    "is_self_adjoint",
    "is_normal",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """All numerical thresholds used by the toolkit.

    pos_slack       slack relative to the input. Positive: min w >= -pos_slack
                    (1 + max |w|) over the eigenvalues w
                    (_is_positive). Self-adjoint:
                    ||x - x*||_F <= pos_slack (1 + ||x||_F) (is_self_adjoint).
                    Normal: ||a a* - a* a|| <= pos_slack (1 + ||a||^2)
                    (is_normal).
    cluster_tol     relative gap below which eigenvalues are merged
    rank_cutoff     eigenvalues w <= rank_cutoff max(1, max |w|) count as zero
                    (HermitianEigenSystem.rank_cutoff, read by root,
                    inverse_root, inverse, support, the range projection,
                    the ladder and the cut)

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
    decides the dimension of Subalgebra.from_generators, but neither that
    of b = C*(g) (Subalgebra.of_normal), the span of g's spectral atoms,
    which the cluster gap of _joint_atoms decides, nor that of a closure,
    the span of its nonzero face suprema. That gap, cluster_tol max(1,
    largest value tuple norm), groups the eigenvectors of spectral_measure,
    minimal_projections and generate_masa alike; simultaneous_eigh's gap,
    cluster_tol max(1, ||m||_F), decides only which subspaces each later
    part is compressed on. A later part leaves a subspace whole and its
    basis unrotated when its compression's eigenvalues w spread by
    w[-1] - w[0] < sep gap. Here sep is the smallest step between the
    consecutive eigenvalues of the solve that last rotated that subspace,
    divided by that solve's gap: it separated every pair of the columns by
    more, relative to its gap, than this part varies on them, so this
    part's eigenvectors could only mix them. The identity basis separates
    nothing (sep = 0), so the first part, and a later part on a subspace
    the earlier ones leave degenerate, always rotate. The limit step of
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
    check. ``_of_stacks`` does the same for k elements of one signature held
    as one (k, n_b, n_b) stack per block position. All three reject
    non-finite entries and mark every block read-only.
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

    @classmethod
    def _of_stacks(cls, stacks: Sequence[np.ndarray]) -> list["AlgebraElement"]:
        """Wrap the k elements held as one fresh (k, n_b, n_b) complex128
        stack per block position b: element j's blocks are the slice-j views."""
        for s in stacks:
            if not np.isfinite(s).all():
                raise BadArgument(_NON_FINITE)
            s.flags.writeable = False
        signature = tuple(s.shape[-1] for s in stacks)
        out = []
        for blocks in zip(*stacks):
            el = cls.__new__(cls)
            object.__setattr__(el, "blocks", blocks)
            object.__setattr__(el, "signature", signature)
            out.append(el)
        return out

    def _seal(self, mats: list[np.ndarray]):
        for m in mats:
            if not np.isfinite(m).all():
                raise BadArgument(_NON_FINITE)
            m.flags.writeable = False
        object.__setattr__(self, "blocks", tuple(mats))
        object.__setattr__(self, "signature", tuple(m.shape[0] for m in mats))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

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
    """Positive within slack, min w >= -pos_slack (1 + max |w|), given the
    least and largest eigenvalue."""
    return lo >= -t.pos_slack * (1.0 + _max_abs(lo, hi))


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Blockwise eigendecomposition h = U diag(w) U* with ascending w per block.

    A question about the eigenvalues alone (a norm, an order or bound check)
    is answered by _eigh_extremes, which accumulates no eigenvectors; a
    system always holds its unitary.
    """

    eigenvalues: tuple[np.ndarray, ...]
    unitary: AlgebraElement

    def assemble(self, transform: Callable[[np.ndarray], np.ndarray]) -> AlgebraElement:
        """Rebuild U diag(transform(w)) U*, hermitized exactly when values are real."""
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

    def rank_cutoff(self, t: ToleranceConfig) -> float:
        """Eigenvalues at or below rank_cutoff max(1, max |w|) count as zero."""
        return t.rank_cutoff * max(1.0, _max_abs(self.min_eigenvalue, self.max_eigenvalue))

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
        """Pseudo-inverse on the range: 1/w above the rank cutoff, 0 at or
        below it, so that h times it is support."""
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
    off = _off_mass(rows)
    if off <= target:
        # nothing to rotate (a diagonal block among them): a and vecs stand
        return off
    vrows = None if vecs is None else vecs.tolist()
    n = len(rows)
    for _ in range(max_sweeps):
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
        off = _off_mass(rows)
        if off <= target:
            break
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
    np.errstate(over="ignore", invalid="ignore"), as _solve runs it.

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


def eigh_hermitian(h: AlgebraElement, tol: ToleranceConfig | None = None) -> HermitianEigenSystem:
    """Blockwise Hermitian eigendecomposition via cyclic Jacobi sweeps, for
    an operand from outside: it checks that h is self-adjoint, then solves
    its blocks by _eigh_blocks."""
    t = _tol(tol)
    _require_self_adjoint(h, t, "eigh_hermitian input")
    return _eigh_blocks(h.blocks)


def _grouped(stacks) -> tuple:
    """The block positions of stacks, one per position, grouped by block
    size, the sizes in order of first occurrence: (positions, groups), per
    size its ascending positions and their stacks on a new leading axis (a
    lone stack as a view). _solve and its readers take this pair."""
    positions = {}
    for b, s in enumerate(stacks):
        positions.setdefault(s.shape[-1], []).append(b)
    positions = list(positions.values())
    return positions, [
        stacks[p[0]][None] if len(p) == 1 else np.array([stacks[b] for b in p]) for p in positions
    ]


def _slots(positions) -> list:
    """Per block position, its (group, slot) in the position lists of _grouped."""
    where = [None] * sum(map(len, positions))
    for g, p in enumerate(positions):
        for i, b in enumerate(p):
            where[b] = (g, i)
    return where


def _solve(positions, groups, vectors: bool) -> list:
    """The one caller of _jacobi_eigh, once per _grouped (m, k, n_b, n_b)
    stack of k elements' blocks: its (w, u), (m, k, n_b) and (m, k, n_b,
    n_b) or None, unchecked (checked by eigh_hermitian, or formed
    Hermitian), by the stop rule _JACOBI_OFF_TOL and _MAX_SWEEPS and
    without a numpy warning. It raises the fault of the
    lowest element that fails, and of that element's first failing block."""
    solved, faults = [], {}
    with np.errstate(over="ignore", invalid="ignore"):
        for p, s in zip(positions, groups):
            m, k, n = s.shape[:3]
            mats = s.reshape(m * k, n, n)
            w, u, group_faults = _jacobi_eigh(mats, _JACOBI_OFF_TOL, _MAX_SWEEPS, vectors)
            solved.append((w.reshape(m, k, n), None if u is None else u.reshape(m, k, n, n)))
            for i, exc in group_faults.items():
                slot, element = divmod(i, k)
                faults[element, p[slot]] = exc
    if faults:
        raise faults[min(faults)]
    return solved


def _eigh_blocks(blocks) -> HermitianEigenSystem:
    """The eigensystem of one element's blocks, each a stack of one (the
    blocks of one size share a driver call); the first block that fails
    raises its fault."""
    values, units = [None] * len(blocks), [None] * len(blocks)
    positions, groups = _grouped([b[None] for b in blocks])
    for p, (w, u) in zip(positions, _solve(positions, groups, vectors=True)):
        for b, wb, ub in zip(p, w[:, 0], u[:, 0]):
            wb.setflags(write=False)
            values[b] = wb
            # ub is an F-ordered view of a temporary; copy it to own it
            units[b] = ub.copy(order="F")
    return HermitianEigenSystem(tuple(values), AlgebraElement._of(units))


def _check_signatures(elements, sig) -> None:
    """Raise SignatureMismatch on the first element whose signature is not sig."""
    for x in elements:
        if x.signature != sig:
            raise SignatureMismatch(f"signatures differ: {x.signature} vs {sig}")


def _eigh_extremes(positions, groups) -> list:
    """Per element of k given as _grouped (m, k, n_b, n_b) stacks, (lo, hi):
    the least and largest eigenvalue over its blocks, the min_eigenvalue and
    max_eigenvalue of its _eigh_blocks solve, to the bit (read in position
    order). Eigenvectors are not accumulated; it raises as _solve does."""
    los, his = [None] * sum(map(len, positions)), [None] * sum(map(len, positions))
    for p, (w, _) in zip(positions, _solve(positions, groups, vectors=False)):
        for b, lo, hi in zip(p, w[..., 0].tolist(), w[..., -1].tolist()):
            los[b], his[b] = lo, hi
    return [(min(lo), max(hi)) for lo, hi in zip(zip(*los), zip(*his))]


def _extremes(blocks) -> tuple:
    """(lo, hi) of _eigh_extremes for the blocks of one element."""
    return _eigh_extremes(*_grouped([b[None] for b in blocks]))[0]


# a compression may overflow; _eigh_blocks then raises its fault without a
# warning
@np.errstate(over="ignore", invalid="ignore")
def simultaneous_eigh(
    mats: Sequence[np.ndarray], tol: ToleranceConfig | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Jointly diagonalize pairwise-commuting Hermitian matrices of one block.

    Recursive splitting: diagonalize the first matrix, then refine each
    eigenvalue cluster with the compression of the next, and so on. A
    cluster stays unrotated when the next compression spreads by less than
    the solve that last rotated it separated its columns (ToleranceConfig).
    Returns the common unitary and the list of joint eigenspace column-index
    groups.
    """
    t = _tol(tol)
    n = mats[0].shape[0]
    basis = np.eye(n, dtype=np.complex128)
    # per group, the smallest step between consecutive eigenvalues, over the
    # gap, of the solve that last rotated it; the identity separates nothing
    groups = [(np.arange(n), 0.0)]
    for m in mats:
        gap = t.cluster_tol * max(1.0, _frobenius([m]))
        refined = []
        for idx, sep in groups:
            if len(idx) == 1:
                refined.append((idx, sep))
                continue
            v = basis[:, idx]
            comp = v.conj().T @ m @ v
            eig = _eigh_blocks([comp])
            w = eig.eigenvalues[0]
            if w[-1] - w[0] < sep * gap:
                # the earlier solve separated the columns by more than this
                # part varies on them: its rotation could only mix them
                refined.append((idx, sep))
                continue
            basis[:, idx] = v @ eig.unitary.blocks[0]
            start = 0
            for i in range(1, len(w) + 1):
                if i == len(w) or w[i] - w[i - 1] > gap:
                    steps = np.diff(w[start:i])
                    refined.append((idx[start:i], steps.min() / gap if len(steps) else 0.0))
                    start = i
        groups = refined
    return basis, [idx for idx, _ in groups]


def _joint_atoms(family: Sequence[AlgebraElement], t: ToleranceConfig):
    """The atoms of a commuting normal family: its joint eigenvector columns
    merged by single link on their value tuples.

    Returns (bases, labels, atoms). Per block k, bases[k] is the read-only
    joint eigenbasis simultaneous_eigh finds for the real and imaginary
    parts of the family, in family order, and labels[k] the tuple of the
    atom index of each of its columns. Column v of block k carries the
    tuple of its Rayleigh values v* f_k v over the family f. Two columns are
    linked when their tuples lie within cluster_tol max(1, the largest tuple
    norm). Per atom, in the order of its first column (block by block, then
    column by column), atoms holds the (columns, len(family)) array of its
    columns' tuples in column order and the atom itself: sum v v* per block
    in column order, hermitized once.

    For a lone element the result is memoized on the element, so its
    spectral measure, C*(g) and the MASAs generated around it share one
    solve and one grouping.
    """
    if len(family) > 1:
        return _atoms_of(family, t)
    return _memoized(family[0], "joint_atoms", t, lambda g, t: _atoms_of([g], t))


def _atoms_of(family: Sequence[AlgebraElement], t: ToleranceConfig):
    """_joint_atoms of the family, computed afresh."""
    parts = [p for x in family for p in (real_part(x), imag_part(x))]
    bases, columns, tuples = [], [], []
    for k in range(len(family[0].blocks)):
        basis, _ = simultaneous_eigh([p.blocks[k] for p in parts], t)
        basis.flags.writeable = False
        bases.append(basis)
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
    labels = [[] for _ in bases]
    for (k, _), a in zip(columns, label):
        labels[k].append(a)
    return tuple(bases), tuple(map(tuple, labels)), tuple(atoms)


def operator_norm(x: AlgebraElement, tol: ToleranceConfig | None = None) -> float:
    """Largest singular value over blocks, via the top eigenvalue of x*x."""
    return _memoized(x, "operator_norm", _tol(tol), _operator_norm)


def _operator_norm(x: AlgebraElement, t: ToleranceConfig) -> float:
    return _gram_norms(*_grouped([b[None] for b in (adjoint(x) * x).blocks]))[0]


def _gram_norms(positions, groups) -> list:
    """||x|| of k Gram matrices x*x given as _grouped (m, k, n_b, n_b)
    stacks: per element the square root of the top eigenvalue, clamped at 0.
    It raises as _eigh_extremes does."""
    return [math.sqrt(max(hi, 0.0)) for _, hi in _eigh_extremes(positions, groups)]


def _adj(a: np.ndarray) -> np.ndarray:
    """Adjoint of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _all_finite(stacks) -> bool:
    """Every entry of every stack is finite."""
    return all(np.isfinite(a).all() for a in stacks)


def _norms(positions, groups) -> list:
    """operator_norm of each of k elements given as _grouped (m, k, n_b, n_b)
    stacks, with its bits; the Gram matrices of a group are one stacked
    product. A non-finite element leaves a non-finite entry on its Gram
    diagonal, so it, or a Gram matrix that overflows, raises BadArgument
    before any solve."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = [_adj(s) @ s for s in groups]
    if not _all_finite(gram):
        raise BadArgument(_NON_FINITE)
    return _gram_norms(positions, gram)


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
    return _gram_against((adjoint(x) * x).blocks, bound)


def _gram_against(gram_blocks, bound: float) -> float:
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
    it returns the eigensolved norm, the _gram_norms of gram_blocks.

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
    return _gram_norms(*_grouped([b[None] for b in gram_blocks]))[0]


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
    return _is_positive(*_extremes((b - a).blocks), t)


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
    if not _is_positive(eig.min_eigenvalue, eig.max_eigenvalue, t):
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
