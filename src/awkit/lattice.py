"""Projection lattice and commutative-subalgebra machinery.

Subalgebras are stored as orthonormal bases under the trace inner product.
Maximal commutative subalgebras (MASAs) arise from jointly diagonalizing
commuting normal generators and refining the eigenvectors of each of their
atoms with a seeded random orthonormal basis. A monotone closure is computed
inside a MASA from the m face suprema of the subalgebra's minimal
projections, each a sum of the MASA's rank-one projections; at finite
dimension the closure of a unital closed commutative subalgebra is itself,
asserted on the result. The closure correspondence computes the closure in
each of two MASAs and pairs their face suprema atom by atom: m pairs, each
within 2 pos_slack, so every projection of the closure, a sum of distinct
atoms, lies within m delta of its partner.

A MASA is handled as its rank-one projections, held as one read-only
(n_k, n_k, n_k) stack per block position k, and its three checks are array
operations on those stacks, with the rules of the element-by-element
checks: the postcondition ||[p_i, p_j]||_F <= 2 pos_slack over the pairs
within one block (pairs in different blocks commute exactly), containment
of b's basis by projecting each basis element on the stack, and the face
suprema as masked sums of the stack's slices. generate_masa builds the
stacks from its refined eigenvectors; any other MASA reads them off its
minimal projections. generate_masa refines the joint eigenbasis of its
seeds within each of their atoms (core._joint_atoms), the grouping by which
spectral_measure finds atoms, so each atom of the seeds is a sum of the
MASA's rank-one projections. The MASAs generated around one element share
its atoms, memoized on the element with read-only bases that each MASA
refines a copy of.

The minimal projections of a commutative subalgebra are the atoms of its
basis (core._joint_atoms): the joint eigenvectors of the basis elements,
merged where their value tuples over the basis lie within the cluster gap,
the one rule by which spectral_measure finds the atoms of a normal element.

The algebra C*(g) of a normal g is the span of g's spectral atoms e_i
(Subalgebra.of_normal), with the orthonormal basis e_i / ||e_i||_F: the
atoms are those memoized on g, which its MASAs refine within, and are
stored as its minimal projections, so its dimension is decided by the
cluster gap of spectral_measure, not by a rank cut. A closure is built by
the same helper, _span_of_orthogonal_projections, from its face suprema
s_i, orthogonal projections read in a MASA: it is their span, with the
orthonormal basis s_i / ||s_i||_F, and no product or SVD is formed. The
check that a closure spans b still compares two constructions, the suprema
read in a MASA against the atoms read off g. Subalgebra.from_generators,
the generic closure under products with an SVD per round, is kept as their
oracle in the closure-agreement suite.

A Subalgebra memoizes its commutativity verdict, its minimal projections
and, for a MASA, its stacks, keyed by name and the resolved ToleranceConfig
as in ``core``; a MASA made by generate_masa, and C*(g) made by of_normal,
start with them stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    AlgebraElement,
    Projection,
    ToleranceConfig,
    _grouped,
    _joint_atoms,
    _memoized,
    _norm_against,
    _norms,
    _remember,
    _tol,
    adjoint,
    frobenius_norm,
    is_normal,
    operator_norm,
)
from .errors import (
    NotCommuting,
    NotContained,
    NotNormal,
    PostconditionFailed,
    SignatureMismatch,
)
from .spectral import SPECTRAL_RESIDUAL_TOL, SpectralFunction, integrate, spectral_measure

__all__ = [
    "Subalgebra",
    "ClosureCorrespondence",
    "generate_masa",
    "relative_commutant",
    "minimal_projections",
    "monotone_closure",
    "closure_correspondence",
    "principal_angles",
    "spans_equal",
    "SPAN_ANGLE_TOL",
    "CLOSURE_RESIDUAL_TOL",
]

# basis-free subalgebra equality threshold on principal angles
SPAN_ANGLE_TOL = 1e-8
# largest correspondence delta a closure report accepts
CLOSURE_RESIDUAL_TOL = 1e-9


def _vec(x: AlgebraElement) -> np.ndarray:
    return np.concatenate([b.ravel() for b in x.blocks])


def _unvec(v: np.ndarray, signature: Sequence[int]) -> AlgebraElement:
    blocks, pos = [], 0
    for n in signature:
        blocks.append(v[pos : pos + n * n].reshape(n, n))
        pos += n * n
    return AlgebraElement(blocks)


def _orthonormal_rows(rows: np.ndarray, rel_cut: float) -> np.ndarray:
    """Orthonormal basis of the row space, via SVD with a relative rank cut."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    return vh[s > rel_cut * s[0]]


@dataclass(frozen=True)
class Subalgebra:
    """A unital, *-closed, multiplication-closed subspace of the ambient algebra.

    ``basis`` is orthonormal under the trace inner product; rows of the
    vectorized basis span the subalgebra.
    """

    signature: tuple[int, ...]
    basis: tuple[AlgebraElement, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _basis_matrix(self) -> np.ndarray:
        return np.array([_vec(b) for b in self.basis])

    def project(self, x: AlgebraElement) -> AlgebraElement:
        if x.signature != self.signature:
            raise SignatureMismatch(
                f"signatures differ: {self.signature} vs {x.signature}"
            )
        m = self._basis_matrix()
        coeff = m.conj() @ _vec(x)
        return _unvec(coeff @ m, self.signature)

    def membership_residual(self, x: AlgebraElement) -> float:
        return frobenius_norm(x - self.project(x))

    def contains(self, x: AlgebraElement, tol: ToleranceConfig | None = None) -> bool:
        t = _tol(tol)
        return self.membership_residual(x) <= t.pos_slack * (1.0 + frobenius_norm(x))

    def is_commutative(self, tol: ToleranceConfig | None = None) -> bool:
        return _memoized(self, "is_commutative", _tol(tol), Subalgebra._commutes)

    def _commutes(self, t: ToleranceConfig) -> bool:
        for i, a in enumerate(self.basis):
            for b in self.basis[i + 1 :]:
                if frobenius_norm(a * b - b * a) > t.pos_slack * 2.0:
                    return False
        return True

    def is_masa(self, tol: ToleranceConfig | None = None) -> bool:
        """Maximal commutative at finite dimension: commutative with dimension
        equal to the total block dimension."""
        return self.dim == sum(self.signature) and self.is_commutative(tol)

    @classmethod
    def from_generators(
        cls,
        generators: Sequence[AlgebraElement],
        tol: ToleranceConfig | None = None,
    ) -> "Subalgebra":
        """Smallest unital *-closed multiplication-closed subspace containing
        the generators."""
        t = _tol(tol)
        if not generators:
            raise ValueError("at least one generator required")
        sig = generators[0].signature
        pool = [AlgebraElement.identity(sig)]
        for g in generators:
            generators[0]._check_signature(g)
            pool.append(g)
            pool.append(adjoint(g))
        rows = _orthonormal_rows(np.array([_vec(p) for p in pool]), t.rank_cutoff)
        while True:
            elems = [_unvec(r, sig) for r in rows]
            prods = [_vec(a * b) for a in elems for b in elems]
            new_rows = _orthonormal_rows(
                np.vstack([rows, np.array(prods)]), t.rank_cutoff
            )
            if new_rows.shape[0] == rows.shape[0]:
                return cls(tuple(sig), tuple(elems))
            rows = new_rows

    @classmethod
    def of_normal(cls, g: AlgebraElement, tol: ToleranceConfig | None = None) -> "Subalgebra":
        """C*(g) of a normal g: the span of its spectral atoms e_i, with the
        orthonormal basis e_i / ||e_i||_F, ||e_i||_F = sqrt(rank e_i).

        The atoms are those of spectral_measure(g), memoized on g with the
        joint eigenbasis they are read off; distinct atoms are orthogonal,
        so no SVD is needed. The result is stored commutative, with the
        atoms as its minimal projections. Raises NotNormal unless g is
        normal, and PostconditionFailed unless g lies in the span by the rule
        spectral_residuals accepts: ||sum z_i e_i - g|| <=
        SPECTRAL_RESIDUAL_TOL (1 + ||g||) over the spectrum points z_i.
        """
        t = _tol(tol)
        m = spectral_measure(g, t)
        recon = integrate(SpectralFunction.identity(m.domain_spectrum), m)
        bound = SPECTRAL_RESIDUAL_TOL * (1.0 + operator_norm(g, t))
        if _norm_against(recon - g, bound, t) > bound:
            raise PostconditionFailed("generator does not lie in the span of its spectral atoms")
        atoms = [m.atoms[z] for z in m.domain_spectrum.points]
        out = _span_of_orthogonal_projections(g.signature, [e.element for e in atoms])
        _remember(out, "is_commutative", t, True)
        _remember(out, "minimal_projections", t, _sorted_by_rank(atoms))
        return out


def _span_of_orthogonal_projections(
    signature: tuple[int, ...], projs: Sequence[AlgebraElement]
) -> Subalgebra:
    """The span of pairwise orthogonal projections, with the orthonormal
    basis p / ||p||_F over the nonzero p: no product or SVD is formed."""
    basis = []
    for p in projs:
        r = frobenius_norm(p)
        if r > 0.0:
            basis.append(AlgebraElement._of([blk / r for blk in p.blocks]))
    return Subalgebra(signature, tuple(basis))


@dataclass(frozen=True)
class ClosureCorrespondence:
    """Pairing of closure projections computed inside two different MASAs.

    pairs holds (s_i, t_i) for each minimal projection e_i of the
    subalgebra, s_i and t_i the suprema of the face of e_i in the first and
    the second MASA; closures holds the monotone closures computed in the
    first and the second MASA, two separate computations; delta is the
    largest operator_norm(s_i - t_i) over the pairs. Every projection of the
    closure is a sum of distinct s_i, its partner the same sum of the t_i,
    so its gap is at most m delta.
    """

    pairs: tuple[tuple[Projection, Projection], ...]
    closures: tuple[Subalgebra, Subalgebra]
    delta: float

    @cached_property
    def span_angle(self) -> float:
        """The largest principal angle between the two closures, 0 when there
        is none; measured once for residuals and accepted."""
        angles = principal_angles(*self.closures)
        return float(angles[-1]) if angles.size else 0.0

    @property
    def residuals(self) -> dict[str, float]:
        """closure_span_angle, the span_angle above, and
        correspondence_delta, the delta above."""
        return {"closure_span_angle": self.span_angle, "correspondence_delta": self.delta}

    @property
    def accepted(self) -> bool:
        """The closures span equal spaces, as spans_equal decides, and delta
        is at most CLOSURE_RESIDUAL_TOL."""
        c1, c2 = self.closures
        return (
            c1.dim == c2.dim
            and self.span_angle <= SPAN_ANGLE_TOL
            and self.delta <= CLOSURE_RESIDUAL_TOL
        )


def principal_angles(s1: Subalgebra, s2: Subalgebra) -> np.ndarray:
    """Principal angles between basis spans under the trace inner product.

    Computed through the projection residual (sine form), which stays
    accurate for angles far below sqrt(machine epsilon).
    """
    q1 = s1._basis_matrix().T  # columns orthonormal
    q2 = s2._basis_matrix().T
    resid = q2 - q1 @ (q1.conj().T @ q2)
    sines = np.linalg.svd(resid, compute_uv=False)
    return np.arcsin(np.clip(np.sort(sines), 0.0, 1.0))


def spans_equal(s1: Subalgebra, s2: Subalgebra) -> bool:
    if s1.dim != s2.dim:
        return False
    angles = principal_angles(s1, s2)
    return angles.size == 0 or float(angles[-1]) <= SPAN_ANGLE_TOL


def _require_commuting_normal(generators, t):
    for i, g in enumerate(generators):
        if not is_normal(g, t):
            raise NotNormal(f"generator {i} does not commute with its adjoint")
        for j, h in enumerate(generators[i + 1 :], start=i + 1):
            bound = t.pos_slack * (1.0 + operator_norm(g, t) * operator_norm(h, t))
            if _norm_against(g * h - h * g, bound, t) > bound:
                raise NotCommuting(f"generators {i} and {j} do not commute")


def _rank_one_stack(basis: np.ndarray) -> np.ndarray:
    """The rank-one projections v v* onto the columns v of a unitary, as one
    read-only (n, n, n) stack, hermitized exactly."""
    vt = basis.T.copy()
    m = vt[:, :, None] @ vt.conj()[:, None, :]
    stack = 0.5 * (m + m.conj().swapaxes(1, 2))
    stack.flags.writeable = False
    return stack


def _stacks_commute(stacks: Sequence[np.ndarray], t: ToleranceConfig) -> bool:
    """||[p_i, p_j]||_F <= 2 pos_slack for every pair of the rank-one
    projections, is_commutative's rule on their span. Projections in
    different blocks commute exactly, so only pairs within one stack are
    formed, one projection against the later ones of its stack at a time."""
    for p in stacks:
        n = p.shape[-1]
        for i in range(n - 1):
            comm = (p[i] @ p[i + 1:] - p[i + 1:] @ p[i]).reshape(n - 1 - i, n * n)
            if (np.sqrt(_squares(comm)) > t.pos_slack * 2.0).any():
                return False
    return True


def _squares(rows: np.ndarray) -> np.ndarray:
    """Sum of the squared moduli along the last axis."""
    return (rows.real**2 + rows.imag**2).sum(axis=-1)


def _rows(elements: Sequence[AlgebraElement], k: int, n: int) -> np.ndarray:
    """Block k, of dimension n, of each element as one row of n^2 entries."""
    return np.array([x.blocks[k] for x in elements]).reshape(len(elements), n * n)


def _within_slack(pairs, t: ToleranceConfig) -> np.ndarray:
    """Per row, ||y - x||_F <= pos_slack (1 + ||x||_F) over all blocks, for
    one pair (y, x) of row matrices per block position."""
    gaps = sum(_squares(y - x) for y, x in pairs)
    norms = sum(_squares(x) for _, x in pairs)
    return np.sqrt(gaps) <= t.pos_slack * (1.0 + np.sqrt(norms))


def generate_masa(
    seed_commuting: Sequence[AlgebraElement],
    refinement_seed: int,
    tol: ToleranceConfig | None = None,
) -> Subalgebra:
    """Maximal commutative subalgebra containing the commuting normal seeds.

    Reads the joint eigenbasis and the atoms of the seeds (core._joint_atoms),
    then completes the columns of every atom within each block with a seeded
    random orthonormal basis, block by block and atom by atom in the order
    of their first column; the result is the diagonal algebra of the refined
    basis, spanned by its rank-one projections. Each atom is a sum of them,
    so the algebra the seeds generate lies inside the MASA.
    """
    t = _tol(tol)
    if not seed_commuting:
        raise ValueError("at least one seed element required")
    _require_commuting_normal(seed_commuting, t)
    sig = seed_commuting[0].signature
    rng = np.random.default_rng(refinement_seed)
    stacks = []
    bases, labels, _ = _joint_atoms(seed_commuting, t)
    for basis, label in zip(bases, labels):
        basis = basis.copy()
        # each atom's columns in this block, the atoms in the order of their
        # first column
        columns = {}
        for c, atom in enumerate(label):
            columns.setdefault(atom, []).append(c)
        for idx in columns.values():
            if len(idx) > 1:
                g = rng.standard_normal((len(idx), len(idx))) + 1j * rng.standard_normal(
                    (len(idx), len(idx))
                )
                q, r = np.linalg.qr(g)
                d = np.diagonal(r)
                basis[:, idx] = basis[:, idx] @ (q * (d / np.abs(d)))
        stacks.append(_rank_one_stack(basis))
    # the postcondition is_masa: Sigma n rank-one projections that commute
    if not _stacks_commute(stacks, t):
        raise PostconditionFailed("refined diagonal algebra failed the MASA postcondition")
    # the slices of the read-only stacks are wrapped as they are, with zero
    # stacks at the other block positions
    basis_elements = [
        el
        for k, stack in enumerate(stacks)
        for el in AlgebraElement._of_stacks([
            stack if j == k else np.zeros((len(stack), n, n), dtype=complex)
            for j, n in enumerate(sig)
        ])
    ]
    out = Subalgebra(sig, tuple(basis_elements))
    _remember(out, "is_commutative", t, True)
    _remember(out, "rank_one_stacks", t, tuple(stacks))
    # the rank-one basis projections are the MASA's minimal projections
    minimal = [Projection._of(e) for e in basis_elements]
    _remember(out, "minimal_projections", t, _sorted_by_rank(minimal))
    return out


def relative_commutant(
    s: Subalgebra, tol: ToleranceConfig | None = None
) -> Subalgebra:
    """Elements of the ambient algebra commuting with everything in s.

    Solved blockwise as the null space of x -> [x, b] over the basis.
    """
    t = _tol(tol)
    sig = s.signature
    basis_elements = []
    for k, n in enumerate(sig):
        eye = np.eye(n, dtype=complex)
        constraints = []
        for b in s.basis:
            bk = b.blocks[k]
            if np.linalg.norm(bk) <= t.rank_cutoff:
                continue
            # row-major vec: vec(b x - x b) = (kron(b, I) - kron(I, b^T)) vec(x)
            constraints.append(np.kron(bk, eye) - np.kron(eye, bk.T))
        if constraints:
            stacked = np.vstack(constraints)
            _, sv, vh = np.linalg.svd(stacked)
            rank = int(np.sum(sv > t.rank_cutoff * max(1.0, sv[0])))
            null = vh[rank:].conj()
        else:
            null = np.eye(n * n, dtype=complex)
        for row in null:
            blocks = [
                row.reshape(n, n) if j == k else np.zeros((d, d), dtype=complex)
                for j, d in enumerate(sig)
            ]
            basis_elements.append(AlgebraElement(blocks))
    rows = _orthonormal_rows(
        np.array([_vec(b) for b in basis_elements]), t.rank_cutoff
    )
    return Subalgebra(sig, tuple(_unvec(r, sig) for r in rows))


def minimal_projections(
    s: Subalgebra, tol: ToleranceConfig | None = None
) -> list[Projection]:
    """Minimal projections of a commutative subalgebra, summing to the identity.

    They are the atoms of the basis (core._joint_atoms): joint eigenvectors
    merged by their value tuples over the basis, across blocks. Raises
    PostconditionFailed unless there are dim s of them. Returns a fresh list
    of the projections memoized on s, largest block traces first.
    """
    return list(_memoized(s, "minimal_projections", _tol(tol), _minimal_projections))


def _sorted_by_rank(projections: list[Projection]) -> tuple[Projection, ...]:
    """Largest block traces first, block by block; ties keep their order."""

    def key(p):
        return tuple(-float(np.trace(b).real) for b in p.element.blocks)

    return tuple(sorted(projections, key=key))


def _minimal_projections(s: Subalgebra, t: ToleranceConfig) -> tuple[Projection, ...]:
    if not s.is_commutative(t):
        raise NotCommuting("minimal projections require a commutative subalgebra")
    projections = [atom for _, atom in _joint_atoms(s.basis, t)[2]]
    if len(projections) != s.dim:
        raise PostconditionFailed(
            f"found {len(projections)} minimal projections in a {s.dim}-dimensional algebra"
        )
    return _sorted_by_rank(projections)


def _rank_one_stacks(masa: Subalgebra, t: ToleranceConfig) -> tuple[np.ndarray, ...]:
    """The minimal projections of a MASA, all of rank one, as one read-only
    (n_k, n_k, n_k) stack per block position k: slice j is block k of a
    projection that lives in block k alone. generate_masa stores them; any
    other MASA reads them off minimal_projections."""
    return _memoized(masa, "rank_one_stacks", t, _stacks_of_minimal)


def _stacks_of_minimal(masa: Subalgebra, t: ToleranceConfig) -> tuple[np.ndarray, ...]:
    per_block = [[] for _ in masa.signature]
    for p in minimal_projections(masa, t):
        blocks = p.element.blocks
        k = int(np.argmax([np.trace(b).real for b in blocks]))
        per_block[k].append(blocks[k])
    stacks = tuple(np.array(s) for s in per_block)
    for stack in stacks:
        stack.flags.writeable = False
    return stacks


def _stacks_contain(stacks: Sequence[np.ndarray], b: Subalgebra, t: ToleranceConfig) -> bool:
    """Each basis element x of b lies in the MASA of the rank-one projections
    p_j: ||x - sum_j tr(p_j x) p_j||_F <= pos_slack (1 + ||x||_F), the rule
    of Subalgebra.contains."""
    pairs = []
    for k, p in enumerate(stacks):
        n = p.shape[-1]
        x, flat = _rows(b.basis, k, n), p.reshape(n, n * n)
        pairs.append(((x @ flat.conj().T) @ flat, x))
    return bool(_within_slack(pairs, t).all())


def _face_suprema(
    minimal: Sequence[Projection], stacks: Sequence[np.ndarray], t: ToleranceConfig
) -> list[np.ndarray]:
    """The face suprema s_1..s_m of b's minimal projections e_1..e_m in the
    MASA of the rank-one projections p_j, as one (m, n, n) stack per block
    position: s_i sums the p_j with Re tr(e_i p_j) > 1/2. Raise NotContained
    unless each s_i is e_i within pos_slack (1 + ||e_i||_F)."""
    pairs = []
    for k, p in enumerate(stacks):
        n = p.shape[-1]
        e, flat = _rows([q.element for q in minimal], k, n), p.reshape(n, n * n)
        # tr(e p) = sum_ab e_ab p_ba, and p_ba is the conjugate of p_ab
        under = (e @ flat.conj().T).real > 0.5
        pairs.append((under.astype(complex) @ flat, e))
    if not _within_slack(pairs, t).all():
        raise NotContained(
            "a minimal projection is not a sum of the MASA's rank-one projections"
        )
    return [s.reshape(-1, *p.shape[1:]) for (s, _), p in zip(pairs, stacks)]


def monotone_closure(
    b: Subalgebra, masa: Subalgebra, tol: ToleranceConfig | None = None
) -> Subalgebra:
    """Monotone closure of a commutative subalgebra inside a MASA containing it.

    The closure adjoins, for every projection p of the MASA, the supremum of
    the face {x in b, 0 <= x <= 1, x <= p}. Each minimal projection e_i of b
    is a sum of the MASA's rank-one projections, so every face supremum is a
    sum of the suprema s_i of the faces of the e_i, read off the MASA's own
    rank-one projections. The s_i are pairwise orthogonal projections, so
    the closure is their span (Berberian, Baer *-Rings), built as b = C*(g)
    is, with the orthonormal basis s_i / ||s_i||_F. At finite dimension the
    closure of a unital closed subalgebra is the subalgebra itself; this is
    asserted on the result.
    """
    return _closure_in(b, masa, _tol(tol))[0]


def _closure_in(
    b: Subalgebra, masa: Subalgebra, t: ToleranceConfig
) -> tuple[Subalgebra, list[AlgebraElement], list[np.ndarray]]:
    """The monotone closure of b in the MASA, the face suprema s_1..s_m it
    spans, and their (m, n, n) stacks per block position.

    The tr(e_i p_j) of a rank-one projection p_j of the MASA sum to 1 over
    i, so p_j lies under at most one s_i: distinct s_i are orthogonal, and
    s_i / ||s_i||_F, over the nonzero s_i, is an orthonormal basis of their
    span. Raises PostconditionFailed unless the span equals b by
    spans_equal.
    """
    if not b.is_commutative(t):
        raise NotCommuting("closure requires a commutative subalgebra")
    if not masa.is_masa(t):
        raise ValueError("closure must be taken inside a maximal commutative subalgebra")
    if masa.signature != b.signature:
        raise SignatureMismatch(f"signatures differ: {masa.signature} vs {b.signature}")
    stacks = _rank_one_stacks(masa, t)
    if not _stacks_contain(stacks, b, t):
        raise NotContained("subalgebra does not lie inside the MASA")
    sup_stacks = _face_suprema(minimal_projections(b, t), stacks, t)
    sups = AlgebraElement._of_stacks(sup_stacks)
    closure = _span_of_orthogonal_projections(b.signature, sups)
    if not spans_equal(closure, b):
        raise PostconditionFailed(
            "closure of a unital closed subalgebra moved at finite dimension"
        )
    return closure, sups, sup_stacks


def closure_correspondence(
    b: Subalgebra,
    masa1: Subalgebra,
    masa2: Subalgebra,
    tol: ToleranceConfig | None = None,
) -> ClosureCorrespondence:
    """Pair the face suprema of the closure in the first MASA with those
    computed inside the second MASA.

    The closure is computed in each MASA as monotone_closure computes it,
    from that MASA's rank-one projections. The supremum s_i of the face of
    b's minimal projection e_i in the first MASA is paired with its
    supremum in the second, m pairs. The pairing, the identity map at finite
    dimension, is checked within 2 pos_slack on each pair. The m gaps
    ||s_i - t_i|| are taken in one stacked solve (core._norms), each with
    the bits of operator_norm(s_i - t_i). Every projection of the closure is
    a sum of distinct s_i and its partner the same sum in the second MASA,
    so its gap is at most m delta.
    """
    t = _tol(tol)
    c1, sups1, stacks1 = _closure_in(b, masa1, t)
    c2, sups2, stacks2 = _closure_in(b, masa2, t)
    gaps = _norms(*_grouped([s1 - s2 for s1, s2 in zip(stacks1, stacks2)]))
    if any(gap > t.pos_slack * 2.0 for gap in gaps):
        raise PostconditionFailed("closure correspondence is not the identity map")
    pairs = tuple((Projection._of(p), Projection._of(q)) for p, q in zip(sups1, sups2))
    return ClosureCorrespondence(pairs=pairs, closures=(c1, c2), delta=max(0.0, *gaps))
