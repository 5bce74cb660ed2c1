"""Projection lattice and commutative-subalgebra machinery.

Subalgebras are stored as orthonormal bases under the trace inner product.
Maximal commutative subalgebras (MASAs) arise from jointly diagonalizing
commuting normal generators and refining each degenerate eigenspace with a
seeded random orthonormal basis. Monotone closures are computed by the
face-supremum construction in one pass: every face supremum is a sum of the
subalgebra's minimal projections, so the closure does not depend on the
MASA it is taken in, which is only checked. At finite dimension the closure
of a unital closed commutative subalgebra is itself, asserted on the result,
and the closure correspondence is the identity on projections, checked pair
by pair on bitmasks over the subalgebra's minimal projections.

A Subalgebra memoizes its commutativity verdict, its minimal projections and
its monotone closure, keyed by name and the resolved ToleranceConfig as in
``core``; a MASA made by generate_masa starts with its rank-one projections
stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AlgebraElement,
    Projection,
    ToleranceConfig,
    _eigh_blocks,
    _memoized,
    _norm_against,
    _remember,
    _tol,
    adjoint,
    frobenius_norm,
    is_normal,
    is_self_adjoint,
    joint_eigenspaces,
    operator_norm,
    range_projection,
    real_part,
)
from .errors import (
    NotCommuting,
    NotContained,
    NotNormal,
    NotPositive,
    PostconditionFailed,
    SignatureMismatch,
    TooManyPoints,
)

__all__ = [
    "Subalgebra",
    "ClosureCorrespondence",
    "sup_projections",
    "max_annihilator",
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

# face enumeration walks subsets of minimal projections
MAX_ENUMERATED_FACES = 20


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

    def contains_subalgebra(
        self, other: "Subalgebra", tol: ToleranceConfig | None = None
    ) -> bool:
        return all(self.contains(b, tol) for b in other.basis)

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


@dataclass(frozen=True)
class ClosureCorrespondence:
    """Pairing of closure projections computed inside two different MASAs.

    pairs holds (p, partner) for every projection p of the closure in the
    first MASA; closures holds the monotone closures of the subalgebra in
    the first and second MASA, one object since the closure does not depend
    on the MASA (see monotone_closure); delta is the largest operator_norm(p -
    partner) over the pairs, the defect of the identity correspondence.
    """

    pairs: tuple[tuple[Projection, Projection], ...]
    closures: tuple[Subalgebra, Subalgebra]
    delta: float

    @property
    def residuals(self) -> dict[str, float]:
        """closure_span_angle, the largest principal angle between the two
        closures, and correspondence_delta, the delta above."""
        angles = principal_angles(*self.closures)
        angle = float(angles[-1]) if angles.size else 0.0
        return {"closure_span_angle": angle, "correspondence_delta": self.delta}

    @property
    def accepted(self) -> bool:
        """The closures span equal spaces and delta is at most CLOSURE_RESIDUAL_TOL."""
        return spans_equal(*self.closures) and self.delta <= CLOSURE_RESIDUAL_TOL


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


def spans_equal(s1: Subalgebra, s2: Subalgebra, angle_tol: float = SPAN_ANGLE_TOL) -> bool:
    if s1.dim != s2.dim:
        return False
    angles = principal_angles(s1, s2)
    return angles.size == 0 or float(angles[-1]) <= angle_tol


def sup_projections(
    ps: Sequence[Projection], tol: ToleranceConfig | None = None
) -> Projection:
    """Least projection dominating every member: the range projection of the sum."""
    if not ps:
        raise ValueError("sup_projections needs a non-empty family")
    total = ps[0].element
    for p in ps[1:]:
        total = total + p.element
    return range_projection(total, tol)


def max_annihilator(
    elements: Sequence[AlgebraElement], tol: ToleranceConfig | None = None
) -> Projection:
    """Largest projection q with q s = 0 for every positive s in the family."""
    t = _tol(tol)
    if not elements:
        raise ValueError("max_annihilator needs a non-empty family")
    for i, s in enumerate(elements):
        if not is_self_adjoint(s, t):
            raise NotPositive(f"element {i} is not self-adjoint")
        if not _eigh_blocks(real_part(s).blocks, t, vectors=False).is_positive(t):
            raise NotPositive(f"element {i} is not positive")
    total = elements[0]
    for s in elements[1:]:
        total = total + s
    rp = range_projection(total, t)
    return Projection._of(AlgebraElement.identity(total.signature) - rp.element)


def _require_commuting_normal(generators, t):
    for i, g in enumerate(generators):
        if not is_normal(g, t):
            raise NotNormal(f"generator {i} does not commute with its adjoint")
        for j, h in enumerate(generators[i + 1 :], start=i + 1):
            bound = t.pos_slack * (1.0 + operator_norm(g, t) * operator_norm(h, t))
            if _norm_against(g * h - h * g, bound, t) > bound:
                raise NotCommuting(f"generators {i} and {j} do not commute")


def generate_masa(
    seed_commuting: Sequence[AlgebraElement],
    refinement_seed: int,
    tol: ToleranceConfig | None = None,
) -> Subalgebra:
    """Maximal commutative subalgebra containing the commuting normal seeds.

    Jointly diagonalizes the seeds blockwise, then completes every joint
    eigenspace with a seeded random orthonormal basis; the result is the
    diagonal algebra of the refined basis, spanned by its rank-one
    projections.
    """
    t = _tol(tol)
    if not seed_commuting:
        raise ValueError("at least one seed element required")
    _require_commuting_normal(seed_commuting, t)
    sig = seed_commuting[0].signature
    rng = np.random.default_rng(refinement_seed)
    basis_elements = []
    for k, (basis, groups) in enumerate(joint_eigenspaces(seed_commuting, t)):
        for idx in groups:
            if len(idx) > 1:
                g = rng.standard_normal((len(idx), len(idx))) + 1j * rng.standard_normal(
                    (len(idx), len(idx))
                )
                q, r = np.linalg.qr(g)
                d = np.diagonal(r)
                basis[:, idx] = basis[:, idx] @ (q * (d / np.abs(d)))
        for col in range(sig[k]):
            v = basis[:, col : col + 1]
            m = v @ v.conj().T
            blocks = [
                0.5 * (m + m.conj().T) if j == k else np.zeros((d, d), dtype=complex)
                for j, d in enumerate(sig)
            ]
            basis_elements.append(AlgebraElement(blocks))
    out = Subalgebra(sig, tuple(basis_elements))
    if not out.is_masa(t):
        raise PostconditionFailed("refined diagonal algebra failed the MASA postcondition")
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

    Joint eigenspaces of the basis are grouped by their joint eigenvalue
    tuples across blocks; each tuple class yields one minimal projection.
    Returns a fresh list of the projections memoized on s.
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
    sig = s.signature
    carriers = []  # (block, columns, value tuple)
    for k, (basis, groups) in enumerate(joint_eigenspaces(s.basis, t)):
        for idx in groups:
            v = basis[:, idx]
            tup = np.array(
                [np.mean(np.diagonal(v.conj().T @ b.blocks[k] @ v)) for b in s.basis]
            )
            carriers.append((k, v, tup))
    # single-link clustering of the value tuples
    m = len(carriers)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if np.linalg.norm(carriers[i][2] - carriers[j][2]) <= t.cluster_tol * (
                1.0 + np.linalg.norm(carriers[i][2])
            ):
                parent[find(i)] = find(j)
    clusters: dict[int, list[int]] = {}
    for i in range(m):
        clusters.setdefault(find(i), []).append(i)

    projections = []
    for members in clusters.values():
        blocks = [np.zeros((n, n), dtype=complex) for n in sig]
        for i in members:
            k, v, _ = carriers[i]
            mat = v @ v.conj().T
            blocks[k] = blocks[k] + 0.5 * (mat + mat.conj().T)
        projections.append(Projection._of(AlgebraElement(blocks)))
    if len(projections) != s.dim:
        raise PostconditionFailed(
            f"found {len(projections)} minimal projections in a {s.dim}-dimensional algebra"
        )
    return _sorted_by_rank(projections)


def _overlap(x: AlgebraElement, y: AlgebraElement) -> float:
    """Re tr(x y), summed over the blocks."""
    return sum(float(np.trace(a @ b).real) for a, b in zip(x.blocks, y.blocks))


def _require_atom_sums(
    minimal: Sequence[Projection], masa_minimal: Sequence[Projection], t
) -> None:
    """Raise NotContained unless every minimal projection is the sum of the
    MASA rank-one projections it overlaps by more than 1/2."""
    for e in minimal:
        recover = AlgebraElement.zeros(e.element.signature)
        for f in masa_minimal:
            if _overlap(e.element, f.element) > 0.5:
                recover = recover + f.element
        if frobenius_norm(recover - e.element) > t.pos_slack * (
            1.0 + frobenius_norm(e.element)
        ):
            raise NotContained(
                "a minimal projection is not a sum of the MASA's rank-one projections"
            )


def _subset_sums(ps: Sequence[Projection], signature) -> list[AlgebraElement]:
    """The sum of every subset of ps, subset j holding ps[i] for each set bit
    i of j, each summed from zero in increasing i."""
    sums = []
    for j_mask in range(1 << len(ps)):
        total = AlgebraElement.zeros(signature)
        for i, p in enumerate(ps):
            if j_mask >> i & 1:
                total = total + p.element
        sums.append(total)
    return sums


def monotone_closure(
    b: Subalgebra, masa: Subalgebra, tol: ToleranceConfig | None = None
) -> Subalgebra:
    """Monotone closure of a commutative subalgebra inside a MASA containing it.

    The closure adjoins, for every projection p of the MASA, the supremum of
    the face {x in b, 0 <= x <= 1, x <= p}. Each minimal projection of b is
    a sum of the MASA's rank-one projections, so that supremum is the sum of
    the minimal projections of b under p, and every sum of them is the
    supremum of some face. The closure is therefore generated by b's minimal
    projections and their subset sums, whichever MASA contains b: the MASA
    is checked on every call, and the closure is computed once per
    subalgebra and tolerance. At
    finite dimension the closure of a unital closed subalgebra is the
    subalgebra itself; this is asserted on the result.
    """
    t = _tol(tol)
    if not b.is_commutative(t):
        raise NotCommuting("closure requires a commutative subalgebra")
    if not masa.is_masa(t):
        raise ValueError("closure must be taken inside a maximal commutative subalgebra")
    if not masa.contains_subalgebra(b, t):
        raise NotContained("subalgebra does not lie inside the MASA")
    minimal = minimal_projections(b, t)
    masa_minimal = minimal_projections(masa, t)
    if len(minimal) > MAX_ENUMERATED_FACES:
        raise TooManyPoints(
            f"face enumeration capped at {MAX_ENUMERATED_FACES} minimal projections"
        )
    _require_atom_sums(minimal, masa_minimal, t)
    return _memoized(b, "monotone_closure", t, lambda b, t: _closure(b, minimal, t))


def _closure(b: Subalgebra, minimal: list[Projection], t: ToleranceConfig):
    gens = [p.element for p in minimal] + _subset_sums(minimal, b.signature)
    closure = Subalgebra.from_generators(gens, t)
    if not spans_equal(closure, b):
        raise PostconditionFailed(
            "closure of a unital closed subalgebra moved at finite dimension"
        )
    return closure


def closure_correspondence(
    b: Subalgebra,
    masa1: Subalgebra,
    masa2: Subalgebra,
    tol: ToleranceConfig | None = None,
) -> ClosureCorrespondence:
    """Pair every projection of the closure in the first MASA with the
    supremum of its face computed inside the second MASA.

    Both MASAs are checked as monotone_closure checks them. The closure does
    not depend on the MASA: every face supremum is a sum of b's minimal
    projections, so the two closures are the one closure memoized on b.
    The partner of p, the supremum of its face, is the sum of the minimal
    projections e_i of b under p, picked by bit i of a mask; the e_i are
    pairwise orthogonal. The pairing, the identity map at finite dimension,
    is checked within 2 pos_slack on each of its 2^m projections.
    """
    t = _tol(tol)
    c1 = monotone_closure(b, masa1, t)
    c2 = monotone_closure(b, masa2, t)
    minimal = minimal_projections(b, t)
    sups = _subset_sums(minimal, b.signature)
    pairs = []
    delta = 0.0
    for p in _subset_sums(minimal_projections(c1, t), b.signature):
        # e and p commute and p sums minimal projections, so tr(e p) is
        # tr(e) when e <= p and 0 otherwise, up to roundoff
        mask = sum(
            1 << i for i, e in enumerate(minimal) if 2.0 * _overlap(e.element, p) > e.rank()
        )
        partner = sups[mask]
        gap = operator_norm(p - partner, t)
        if gap > t.pos_slack * 2.0:
            raise PostconditionFailed("closure correspondence is not the identity map")
        delta = max(delta, gap)
        pairs.append((Projection._of(p), Projection._of(partner)))
    return ClosureCorrespondence(pairs=tuple(pairs), closures=(c1, c2), delta=delta)
