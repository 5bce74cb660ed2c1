"""Spectral decomposition of normal elements.

A normal element is split into commuting self-adjoint parts h + i k, the
parts are diagonalized simultaneously, and the resulting complex eigenvalues
are clustered into spectrum points. Each point carries an orthogonal
projection atom; the atom map is a finitely additive projection-valued
measure whose weighted sum reconstructs the element. On a finite discrete
spectrum every subset is both closed and open, so the measure-regularity
identities degenerate; check_regularity pins that degeneracy by full subset
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    AlgebraElement,
    Projection,
    ToleranceConfig,
    _tol,
    eigh_hermitian,
    is_normal,
    joint_eigenspaces,
    operator_norm,
)
from .errors import (
    IncompleteFunction,
    IncompleteOrdering,
    NotNormal,
    TooManyPoints,
    UnknownPoint,
)
from .order import OrderLimitCertificate, build_certificate

__all__ = [
    "Spectrum",
    "SpectralMeasure",
    "BorelSubset",
    "SpectralFunction",
    "is_normal",
    "spectrum_of",
    "spectral_measure",
    "measure_of",
    "integrate",
    "check_regularity",
    "order_convergent_integral",
    "SpectralResiduals",
    "spectral_residuals",
    "REGULARITY_POINT_LIMIT",
    "SPECTRAL_RESIDUAL_TOL",
]

REGULARITY_POINT_LIMIT = 12
SPECTRAL_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Distinct spectrum points (cluster representatives) with multiplicities."""

    points: tuple[complex, ...]
    multiplicities: tuple[int, ...]

    @property
    def total_dim(self) -> int:
        return sum(self.multiplicities)


@dataclass(frozen=True)
class BorelSubset:
    """A subset of the spectrum, realized as an explicit point list."""

    points: tuple[complex, ...]

    @classmethod
    def of(cls, points: Iterable[complex]) -> "BorelSubset":
        return cls(tuple(complex(p) for p in points))


@dataclass(frozen=True)
class SpectralFunction:
    """A function given by its values on the spectrum points."""

    values: Mapping[complex, complex]

    @classmethod
    def from_callable(cls, fn: Callable[[complex], complex], spectrum: Spectrum):
        return cls(MappingProxyType({p: complex(fn(p)) for p in spectrum.points}))

    @classmethod
    def identity(cls, spectrum: Spectrum) -> "SpectralFunction":
        return cls.from_callable(lambda z: z, spectrum)

    @classmethod
    def indicator(cls, subset: BorelSubset, spectrum: Spectrum) -> "SpectralFunction":
        inside = set(subset.points)
        return cls.from_callable(lambda z: 1.0 if z in inside else 0.0, spectrum)

    def __call__(self, point: complex) -> complex:
        try:
            return self.values[point]
        except KeyError:
            raise IncompleteFunction(f"no value at spectrum point {point}") from None


@dataclass(frozen=True)
class SpectralMeasure:
    """Atom map from spectrum points to pairwise orthogonal projections."""

    domain_spectrum: Spectrum
    atoms: Mapping[complex, Projection]

    def atom(self, point: complex) -> Projection:
        try:
            return self.atoms[point]
        except KeyError:
            raise UnknownPoint(f"{point} is not a spectrum point") from None


def _cluster_complex(values, ctol):
    """Single-link clustering of complex values.

    Returns sorted representatives (unweighted means of members, re-merged
    until their pairwise separation exceeds the tolerance) and a label per
    input value.
    """
    m = len(values)
    labels = list(range(m))
    groups: list[list[int]] = [[i] for i in range(m)]
    reps = [complex(v) for v in values]
    while True:
        parent = list(range(len(reps)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        merged = False
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if abs(reps[i] - reps[j]) <= ctol and find(i) != find(j):
                    parent[find(i)] = find(j)
                    merged = True
        if not merged:
            break
        buckets: dict[int, list[int]] = {}
        for i in range(len(reps)):
            buckets.setdefault(find(i), []).append(i)
        new_groups, new_reps = [], []
        for members in buckets.values():
            joined = [k for g in members for k in groups[g]]
            new_groups.append(joined)
            new_reps.append(sum(values[k] for k in joined) / len(joined))
        groups, reps = new_groups, new_reps
    order = sorted(range(len(reps)), key=lambda i: (reps[i].real, reps[i].imag))
    final_reps = [reps[i] for i in order]
    for new_label, i in enumerate(order):
        for k in groups[i]:
            labels[k] = new_label
    return final_reps, labels


def _normal_eigensystem(a: AlgebraElement, t: ToleranceConfig):
    """Per-block joint eigenvectors of h and k with complex Rayleigh values."""
    if not is_normal(a, t):
        raise NotNormal("spectral decomposition needs a normal element")
    per_block = []
    for ak, (basis, _) in zip(a.blocks, joint_eigenspaces([a], t)):
        vals = np.diagonal(basis.conj().T @ ak @ basis).copy()
        per_block.append((basis, vals))
    return per_block


def spectral_measure(
    a: AlgebraElement, tol: ToleranceConfig | None = None
) -> SpectralMeasure:
    """Projection-valued measure of a normal element.

    Atoms project onto the clustered joint eigenspaces; their weighted sum
    reconstructs the element.
    """
    t = _tol(tol)
    per_block = _normal_eigensystem(a, t)
    ctol = t.cluster_tol * max(1.0, operator_norm(a, t))
    all_vals = [complex(v) for _, vals in per_block for v in vals]
    points, labels = _cluster_complex(all_vals, ctol)
    sig = a.signature
    sums = [[np.zeros((n, n), dtype=complex) for n in sig] for _ in points]
    mults = [0] * len(points)
    flat = 0
    for k, (basis, vals) in enumerate(per_block):
        for col in range(len(vals)):
            label = labels[flat]
            flat += 1
            vec = basis[:, col : col + 1]
            sums[label][k] = sums[label][k] + vec @ vec.conj().T
            mults[label] += 1
    atoms = {}
    for i, p in enumerate(points):
        blocks = [0.5 * (m + m.conj().T) for m in sums[i]]
        atoms[p] = Projection(AlgebraElement(blocks), t)
    spectrum = Spectrum(points=tuple(points), multiplicities=tuple(mults))
    return SpectralMeasure(domain_spectrum=spectrum, atoms=MappingProxyType(atoms))


@dataclass(frozen=True)
class SpectralResiduals:
    """The spectral reconstruction as a named residual, with the accept rule.

    residuals maps the fixed name reconstruction (a = integral of z dm(z))
    to ||integrate(identity, m) - a|| / (1 + ||a||) in block operator norm;
    accepted holds when it is at most SPECTRAL_RESIDUAL_TOL.
    """

    residuals: dict[str, float]
    accepted: bool


def spectral_residuals(
    a: AlgebraElement, m: SpectralMeasure, tol: ToleranceConfig | None = None
) -> SpectralResiduals:
    """Residual of the reconstruction of a from its spectral measure m."""
    t = _tol(tol)
    ident = SpectralFunction.identity(m.domain_spectrum)
    recon = operator_norm(integrate(ident, m) - a, t) / (1.0 + operator_norm(a, t))
    return SpectralResiduals(
        residuals={"reconstruction": recon}, accepted=recon <= SPECTRAL_RESIDUAL_TOL
    )


def spectrum_of(a: AlgebraElement, tol: ToleranceConfig | None = None) -> Spectrum:
    """Clustered spectrum of a normal element."""
    return spectral_measure(a, tol).domain_spectrum


def measure_of(m: SpectralMeasure, subset: BorelSubset | Iterable[complex]) -> Projection:
    """Value of the measure on a subset: the sum of its atoms."""
    points = subset.points if isinstance(subset, BorelSubset) else tuple(subset)
    domain = m.domain_spectrum.points
    chosen = set()
    for p in points:
        if p not in m.atoms:
            raise UnknownPoint(f"{p} is not a spectrum point")
        chosen.add(p)
    total = AlgebraElement.zeros(next(iter(m.atoms.values())).element.signature)
    for p in domain:  # fixed summation order keeps results reproducible
        if p in chosen:
            total = total + m.atoms[p].element
    return Projection(total)


def integrate(f: SpectralFunction, m: SpectralMeasure) -> AlgebraElement:
    """Weighted atom sum; the functional calculus applied to f."""
    sig = next(iter(m.atoms.values())).element.signature
    total = AlgebraElement.zeros(sig)
    for p in m.domain_spectrum.points:
        total = total + f(p) * m.atoms[p].element
    return total


def check_regularity(m: SpectralMeasure, tol: ToleranceConfig | None = None) -> bool:
    """Verify the inner/outer approximation identities on a finite discrete
    spectrum by full subset enumeration.

    Every subset is closed and open, so each identity reduces to the lattice
    monotonicity of the measure with attainment at the set itself: per-atom
    positivity plus exact additivity along single-point extensions covers
    every closed-in-open pair by transitivity of the Loewner order. Returns
    True; False indicates an implementation bug, not a mathematical
    possibility.
    """
    t = _tol(tol)
    points = m.domain_spectrum.points
    n_pts = len(points)
    if n_pts > REGULARITY_POINT_LIMIT:
        raise TooManyPoints(
            f"subset enumeration is limited to {REGULARITY_POINT_LIMIT} points"
        )
    for p in points:
        atom = m.atoms[p].element
        eig = eigh_hermitian(atom, t, vectors=False)
        if eig.min_eigenvalue < -t.pos_slack:
            return False
    atom_vecs = np.array(
        [np.concatenate([b.ravel() for b in m.atoms[p].element.blocks]) for p in points]
    )
    length = atom_vecs.shape[1]
    subset_rows = np.zeros((1 << n_pts, length), dtype=complex)
    for mask in range(1, 1 << n_pts):
        low = (mask & -mask).bit_length() - 1
        subset_rows[mask] = subset_rows[mask ^ (1 << low)] + atom_vecs[low]
    # measure_of agreement on a few subsets ties the table to the public op
    probe_masks = {0, (1 << n_pts) - 1, (1 << n_pts) // 2}
    for mask in probe_masks:
        sel = [points[i] for i in range(n_pts) if mask >> i & 1]
        direct = measure_of(m, BorelSubset.of(sel))
        vec = np.concatenate([b.ravel() for b in direct.element.blocks])
        if np.linalg.norm(vec - subset_rows[mask]) > t.pos_slack:
            return False
    # single-point extensions: m(E + {p}) - m(E) = atom(p) within slack
    for i in range(n_pts):
        bit = 1 << i
        masks = np.array([mask for mask in range(1 << n_pts) if not mask & bit])
        resid = subset_rows[masks | bit] - subset_rows[masks] - atom_vecs[i]
        if float(np.abs(resid).max()) > t.pos_slack:
            return False
    return True


def order_convergent_integral(
    f: SpectralFunction,
    m: SpectralMeasure,
    ordering: Sequence[complex],
    tol: ToleranceConfig | None = None,
) -> OrderLimitCertificate:
    """Certificate that the partial atom sums converge in order to the integral.

    The tail rate is computed from the finite remainder norms of the partial
    sums along the given enumeration of the spectrum.
    """
    t = _tol(tol)
    domain = m.domain_spectrum.points
    ordering = tuple(complex(p) for p in ordering)
    if len(ordering) != len(domain) or set(ordering) != set(domain):
        raise IncompleteOrdering("ordering must enumerate the spectrum exactly once")
    limit = integrate(f, m)
    partial = AlgebraElement.zeros(limit.signature)
    seq = []
    for p in ordering:
        partial = partial + f(p) * m.atoms[p].element
        seq.append(partial)
    rate = max(
        (j + 1) * operator_norm(s - limit, t) for j, s in enumerate(seq)
    )
    return build_certificate(seq, limit, rate, t)
