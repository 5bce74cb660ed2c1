"""Spectral decomposition of normal elements.

A normal element is split into commuting self-adjoint parts h + i k, the
parts are diagonalized simultaneously, and the joint eigenvectors are
merged into atoms by their complex eigenvalues. The atoms are those of the
algebra the element generates: core._joint_atoms on the family [a], the
routine minimal_projections reads the minimal projections of a commutative
subalgebra off, so the decomposition lies inside that algebra. Each
spectrum point carries its atom; the atom map is a finitely additive
projection-valued measure whose weighted sum reconstructs the element. On a
finite discrete spectrum every subset is both closed and open, so inner and
outer regularity reduce to the measure axioms: the atoms are pairwise
orthogonal projections summing to 1. measure_residuals names their defects,
and check_regularity accepts them.

The paper's third claim, that a spectral decomposition exists whether or
not the AW*-algebra is normal, has no finite-dimensional counterexample to
check: every finite-dimensional AW*-algebra is monotone complete, hence
normal.
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
    _joint_atoms,
    _tol,
    adjoint,
    frobenius_norm,
    is_normal,
    operator_norm,
)
from .errors import (
    IncompleteFunction,
    IncompleteOrdering,
    NotNormal,
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
    "measure_residuals",
    "check_regularity",
    "order_convergent_integral",
    "SpectralResiduals",
    "spectral_residuals",
    "SPECTRAL_RESIDUAL_TOL",
]

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


def spectral_measure(
    a: AlgebraElement, tol: ToleranceConfig | None = None
) -> SpectralMeasure:
    """Projection-valued measure of a normal element.

    Its atoms are the atoms of the family [a], the minimal projections of
    the algebra a generates; each point is the mean of its atom's
    eigenvalues, its multiplicity the atom's rank. Their weighted sum
    reconstructs the element.
    """
    t = _tol(tol)
    if not is_normal(a, t):
        raise NotNormal("spectral decomposition needs a normal element")
    found = []
    for values, atom in _joint_atoms([a], t):
        z = [complex(v) for v in values[:, 0]]
        found.append((sum(z) / len(z), len(z), atom))
    found.sort(key=lambda f: (f[0].real, f[0].imag))
    spectrum = Spectrum(
        points=tuple(p for p, _, _ in found), multiplicities=tuple(m for _, m, _ in found)
    )
    atoms = MappingProxyType({p: atom for p, _, atom in found})
    return SpectralMeasure(domain_spectrum=spectrum, atoms=atoms)


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


def measure_residuals(m: SpectralMeasure) -> dict[str, float]:
    """Frobenius defects of the measure axioms, each the largest over the
    atoms p, q in domain order: idempotency ||p p - p||, self_adjointness
    ||p - p*||, orthogonality ||p q|| over pairs p before q, and
    completeness ||sum p - 1||, summed from zero in domain order."""
    atoms = [m.atoms[p].element for p in m.domain_spectrum.points]
    sig = atoms[0].signature
    idem = adj = orth = 0.0
    total = AlgebraElement.zeros(sig)
    for i, p in enumerate(atoms):
        idem = max(idem, frobenius_norm(p * p - p))
        adj = max(adj, frobenius_norm(p - adjoint(p)))
        for q in atoms[i + 1 :]:
            orth = max(orth, frobenius_norm(p * q))
        total = total + p
    return {
        "idempotency": idem,
        "self_adjointness": adj,
        "orthogonality": orth,
        "completeness": frobenius_norm(total - AlgebraElement.identity(sig)),
    }


def check_regularity(m: SpectralMeasure, tol: ToleranceConfig | None = None) -> bool:
    """Inner and outer regularity of m on its finite discrete spectrum.

    Every subset is closed and open, so both identities hold exactly when
    m is a projection-valued measure: its atoms are pairwise orthogonal
    projections summing to 1, which makes m finitely additive and monotone.
    Accepts when every defect of measure_residuals is at most 2 pos_slack,
    the rule Projection certifies by; an idempotent self-adjoint atom is
    positive, so no eigensolve is needed.
    """
    bound = _tol(tol).pos_slack * 2.0
    return all(v <= bound for v in measure_residuals(m).values())


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
