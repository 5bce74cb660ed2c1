"""check_regularity by the measure axioms against the subset table it replaced.

``_reference_check_regularity`` is the earlier body of
``awkit.spectral.check_regularity``, kept verbatim as a named oracle. It
checked per-atom positivity by eigensolve and finite additivity on a 2^n
table of subset sums, and raised TooManyPoints (kept here as a local copy)
above 12 points. Its probe of the table against the removed ``measure_of``
on three subsets is dropped; the table and the single-point checks stay.
Its per-atom solve, ``_eigh_blocks(..., vectors=False)``, now reads the
least eigenvalue off ``core._extremes``, with the same bits. On a finite discrete spectrum both regularity identities
hold exactly when the atoms are pairwise orthogonal projections summing to
1, which is what check_regularity now accepts. On normal elements with at
most 12 spectrum points both must give the same verdict.

``_reference_worst_defect`` is the inline loop the spectral-measure
self-test ran before ``measure_residuals`` took its place; the largest named
defect must equal its worst value bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit.core import (
    AlgebraElement,
    Projection,
    ToleranceConfig,
    _extremes,
    _tol,
    adjoint,
    frobenius_norm,
)
from awkit.errors import AlgebraError
from awkit.sampling import haar_unitary_block
from awkit.spectral import (
    SpectralMeasure,
    check_regularity,
    measure_residuals,
    spectral_measure,
)

# --- the earlier bodies, verbatim -----------------------------------------------

REGULARITY_POINT_LIMIT = 12


class TooManyPoints(AlgebraError):
    """Subset enumeration is limited to small spectra and few minimal projections."""



def _reference_check_regularity(m, tol=None):
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
        lo, _ = _extremes(m.atoms[p].element.blocks)
        if lo < -t.pos_slack:
            return False
    atom_vecs = np.array(
        [np.concatenate([b.ravel() for b in m.atoms[p].element.blocks]) for p in points]
    )
    length = atom_vecs.shape[1]
    subset_rows = np.zeros((1 << n_pts, length), dtype=complex)
    for mask in range(1, 1 << n_pts):
        low = (mask & -mask).bit_length() - 1
        subset_rows[mask] = subset_rows[mask ^ (1 << low)] + atom_vecs[low]
    # single-point extensions: m(E + {p}) - m(E) = atom(p) within slack
    for i in range(n_pts):
        bit = 1 << i
        masks = np.array([mask for mask in range(1 << n_pts) if not mask & bit])
        resid = subset_rows[masks | bit] - subset_rows[masks] - atom_vecs[i]
        if float(np.abs(resid).max()) > t.pos_slack:
            return False
    return True


def _reference_worst_defect(m, sig):
    worst = 0.0
    atoms = [m.atoms[p].element for p in m.domain_spectrum.points]
    total = AlgebraElement.zeros(sig)
    for i, p in enumerate(atoms):
        worst = max(worst, frobenius_norm(p * p - p))
        worst = max(worst, frobenius_norm(p - adjoint(p)))
        for q in atoms[i + 1 :]:
            worst = max(worst, frobenius_norm(p * q))
        total = total + p
    worst = max(worst, frobenius_norm(total - AlgebraElement.identity(sig)))
    return worst


# --- draws ----------------------------------------------------------------------

POOL = (1.0, -0.5, 2j, 0.7 - 0.7j)


@st.composite
def normal_element(draw, max_points):
    """U diag(lambda) U* per block; each lambda is a pool point (so spectra
    are degenerate) or a fresh Gaussian point, at most max_points in all."""
    n_blocks = draw(st.integers(1, 3))
    dims = [draw(st.integers(1, max_points // n_blocks)) for _ in range(n_blocks)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for n in dims:
        vals = np.array(
            [
                POOL[k] if k < len(POOL) else complex(*rng.standard_normal(2))
                for k in (draw(st.integers(0, 2 * len(POOL) - 1)) for _ in range(n))
            ]
        )
        u = haar_unitary_block(n, rng)
        blocks.append((u * vals) @ u.conj().T)
    return AlgebraElement(blocks)


@settings(max_examples=80)
@given(a=normal_element(REGULARITY_POINT_LIMIT), slack=st.sampled_from([None, 1e-12]))
def test_same_verdict_as_subset_table(a, slack):
    tol = None if slack is None else ToleranceConfig(pos_slack=slack)
    m = spectral_measure(a, tol)
    assert len(m.domain_spectrum.points) <= REGULARITY_POINT_LIMIT
    assert check_regularity(m, tol) == _reference_check_regularity(m, tol)


def _scaled_atom(m):
    """m with its first atom doubled, so idempotency and completeness read
    order one."""
    first = m.domain_spectrum.points[0]
    atoms = dict(m.atoms)
    atoms[first] = Projection._of(2.0 * atoms[first].element)
    return SpectralMeasure(m.domain_spectrum, atoms)


@settings(max_examples=80)
@given(a=normal_element(16))
def test_measure_residuals_match_the_inline_loop_bit_for_bit(a):
    m = spectral_measure(a)
    for measure in (m, _scaled_atom(m)):
        defects = measure_residuals(measure)
        assert list(defects) == [
            "idempotency",
            "self_adjointness",
            "orthogonality",
            "completeness",
        ]
        assert max(defects.values()) == _reference_worst_defect(measure, a.signature)
