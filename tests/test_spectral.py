"""Spectral measure tests: frozen examples, measure axioms, functional calculus."""

import numpy as np
import pytest

from awkit.core import AlgebraElement, Projection, adjoint, operator_norm
from awkit.errors import IncompleteFunction, NotNormal, UnknownPoint
from awkit.sampling import random_normal_element, random_signature
from awkit.spectral import (
    SpectralFunction,
    SpectralMeasure,
    Spectrum,
    check_regularity,
    integrate,
    is_normal,
    spectral_measure,
    spectral_residuals,
)


def el(*blocks):
    return AlgebraElement([np.array(b, dtype=complex) for b in blocks])


def diag_el(*vals_per_block):
    return AlgebraElement([np.diag(np.array(v, dtype=complex)) for v in vals_per_block])


def test_is_normal_examples():
    rng = np.random.default_rng(2)
    from awkit.sampling import random_unitary

    assert is_normal(random_unitary((3,), rng))
    assert not is_normal(el([[0, 1], [0, 0]]))
    # both products equal 2*identity, by direct expansion
    assert is_normal(el([[1, 1], [-1, 1]]))


def test_spectrum_frozen_examples():
    s = spectral_measure(diag_el([1, 1j, 1j])).domain_spectrum
    got = dict(zip(s.points, s.multiplicities))
    assert len(got) == 2
    near_one = min(s.points, key=lambda p: abs(p - 1))
    near_i = min(s.points, key=lambda p: abs(p - 1j))
    assert abs(near_one - 1) < 1e-12 and got[near_one] == 1
    assert abs(near_i - 1j) < 1e-12 and got[near_i] == 2

    # char poly of [[0,1],[1,0]] gives {-1, 1}
    s = spectral_measure(el([[0, 1], [1, 0]])).domain_spectrum
    assert np.allclose(sorted(p.real for p in s.points), [-1.0, 1.0])

    alpha = 0.7 - 0.2j
    s = spectral_measure(alpha * AlgebraElement.identity((2, 3))).domain_spectrum
    assert len(s.points) == 1
    assert abs(s.points[0] - alpha) < 1e-12
    assert s.multiplicities == (5,)


def test_spectrum_rejects_non_normal():
    with pytest.raises(NotNormal):
        spectral_measure(el([[0, 1], [0, 0]])).domain_spectrum


def test_spectral_measure_frozen_examples():
    m = spectral_measure(diag_el([1j, 1j, 2]))
    pts = {p: m.atoms[p] for p in m.domain_spectrum.points}
    p_i = min(pts, key=lambda p: abs(p - 1j))
    p_2 = min(pts, key=lambda p: abs(p - 2))
    assert np.allclose(pts[p_i].element.blocks[0], np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(pts[p_2].element.blocks[0], np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    # eigenvectors (1, +-1)/sqrt(2), by hand
    m = spectral_measure(el([[0, 1], [1, 0]]))
    for p in m.domain_spectrum.points:
        sign = 1.0 if p.real > 0 else -1.0
        expect = 0.5 * np.array([[1, sign], [sign, 1]])
        assert np.allclose(m.atoms[p].element.blocks[0], expect, atol=1e-12)

    # a projection with both eigenvalues present splits into p and 1 - p
    proj = el([[0.5, 0.5], [0.5, 0.5]])
    m = spectral_measure(proj)
    one_atom = m.atom(min(m.domain_spectrum.points, key=lambda q: abs(q - 1)))
    zero_atom = m.atom(min(m.domain_spectrum.points, key=lambda q: abs(q)))
    assert np.allclose(one_atom.element.blocks[0], proj.blocks[0], atol=1e-12)
    assert np.allclose(
        zero_atom.element.blocks[0], np.eye(2) - proj.blocks[0], atol=1e-12
    )
    with pytest.raises(UnknownPoint):
        m.atom(3.0)


def _measure_of(m, subset):
    """The measure of a set of spectrum points: the sum of their atoms."""
    total = AlgebraElement.zeros(m.atoms[m.domain_spectrum.points[0]].element.signature)
    for p in subset:
        total = total + m.atom(p).element
    return total


def test_measure_of_examples():
    m = spectral_measure(diag_el([2.0, 0.5, 0.0]))
    pts = sorted(m.domain_spectrum.points, key=lambda p: p.real)
    assert _measure_of(m, []) == AlgebraElement.zeros((3,))
    assert operator_norm(_measure_of(m, pts) - AlgebraElement.identity((3,))) <= 1e-12
    small = _measure_of(m, pts[:2])  # {0, 1/2}
    assert np.allclose(small.blocks[0], np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    with pytest.raises(UnknownPoint):
        _measure_of(m, [3.0])


def test_measure_additive_over_disjoint_unions():
    rng = np.random.default_rng(6)
    a = random_normal_element((4,), rng)
    m = spectral_measure(a)
    pts = list(m.domain_spectrum.points)
    left, right = _measure_of(m, pts[:2]), _measure_of(m, pts[2:])
    total = _measure_of(m, pts)
    # disjoint sets carry orthogonal projections whose sum is the union's
    assert operator_norm(left * right) <= 1e-12
    assert operator_norm(total - (left + right)) <= 1e-12
    for part in (left, right, total):
        assert operator_norm(part * part - part) <= 1e-12
    assert operator_norm(total - AlgebraElement.identity((4,))) <= 1e-12


def test_integrate_reconstructs_and_is_multiplicative():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sig = random_signature(rng, max_blocks=2, dims=(1, 5))
        a = random_normal_element(sig, rng)
        m = spectral_measure(a)
        ident = SpectralFunction.identity(m.domain_spectrum)
        assert operator_norm(integrate(ident, m) - a) <= 1e-9 * (1 + operator_norm(a))
        f = SpectralFunction.from_callable(lambda z: z * z - 2.0, m.domain_spectrum)
        g = SpectralFunction.from_callable(lambda z: 1.0 + 0.5j * z, m.domain_spectrum)
        fg = SpectralFunction.from_callable(
            lambda z: (z * z - 2.0) * (1.0 + 0.5j * z), m.domain_spectrum
        )
        lhs = integrate(fg, m)
        rhs = integrate(f, m) * integrate(g, m)
        assert operator_norm(lhs - rhs) <= 1e-9
        conj_f = SpectralFunction.from_callable(
            lambda z: np.conj(z * z - 2.0), m.domain_spectrum
        )
        assert operator_norm(integrate(conj_f, m) - adjoint(integrate(f, m))) <= 1e-9
        ones = SpectralFunction.from_callable(lambda z: 1.0, m.domain_spectrum)
        assert operator_norm(integrate(ones, m) - AlgebraElement.identity(sig)) <= 1e-9


def test_integrate_indicator_equals_measure_of():
    m = spectral_measure(diag_el([2.0, 0.5, 0.0]))
    pts = sorted(m.domain_spectrum.points, key=lambda p: p.real)
    subset = pts[:2]
    chi = SpectralFunction.from_callable(
        lambda z: 1.0 if z in subset else 0.0, m.domain_spectrum
    )
    assert operator_norm(integrate(chi, m) - _measure_of(m, subset)) <= 1e-12


def test_integrate_square_example():
    m = spectral_measure(diag_el([1.0, 2.0]))
    f = SpectralFunction.from_callable(lambda z: z * z, m.domain_spectrum)
    assert np.allclose(integrate(f, m).blocks[0], np.diag([1.0, 4.0]), atol=1e-12)


def test_integrate_rejects_incomplete_function():
    m = spectral_measure(diag_el([1.0, 2.0]))
    partial = SpectralFunction(values={m.domain_spectrum.points[0]: 1.0})
    with pytest.raises(IncompleteFunction):
        integrate(partial, m)


def test_atoms_commute_with_element_and_each_other():
    rng = np.random.default_rng(12)
    a = random_normal_element((5,), rng)
    m = spectral_measure(a)
    atoms = [m.atoms[p].element for p in m.domain_spectrum.points]
    for p in atoms:
        assert operator_norm(p * a - a * p) <= 1e-10 * (1 + operator_norm(a))
        for q in atoms:
            assert operator_norm(p * q - q * p) <= 1e-10


def test_atom_uniqueness_via_lagrange_oracle():
    # independent oracle: the atom at a point equals the Lagrange basis
    # polynomial of the element, computed with plain matrix products
    rng = np.random.default_rng(14)
    for _ in range(8):
        sig = (int(rng.integers(2, 5)),)
        a = random_normal_element(sig, rng, scale=1.0)
        m = spectral_measure(a)
        pts = m.domain_spectrum.points
        gaps = [abs(p - q) for p in pts for q in pts if p != q]
        if gaps and min(gaps) < 0.2:
            continue  # keep the interpolation well conditioned
        one = AlgebraElement.identity(sig)
        for p in pts:
            poly = one
            for q in pts:
                if q != p:
                    poly = poly * (a - q * one) / (p - q)
            assert operator_norm(poly - m.atoms[p].element) <= 1e-8


def test_check_regularity_degenerate_identities():
    assert check_regularity(spectral_measure(diag_el([1.0, 2.0])))
    assert check_regularity(spectral_measure(diag_el([5.0])))  # single atom
    rng = np.random.default_rng(16)
    for _ in range(5):
        a = random_normal_element(random_signature(rng, 2, (1, 5)), rng)
        assert check_regularity(spectral_measure(a))


@pytest.mark.parametrize("n_points", [13, 40])
def test_check_regularity_beyond_twelve_points(n_points):
    # the checks are per atom and per pair, with no subset enumeration to cap
    m = spectral_measure(diag_el(np.arange(n_points, dtype=float)))
    assert len(m.domain_spectrum.points) == n_points
    assert check_regularity(m)


def _tampered(m, atoms):
    """m with its atoms replaced by the given point -> element map."""
    mults = dict(zip(m.domain_spectrum.points, m.domain_spectrum.multiplicities))
    spectrum = Spectrum(tuple(atoms), tuple(mults[p] for p in atoms))
    return SpectralMeasure(spectrum, {p: Projection._of(e) for p, e in atoms.items()})


def test_check_regularity_rejects_tampered_measures():
    m = spectral_measure(diag_el([1.0, 1.0, 2.0, 3.0]))
    one, two, three = sorted(m.domain_spectrum.points, key=lambda p: p.real)
    atoms = {p: m.atoms[p].element for p in (one, two, three)}
    c, s = np.cos(0.4), np.sin(0.4)
    v = el([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
    tampers = {
        "dropped": {one: atoms[one], two: atoms[two]},
        "scaled": {**atoms, two: 2.0 * atoms[two]},
        "duplicated": {**atoms, three: atoms[two]},
        # still a projection, but it overlaps the atom at 2 and the sum is not 1
        "rotated": {**atoms, one: v * atoms[one] * adjoint(v)},
    }
    assert check_regularity(_tampered(m, atoms))
    for name, tampered in tampers.items():
        assert not check_regularity(_tampered(m, tampered)), name


def test_spectral_residuals_name_scaling_and_accept_rule():
    rng = np.random.default_rng(11)
    a = random_normal_element((3, 2), rng)
    m = spectral_measure(a)
    recon = integrate(SpectralFunction.identity(m.domain_spectrum), m)
    check = spectral_residuals(a, m)
    assert set(check.residuals) == {"reconstruction"}
    assert check.residuals["reconstruction"] == operator_norm(recon - a) / (1.0 + operator_norm(a))
    assert check.accepted
    # the same measure read against 2a is off by ||a|| / (1 + 2 ||a||)
    wrong = spectral_residuals(2.0 * a, m)
    norm = operator_norm(a)
    assert wrong.residuals["reconstruction"] == pytest.approx(norm / (1.0 + 2.0 * norm), rel=1e-9)
    assert not wrong.accepted
