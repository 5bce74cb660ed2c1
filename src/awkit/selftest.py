"""Seeded acceptance suites, shared by the test suite and the CLI self-test.

Each suite draws its own reproducible sample from a numpy Generator seeded
off the caller's seed, measures the worst residual it saw, and passes or
fails against the fixed tolerances below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    AlgebraElement,
    ToleranceConfig,
    _tol,
    adjoint,
    frobenius_norm,
    operator_norm,
    positive_sqrt,
    range_projection,
)
from .errors import BadArgument
from .lattice import Subalgebra, closure_correspondence, generate_masa
from .order import (
    DominatorEnvelope,
    ENVELOPE_MONOTONICITY,
    LOWER_BOUND,
    SUM_DECOMPOSITION,
    TAIL,
    UPPER_BOUND,
    build_certificate,
    limit_calculus_check,
    verify_certificate,
)
from .polar import (
    cut_residuals,
    polar_direct,
    polar_regularized,
    polar_residuals,
    resolvent_gap_inequality,
    spectral_cut,
    verify_polar,
)
from .sampling import (
    element_with_singular_values,
    random_element,
    random_normal_element,
    random_signature,
)
from .spectral import (
    REGULARITY_POINT_LIMIT,
    SpectralFunction,
    check_regularity,
    integrate,
    spectral_measure,
    spectral_residuals,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

RESIDUAL_TOL = 1e-9


@dataclass
class CriterionResult:
    name: str
    passed: bool
    trials: int
    worst_residual: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{mark} {self.name}: {self.trials} trials, worst residual {self.worst_residual:.3e}{extra}"


def _signatures(rng, trials, dims, max_blocks=3):
    return [random_signature(rng, max_blocks=max_blocks, dims=dims) for _ in range(trials)]


def _dim_range(dims, lo_floor=1, hi_cap=None):
    lo = max(dims[0], lo_floor)
    hi = dims[1] if hi_cap is None else min(dims[1], hi_cap)
    return lo, max(hi, lo)


def _gapped_singular_values(rng, sig, lo=0.1, hi=2.0, zero_prob=0.3):
    """Per-block singular values, each 0 or in [lo, hi]; at least one nonzero."""
    svals = [
        np.where(rng.uniform(size=n) < zero_prob, 0.0, rng.uniform(lo, hi, size=n))
        for n in sig
    ]
    if all(not np.any(s > 0) for s in svals):
        svals[0][0] = rng.uniform(lo, hi)
    return svals


def check_polar_reconstruction(trials=200, seed=0, dims=(1, 8), tol=None) -> CriterionResult:
    """Both polar routes pass every polar identity (polar_residuals)."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 101)
    worst = 0.0
    declined = 0
    for sig in _signatures(rng, trials, dims):
        x = random_element(sig, rng)
        for res in (polar_direct(x, t), polar_regularized(x, tol=t)):
            check = polar_residuals(x, res, t)
            worst = max(worst, *check.residuals.values())
            declined += not check.accepted
    return CriterionResult(
        "polar reconstruction",
        worst <= RESIDUAL_TOL and declined == 0,
        trials,
        worst,
        detail=f"{declined}/{2 * trials} declined",
    )


def check_regularization_rate(trials=200, seed=0, dims=(1, 8), tol=None) -> CriterionResult:
    """Ladder gaps obey (1/n)/(1/n + sigma_min) at every index, sigma_min >= 0.1."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 202)
    worst = 0.0
    for sig in _signatures(rng, trials, dims):
        svals = _gapped_singular_values(rng, sig, lo=0.1, hi=2.0)
        sigma_min = min(float(v) for s in svals for v in s if v > 0)
        x = element_with_singular_values(sig, svals, rng)
        res = polar_regularized(x, n_max=2**16, tol=t)
        for n, gap in res.diagnostics:
            bound = (1.0 / n) / (1.0 / n + sigma_min)
            worst = max(worst, gap - bound)
    return CriterionResult("regularized ladder rate", worst <= RESIDUAL_TOL, trials, worst)


def check_polar_uniqueness(trials=100, seed=0, dims=(2, 8), tol=None) -> CriterionResult:
    """The genuine u is accepted; every tampered candidate family is rejected."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 303)
    rejected = accepted = 0
    total_tampered = 0
    lo, hi = _dim_range(dims, lo_floor=2)
    for k in range(trials):
        n = int(rng.integers(lo, hi + 1))
        svals = np.concatenate([[0.0], rng.uniform(0.3, 2.0, size=n - 1)])
        x = element_with_singular_values((n,), [svals], rng)
        u = polar_direct(x, t).u
        if verify_polar(x, u, t):
            accepted += 1
        one = AlgebraElement.identity((n,))
        ker_left = one - range_projection(positive_sqrt(x * adjoint(x), t), t).element
        ker_right = one - range_projection(positive_sqrt(adjoint(x) * x, t), t).element
        w = 0.1 * (ker_left * random_element((n,), rng) * ker_right)
        candidates = [
            u + w,
            -1.0 * u,
            np.exp(1j * rng.uniform(0.3, 5.9)) * u,
        ]
        for cand in candidates:
            total_tampered += 1
            if not verify_polar(x, cand, t):
                rejected += 1
    passed = accepted == trials and rejected == total_tampered
    return CriterionResult(
        "polar uniqueness gate",
        passed,
        trials,
        float(total_tampered - rejected),
        detail=f"{rejected}/{total_tampered} tampered rejected, {accepted}/{trials} genuine accepted",
    )


def check_spectral_measure(trials=200, seed=0, dims=(1, 8), tol=None) -> CriterionResult:
    """Reconstruction, measure axioms, and polynomial multiplicativity."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 404)
    worst = 0.0
    for sig in _signatures(rng, trials, dims):
        a = random_normal_element(sig, rng)
        m = spectral_measure(a, t)
        worst = max(worst, spectral_residuals(a, m, t).residuals["reconstruction"])
        atoms = [m.atoms[p].element for p in m.domain_spectrum.points]
        total = AlgebraElement.zeros(sig)
        for i, p in enumerate(atoms):
            worst = max(worst, frobenius_norm(p * p - p))
            worst = max(worst, frobenius_norm(p - adjoint(p)))
            for q in atoms[i + 1 :]:
                worst = max(worst, frobenius_norm(p * q))
            total = total + p
        worst = max(worst, frobenius_norm(total - AlgebraElement.identity(sig)))
        cf = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cg = rng.standard_normal(4) + 1j * rng.standard_normal(4)

        def poly(c):
            return lambda z: c[0] + c[1] * z + c[2] * z * z + c[3] * z * z * z

        f = SpectralFunction.from_callable(poly(cf), m.domain_spectrum)
        g = SpectralFunction.from_callable(poly(cg), m.domain_spectrum)
        fg = SpectralFunction.from_callable(
            lambda z: poly(cf)(z) * poly(cg)(z), m.domain_spectrum
        )
        mult = operator_norm(integrate(fg, m) - integrate(f, m) * integrate(g, m), t)
        worst = max(worst, mult)
    return CriterionResult("spectral measure axioms", worst <= RESIDUAL_TOL, trials, worst)


def check_measure_regularity(trials=200, seed=0, dims=(1, 8), tol=None) -> CriterionResult:
    """Inner/outer regularity identities by full subset enumeration."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 505)
    checked = 0
    failures = 0
    for _ in range(trials):
        sig = random_signature(rng, max_blocks=3, dims=dims)
        for _ in range(50):
            if sum(sig) <= REGULARITY_POINT_LIMIT:
                break
            sig = random_signature(rng, max_blocks=3, dims=dims)
        else:
            sig = (min(dims[1], REGULARITY_POINT_LIMIT),)
        a = random_normal_element(sig, rng)
        m = spectral_measure(a, t)
        checked += 1
        if not check_regularity(m, t):
            failures += 1
    return CriterionResult(
        "measure regularity degeneracy",
        failures == 0,
        checked,
        float(failures),
        detail=f"{checked} spectra enumerated",
    )


def check_spectral_cut(trials=100, seed=0, dims=(2, 8), tol=None) -> CriterionResult:
    """All three cut branches: p != 0, pairwise commutation, both identities."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 606)
    worst = 0.0
    branches = {"projection": 0, "invertible": 0, "gap": 0}
    lo, hi = _dim_range(dims, lo_floor=2)
    for k in range(trials):
        n = int(rng.integers(lo, hi + 1))
        kind = ("projection", "invertible", "gap")[k % 3]
        if kind == "projection":
            svals = np.concatenate([[1.0], (rng.uniform(size=n - 1) < 0.5).astype(float)])
        elif kind == "invertible":
            svals = rng.uniform(0.5, 2.0, size=n)
        else:
            svals = np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=n - 1)])
        branches[kind] += 1
        x = element_with_singular_values((n,), [svals], rng)
        check = cut_residuals(x, spectral_cut(x, tol=t), t)
        if not check.nonzero:
            worst = max(worst, 1.0)  # p must not vanish
        worst = max(worst, *check.residuals.values())
    passed = worst <= RESIDUAL_TOL and all(v > 0 for v in branches.values())
    return CriterionResult(
        "spectral cut branches",
        passed,
        trials,
        worst,
        detail=", ".join(f"{k}:{v}" for k, v in branches.items()),
    )


def _degenerate_normal_generator(sig, rng):
    """Normal element with deliberately repeated (complex) eigenvalues."""
    from .sampling import haar_unitary_block

    pool = np.array([1.0 + 0.0j, 1.0 + 1.0j, -0.5 + 0.5j])
    blocks = []
    for n in sig:
        u = haar_unitary_block(n, rng)
        vals = pool[rng.integers(0, len(pool), size=n)]
        if n >= 2 and len(set(vals.tolist())) == n:
            vals[1] = vals[0]  # force at least one degenerate eigenspace
        blocks.append((u * vals) @ u.conj().T)
    return AlgebraElement(blocks)


def check_closure_agreement(trials=50, seed=0, dims=(2, 5), tol=None) -> CriterionResult:
    """Closures inside two refinements agree and the correspondence is the
    identity on projections and preserves products."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 707)
    worst = 0.0
    for k in range(trials):
        sig = random_signature(rng, max_blocks=2, dims=_dim_range(dims, lo_floor=2, hi_cap=5))
        g = _degenerate_normal_generator(sig, rng)
        b = Subalgebra.from_generators([g], t)
        d1 = generate_masa([g], seed + 2 * k + 1, t)
        d2 = generate_masa([g], seed + 2 * k + 2, t)
        corr = closure_correspondence(b, d1, d2, t)
        worst = max(worst, corr.delta)
        if not corr.accepted:
            worst = max(worst, *corr.residuals.values())
        lookup = [(p.element, q.element) for p, q in corr.pairs]
        # product preservation through the pairing
        for p1, q1 in lookup:
            for p2, q2 in lookup:
                prod = p1 * p2
                partner = next(
                    (qq for pp, qq in lookup if frobenius_norm(pp - prod) <= 1e-6),
                    None,
                )
                if partner is None:
                    worst = max(worst, 1.0)
                else:
                    worst = max(worst, operator_norm(partner - q1 * q2, t))
    return CriterionResult("monotone closure agreement", worst <= RESIDUAL_TOL, trials, worst)


def check_order_calculus(trials=100, violations=20, seed=0, dims=(1, 4), tol=None) -> CriterionResult:
    """Builder round-trips, tamper rejection with correct tags, limit calculus."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 808)
    worst = 0.0
    ok = True
    detail = []
    for k in range(trials):
        sig = random_signature(rng, max_blocks=2, dims=dims)
        limit = random_element(sig, rng)
        n_terms = int(rng.integers(4, 9))
        seq = []
        for n in range(1, n_terms + 1):
            bump = random_element(sig, rng)
            bump = bump * ((rng.uniform(0.5, 1.0) / n) / operator_norm(bump, t))
            seq.append(limit + bump)
        cert = build_certificate(seq, limit, 1.0, t)
        report = verify_certificate(cert, t)
        worst = max(worst, report.worst_residual)
        ok = ok and report.accepted
        if k % 10 == 0:
            q = adjoint(seq[0] - limit) * (seq[0] - limit)
            cert2 = build_certificate([s + q for s in seq], limit + q, 1.0, t)
            x, y = random_element(sig, rng), random_element(sig, rng)
            calc = limit_calculus_check(cert, cert2, x, y, t)
            worst = max(worst, calc.worst_residual)
            ok = ok and calc.accepted

    tags = (LOWER_BOUND, UPPER_BOUND, SUM_DECOMPOSITION, ENVELOPE_MONOTONICITY, TAIL)
    correct_tags = 0
    for v in range(violations):
        sig = (2,)
        one = AlgebraElement.identity(sig)
        seq = [one * (1.0 / n) for n in range(1, 6)]
        cert = build_certificate(seq, AlgebraElement.zeros(sig), 1.0, t)
        tag = tags[v % len(tags)]
        if tag in (LOWER_BOUND, UPPER_BOUND):
            sign = -3.0 if tag == LOWER_BOUND else 3.0
            comps = [list(s) for s in cert.components]
            comps[3][1] = comps[3][1] + sign * cert.envelope.eps[1] * one
            bad = replace(cert, components=tuple(tuple(s) for s in comps))
        elif tag == SUM_DECOMPOSITION:
            terms = list(cert.terms)
            terms[2] = terms[2] + 0.4 * one
            bad = replace(cert, terms=tuple(terms))
        elif tag == ENVELOPE_MONOTONICITY:
            eps = list(cert.envelope.eps)
            eps[2] = eps[1] + 0.2
            bad = replace(
                cert, envelope=DominatorEnvelope(tuple(eps), cert.envelope.tail_rate)
            )
        else:
            bad = replace(
                cert,
                envelope=DominatorEnvelope(
                    cert.envelope.eps, cert.envelope.eps[-1] * cert.indices[-1] / 2.0
                ),
            )
        report = verify_certificate(bad, t)
        if not report.accepted and report.failing_condition == tag:
            correct_tags += 1
    ok = ok and correct_tags == violations
    detail.append(f"{correct_tags}/{violations} violations tagged correctly")
    return CriterionResult(
        "order convergence calculus",
        ok and worst <= RESIDUAL_TOL,
        trials,
        worst,
        detail="; ".join(detail),
    )


def check_gap_inequality(trials=100, seed=0, dims=(1, 8), tol=None) -> CriterionResult:
    """Squared resolvent-gap bound holds in the Loewner order."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 909)
    failures = 0
    for sig in _signatures(rng, trials, dims, max_blocks=2):
        x = random_element(sig, rng)
        n = int(rng.integers(1, 64))
        m = int(rng.integers(n + 1, 65))
        if not resolvent_gap_inequality(x, n, m, t):
            failures += 1
    return CriterionResult(
        "resolvent gap inequality", failures == 0, trials, float(failures)
    )


def check_blockwise_reduction(trials=50, seed=0, dims=(1, 6), tol=None) -> CriterionResult:
    """Whole-algebra polar equals blockwise polar bit for bit."""
    t = _tol(tol)
    rng = np.random.default_rng(seed + 1010)
    mismatches = 0
    for _ in range(trials):
        sig = random_signature(rng, max_blocks=3, dims=dims)
        if len(sig) == 1:
            sig = sig + (int(rng.integers(dims[0], dims[1] + 1)),)
        x = random_element(sig, rng)
        whole_d = polar_direct(x, t)
        whole_r = polar_regularized(x, tol=t)
        for k in range(len(sig)):
            single = AlgebraElement([x.blocks[k]])
            part_d = polar_direct(single, t)
            part_r = polar_regularized(single, tol=t)
            same = (
                np.array_equal(whole_d.u.blocks[k], part_d.u.blocks[0])
                and np.array_equal(whole_d.absx.blocks[k], part_d.absx.blocks[0])
                and np.array_equal(whole_d.absxstar.blocks[k], part_d.absxstar.blocks[0])
                and np.array_equal(whole_r.u.blocks[k], part_r.u.blocks[0])
            )
            if not same:
                mismatches += 1
    return CriterionResult(
        "blockwise polar reduction", mismatches == 0, trials, float(mismatches)
    )


CRITERIA: dict[str, tuple[Callable[..., CriterionResult], int]] = {
    "polar-reconstruction": (check_polar_reconstruction, 200),
    "regularization-rate": (check_regularization_rate, 200),
    "polar-uniqueness": (check_polar_uniqueness, 100),
    "spectral-measure": (check_spectral_measure, 200),
    "measure-regularity": (check_measure_regularity, 200),
    "spectral-cut": (check_spectral_cut, 100),
    "closure-agreement": (check_closure_agreement, 50),
    "order-calculus": (check_order_calculus, 100),
    "gap-inequality": (check_gap_inequality, 100),
    "blockwise-reduction": (check_blockwise_reduction, 50),
}


def run_all(
    trials: int = 200,
    seed: int = 0,
    dims: tuple[int, int] = (1, 8),
    tol: ToleranceConfig | None = None,
) -> list[CriterionResult]:
    """Run every acceptance suite; per-suite counts scale with trials/200.

    The spectral-cut suite runs at least three trials, one per cut branch.
    """
    if trials < 1:
        raise BadArgument("trials must be at least 1")
    results = []
    for fn, nominal in CRITERIA.values():
        count = max(3 if fn is check_spectral_cut else 1, round(nominal * trials / 200))
        if fn is check_order_calculus:
            results.append(
                fn(
                    trials=count,
                    violations=max(5, round(20 * trials / 200)),
                    seed=seed,
                    tol=tol,
                )
            )
        else:
            results.append(fn(trials=count, seed=seed, dims=dims, tol=tol))
    return results
