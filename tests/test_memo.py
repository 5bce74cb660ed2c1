"""Derived data memoized on immutable elements and subalgebras.

An element keeps its operator norm and normality verdict, a subalgebra its
commutativity verdict and minimal projections, each keyed by name and the
resolved ToleranceConfig. These tests pin the key (each
configuration gets its own answer), that exceptions are not cached, how
often one CLI call computes each value, and that the projections
generate_masa stores are the ones the computed route finds.
"""

import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from awkit import cli, core, lattice, polar
from awkit.core import AlgebraElement, ToleranceConfig, is_normal, operator_norm
from awkit.errors import NonConvergence
from awkit.lattice import Subalgebra, generate_masa, minimal_projections
from awkit.sampling import haar_unitary_block, random_element, random_normal_element

LOOSE = ToleranceConfig(pos_slack=1e-6)


def test_is_normal_answers_per_tolerance():
    # [a, a*] has norm 1e-8: above 1e-10 (1 + ||a||^2), below 1e-6 (1 + ||a||^2)
    def fresh():
        return AlgebraElement([[[1.0, 1e-4], [0.0, 1.0]]])

    a = fresh()
    assert is_normal(a) is False
    assert is_normal(a, LOOSE) is True
    assert is_normal(a) is False
    b = fresh()
    assert is_normal(b, LOOSE) is True
    assert is_normal(b, core.DEFAULT_TOL) is False
    assert is_normal(b, LOOSE) is True


def test_is_commutative_answers_per_tolerance():
    # ||ab - ba||_F = sqrt(2) 1e-8: above 2e-10, below 2e-6
    a = AlgebraElement([[[1.0, 0.0], [0.0, 0.0]]])
    b = AlgebraElement([[[0.0, 1e-8], [1e-8, 0.0]]])
    s = Subalgebra((2,), (a, b))
    assert s.is_commutative(LOOSE) is True
    assert s.is_commutative() is False
    assert s.is_commutative(LOOSE) is True
    assert s.is_masa() is False


def test_exceptions_are_not_cached():
    x = random_element((6,), np.random.default_rng(3))
    with mock.patch.object(core, "_MAX_SWEEPS", 1):
        for _ in range(2):
            with pytest.raises(NonConvergence):
                operator_norm(x)
        for _ in range(2):
            with pytest.raises(NonConvergence):
                is_normal(x)
    assert np.isclose(operator_norm(x), np.linalg.norm(x.blocks[0], 2), rtol=1e-12)
    assert is_normal(x) is False


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its first argument."""
    body = getattr(module, name)
    seen = []

    def counted(owner, t):
        seen.append(owner)
        return body(owner, t)

    monkeypatch.setattr(module, name, counted)
    return seen


def _counting_norms(monkeypatch):
    """Replace polar._norms by a wrapper that records the shapes of its stacks."""
    body = polar._norms
    seen = []

    def counted(stacks):
        seen.append([s.shape for s in stacks])
        return body(stacks)

    monkeypatch.setattr(polar, "_norms", counted)
    return seen


def _counting_solves(monkeypatch):
    """Replace core._solve, the one driver of every eigensolve, by a wrapper
    that records its vectors flag per call."""
    body = core._solve
    solves = []

    def counted(stacks, vectors):
        solves.append(vectors)
        return body(stacks, vectors)

    monkeypatch.setattr(core, "_solve", counted)
    return solves


def _degenerate_normal():
    rng = np.random.default_rng(11)
    blocks = []
    for vals in ([1.0, 1.0, 2j, 2j, -1.0], [1.0, 2j, 2j]):
        u = haar_unitary_block(len(vals), rng)
        blocks.append((u * np.array(vals)) @ u.conj().T)
    return AlgebraElement(blocks)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_closure_call_computes_each_value_once(tmp_path, capsys, monkeypatch):
    g = _degenerate_normal()
    f = tmp_path / "g.json"
    f.write_text(json.dumps(cli.element_to_json(g)))
    minimal = _counting(monkeypatch, lattice, "_minimal_projections")
    normal = _counting(monkeypatch, core, "_is_normal")
    commutes = _counting(monkeypatch, Subalgebra, "_commutes")
    build = Subalgebra.from_generators.__func__
    built = []

    def counted_build(cls, generators, tol=None):
        built.append(len(generators))
        return build(cls, generators, tol)

    monkeypatch.setattr(Subalgebra, "from_generators", classmethod(counted_build))
    of_normal = Subalgebra.of_normal.__func__
    made = []

    def counted_of_normal(cls, generator, tol=None):
        made.append(of_normal(cls, generator, tol))
        return made[-1]

    monkeypatch.setattr(Subalgebra, "of_normal", classmethod(counted_of_normal))
    doc = _run(capsys, "closure", str(f), "--seed1", "1", "--seed2", "2")
    assert doc["accepted"] is True
    # b is the span of g's atoms and each closure the span of its 3 face
    # suprema: from_generators builds neither
    assert built == []
    (b,) = made
    # b is stored commutative with its atoms as its minimal projections, and
    # each MASA with its rank-one projections: no subalgebra is decomposed
    # or tested, so none twice, and the closures never need it
    assert minimal == [] and commutes == []
    assert len(minimal_projections(b)) == b.dim == 3 and minimal == []
    assert len(normal) == 1


def test_closure_call_eigensolves(tmp_path, capsys, monkeypatch):
    # counted at the one driver, core._solve, with its vectors flag.
    # Eigenvalues only: one for the input's norm in its normality verdict and
    # one stacked solve of the 3 gaps ||s_i - t_i|| of the pairs of face
    # suprema, which are sums of the MASAs' rank-one projections and take
    # none. In between, with eigenvectors, the 5 compression solves of one
    # joint eigensolve of g, shared by b and both MASAs. principal_angles runs once in each
    # closure's own check against b and once for the two closures, shared by
    # the residuals and the verdict
    f = tmp_path / "g.json"
    f.write_text(json.dumps(cli.element_to_json(_degenerate_normal())))
    solves = _counting_solves(monkeypatch)
    angles = []
    angles_body = lattice.principal_angles

    def counted_angles(s1, s2):
        angles.append((s1, s2))
        return angles_body(s1, s2)

    monkeypatch.setattr(lattice, "principal_angles", counted_angles)
    doc = _run(capsys, "closure", str(f), "--seed1", "1", "--seed2", "2")
    assert doc["artifacts"]["projection_pairs"] == 3
    assert solves == [False] + [True] * 5 + [False]
    assert len(angles) == 3


@pytest.mark.parametrize("method", ["regularized", "direct"])
def test_polar_residuals_reads_the_norm_of_x_from_the_route(tmp_path, capsys, monkeypatch, method):
    # the route solved x*x and memoized ||x|| on x: the verifier's scale
    # 1 + ||x|| takes no eigensolve, and it reads the range projections of
    # |x| and |x*| off the route's result, so its only solve is of the 5
    # defect norms, eigenvalues only: one _norms call on a (5, n, n) stack
    # per block
    rng = np.random.default_rng(6)
    x = AlgebraElement([
        (haar_unitary_block(n, rng) * rng.uniform(0.1, 2.0, n)) @ haar_unitary_block(n, rng)
        for n in (3, 4)
    ])
    f = tmp_path / "x.json"
    f.write_text(json.dumps(cli.element_to_json(x)))
    norms = _counting(monkeypatch, core, "_operator_norm")
    solves = _counting_solves(monkeypatch)
    grams = _counting_norms(monkeypatch)
    residuals_body = polar.polar_residuals
    inside = {}

    def checked(y, result, tol=None):
        norms.clear()
        solves.clear()
        grams.clear()
        check = residuals_body(y, result, tol)
        inside["norms"], inside["solves"] = list(norms), list(solves)
        inside["grams"] = list(grams)
        inside["scale"] = (y, operator_norm(y, tol))
        return check

    monkeypatch.setattr(cli, "polar_residuals", checked)
    doc = _run(capsys, "polar", str(f), "--method", method)
    assert doc["accepted"] is True
    y, norm = inside["scale"]
    assert inside["norms"] == []
    assert inside["solves"] == [False]
    assert inside["grams"] == [[(5, 3, 3), (5, 4, 4)]]
    assert np.isclose(norm, max(np.linalg.norm(b, 2) for b in x.blocks), rtol=1e-12)


def test_verify_polar_solves_each_gram_matrix_once(monkeypatch):
    # counted at the one driver, core._solve, with its vectors flag: its own
    # solves of x*x and x x* give |x|, |x*|, their range projections and
    # ||x||; the one other is of the 5 defect norms, eigenvalues only, in one
    # _norms call on a (5, n, n) stack per block
    rng = np.random.default_rng(6)
    x = random_element((3, 4), rng)
    u = polar.polar_direct(AlgebraElement(x.blocks)).u
    solves = _counting_solves(monkeypatch)
    grams = _counting_norms(monkeypatch)
    assert polar.verify_polar(x, u)
    assert solves == [True, True, False]
    assert grams == [[(5, 3, 3), (5, 4, 4)]]


def test_spectral_call_tests_normality_once(tmp_path, capsys, monkeypatch):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(cli.element_to_json(_degenerate_normal())))
    normal = _counting(monkeypatch, core, "_is_normal")
    norms = _counting(monkeypatch, core, "_operator_norm")
    doc = _run(capsys, "spectral", str(f))
    assert doc["accepted"] is True
    assert len(normal) == 1
    assert max(Counter(map(id, norms)).values()) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stored_masa_projections_match_the_computed_route(seed):
    g = _degenerate_normal()
    d = generate_masa([g], seed)
    stored = minimal_projections(d)
    assert minimal_projections(d) == stored and minimal_projections(d) is not stored
    computed = list(lattice._minimal_projections(d, core.DEFAULT_TOL))
    assert len(stored) == len(computed) == d.dim
    unmatched = list(range(len(computed)))
    for p in stored:
        gaps = [
            max(float(np.abs(a - b).max()) for a, b in zip(p.element.blocks, q.element.blocks))
            for q in (computed[i] for i in unmatched)
        ]
        best = int(np.argmin(gaps))
        assert gaps[best] <= 1e-12
        unmatched.pop(best)
    # sorted the way minimal_projections sorts: block traces, largest first
    keys = [tuple(-float(np.trace(b).real) for b in p.element.blocks) for p in stored]
    assert keys == sorted(keys)


@pytest.mark.parametrize("seed", [2, 8])
def test_masa_whose_rank_one_projections_fail_the_check_stores_nothing(seed):
    # at pos_slack 1e-16 the rank-one projections of these MASAs would miss
    # the Projection idempotency check, which neither route runs on them any
    # more: minimal_projections answers, or raises, as the computed route does
    t = ToleranceConfig(pos_slack=1e-16)
    g = random_normal_element((3,), np.random.default_rng(seed))
    d = generate_masa([g], 0, t)

    def outcome(fn):
        try:
            return len(fn(d, t))
        except ValueError as exc:
            return str(exc)

    assert outcome(minimal_projections) == outcome(lattice._minimal_projections)
