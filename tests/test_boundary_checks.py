"""Outside input is checked once, where it enters.

An operand the package forms (a Gram matrix, a real part, a root it has
assembled) goes to the Jacobi solve unchecked, and a projection it
assembles is wrapped by Projection._of without re-certification. These
tests count, for one CLI call each, the self-adjointness checks and the
Projection certifications that remain.
"""

import json

import numpy as np
import pytest

from awkit import cli, core, lattice, order, polar, spectral
from awkit.core import AlgebraElement, Projection
from awkit.sampling import haar_unitary_block, random_element


def _write(path, x):
    path.write_text(json.dumps(cli.element_to_json(x)))
    return str(path)


@pytest.fixture
def counts(monkeypatch):
    """Count core.is_self_adjoint under every name a module imports it by,
    and Projection.__init__."""
    seen = {"is_self_adjoint": 0, "Projection": 0}
    body = core.is_self_adjoint

    def checked(x, tol=None):
        seen["is_self_adjoint"] += 1
        return body(x, tol)

    for module in (core, lattice, order, polar, spectral):
        if hasattr(module, "is_self_adjoint"):
            monkeypatch.setattr(module, "is_self_adjoint", checked)
    init = Projection.__init__

    def certified(self, element, tol=None):
        seen["Projection"] += 1
        init(self, element, tol)

    monkeypatch.setattr(Projection, "__init__", certified)
    return seen


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    assert json.loads(out)["accepted"] is True


def test_certify_checks_nothing_twice(tmp_path, capsys, counts):
    rng = np.random.default_rng(5)
    sig = (2, 1, 2)
    limit = random_element(sig, rng)
    d = tmp_path / "seq"
    d.mkdir()
    for n in range(1, 9):
        bump = random_element(sig, rng)
        _write(d / f"{n:03d}.json", limit + bump * (0.5 / (n * core.operator_norm(bump))))
    _run(capsys, "certify", str(d), "--limit", _write(tmp_path / "limit.json", limit),
         "--rate", "1.0")
    assert counts == {"is_self_adjoint": 0, "Projection": 0}


@pytest.mark.parametrize("method", ["regularized", "direct"])
def test_polar_checks_only_what_reaches_a_public_entry_point(tmp_path, capsys, counts, method):
    # nothing: the ladder reads its u, the direct route inverts the |x| it
    # has assembled, and both routes read the range projections of |x| and
    # |x*| that polar_residuals compares with off the eigensystems they hold
    rng = np.random.default_rng(6)
    x = random_element((3, 2), rng)
    _run(capsys, "polar", _write(tmp_path / "x.json", x), "--method", method)
    assert counts == {"is_self_adjoint": 0, "Projection": 0}


def test_closure_certifies_no_projection(tmp_path, capsys, counts):
    rng = np.random.default_rng(11)
    blocks = []
    for vals in ([1.0, 1.0, 2j, 2j, -1.0], [1.0, 2j, 2j]):
        u = haar_unitary_block(len(vals), rng)
        blocks.append((u * np.array(vals)) @ u.conj().T)
    g = _write(tmp_path / "g.json", AlgebraElement(blocks))
    _run(capsys, "closure", g, "--seed1", "1", "--seed2", "2")
    # each face supremum is a sum of b's minimal projections: no range
    # projection goes through the checked eigensolve
    assert counts == {"is_self_adjoint": 0, "Projection": 0}
