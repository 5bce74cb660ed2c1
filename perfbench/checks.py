"""Self-checks of the benchmark itself. Run with

    python3 -m pytest -q perfbench/checks.py

The file is not named test_*.py, so the repository's own test suite does not
collect it: these checks cover the benchmark, not the program.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import awkit  # noqa: E402
import awkit.cli as cli  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_inputs, classify, digest  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Seed-1 cases of every workload, keyed by workload name."""
    root = tmp_path_factory.mktemp("inputs")
    return {name: build_inputs(w, 1, root / name)[0] for name, w in WORKLOADS.items()}


def first(cases, kind, exit_code=0):
    return next(c for c in cases if c.kind == kind and c.truth["exit"] == exit_code)


def outcome(case):
    code, report = run.call(cli, case.argv)[:2]
    return code, report, classify(case, code, report)


def test_generator_is_seeded_and_layout_is_fixed(tmp_path):
    w = WORKLOADS["polar-ladder"]
    a, _ = build_inputs(w, 5, tmp_path / "a")
    b, _ = build_inputs(w, 5, tmp_path / "b")
    c, _ = build_inputs(w, 6, tmp_path / "c")
    assert digest(tmp_path / "a" / "timed") == digest(tmp_path / "b" / "timed")
    assert digest(tmp_path / "a" / "timed") != digest(tmp_path / "c" / "timed")
    assert [[u.shape for u in x.truth["u"]] for x in a] == [[u.shape for u in x.truth["u"]] for x in c]


def test_correct_reports_pass(inputs):
    for name in ("certify-small", "normal-lattice"):
        for case in inputs[name][:8]:
            assert outcome(case)[2][1], case.argv


def test_negated_u_is_flagged(inputs):
    case = first(inputs["polar-ladder"], "polar")
    code, report, (kind, ok) = outcome(case)
    assert (code, kind, ok) == (0, "accepted", True)
    doc = json.loads(report)
    for block in doc["artifacts"]["u"]["blocks"]:
        for row in block:
            for entry in row:
                entry[0], entry[1] = -entry[0], -entry[1]
    assert classify(case, 0, json.dumps(doc)) == ("wrong", False)


def test_multiplicity_off_by_one_is_flagged(inputs):
    case = first(inputs["normal-lattice"], "spectral")
    code, report, (kind, ok) = outcome(case)
    assert (code, kind, ok) == (0, "accepted", True)
    doc = json.loads(report)
    doc["artifacts"]["spectrum"][0]["multiplicity"] += 1
    assert classify(case, 0, json.dumps(doc)) == ("wrong", False)


def test_flipped_certify_outcome_is_flagged(inputs):
    cases = inputs["certify-small"]
    for expected in (0, 1):
        case = first(cases, "certify", expected)
        code, report, (_, ok) = outcome(case)
        assert code == expected and ok
        truth = {"exit": 1 - expected, "violation_index": 5, "envelope": [0.0] * 8}
        assert classify(replace(case, truth=truth), code, report)[1] is False


def test_closure_dimension_is_checked(inputs):
    case = first(inputs["normal-lattice"], "closure")
    code, report, (_, ok) = outcome(case)
    assert code == 0 and ok
    wrong = replace(case, truth={"exit": 0, "closure_dim": case.truth["closure_dim"] + 1})
    assert classify(wrong, code, report) == ("wrong", False)


def bindings():
    """Every awkit module and class attribute, by identity."""
    found = {}
    for name, module in sys.modules.items():
        if name == "awkit" or name.startswith("awkit."):
            for key, value in vars(module).items():
                found[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("awkit"):
                    for attr, raw in vars(value).items():
                        found[(name, key, attr)] = raw
    return found


def test_traced_reports_are_byte_identical_and_tracer_restores(inputs):
    before = bindings()
    cases = [first(inputs["polar-ladder"], "polar"), first(inputs["certify-small"], "certify", 1),
             first(inputs["normal-lattice"], "spectral"), first(inputs["normal-lattice"], "closure")]
    plain = [run.call(cli, c.argv)[:2] for c in cases]
    tracer = Tracer()
    with tracer:
        assert awkit.core.eigh_hermitian is not before[("awkit.core", "eigh_hermitian")]
        assert awkit.polar.operator_norm is awkit.core.operator_norm  # every copy patched
        traced = [run.call(cli, c.argv)[:2] for c in cases]
    assert traced == plain
    assert bindings() == before
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "core.eigh_hermitian", "core.AlgebraElement.__init__",
            "lattice.Subalgebra.from_generators", "core.HermitianEigenSystem.assemble"} <= names


def test_per_layer_counts_repeat_exactly(inputs):
    cases = inputs["normal-lattice"][:6]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            run.run_ops(cli, cases, tracer=tracer)
        layer = tracer.per_layer(len(cases))
        counts.append({k: v for k, v in layer.items() if not k.endswith("_ms") and "self_ms" not in k})
    assert counts[0] == counts[1]
    assert all(counts[0][f"{name}.calls"] > 0 for name in ("cli.main", "lattice.minimal_projections"))


def test_declined_valid_input_lowers_ok_frac_but_is_not_failed(inputs):
    polar = first(inputs["polar-ladder"], "polar")
    violating = first(inputs["certify-small"], "certify", 1)
    declined = json.dumps({"accepted": False, "error": "verify_polar failed"})
    wrong_index = json.dumps({"accepted": False, "error": "envelope violated at index 4 "})
    ops = [run.Op(polar, 1, declined, 0.0), run.Op(violating, 1, wrong_index, 0.0)]
    counts, disagree, failed = run.outcome_counts(ops)
    assert counts["rejected"] == 2 and disagree == 2 and failed == 1


def test_reference_mean_is_local():
    at, seconds = [0.0, 1.0, 2.0, 5.0], [1.0, 2.0, 3.0, 4.0]
    got = reference.local_mean(at, seconds, [0.0, 1.5, 3.6, 10.0]).tolist()
    assert got == [1.0, 2.5, 4.0, 4.0]  # the last two windows are empty
