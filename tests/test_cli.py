"""CLI integration tests: exit codes, JSON round-trips, determinism."""

import json
from dataclasses import fields

import numpy as np
import pytest

from awkit import cli, selftest
from awkit.cli import build_parser, element_from_json, element_to_json, load_matrix_file, main
from awkit.core import AlgebraElement, ToleranceConfig, frobenius_norm
from awkit.lattice import Subalgebra, closure_correspondence, generate_masa
from awkit.polar import (
    cut_residuals,
    polar_direct,
    polar_regularized,
    polar_residuals,
    spectral_cut,
    verify_polar,
)
from awkit.sampling import (
    element_with_singular_values,
    haar_unitary_block,
    random_element,
    random_normal_element,
    random_signature,
)
from awkit.spectral import spectral_measure, spectral_residuals


def write_matrix(path, element):
    path.write_text(json.dumps(element_to_json(element)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def nilpotent_file(tmp_path):
    f = tmp_path / "x.json"
    write_matrix(f, AlgebraElement([[[0, 1], [0, 0]]]))
    return str(f)


def test_matrix_json_roundtrip_exact():
    rng = np.random.default_rng(0)
    x = random_element((2, 3), rng)
    back = element_from_json(json.loads(json.dumps(element_to_json(x))))
    assert frobenius_norm(x - back) <= 1e-15


def test_polar_regularized_subcommand(nilpotent_file, capsys):
    code, out, _ = run_cli(capsys, "polar", nilpotent_file, "--method", "regularized")
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    u = element_from_json(doc["artifacts"]["u"])
    assert np.allclose(u.blocks[0], [[0, 1], [0, 0]], atol=1e-12)
    assert doc["artifacts"]["diagnostics"][0][0] == 1
    assert doc["residuals"]["partial_isometry"] <= 1e-9


def test_polar_direct_subcommand(nilpotent_file, capsys):
    code, out, _ = run_cli(capsys, "polar", nilpotent_file, "--method", "direct")
    assert code == 0
    doc = json.loads(out)
    assert doc["artifacts"]["diagnostics"] == []


POLAR_ROUTES = {"direct": polar_direct, "regularized": polar_regularized}


def _polar_input(kind):
    rng = np.random.default_rng(5)
    if kind == "rank-deficient":
        s = np.concatenate([rng.uniform(0.1, 2.0, size=3), np.zeros(2)])
        return element_with_singular_values((5,), [rng.permutation(s)], rng)
    x = random_element((4, 3), rng)
    return 1e-5 * x if kind == "scaled" else x


@pytest.mark.parametrize("method", sorted(POLAR_ROUTES))
def test_polar_report_reads_shared_residuals(tmp_path, capsys, method):
    f = tmp_path / "x.json"
    write_matrix(f, _polar_input("full-rank"))
    code, out, _ = run_cli(capsys, "polar", str(f), "--method", method)
    x = load_matrix_file(str(f))
    check = polar_residuals(x, POLAR_ROUTES[method](x))
    doc = json.loads(out)
    assert code == 0
    assert doc["residuals"] == check.residuals
    assert doc["accepted"] is check.accepted is True


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "scaled"])
@pytest.mark.parametrize("method", sorted(POLAR_ROUTES))
def test_polar_accepted_matches_verify_polar(tmp_path, capsys, method, kind):
    f = tmp_path / "x.json"
    write_matrix(f, _polar_input(kind))
    code, out, _ = run_cli(capsys, "polar", str(f), "--method", method)
    x = load_matrix_file(str(f))
    expected = verify_polar(x, POLAR_ROUTES[method](x).u)
    assert json.loads(out)["accepted"] is expected
    assert code == (0 if expected else 1)


def test_spectral_rejects_non_normal(nilpotent_file, capsys):
    code, out, err = run_cli(capsys, "spectral", nilpotent_file)
    assert code == 1
    assert "not normal" in err
    doc = json.loads(out)
    assert doc["accepted"] is False


def test_spectral_on_normal_input(tmp_path, capsys):
    f = tmp_path / "a.json"
    write_matrix(f, AlgebraElement([np.diag([2.0, 0.5, 0.5])]))
    code, out, _ = run_cli(capsys, "spectral", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    assert doc["artifacts"]["regularity"] is True
    mults = sorted(entry["multiplicity"] for entry in doc["artifacts"]["spectrum"])
    assert mults == [1, 2]


def test_spectral_report_reads_spectral_residuals(tmp_path, capsys):
    f = tmp_path / "a.json"
    write_matrix(f, random_normal_element((3, 2), np.random.default_rng(4)))
    code, out, _ = run_cli(capsys, "spectral", str(f))
    a = load_matrix_file(str(f))
    check = spectral_residuals(a, spectral_measure(a))
    doc = json.loads(out)
    assert code == 0
    assert doc["residuals"] == check.residuals
    assert doc["accepted"] is check.accepted is True


def test_cut_subcommand(tmp_path, capsys):
    f = tmp_path / "x.json"
    write_matrix(f, AlgebraElement([np.diag([2.0, 0.5, 0.0])]))
    code, out, _ = run_cli(capsys, "cut", str(f), "--mu", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    p = element_from_json(doc["artifacts"]["p"])
    assert np.allclose(p.blocks[0], np.diag([1.0, 0.0, 0.0]), atol=1e-9)
    assert doc["artifacts"]["mu"] == 1.0


@pytest.mark.parametrize("svals", [[1.0, 1.0, 0.0], [0.5, 1.2, 2.0], [0.0, 0.6, 1.7]])
def test_cut_report_reads_cut_residuals(tmp_path, capsys, svals):
    f = tmp_path / "x.json"
    x = element_with_singular_values((3,), [np.array(svals)], np.random.default_rng(33))
    write_matrix(f, x)
    code, out, _ = run_cli(capsys, "cut", str(f))
    x = load_matrix_file(str(f))
    check = cut_residuals(x, spectral_cut(x))
    doc = json.loads(out)
    assert doc["residuals"] == check.residuals
    assert doc["accepted"] is check.accepted is True
    assert code == 0


def test_cut_rejects_bad_mu(tmp_path, capsys):
    f = tmp_path / "x.json"
    write_matrix(f, AlgebraElement([np.diag([2.0, 0.5, 0.0])]))
    code, _, err = run_cli(capsys, "cut", str(f), "--mu", "9.0")
    assert code == 1
    assert "cut point" in err


def test_closure_subcommand(tmp_path, capsys):
    f = tmp_path / "b.json"
    write_matrix(f, AlgebraElement([np.diag([1.0, 1.0, 2.0])]))
    code, out, _ = run_cli(capsys, "closure", str(f), "--seed1", "1", "--seed2", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    assert doc["seed"] == [1, 2]
    assert doc["artifacts"]["closure_dim"] == 2
    assert doc["residuals"]["correspondence_delta"] <= 1e-9
    # no closure basis: the two closures are compared by the residuals
    assert sorted(doc["artifacts"]) == ["closure_dim", "projection_pairs"]
    assert doc["artifacts"]["projection_pairs"] == 2


def test_closure_report_reads_correspondence_residuals(tmp_path, capsys):
    g = AlgebraElement([np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 3.0])])
    f = tmp_path / "g.json"
    write_matrix(f, g)
    code, out, _ = run_cli(capsys, "closure", str(f), "--seed1", "3", "--seed2", "4")
    b = Subalgebra.of_normal(g)
    corr = closure_correspondence(b, generate_masa([g], 3), generate_masa([g], 4))
    doc = json.loads(out)
    assert doc["residuals"] == corr.residuals
    assert doc["accepted"] is corr.accepted is True
    assert code == 0


@pytest.mark.parametrize("d", [3e-10, 1e-9, 5e-9, 9e-9, 2e-8, 1e-7, 1e-6, 1e-5, 1e-4])
def test_closure_agrees_with_spectral_on_near_degenerate_input(tmp_path, capsys, d):
    # U diag(1, 1 + d, 2, -i) U*, U Haar: b = C*(g) is the span of g's
    # spectral atoms, so closure accepts exactly when spectral does, with one
    # dimension per spectrum point. For d from 9e-9 to 2e-8 the eigenvalues
    # near 1 merge into one atom whose point misses both by more than the
    # reconstruction allows, and both reject
    rng = np.random.default_rng(0)
    f = tmp_path / "g.json"
    for _ in range(4):
        u = haar_unitary_block(4, rng)
        write_matrix(f, AlgebraElement([(u * np.array([1.0, 1.0 + d, 2.0, -1j])) @ u.conj().T]))
        spectral_code, out, _ = run_cli(capsys, "spectral", str(f))
        points = len(json.loads(out)["artifacts"]["spectrum"])
        code, out, err = run_cli(capsys, "closure", str(f), "--seed1", "1", "--seed2", "2")
        assert code == spectral_code, err
        if code == 0:
            assert json.loads(out)["artifacts"]["closure_dim"] == points
        else:
            assert err.startswith("rejected: generator does not lie in the span"), err


def test_certify_subcommand(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    one = AlgebraElement.identity((2,))
    for n in range(1, 6):
        write_matrix(d / f"{n:03d}.json", one * (1.0 / n))
    limit = tmp_path / "limit.json"
    write_matrix(limit, AlgebraElement.zeros((2,)))
    code, out, _ = run_cli(
        capsys, "certify", str(d), "--limit", str(limit), "--rate", "1.0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    assert doc["artifacts"]["terms"] == 5
    assert doc["artifacts"]["ordering"] == [f"{n:03d}.json" for n in range(1, 6)]

    # a constant non-null sequence is rejected as a mathematical failure
    bad = tmp_path / "bad"
    bad.mkdir()
    for n in range(1, 6):
        write_matrix(bad / f"{n:03d}.json", one)
    code, _, err = run_cli(
        capsys, "certify", str(bad), "--limit", str(limit), "--rate", "1.0"
    )
    assert code == 1
    assert "over" in err


def test_ineq_subcommand(nilpotent_file, capsys):
    code, out, _ = run_cli(capsys, "ineq", nilpotent_file, "--n", "1", "--m", "3")
    assert code == 0
    assert json.loads(out)["accepted"] is True


def test_malformed_input_exit_two(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, out, err = run_cli(capsys, "polar", str(f))
    assert code == 2
    assert "malformed" in err
    assert json.loads(out)["accepted"] is False

    g = tmp_path / "rect.json"
    g.write_text(json.dumps({"blocks": [[[[1, 0], [0, 0]]]]}))  # 1x2 block
    code, _, _ = run_cli(capsys, "polar", str(g))
    assert code == 2

    code, _, _ = run_cli(capsys, "polar", str(tmp_path / "missing.json"))
    assert code == 2


def test_selftest_subcommand(capsys):
    code, out, err = run_cli(capsys, "selftest", "--trials", "10", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    assert len(doc["artifacts"]) == 10
    assert err.count("PASS") == 10


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("trials", [1, 2, 3, 4, 5])
def test_selftest_small_trial_counts_pass(capsys, trials, seed):
    # the spectral-cut suite keeps one trial per input kind however few are asked for
    code, out, err = run_cli(capsys, "selftest", "--trials", str(trials), "--seed", str(seed))
    assert code == 0, err
    assert "PASS spectral cut input kinds: 3 trials" in err
    assert _one_report(out)["accepted"] is True


def test_report_determinism(nilpotent_file, tmp_path, capsys):
    _, out1, _ = run_cli(capsys, "polar", nilpotent_file)
    _, out2, _ = run_cli(capsys, "polar", nilpotent_file)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "selftest", "--trials", "5", "--seed", "3")
    _, out4, _ = run_cli(capsys, "selftest", "--trials", "5", "--seed", "3")
    assert out3 == out4

    g = tmp_path / "g.json"
    write_matrix(g, AlgebraElement([np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 3.0])]))
    closure = ("closure", str(g), "--seed1", "1", "--seed2", "2")
    d = tmp_path / "seq"
    d.mkdir()
    rng = np.random.default_rng(8)
    limit = random_element((2, 1), rng)
    for n in range(1, 6):
        bump = random_element((2, 1), rng)
        write_matrix(d / f"{n:03d}.json", limit + bump * (0.5 / (n * frobenius_norm(bump))))
    write_matrix(tmp_path / "limit.json", limit)
    certify = ("certify", str(d), "--limit", str(tmp_path / "limit.json"), "--rate", "1.0")
    for argv in (closure, certify):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


def test_tolerance_flags_apply(nilpotent_file, capsys):
    code, out, _ = run_cli(capsys, "polar", nilpotent_file, "--pos-slack", "1e-8")
    assert code == 0
    assert json.loads(out)["tolerances"]["pos_slack"] == 1e-8


def test_tolerance_env_var(nilpotent_file, capsys, monkeypatch):
    monkeypatch.setenv("AWKIT_POS_SLACK", "1e-7")
    code, out, _ = run_cli(capsys, "polar", nilpotent_file)
    assert code == 0
    assert json.loads(out)["tolerances"]["pos_slack"] == 1e-7
    # flags win over the environment
    code, out, _ = run_cli(capsys, "polar", nilpotent_file, "--pos-slack", "1e-8")
    assert json.loads(out)["tolerances"]["pos_slack"] == 1e-8


def test_every_tolerance_field_is_reported_and_settable(nilpotent_file, capsys, monkeypatch):
    # the report lists exactly the ToleranceConfig fields, and each has its
    # flag and its AWKIT_* variable
    names = {f.name for f in fields(ToleranceConfig)}
    code, out, _ = run_cli(capsys, "polar", nilpotent_file)
    assert code == 0
    assert set(json.loads(out)["tolerances"]) == names
    for name in names:
        # half the default keeps cluster_tol above rank_cutoff
        value = 0.5 * getattr(ToleranceConfig(), name)
        flag = "--" + name.replace("_", "-")
        code, out, _ = run_cli(capsys, "polar", nilpotent_file, flag, repr(value))
        assert code == 0
        assert json.loads(out)["tolerances"][name] == value
        with monkeypatch.context() as m:
            m.setenv("AWKIT_" + name.upper(), repr(value))
            code, out, _ = run_cli(capsys, "polar", nilpotent_file)
        assert code == 0
        assert json.loads(out)["tolerances"][name] == value


def test_non_finite_tolerance_exit_two(nilpotent_file, capsys):
    code, out, err = run_cli(capsys, "polar", nilpotent_file, "--pos-slack", "inf")
    assert code == 2
    assert "bad tolerance" in err
    assert json.loads(out)["accepted"] is False


def test_parser_built_once(nilpotent_file, capsys, monkeypatch):
    built = []

    def counting_build():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    code1, out1, _ = run_cli(capsys, "polar", nilpotent_file)
    code2, out2, _ = run_cli(capsys, "polar", nilpotent_file)
    assert len(built) == 1
    assert code1 == code2 == 0
    assert out1 == out2


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def _one_report(out):
    """The only line of stdout, read as strict JSON."""
    lines = out.splitlines()
    assert len(lines) == 1
    return _strict_json(lines[0])


@pytest.mark.parametrize(
    "argv",
    [
        ("polar", "{x}", "--nmax", "0"),
        ("ineq", "{x}", "--n", "0", "--m", "1"),
        ("certify", "{seq}", "--limit", "{limit}", "--rate", "-1"),
        ("certify", "{seq}", "--limit", "{limit}", "--rate", "nan"),
        ("certify", "{seq}", "--limit", "{limit}", "--rate", "inf"),
        ("cut", "{x}", "--mu", "nan"),
        ("cut", "{x}", "--mu", "inf"),
        ("selftest", "--trials", "0"),
        ("selftest", "--trials", "-3"),
    ],
    ids=[
        "nmax-0", "ineq-n-0", "rate-negative", "rate-nan", "rate-inf",
        "mu-nan", "mu-inf", "trials-0", "trials-negative",
    ],
)
def test_bad_numeric_argument_exit_two(tmp_path, nilpotent_file, capsys, argv):
    seq = tmp_path / "seq"
    seq.mkdir()
    one = AlgebraElement.identity((2,))
    for n in range(1, 4):
        write_matrix(seq / f"{n:03d}.json", one * (1.0 / n))
    limit = tmp_path / "limit.json"
    write_matrix(limit, AlgebraElement.zeros((2,)))
    paths = {"x": nilpotent_file, "seq": str(seq), "limit": str(limit)}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("malformed input:")
    doc = _one_report(out)
    assert doc["accepted"] is False
    assert doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("polar", "{x}"),
        ("spectral", "{x}"),
        ("cut", "{x}"),
        ("closure", "{x}", "--seed1", "1", "--seed2", "2"),
        ("certify", "{seq}", "--limit", "{zero}", "--rate", "1.0"),
        ("ineq", "{x}", "--n", "1", "--m", "2"),
    ],
    ids=["polar", "spectral", "cut", "closure", "certify", "ineq"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_input_exit_two(tmp_path, capsys, argv):
    # finite entries whose products overflow: x x* holds 1e600
    big = AlgebraElement([np.diag([1e300, 1.0])])
    x = tmp_path / "x.json"
    write_matrix(x, big)
    seq = tmp_path / "seq"
    seq.mkdir()
    write_matrix(seq / "001.json", big)
    zero = tmp_path / "zero.json"
    write_matrix(zero, AlgebraElement.zeros((2,)))
    paths = {"x": x, "seq": seq, "zero": zero}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("malformed input:") and "non-finite" in err
    doc = _one_report(out)
    assert doc["accepted"] is False
    assert "non-finite" in doc["error"]


def test_closure_over_former_face_limit_is_accepted(tmp_path, capsys):
    # 21 distinct eigenvalues give 21 minimal projections, over the 20 the
    # face enumeration once allowed; the closure takes one supremum each
    g = tmp_path / "g.json"
    write_matrix(g, AlgebraElement([np.diag(np.arange(1.0, 8.0) + 7 * k) for k in range(3)]))
    code, out, err = run_cli(capsys, "closure", str(g), "--seed1", "1", "--seed2", "2")
    assert code == 0, err
    doc = _one_report(out)
    assert doc["accepted"] is True
    assert doc["artifacts"] == {"closure_dim": 21, "projection_pairs": 21}


@pytest.mark.parametrize(
    "argv, command",
    [
        (("ineq", "{x}", "--n", "abc", "--m", "1"), "ineq"),
        (("closure", "{x}", "--seed1", "1"), "closure"),
        (("bogus", "{x}"), None),
        (("closure", "{x}", "--seed1", "-5", "--seed2", "1"), "closure"),
        (("closure", "{x}", "--seed1", "1", "--seed2", "-1"), "closure"),
        (("selftest", "--seed", "-500", "--trials", "1"), "selftest"),
    ],
    ids=[
        "bad-int", "missing-required-flag", "unknown-subcommand",
        "negative-seed1", "negative-seed2", "negative-selftest-seed",
    ],
)
def test_argument_errors_print_one_report(nilpotent_file, capsys, argv, command):
    code, out, err = run_cli(capsys, *(a.format(x=nilpotent_file) for a in argv))
    assert code == 2
    assert err.startswith("malformed input:")
    doc = _one_report(out)
    assert doc["command"] == command
    assert doc["accepted"] is False
    assert doc["error"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ineq", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: awkit ineq")


def test_selftest_dims_reach_the_order_calculus_suite(capsys, monkeypatch):
    seen = []

    def spy(rng, max_blocks=3, dims=(1, 8)):
        seen.append(dims)
        return random_signature(rng, max_blocks=max_blocks, dims=dims)

    only = {"order-calculus": selftest.CRITERIA["order-calculus"]}
    monkeypatch.setattr(selftest, "CRITERIA", only)
    monkeypatch.setattr(selftest, "random_signature", spy)
    code, _, _ = run_cli(capsys, "selftest", "--trials", "1", "--dims", "3..3")
    assert code == 0
    assert seen and set(seen) == {(3, 3)}
