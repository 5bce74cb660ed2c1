"""The CLI contract under bad numbers: every numeric flag of every subcommand,
set to 0, -1, nan, inf and garbage, still gives one strict JSON report; so
do valid tolerances far from the defaults, on which a construction fails its
own postcondition.

Each call must exit 0, 1 or 2 without an escaped exception, print exactly
one line of JSON with no NaN or Infinity on stdout, and start stderr with
``malformed input:`` or ``bad tolerance:`` on exit 2 and ``rejected:`` on
exit 1.
"""

import json

import numpy as np
import pytest

from awkit.cli import element_to_json, main
from awkit.core import AlgebraElement

VALUES = ("0", "-1", "nan", "inf", "abc")

# per subcommand: positional arguments and the flags a valid call passes
BASE = {
    "polar": (("{x}",), {}),
    "cut": (("{x}",), {}),
    "closure": (("{x}",), {"--seed1": "1", "--seed2": "2"}),
    "certify": (("{seq}",), {"--limit": "{limit}", "--rate": "1.0"}),
    "ineq": (("{x}",), {"--n": "1", "--m": "2"}),
    "selftest": ((), {"--trials": "1"}),
}

FLAGS = (
    ("polar", "--nmax"),
    # the shared tolerance flags, once
    ("polar", "--pos-slack"),
    ("polar", "--cluster-tol"),
    ("polar", "--rank-cutoff"),
    ("cut", "--mu"),
    ("closure", "--seed1"),
    ("closure", "--seed2"),
    ("certify", "--rate"),
    ("ineq", "--n"),
    ("ineq", "--m"),
    ("selftest", "--trials"),
    ("selftest", "--seed"),
    ("selftest", "--dims"),
)

PREFIXES = {1: ("rejected:",), 2: ("malformed input:", "bad tolerance:")}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    # normal, invertible and with distinct eigenvalues: every subcommand
    # accepts it with valid flags
    x = AlgebraElement([np.diag([1.0, 2.0j])])
    (d / "x.json").write_text(json.dumps(element_to_json(x)))
    seq = d / "seq"
    seq.mkdir()
    one = AlgebraElement.identity((2,))
    for n in range(1, 4):
        (seq / f"{n:03d}.json").write_text(json.dumps(element_to_json(one * (1.0 / n))))
    (d / "limit.json").write_text(json.dumps(element_to_json(AlgebraElement.zeros((2,)))))
    return {"x": str(d / "x.json"), "seq": str(seq), "limit": str(d / "limit.json")}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("command, flag", FLAGS, ids=[f"{c}{f}" for c, f in FLAGS])
def test_bad_number_gives_one_report(paths, capsys, command, flag, value):
    positional, flags = BASE[command]
    flags = {**flags, flag: value}
    argv = [command, *positional] + [a for kv in flags.items() for a in kv]
    code = main([a.format(**paths) for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    lines = out.splitlines()
    assert len(lines) == 1, out
    doc = json.loads(lines[0], parse_constant=_reject_constant)
    assert doc["command"] == command
    if code:
        assert err.startswith(PREFIXES[code]), err
        assert doc["accepted"] is False


# valid tolerance flags on which a construction fails its own check: each is
# a rejection with one report, never an escaped exception
REJECTIONS = {
    # refining the degenerate eigenspace leaves commutators above 2e-20
    "masa-postcondition": (
        [np.diag([1.0, 1.0, 1.0, 2.0])],
        ("closure", "--seed1", "1", "--seed2", "2", "--pos-slack", "1e-20"),
    ),
    # the two value tuples of b's minimal projections, sqrt(2) apart, cluster
    # into one at a gap of cluster_tol = 1.5; with 1x1 blocks the MASA needs
    # no split, so the closure gets past its containment check
    "minimal-projection-count": (
        [np.array([[1.0]]), np.array([[2.0j]])],
        ("closure", "--seed1", "1", "--seed2", "2", "--rank-cutoff", "0.5", "--cluster-tol", "1.5"),
    ),
    "closure-moved": (
        [np.zeros((2, 2)), np.eye(2)],
        ("closure", "--seed1", "1", "--seed2", "2", "--rank-cutoff", "0.5", "--cluster-tol", "0.9"),
    ),
    # 0.6^2 lies below the cutoff 0.5 of x x*: no singular value is kept
    "cut-no-point-above-cutoff": (
        [np.diag([0.0, 0.6])],
        ("cut", "--rank-cutoff", "0.5", "--cluster-tol", "0.9"),
    ),
}


@pytest.mark.parametrize("blocks, argv", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_failed_postcondition_is_one_rejection(tmp_path, capsys, blocks, argv):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(element_to_json(AlgebraElement(blocks))))
    code = main([argv[0], str(path), *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("rejected:"), err
    (line,) = out.splitlines()
    doc = json.loads(line, parse_constant=_reject_constant)
    assert doc["command"] == argv[0]
    assert doc["accepted"] is False


def _cut_at_slack(tmp_path, capsys, diagonal, slack):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(element_to_json(AlgebraElement([np.diag(diagonal)]))))
    code = main(["cut", str(path), "--pos-slack", slack])
    out, err = capsys.readouterr()
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["accepted"] is True
    return doc


def test_cut_falls_through_when_x_x_star_is_no_projection(tmp_path, capsys):
    # |x*| = diag(2, 1) lies within 0.9 (1 + 2) of a projection, but the cut
    # reads no slack: both singular values lie above mu = 1/2, so p = 1
    doc = _cut_at_slack(tmp_path, capsys, [2.0, 1.0], "0.9")
    assert doc["artifacts"]["p"] == element_to_json(AlgebraElement.identity((2,)))
    assert doc["artifacts"]["mu"] == 0.5


def test_cut_at_a_large_slack_is_the_cut_at_the_default(tmp_path, capsys):
    # |x*| = diag(1, 0.6) lies within 0.3 (1 + 1) of a projection; the cut is
    # a = diag(1, 1/0.6), as at the default slack, where it once returned
    # a = 1 and p = x x*, with cut_identity 0.24
    doc = _cut_at_slack(tmp_path, capsys, [1.0, 0.6], "0.3")
    default = _cut_at_slack(tmp_path, capsys, [1.0, 0.6], "1e-10")
    assert doc["artifacts"]["a"] == default["artifacts"]["a"]
    assert max(doc["residuals"].values()) <= 1e-15


# a matrix entry is exactly two JSON numbers; bools are no numbers, and an
# integer past the float range is none either
MALFORMED_ENTRIES = {
    "object": {"a": 1},
    "three-numbers": [1, 0, 99],
    "bools": [True, False],
    "one-bool": [1.0, False],
    "huge-integer": [10**400, 0],
    "one-number": [1],
    "string": ["1", 0],
}


@pytest.mark.parametrize("entry", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES.keys())
def test_malformed_entry_is_one_malformed_input_report(tmp_path, capsys, entry):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"blocks": [[[[1.0, 0.0], entry], [[0.0, 0.0], [1.0, 0.0]]]]}))
    code = main(["polar", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("malformed input: block is not a matrix of [re, im] pairs"), err
    (line,) = out.splitlines()
    doc = json.loads(line, parse_constant=_reject_constant)
    assert doc["command"] == "polar"
    assert doc["accepted"] is False
    assert doc["error"].startswith("block is not a matrix of [re, im] pairs")
