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
    # the two value tuples of b's minimal projections cluster into one
    "minimal-projection-count": (
        [np.diag([1.0, 2.0j])],
        ("closure", "--seed1", "1", "--seed2", "2", "--rank-cutoff", "0.5", "--cluster-tol", "0.9"),
    ),
    "closure-moved": (
        [np.zeros((2, 2)), np.eye(2)],
        ("closure", "--seed1", "1", "--seed2", "2", "--rank-cutoff", "0.5", "--cluster-tol", "0.9"),
    ),
    # 0 and 0.8 cluster at 0.4, below the cutoff 0.5: no default cut point
    "cut-no-point-above-cutoff": (
        [np.diag([0.0, 0.8])],
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


def test_cut_falls_through_when_x_x_star_is_no_projection(tmp_path, capsys):
    # |x*| = diag(2, 1) passes the relative projection test within 0.9 (1 + 2),
    # x x* = diag(4, 1) fails Projection's 2 pos_slack rule: |x*| is
    # invertible, and the cut is p = 1
    path = tmp_path / "x.json"
    path.write_text(json.dumps(element_to_json(AlgebraElement([np.diag([2.0, 1.0])]))))
    code = main(["cut", str(path), "--pos-slack", "0.9"])
    out, err = capsys.readouterr()
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["accepted"] is True
    assert doc["artifacts"]["p"] == element_to_json(AlgebraElement.identity((2,)))
