"""Timing of build_certificate and verify_certificate on 8-term sequences
converging at rate 1/n, by signature, of loading one such sequence's term
directory into one stack per block position, and of the whole `awkit
certify` call (loading the JSON files, building and verifying).

The K sweep times build_certificate and verify_certificate, each alone,
on K block positions of dim 2, and on K/2 positions each of dims 1 and 2,
for K = 2, 8, 32 and 128; ``extra_info["per_position_us"]`` is the median
time divided by K. The positions of one block size share their stacked
steps and their solves, so the cost per position should fall as K grows.

    PYTHONPATH=src python -m pytest tests/bench_order.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from awkit import cli
from awkit.core import operator_norm
from awkit.order import build_certificate, verify_certificate
from awkit.sampling import random_element


SIGNATURES = [(2,), (1, 2, 2, 1, 2, 1), (8, 8)]


def _sequence(sig):
    rng = np.random.default_rng(len(sig))
    limit = random_element(sig, rng)
    seq = []
    for n in range(1, 9):
        bump = random_element(sig, rng)
        seq.append(limit + bump * (rng.uniform(0.2, 0.9) / (n * operator_norm(bump))))
    return seq, limit


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_build_certificate(benchmark, sig):
    seq, limit = _sequence(sig)
    cert = benchmark(build_certificate, seq, limit, 1.0)
    assert len(cert.envelope.eps) == 8


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_verify_certificate(benchmark, sig):
    seq, limit = _sequence(sig)
    cert = build_certificate(seq, limit, 1.0)
    report = benchmark(verify_certificate, cert)
    assert report.accepted


SWEEP = [sig for k in (2, 8, 32, 128) for sig in ((2,) * k, (1, 2) * (k // 2))]


@pytest.mark.parametrize(
    "sig", SWEEP, ids=lambda sig: f"K{len(sig)}-dims{''.join(map(str, sorted(set(sig))))}"
)
@pytest.mark.parametrize("step", ["build", "verify"])
def test_certificate_per_block_position(benchmark, step, sig):
    seq, limit = _sequence(sig)
    if step == "build":
        benchmark(build_certificate, seq, limit, 1.0)
    else:
        assert benchmark(verify_certificate, build_certificate(seq, limit, 1.0)).accepted
    if benchmark.stats:
        benchmark.extra_info["per_position_us"] = benchmark.stats.stats.median / len(sig) * 1e6


def _write_sequence(tmp_path, sig):
    """The term directory and the limit file of an 8-term sequence over sig."""
    seq, limit = _sequence(sig)
    terms = tmp_path / "terms"
    terms.mkdir()
    for j, a in enumerate(seq):
        (terms / f"{j:03d}.json").write_text(json.dumps(cli.element_to_json(a)))
    path = tmp_path / "limit.json"
    path.write_text(json.dumps(cli.element_to_json(limit)))
    return seq, terms, path


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_load_term_directory(benchmark, tmp_path, sig):
    # the term load of `awkit certify`: each file's structure, then one
    # np.array call and one seal per block position
    seq, terms, _ = _write_sequence(tmp_path, sig)
    files = [str(p) for p in sorted(terms.iterdir())]

    def load():
        return cli._sealed([cli._checked_blocks(cli._read_json(p)) for p in files])

    loaded = benchmark(load)
    assert loaded == seq


def test_certify_call(benchmark, tmp_path):
    _, terms, path = _write_sequence(tmp_path, (1, 2, 2, 1, 2, 1))
    argv = ["certify", str(terms), "--limit", str(path), "--rate", "1.0"]

    def certify():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        return code, out.getvalue()

    code, report = benchmark(certify)
    assert code == 0
    assert json.loads(report)["artifacts"]["terms"] == 8
