"""Timing of verify_certificate on built 8-term certificates, by signature.

    PYTHONPATH=src python -m pytest tests/bench_order.py --benchmark-only

Needs pytest-benchmark. The file name does not match test_*.py, so the
default test run does not collect it.
"""

import numpy as np
import pytest

from awkit.core import operator_norm
from awkit.order import build_certificate, verify_certificate
from awkit.sampling import random_element


@pytest.mark.parametrize("sig", [(2,), (1, 2, 2, 1, 2, 1), (8, 8)], ids=str)
def test_verify_certificate(benchmark, sig):
    rng = np.random.default_rng(len(sig))
    limit = random_element(sig, rng)
    seq = []
    for n in range(1, 9):
        bump = random_element(sig, rng)
        seq.append(limit + bump * (rng.uniform(0.2, 0.9) / (n * operator_norm(bump))))
    cert = build_certificate(seq, limit, 1.0)
    report = benchmark(verify_certificate, cert)
    assert report.accepted
