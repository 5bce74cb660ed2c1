"""tools/report_digest.py reads one source tree per process, and yields
each exit code as an int."""

import importlib.util
import sys
from pathlib import Path

import pytest

import awkit

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def report_digest(monkeypatch):
    # reports() puts the source tree and perfbench/ on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = ROOT / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_read_one_source_tree_per_process(report_digest, tmp_path):
    src = Path(awkit.__file__).resolve().parents[1]
    calls = report_digest.reports(src, [1])
    seed, argv, code, out, err = next(calls)
    calls.close()
    assert (seed, argv[0]) == (1, "polar")
    assert type(code) is int and code == 0
    assert out and not err
    # awkit is imported from src: another tree would silently rerun it
    with pytest.raises(RuntimeError, match="read one source tree per process"):
        report_digest.reports(tmp_path, [1])
