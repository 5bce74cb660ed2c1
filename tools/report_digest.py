"""Digest every CLI report of the benchmark's seeded inputs, one line per call.

    python3 tools/report_digest.py SRC_DIR SEED [SEED ...] > digest.txt

For each seed and each workload of ``perfbench/workloads.py`` the inputs are
written to a fresh temporary directory by ``build_inputs``, and every case is
run in process through ``awkit.cli.main`` with ``awkit`` imported from
SRC_DIR. Each polar input is also run through ``cut``, ``ineq --n 3 --m 9``
and ``polar --method direct``. Each call prints one line: the seed, the
argv, the exit code (or the name of an exception that escaped ``main``), and
the sha256 of its stdout and of its stderr.

Paths are relative to the temporary directory, so the lines do not depend on
where it lies: ``diff`` of the output for two source trees shows every call
whose exit code, report or message differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the benchmark
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call(main, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except Exception as exc:  # an escaped exception is reported by name
            code = type(exc).__name__
    return f"{' '.join(argv)}\t{code}\t{_sha(out.getvalue())}\t{_sha(err.getvalue())}"


def _argvs(case):
    yield case.argv
    if case.kind == "polar":
        path = case.argv[1]
        yield ("cut", path)
        yield ("ineq", path, "--n", "3", "--m", "9")
        yield ("polar", path, "--method", "direct")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        sys.stderr.write("usage: report_digest.py SRC_DIR SEED [SEED ...]\n")
        return 2
    sys.path.insert(0, str(Path(args[0]).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import awkit.cli
    from workloads import WORKLOADS, build_inputs

    home = os.getcwd()
    for seed in map(int, args[1:]):
        for name, workload in WORKLOADS.items():
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    cases, _ = build_inputs(workload, seed, Path(name))
                    for case in cases:
                        for call in _argvs(case):
                            print(f"{seed}\t{_call(awkit.cli.main, call)}", flush=True)
                finally:
                    os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
