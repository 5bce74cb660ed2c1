"""Digest every CLI report of the benchmark's seeded inputs, one line per call.

    python3 tools/report_digest.py SRC_DIR SEED [SEED ...] > digest.txt

For each seed and each workload of ``perfbench/workloads.py`` the inputs are
written to a fresh temporary directory by ``build_inputs``, and every case is
run in process through ``awkit.cli.main`` with ``awkit`` imported from
SRC_DIR. Each polar input is also run through ``cut``, ``ineq --n 3 --m 9``
and ``polar --method direct``. A near-degenerate family follows the
workloads: U diag(1, 1 + d, 2, -i) U* for d in NEAR_GAPS, from NEAR_DRAWS
Haar unitaries U drawn from numpy's ``default_rng(SEED)`` by the QR of
``perfbench/workloads.py`` (never by ``awkit.sampling``, so the program
cannot change its inputs), each run through ``spectral`` and through
``closure --seed1 1 --seed2 2``; there the eigenvalues 1 and 1 + d lie near
the cluster gap, and the two commands should agree. Each call prints one
line: the seed, the argv, the exit code (or the name of an exception that
escaped ``main``), and the sha256 of its stdout and of its stderr.

Paths are relative to the temporary directory, so the lines do not depend on
where it lies: ``diff`` of the output for two source trees shows every call
whose exit code, report or message differs. ``reports`` yields the calls
with their full output; ``tools/residual_moves.py`` compares two source
trees on them report by report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# one BLAS thread, as in the benchmark
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]

# the near-degenerate family: the gaps d, and the unitaries drawn per seed
NEAR_GAPS = (2.1e-8, 2.2e-8, 2.3e-8, 2.4e-8)
NEAR_DRAWS = 10


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call(main, argv) -> tuple[str, str, str]:
    """The exit code (or the name of an escaped exception), stdout and
    stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except Exception as exc:  # an escaped exception is reported by name
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def _argvs(case):
    yield case.argv
    if case.kind == "polar":
        path = case.argv[1]
        yield ("cut", path)
        yield ("ineq", path, "--n", "3", "--m", "9")
        yield ("polar", path, "--method", "direct")


@contextlib.contextmanager
def _fresh_directory():
    """Work in a fresh temporary directory, removed on exit."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(home)


def _near_degenerate(seed, haar_unitary, write_element):
    """The argvs of the near-degenerate family, its inputs written under the
    working directory."""
    out = Path("near_degenerate")
    out.mkdir()
    rng = np.random.default_rng(seed)
    unitaries = [haar_unitary(rng, 4) for _ in range(NEAR_DRAWS)]
    for d in NEAR_GAPS:
        values = np.array([1.0, 1.0 + d, 2.0, -1j])
        for i, u in enumerate(unitaries):
            path = write_element(out / f"d{d:.1e}_{i}.json", [(u * values) @ u.conj().T])
            yield ("spectral", path)
            yield ("closure", path, "--seed1", "1", "--seed2", "2")


def reports(src_dir, seeds):
    """Per call, in digest order, (seed, argv, code, stdout, stderr), with
    ``awkit`` imported from src_dir."""
    sys.path.insert(0, str(Path(src_dir).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import awkit.cli
    from workloads import WORKLOADS, build_inputs, haar_unitary, write_element

    for seed in seeds:
        for name, workload in WORKLOADS.items():
            with _fresh_directory():
                cases, _ = build_inputs(workload, seed, Path(name))
                for call in (argv for case in cases for argv in _argvs(case)):
                    yield (seed, call, *_call(awkit.cli.main, call))
        with _fresh_directory():
            for call in _near_degenerate(seed, haar_unitary, write_element):
                yield (seed, call, *_call(awkit.cli.main, call))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        sys.stderr.write("usage: report_digest.py SRC_DIR SEED [SEED ...]\n")
        return 2
    for seed, call, code, out, err in reports(args[0], map(int, args[1:])):
        print(f"{seed}\t{' '.join(call)}\t{code}\t{_sha(out)}\t{_sha(err)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
