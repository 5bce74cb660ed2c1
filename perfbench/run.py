"""awkit benchmark: closed-loop CLI workloads, called in process.

    python3 perfbench/run.py --workload polar-ladder --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

One process, one thread, one client: each operation is one call of
``awkit.cli.main(argv)`` on input files written before timing starts, and the
next call starts when the previous one returns. Every report is checked
against the truth its input was generated from.

With ``--trace 0`` the last line of standard output is the end-to-end result;
with ``--trace 1`` it is the per-layer result of a traced run over a fixed
list of operations. The lines before it record the environment, the input
digest and the outcome classes. ``--workload all``
runs each workload in its own process and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# one BLAS thread: the client is single-threaded and the blocks are small
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import reference  # noqa: E402
from workloads import OUTCOMES, WORKLOADS, build_inputs, classify, digest  # noqa: E402

MIN_CASES = 100  # so that at least ten cases lie beyond the 90th percentile
SETUP_SAMPLES = 15  # fresh processes timed for setup_s; the median is reported

# Runs in a fresh interpreter: times import awkit.cli plus one warm-up call.
SETUP_PROBE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import awkit.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    awkit.cli.main(json.loads(sys.argv[1]))
print(time.perf_counter() - t0)
"""


@dataclass
class Op:
    """One operation: its case, exit code (None if it raised), report and
    measured seconds."""

    case: object
    code: int | None
    report: str
    seconds: float


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "numba": has_numba,
        "git_commit": commit,
    }


def setup_seconds(warmup_argv) -> float:
    """Seconds for import plus warm-up call, in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, json.dumps(list(warmup_argv))],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def call(cli, argv) -> tuple[int | None, str, float]:
    """One operation: (exit code or None if it raised, report, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # an escaped exception is an "error" outcome
            code = None
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def run_ops(cli, cases, tracer=None, between=None) -> list[Op]:
    """One closed-loop pass over the cases, in order; ``between`` is called
    after each operation, outside its timing."""
    ops = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.op = i
        ops.append(Op(case, *call(cli, case.argv)))
        if between is not None:
            between()
    return ops


def outcome_counts(ops) -> tuple[dict, int, int]:
    """Outcome classes, operations that disagree with the truth, and failed
    operations.

    An operation fails when it raised, exited 2, or reported a wrong answer.
    A valid input that the program declined with exit 1 disagrees with the
    truth, so it lowers ``ok_frac``, but it is not a failed operation.
    """
    counts = dict.fromkeys(OUTCOMES, 0)
    disagree = failed = 0
    for op in ops:
        outcome, ok = classify(op.case, op.code, op.report)
        counts[outcome] += 1
        disagree += not ok
        failed += not ok and not (outcome == "rejected" and op.case.truth["exit"] == 0)
    return counts, disagree, failed


def end_to_end(cli, cases, warmup, seconds) -> tuple[dict, list, dict]:
    if len(cases) < MIN_CASES:
        raise ValueError(f"{len(cases)} cases; p90 needs at least {MIN_CASES}")
    setup, setup_at, passes, ends, ref_at, ref_s = [], [], [], [], [], []
    start = time.perf_counter()

    def between():
        now = time.perf_counter()
        ends.append(now)
        # set-up samples spread evenly over the timed phase, so that their
        # median covers the same spells of the machine as the operations
        if len(setup) < SETUP_SAMPLES and now - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_seconds(warmup.argv))
            setup_at.append(time.perf_counter())
        if not ref_at or time.perf_counter() - ref_at[-1] >= reference.EVERY_S:
            t0 = time.perf_counter()
            reference.kernel()
            t1 = time.perf_counter()
            ref_at.append(0.5 * (t0 + t1))
            ref_s.append(t1 - t0)

    # whole passes; another starts only if, at the mean pass time so far, it
    # would end less than half a pass after ``seconds``
    while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < seconds:
        passes.append(run_ops(cli, cases, between=between))
    while len(setup) < SETUP_SAMPLES:  # a run that ended early
        setup.append(setup_seconds(warmup.argv))
        setup_at.append(time.perf_counter())
    measured_ms = 1e3 * np.array([[op.seconds for op in ops] for ops in passes])
    # each call and set-up probe at the nominal machine speed; a case's
    # latency is then its mean over the passes
    ref_ms = 1e3 * reference.local_mean(ref_at, ref_s, ends).reshape(measured_ms.shape)
    case_ms = (measured_ms * (reference.NOMINAL_MS / ref_ms)).mean(axis=0)
    setup_ref_s = np.array(setup) * (
        reference.NOMINAL_MS / (1e3 * reference.local_mean(ref_at, ref_s, setup_at))
    )
    ops = [op for ops in passes for op in ops]
    _, disagree, _ = outcome_counts(ops)
    metrics = {
        "ref_ops_per_s": (1e3 * len(cases) / case_ms.sum(), "1/s"),
        "ref_op_p50_ms": (float(np.quantile(case_ms, 0.5)), "ms"),
        "ref_op_p90_ms": (float(np.quantile(case_ms, 0.9)), "ms"),
        "ok_frac": (1.0 - disagree / len(ops), "ratio"),
        "setup_s": (float(np.median(setup_ref_s)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    as_measured = {
        "ops_per_s": 1e3 * measured_ms.size / measured_ms.sum(),
        "op_p50_ms": float(np.quantile(measured_ms, 0.5)),
        "op_p90_ms": float(np.quantile(measured_ms, 0.9)),
        "setup_s": statistics.median(setup),
        "reference_ms": 1e3 * statistics.fmean(ref_s),
        "passes": len(passes),
    }
    return metrics, ops, as_measured


def per_layer(cli, cases, workload) -> tuple[dict, list, bool]:
    from tracer import Tracer

    fixed = cases[: workload.trace_ops]
    n = len(fixed)
    plain = run_ops(cli, fixed)
    tracer = Tracer()
    with tracer:
        traced = run_ops(cli, fixed, tracer=tracer)
    metrics = {}
    for key, value in tracer.per_layer(n).items():
        if "self_ms" in key:
            unit = "ms"
        else:
            unit = "ratio" if key.endswith("repeat_frac") else "count"
        metrics[key] = (value, unit)
    counts = outcome_counts(traced)[0]
    for outcome in OUTCOMES:
        metrics[f"cli.outcome.{outcome}"] = (counts[outcome] / n, "ratio")
    input_bytes = sum(os.path.getsize(f) for case in fixed for f in case.input_files)
    metrics["cli.input_bytes"] = (input_bytes / n, "bytes")
    metrics["cli.report_bytes"] = (sum(len(op.report.encode()) for op in traced) / n, "bytes")
    rungs = 0
    for op in traced:
        with contextlib.suppress(ValueError, AttributeError):
            rungs += len(json.loads(op.report).get("artifacts", {}).get("diagnostics", []))
    metrics["polar.ladder_rungs"] = (rungs / n, "count")
    traced_s, plain_s = (sum(op.seconds for op in phase) for phase in (traced, plain))
    metrics["trace.overhead_frac"] = (1.0 - plain_s / traced_s, "ratio")
    # a traced report must equal the untraced one byte for byte
    identical = all((p.code, p.report) == (t.code, t.report) for p, t in zip(plain, traced))
    return metrics, plain + traced, identical


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cases, warmup = build_inputs(workload, args.seed, work)
        print(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "cases": len(cases),
            "inputs_sha256": digest(work / "timed"),
            "environment": environment(),
        }, sort_keys=True))
        sys.path.insert(0, str(SRC))
        import awkit.cli as cli

        call(cli, warmup.argv)  # untimed warm-up outside the timed set
        if args.trace:
            metrics, ops, identical = per_layer(cli, cases, workload)
        else:
            metrics, ops, as_measured = end_to_end(cli, cases, warmup, args.seconds)
            identical = True
            print(json.dumps({"as_measured": as_measured}, sort_keys=True))
        counts, disagree, failed = outcome_counts(ops)
        print(json.dumps({"outcomes": counts, "disagree": disagree,
                          "traced_reports_identical": identical}, sort_keys=True))
        correct = failed == 0 and identical
        print(json.dumps({
            "correct": correct,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    return 0


def run_all(args) -> int:
    """Every workload in its own process; print each metric with its unit."""
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {lines[-2]}")
        for key, m in result["metrics"].items():
            print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "awkit" / "cli.py").is_file():
        sys.stderr.write(f"no awkit sources under {SRC}\n")
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
