"""Seeded input files, the truth each one was built from, and the check of
every report against that truth.

Inputs are made with numpy alone, never with ``awkit.sampling``, so a change
to the program cannot change what the benchmark feeds it. A workload is a
list of cases; a case is the argv of one ``awkit`` call (one operation) and
the truth its report is checked against.

The cost of an operation grows steeply with block size, so the layout of
every case (block shapes, which singular values are zero, eigenvalue
multiplicities, which inputs are scaled or violate their rate) comes from a
fixed seed, and --seed draws the contents: unitaries, singular values,
eigenvalues and gaps. Runs on different seeds then do the same mix of work.
Within each short window of consecutive cases the largest block dimension
(or the block count) runs through its whole range.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The program's outcome for one operation, whatever the truth expected.
OUTCOMES = ("accepted", "rejected", "error", "wrong")

U_TOL = 1e-8  # block operator-norm distance of u from the truth
POINT_TOL = 1e-6  # distance of a reported spectrum point from the truth
ENVELOPE_TOL = 1e-9  # distance of a reported envelope entry from the truth

# Fixed seeds: the layout (block shapes, zero singular values, eigenvalue
# multiplicities) and the warm-up input are the same for every --seed.
LAYOUT_SEED = 20261017
WARMUP_SEED = 20260101


@dataclass(frozen=True)
class Case:
    """One operation: the argv of an ``awkit`` call and what it must report."""

    argv: tuple[str, ...]
    kind: str
    truth: dict = field(compare=False)
    input_files: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each was chosen."""

    name: str
    build: object  # (rng, out_dir, count) -> list[Case]
    warmup: object  # (rng, out_dir) -> Case, a small input outside the timed set
    count: int  # distinct cases generated per run
    trace_ops: int  # operations in each phase of a traced run


# ---------------------------------------------------------------- matrices


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def write_element(path: Path, blocks) -> str:
    doc = {
        "blocks": [
            [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(b)]
            for b in blocks
        ]
    }
    path.write_text(json.dumps(doc))
    return str(path)


def block_opnorm(a, b) -> float:
    """Largest operator-norm distance between matching blocks."""
    return max(float(np.linalg.norm(np.asarray(x) - np.asarray(y), 2)) for x, y in zip(a, b))


def blocks_from_json(doc) -> list[np.ndarray]:
    return [
        np.array([[complex(re, im) for re, im in row] for row in block], dtype=complex)
        for block in doc["blocks"]
    ]


def stratified(rng: np.random.Generator, values, count: int) -> list:
    """``count`` draws where each window of len(values) is a permutation."""
    out = []
    while len(out) < count:
        out.extend(rng.permutation(values).tolist())
    return out[:count]


# ------------------------------------------------------------ polar-ladder


def polar_case(rng, out_dir: Path, name: str, zero_masks, scale: float) -> Case:
    """x = scale * W diag(sigma) V* per block; ``zero_masks`` marks sigma = 0."""
    sigmas = [np.where(mask, 0.0, rng.uniform(0.1, 2.0, len(mask))) for mask in zero_masks]
    if max(float(s.max()) for s in sigmas) < 0.5:
        k = max(range(len(sigmas)), key=lambda k: sigmas[k].max())
        sigmas[k][int(np.argmax(sigmas[k]))] = rng.uniform(0.5, 2.0)
    xs, us = [], []
    for sigma in sigmas:
        n = len(sigma)
        w, v = haar_unitary(rng, n), haar_unitary(rng, n)
        xs.append(scale * (w * sigma) @ v.conj().T)
        us.append((w * (sigma > 0)) @ v.conj().T)
    path = write_element(out_dir / f"{name}.json", xs)
    return Case(
        argv=("polar", path),
        kind="polar",
        truth={"exit": 0, "u": us},
        input_files=(path,),
    )


def build_polar(rng, out_dir: Path, count: int) -> list[Case]:
    layout = np.random.default_rng(LAYOUT_SEED)
    cases = []
    for i, top in enumerate(stratified(layout, range(1, 9), count)):
        dims = [top] + layout.integers(1, top + 1, size=int(layout.integers(0, 3))).tolist()
        layout.shuffle(dims)
        masks = [layout.random(n) < 0.3 for n in dims]
        if all(m.all() for m in masks):
            masks[0][0] = False  # at least one nonzero singular value
        # one input in eight is scaled, alternating 1e-5 and 1e2
        scale = (1e-5 if (i // 8) % 2 == 0 else 1e2) if i % 8 == 7 else 1.0
        cases.append(polar_case(rng, out_dir, f"polar_{i:03d}", masks, scale))
    return cases


def check_polar(case: Case, doc) -> bool:
    if doc.get("accepted") is not True or "u" not in doc.get("artifacts", {}):
        return False
    u = blocks_from_json(doc["artifacts"]["u"])
    truth = case.truth["u"]
    return len(u) == len(truth) and block_opnorm(u, truth) <= U_TOL


# ----------------------------------------------------------- certify-small


def certify_case(rng, out_dir: Path, name: str, dims, violate: bool) -> Case:
    """Eight terms a_j = limit + e_j with ||e_j|| = r_j / j, r_j in [0.2, 0.9];
    a violating sequence has r_5 = 3, over the declared rate 1."""
    limit = [gaussian(rng, n) / (2.0 * np.sqrt(n)) for n in dims]
    seq_dir = out_dir / name
    seq_dir.mkdir()
    gaps = []
    for j in range(1, 9):
        gap = (3.0 if violate and j == 5 else rng.uniform(0.2, 0.9)) / j
        e = [gaussian(rng, n) for n in dims]
        e_norm = max(float(np.linalg.norm(b, 2)) for b in e)
        write_element(seq_dir / f"t{j}.json", [a + (gap / e_norm) * b for a, b in zip(limit, e)])
        gaps.append(gap)
    limit_path = write_element(out_dir / f"{name}_limit.json", limit)
    envelope = np.maximum.accumulate(gaps[::-1])[::-1].tolist()
    files = tuple(str(seq_dir / f"t{j}.json") for j in range(1, 9)) + (limit_path,)
    truth = {"exit": 1, "violation_index": 5} if violate else {"exit": 0, "envelope": envelope}
    return Case(
        argv=("certify", str(seq_dir), "--limit", limit_path, "--rate", "1.0"),
        kind="certify",
        truth=truth,
        input_files=files,
    )


def build_certify(rng, out_dir: Path, count: int) -> list[Case]:
    layout = np.random.default_rng(LAYOUT_SEED)
    # one sequence in four pushes term 5 to three times the declared rate
    return [
        certify_case(
            rng, out_dir, f"cert_{i:03d}", layout.integers(1, 3, size=nb).tolist(), i % 4 == 3
        )
        for i, nb in enumerate(stratified(layout, range(1, 7), count))
    ]


def check_certify(case: Case, doc) -> bool:
    if case.truth["exit"] == 1:
        return doc.get("accepted") is False and f"index {case.truth['violation_index']} " in doc.get(
            "error", ""
        )
    art = doc.get("artifacts", {})
    envelope = art.get("envelope", [])
    return (
        doc.get("accepted") is True
        and art.get("terms") == 8
        and len(envelope) == 8
        and max(abs(a - b) for a, b in zip(envelope, case.truth["envelope"])) <= ENVELOPE_TOL
    )


# ---------------------------------------------------------- normal-lattice


def point_pool(rng) -> np.ndarray:
    """Four complex points of modulus at most 2, pairwise at least 0.3 apart."""
    while True:
        pool = rng.uniform(-1.4, 1.4, 4) + 1j * rng.uniform(-1.4, 1.4, 4)
        gaps = np.abs(pool[:, None] - pool[None, :]) + 10.0 * np.eye(4)
        if gaps.min() >= 0.3:
            return pool


def point_key(entry):
    return entry[0].real, entry[0].imag


def normal_case(rng, out_dir: Path, name: str, picks) -> tuple[Case, Case]:
    """U diag(pool[p]) U* per block, for the pool indices p in ``picks``."""
    pool = point_pool(rng)
    blocks, counts = [], {}
    for p in picks:
        u = haar_unitary(rng, len(p))
        blocks.append((u * pool[p]) @ u.conj().T)
        for k in p.tolist():
            counts[k] = counts.get(k, 0) + 1
    path = write_element(out_dir / f"{name}.json", blocks)
    spectrum = sorted(((complex(pool[k]), m) for k, m in counts.items()), key=point_key)
    seed1, seed2 = (int(s) for s in rng.integers(0, 2**31, size=2))
    spectral = Case(("spectral", path), "spectral", {"exit": 0, "spectrum": spectrum}, (path,))
    closure = Case(
        ("closure", path, "--seed1", str(seed1), "--seed2", str(seed2)),
        "closure",
        {"exit": 0, "closure_dim": len(spectrum)},
        (path,),
    )
    return spectral, closure


def build_normal(rng, out_dir: Path, count: int) -> list[Case]:
    layout = np.random.default_rng(LAYOUT_SEED)
    cases = []
    for i, top in enumerate(stratified(layout, range(2, 6), count // 2)):
        dims = [top] if layout.random() < 0.5 else [top, int(layout.integers(2, top + 1))]
        layout.shuffle(dims)
        picks = [layout.integers(0, 4, size=n) for n in dims]
        cases.extend(normal_case(rng, out_dir, f"normal_{i:03d}", picks))
    return cases


def check_spectral(case: Case, doc) -> bool:
    art = doc.get("artifacts", {})
    got = sorted(
        ((complex(*e["point"]), e["multiplicity"]) for e in art.get("spectrum", [])), key=point_key
    )
    want = case.truth["spectrum"]
    return (
        doc.get("accepted") is True
        and art.get("regularity") is True
        and len(got) == len(want)
        and all(abs(g[0] - w[0]) <= POINT_TOL and g[1] == w[1] for g, w in zip(got, want))
    )


def check_closure(case: Case, doc) -> bool:
    return (
        doc.get("accepted") is True
        and doc.get("artifacts", {}).get("closure_dim") == case.truth["closure_dim"]
    )


CHECKS = {
    "polar": check_polar,
    "certify": check_certify,
    "spectral": check_spectral,
    "closure": check_closure,
}


# ---------------------------------------------------------------- outcomes


def classify(case: Case, code: int | None, report: str) -> tuple[str, bool]:
    """The program's outcome class and whether it agrees with the truth.

    ``code`` is None when the call raised instead of returning an exit code.
    """
    try:
        doc = json.loads(report)
    except ValueError:
        doc = None
    if code is None or code == 2 or not isinstance(doc, dict):
        return "error", False
    if code == 1:
        ok = case.truth["exit"] == 1 and CHECKS[case.kind](case, doc)
        return "rejected", ok
    if code == 0 and case.truth["exit"] == 0 and CHECKS[case.kind](case, doc):
        return "accepted", True
    return ("wrong", False) if code == 0 else ("error", False)


# --------------------------------------------------------------- workloads

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "polar-ladder",
            build_polar,
            lambda rng, d: polar_case(rng, d, "warmup", [np.array([False, True])], 1.0),
            count=112,
            trace_ops=48,
        ),
        Workload(
            "certify-small",
            build_certify,
            lambda rng, d: certify_case(rng, d, "warmup", [2], violate=False),
            count=108,
            trace_ops=96,
        ),
        Workload(
            "normal-lattice",
            build_normal,
            lambda rng, d: normal_case(rng, d, "warmup", [np.array([0, 1])])[0],
            count=104,
            trace_ops=48,
        ),
    )
}



def build_inputs(workload: Workload, seed: int, out_dir: Path) -> tuple[list[Case], Case]:
    """Write the workload's cases and one small warm-up case under out_dir."""
    timed_dir, warm_dir = out_dir / "timed", out_dir / "warmup"
    timed_dir.mkdir(parents=True)
    warm_dir.mkdir(parents=True)
    cases = workload.build(np.random.default_rng(seed), timed_dir, workload.count)
    return cases, workload.warmup(np.random.default_rng(WARMUP_SEED), warm_dir)


def digest(directory: Path) -> str:
    """sha256 over every generated file, so two commits can be shown to run
    identical inputs. Paths are taken relative to the directory."""
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*.json")):
        h.update(str(p.relative_to(directory)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()
