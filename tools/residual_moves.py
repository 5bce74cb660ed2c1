"""Compare the CLI reports of two source trees, call by call, on the calls of
``report_digest.py``, and print the largest move of each named residual.

    python3 tools/residual_moves.py SRC_A SRC_B SEED [SEED ...]

Each source tree runs the calls in a child process of its own (this script
with ``--dump SRC SEED...``, which writes one JSON line per call), so the
two ``awkit`` packages never share an interpreter. Per command and input
family (the first word of the argv and the directory its input lies in,
such as ``closure normal-lattice`` or ``spectral near_degenerate``), in
order of first appearance, it prints:

- the number of calls compared;
- one line per call whose exit code, stderr or ``accepted`` differ, or
  whose artifacts differ in anything but the value of a float, naming what
  differs;
- over the other calls, per residual name the largest |A - B| where both
  reports give it as a number, and the largest |A - B| over the floats of
  the artifacts (as ``artifacts``). Equal values move by 0, and a move that
  is not a number (nan against anything) counts as inf.

It exits 0 when the two trees made the same calls, whatever moved, and 2
on a usage error or when the call lists differ.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import report_digest


def _dump(src_dir, seeds) -> int:
    for seed, call, code, out, err in report_digest.reports(src_dir, seeds):
        print(json.dumps([seed, list(call), code, out, err]), flush=True)
    return 0


def _run_tree(src_dir, seeds, sink):
    argv = [sys.executable, __file__, "--dump", src_dir, *map(str, seeds)]
    return subprocess.Popen(argv, stdout=sink)


def _report(out: str):
    """The JSON report on stdout, or None when there is none."""
    try:
        return json.loads(out)
    except ValueError:
        return None


def _move(a, b) -> float:
    if a == b:
        return 0.0
    d = abs(a - b)
    return math.inf if math.isnan(d) else d


def _float_move(a, b):
    """The largest move over the floats of two JSON values of one shape, or
    None when they differ in shape or in anything but a float."""
    if isinstance(a, float) and isinstance(b, float):
        return _move(a, b)
    if type(a) is not type(b):
        return None
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return None
        a, b = list(a.values()), [b[k] for k in a]
    if isinstance(a, list):
        if len(a) != len(b):
            return None
        moves = [_float_move(x, y) for x, y in zip(a, b)]
        return None if None in moves else max(moves, default=0.0)
    return 0.0 if a == b else None


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _differences(code_a, code_b, err_a, err_b, doc_a, doc_b):
    """What differs beyond float moves, and the float move of the artifacts."""
    diffs = []
    if code_a != code_b:
        diffs.append(f"exit {code_a} -> {code_b}")
    if err_a != err_b:
        diffs.append(f"stderr {err_a.strip()!r} -> {err_b.strip()!r}")
    a, b = ({} if doc is None else doc for doc in (doc_a, doc_b))
    if a.get("accepted") != b.get("accepted"):
        diffs.append(f"accepted {a.get('accepted')} -> {b.get('accepted')}")
    moved = _float_move(a.get("artifacts"), b.get("artifacts"))
    if moved is None:
        diffs.append(f"artifacts {_short(a.get('artifacts'))} -> {_short(b.get('artifacts'))}")
    return diffs, moved


def compare(lines_a, lines_b):
    """Per command and input family: the calls compared, the lines of the changed calls, and
    the largest move of each residual."""
    per_command = {}
    for line_a, line_b in zip(lines_a, lines_b, strict=True):
        seed, call, code_a, out_a, err_a = json.loads(line_a)
        seed_b, call_b, code_b, out_b, err_b = json.loads(line_b)
        if (seed, call) != (seed_b, call_b):
            raise ValueError(f"the trees made different calls: {call} and {call_b}")
        key = f"{call[0]} {Path(call[1]).parts[0]}"
        entry = per_command.setdefault(key, {"calls": 0, "changed": [], "moves": {}})
        entry["calls"] += 1
        doc_a, doc_b = _report(out_a), _report(out_b)
        diffs, moved = _differences(code_a, code_b, err_a, err_b, doc_a, doc_b)
        if diffs:
            entry["changed"].append(f"{seed} {' '.join(call)}: " + "; ".join(diffs))
            continue
        moves = entry["moves"]
        moves["artifacts"] = max(moves.get("artifacts", 0.0), moved)
        res_a = {} if doc_a is None else doc_a.get("residuals") or {}
        res_b = {} if doc_b is None else doc_b.get("residuals") or {}
        for name in res_a.keys() & res_b.keys():
            a, b = res_a[name], res_b[name]
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                moves[name] = max(moves.get(name, 0.0), _move(a, b))
    return per_command


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--dump"] and len(args) >= 3:
        return _dump(args[1], [int(s) for s in args[2:]])
    if len(args) < 3:
        sys.stderr.write("usage: residual_moves.py SRC_A SRC_B SEED [SEED ...]\n")
        return 2
    seeds = [int(s) for s in args[2:]]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"]
        sinks = [p.open("w") for p in paths]
        children = [_run_tree(src, seeds, sink) for src, sink in zip(args[:2], sinks)]
        for child, sink in zip(children, sinks):
            child.wait()
            sink.close()
        if any(child.returncode for child in children):
            sys.stderr.write("a source tree failed to run its calls\n")
            return 2
        try:
            per_command = compare(*(p.read_text().splitlines() for p in paths))
        except ValueError as exc:
            sys.stderr.write(f"{exc}\n")
            return 2
    for command, entry in per_command.items():
        print(f"{command}: {entry['calls']} calls compared, {len(entry['changed'])} changed")
        for line in entry["changed"]:
            print(f"  changed {line}")
        for name, move in sorted(entry["moves"].items()):
            print(f"  largest |move| {name}: {move:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
