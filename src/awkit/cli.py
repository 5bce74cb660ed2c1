"""Command-line surface: JSON matrix I/O and one subcommand per construction.

Matrix files carry {"blocks": [...]} with square row-major blocks of
[re, im] pairs. Every invocation writes exactly one JSON report to standard
output; human-readable errors go to standard error. Exit codes: 0 success,
1 mathematical rejection, 2 malformed input.

A file is read in two steps. Its structure is checked first: that it can be
read, that it is UTF-8 JSON, that it has a non-empty 'blocks' list, that
every entry is a pair of JSON numbers (not bools or strings), and that
every block is square. Then its numbers are read into one complex128
stack per block position, one np.array call each, and the stacks are
sealed once by AlgebraElement._of_stacks: an int beyond the float range is
malformed, and then a non-finite entry. A single file is the case N = 1 of
the N term files of ``certify``, which reports the first fault by one
precedence rule:

1. the structure of each term file, in name order;
2. the limit file, whole;
3. the signature of each term file against the limit's, in name order;
4. the numbers of the terms, stack by stack in block order: an int beyond
   the float range in any stack, then a non-finite entry.

Read errors, JSON errors and signatures name their file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .core import AlgebraElement, ToleranceConfig
from .errors import AlgebraError, BadArgument, NotNormal
from .lattice import Subalgebra, closure_correspondence, generate_masa
from .order import build_certificate, verify_certificate
from .polar import (
    DEFAULT_LADDER_MAX,
    cut_residuals,
    polar_direct,
    polar_regularized,
    polar_residuals,
    resolvent_gap_inequality,
    spectral_cut,
)
from .spectral import check_regularity, is_normal, spectral_measure, spectral_residuals


class MalformedInput(Exception):
    """Unreadable or schema-violating input file."""


def element_to_json(x: AlgebraElement) -> dict:
    return {
        "blocks": [
            [[[float(z.real), float(z.imag)] for z in row] for row in block]
            for block in x.blocks
        ]
    }


_NOT_PAIRS = "block is not a matrix of [re, im] pairs"
# the types json.load gives a number; bool, a subclass of int, is not one
_NUMBER_TYPES = (int, float)


def _checked_blocks(doc) -> list:
    """The 'blocks' list of a matrix document, its structure checked: a
    non-empty list of non-empty square matrices whose entries are [re, im]
    pairs of JSON numbers. The numbers themselves are read by _sealed."""
    if not isinstance(doc, dict) or "blocks" not in doc:
        raise MalformedInput("matrix document needs a 'blocks' field")
    blocks = doc["blocks"]
    if not isinstance(blocks, list) or not blocks:
        raise MalformedInput("'blocks' must be a non-empty list")
    for b in blocks:
        if type(b) is not list:
            raise MalformedInput(f"{_NOT_PAIRS}: block {b!r:.40}")
        for row in b:
            if type(row) is not list:
                raise MalformedInput(f"{_NOT_PAIRS}: row {row!r:.40}")
            for pair in row:
                if not (
                    type(pair) is list
                    and len(pair) == 2
                    and type(pair[0]) in _NUMBER_TYPES
                    and type(pair[1]) in _NUMBER_TYPES
                ):
                    raise MalformedInput(f"{_NOT_PAIRS}: entry {pair!r:.40}")
        lengths = {len(row) for row in b}
        if len(lengths) > 1:
            raise MalformedInput(f"{_NOT_PAIRS}: rows of unequal length")
        if lengths != {len(b)}:
            raise MalformedInput("blocks must be square")
    return blocks


def _read_json(path: str):
    """The JSON document of a file."""
    try:
        # read as bytes and decoded at once: a text-mode reader costs more
        # than the parse of a small file
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


def _sealed(docs: list) -> list[AlgebraElement]:
    """The N elements of N checked 'blocks' lists of one signature.

    Per block position, the [re, im] pairs of all N documents become one
    (N, n_b, n_b, 2) float64 array in one np.array call, read as the
    (N, n_b, n_b) complex128 stack whose entries have the bits of
    complex(re, im); an int beyond the float range raises here. The stacks
    are then sealed once (AlgebraElement._of_stacks), which checks each for
    finite entries in block order.
    """
    stacks = []
    for position in zip(*docs):
        try:
            pairs = np.array(position, dtype=np.float64)
        except OverflowError as exc:
            raise MalformedInput(f"{_NOT_PAIRS}: {exc}") from exc
        # the stack is a view of the pairs, which are read-only as it is
        pairs.flags.writeable = False
        stacks.append(pairs.view(np.complex128)[..., 0])
    try:
        return AlgebraElement._of_stacks(stacks)
    except BadArgument as exc:
        raise MalformedInput("blocks must contain finite numbers") from exc


def element_from_json(doc) -> AlgebraElement:
    (x,) = _sealed([_checked_blocks(doc)])
    return x


def load_matrix_file(path: str) -> AlgebraElement:
    return element_from_json(_read_json(path))


def _tolerances(args) -> ToleranceConfig:
    def pick(flag_value, env_name, default):
        if flag_value is not None:
            return flag_value
        env = os.environ.get(env_name)
        return float(env) if env is not None else default

    return ToleranceConfig(**{
        f.name: pick(getattr(args, f.name), "AWKIT_" + f.name.upper(), f.default)
        for f in dataclasses.fields(ToleranceConfig)
    })


def _report(command, tol, *, seed=None, residuals=None, accepted=False, artifacts=None, error=None):
    doc = {
        "command": command,
        "seed": seed,
        "tolerances": dataclasses.asdict(tol),
        "residuals": residuals or {},
        "accepted": bool(accepted),
        "artifacts": artifacts or {},
    }
    if error is not None:
        doc["error"] = error
    return doc


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _cmd_polar(args, tol):
    x = load_matrix_file(args.file)
    if args.method == "direct":
        res = polar_direct(x, tol)
    else:
        res = polar_regularized(x, n_max=args.nmax, tol=tol)
    check = polar_residuals(x, res, tol)
    artifacts = {
        "u": element_to_json(res.u),
        "absx": element_to_json(res.absx),
        "absxstar": element_to_json(res.absxstar),
        "diagnostics": [[n, gap] for n, gap in res.diagnostics],
        "method": args.method,
    }
    return _report(
        "polar", tol, residuals=check.residuals, accepted=check.accepted, artifacts=artifacts
    ), 0 if check.accepted else 1


def _cmd_spectral(args, tol):
    a = load_matrix_file(args.file)
    if not is_normal(a, tol):
        raise NotNormal("input is not normal")
    m = spectral_measure(a, tol)
    check = spectral_residuals(a, m, tol)
    regular = check_regularity(m, tol)
    artifacts = {
        "spectrum": [
            {"point": [p.real, p.imag], "multiplicity": mult}
            for p, mult in zip(m.domain_spectrum.points, m.domain_spectrum.multiplicities)
        ],
        "atoms": [
            {"point": [p.real, p.imag], "projection": element_to_json(m.atoms[p].element)}
            for p in m.domain_spectrum.points
        ],
        "regularity": regular,
    }
    accepted = check.accepted and regular
    return _report(
        "spectral", tol, residuals=check.residuals, accepted=accepted, artifacts=artifacts
    ), 0 if accepted else 1


def _cmd_cut(args, tol):
    x = load_matrix_file(args.file)
    cut = spectral_cut(x, mu=args.mu, tol=tol)
    check = cut_residuals(x, cut, tol)
    artifacts = {
        "p": element_to_json(cut.p.element),
        "a": element_to_json(cut.a),
        "mu": cut.mu,
    }
    return _report(
        "cut", tol, residuals=check.residuals, accepted=check.accepted, artifacts=artifacts
    ), 0 if check.accepted else 1


def _cmd_closure(args, tol):
    g = load_matrix_file(args.file)
    if not is_normal(g, tol):
        raise NotNormal("input is not normal")
    b = Subalgebra.of_normal(g, tol)
    d1 = generate_masa([g], args.seed1, tol)
    d2 = generate_masa([g], args.seed2, tol)
    corr = closure_correspondence(b, d1, d2, tol)
    accepted = corr.accepted
    artifacts = {"closure_dim": corr.closures[0].dim, "projection_pairs": len(corr.pairs)}
    return _report(
        "closure", tol, seed=[args.seed1, args.seed2], residuals=corr.residuals,
        accepted=accepted, artifacts=artifacts,
    ), 0 if accepted else 1


_DIGIT_RUNS = re.compile(r"(\d+)")


def _term_order(path: Path):
    """Name order with digit runs compared as integers, so t2 precedes
    t10; the plain name breaks ties such as 01 and 001."""
    parts = _DIGIT_RUNS.split(path.name)
    parts[1::2] = map(int, parts[1::2])
    return parts, path.name


def _cmd_certify(args, tol):
    directory = Path(args.dir)
    if not directory.is_dir():
        raise MalformedInput(f"{args.dir} is not a directory")
    files = sorted((p for p in directory.iterdir() if p.suffix == ".json"), key=_term_order)
    if not files:
        raise MalformedInput(f"{args.dir} holds no .json matrix files")
    docs = [_checked_blocks(_read_json(str(p))) for p in files]
    limit = load_matrix_file(args.limit)
    for p, blocks in zip(files, docs):
        signature = tuple(map(len, blocks))
        if signature != limit.signature:
            raise MalformedInput(f"{p} has signature {signature}, the limit has {limit.signature}")
    seq = _sealed(docs)
    cert = build_certificate(seq, limit, args.rate, tol)
    report = verify_certificate(cert, tol)
    residuals = {"worst": report.worst_residual}
    artifacts = {
        "terms": len(seq),
        "ordering": [p.name for p in files],
        "envelope": list(cert.envelope.eps),
        "tail_rate": cert.envelope.tail_rate,
        "failing_condition": report.failing_condition,
    }
    return _report(
        "certify", tol, residuals=residuals, accepted=report.accepted, artifacts=artifacts
    ), 0 if report.accepted else 1


def _cmd_ineq(args, tol):
    x = load_matrix_file(args.file)
    holds = resolvent_gap_inequality(x, args.n, args.m, tol)
    return _report(
        "ineq", tol, residuals={}, accepted=holds,
        artifacts={"n": args.n, "m": args.m},
    ), 0 if holds else 1


def _cmd_selftest(args, tol):
    # imported here: the suites and their sampling are not needed by the other subcommands
    from .selftest import run_all

    results = run_all(trials=args.trials, seed=args.seed, dims=args.dims, tol=tol)
    residuals = {r.name: r.worst_residual for r in results}
    artifacts = {
        r.name: {"passed": r.passed, "trials": r.trials, "detail": r.detail}
        for r in results
    }
    accepted = all(r.passed for r in results)
    for r in results:
        sys.stderr.write(r.line() + "\n")
    return _report(
        "selftest", tol, seed=args.seed, residuals=residuals,
        accepted=accepted, artifacts=artifacts,
    ), 0 if accepted else 1


def _dims(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("dims must look like 1..8") from exc
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError("dims must satisfy 1 <= lo <= hi")
    return lo, hi


def _int_at_least(low: int):
    """An argparse type for integers of at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, not {text!r}")
        return value

    return parse


# numpy's seeding requires a non-negative integer
_seed = _int_at_least(0)
# ladder lengths, resolvent indices and trial counts
_positive_int = _int_at_least(1)


def _finite_float(text: str) -> float:
    """An argparse type for finite floats: a rate or a cut point."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, not {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors become malformed-input reports.

    Subcommand parsers are made with the class of their parent, so one
    override covers them all; --help still prints and exits 0.
    """

    def error(self, message):
        command = self.prog.partition(" ")[2] or None
        raise MalformedInput(message, command)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pos-slack", type=float, default=None)
    shared.add_argument("--cluster-tol", type=float, default=None)
    shared.add_argument("--rank-cutoff", type=float, default=None)
    parser = _Parser(
        prog="awkit",
        description="Workbench for finite-dimensional *-algebras: polar and "
        "spectral decompositions, spectral cuts, monotone closures, and "
        "order-convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[shared], **kwargs)

    p = add_parser("polar", help="polar decomposition of a matrix file")
    p.add_argument("file")
    p.add_argument("--nmax", type=_positive_int, default=DEFAULT_LADDER_MAX)
    p.add_argument("--method", choices=["regularized", "direct"], default="regularized")

    p = add_parser("spectral", help="spectral measure of a normal element")
    p.add_argument("file")

    p = add_parser("cut", help="spectral cut below a point")
    p.add_argument("file")
    p.add_argument("--mu", type=_finite_float, default=None)

    p = add_parser("closure", help="monotone closures in two seeded MASAs")
    p.add_argument("file")
    p.add_argument("--seed1", type=_seed, required=True)
    p.add_argument("--seed2", type=_seed, required=True)

    p = add_parser("certify", help="order-convergence certificate for a file sequence")
    p.add_argument(
        "dir",
        help="directory of .json terms, in name order with digit runs compared "
        "as integers (t2 before t10); the plain name breaks ties such as 01 and 001",
    )
    p.add_argument("--limit", required=True)
    p.add_argument("--rate", type=_finite_float, required=True)

    p = add_parser("ineq", help="squared resolvent-gap inequality check")
    p.add_argument("file")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)

    p = add_parser("selftest", help="run every acceptance suite")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dims", type=_dims, default=(1, 8))
    return parser


_HANDLERS = {
    "polar": _cmd_polar,
    "spectral": _cmd_spectral,
    "cut": _cmd_cut,
    "closure": _cmd_closure,
    "certify": _cmd_certify,
    "ineq": _cmd_ineq,
    "selftest": _cmd_selftest,
}


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # building the parser costs some twenty times parsing one argv, so it
    # is built on the first call and reused
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except MalformedInput as exc:
        message, command = exc.args
        sys.stderr.write(f"malformed input: {message}\n")
        _emit({"command": command, "accepted": False, "error": message})
        return 2
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        sys.stderr.write(f"bad tolerance: {exc}\n")
        _emit({"command": args.command, "accepted": False, "error": str(exc)})
        return 2
    try:
        # overflowing arithmetic is reported once, as the BadArgument that
        # sealing its non-finite result raises, not also as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            report, code = _HANDLERS[args.command](args, tol)
    except (MalformedInput, BadArgument) as exc:
        sys.stderr.write(f"malformed input: {exc}\n")
        _emit(_report(args.command, tol, error=str(exc)))
        return 2
    except AlgebraError as exc:
        sys.stderr.write(f"rejected: {exc}\n")
        _emit(_report(args.command, tol, error=str(exc)))
        return 1
    _emit(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
