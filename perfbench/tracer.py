"""Outside-in tracer: spans around the public functions of each awkit layer.

Nothing inside ``src/`` changes. ``from .core import f`` copies the binding of
``f`` into the importing module, so the tracer replaces every ``awkit.*``
module attribute that is bound to a listed function, and the attribute on
the class for methods; ``uninstall`` puts every original back.

A span is (name, start, end, parent span index, operation id). Spans are kept
in memory; self time is a span's duration minus the durations of its direct
children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import hashlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute path inside the module)
TARGETS = (
    ("cli.main", "awkit.cli", "main"),
    ("cli.load_matrix_file", "awkit.cli", "load_matrix_file"),
    ("cli.element_to_json", "awkit.cli", "element_to_json"),
    ("polar.polar_regularized", "awkit.polar", "polar_regularized"),
    ("polar.polar_direct", "awkit.polar", "polar_direct"),
    ("polar.verify_polar", "awkit.polar", "verify_polar"),
    ("order.build_certificate", "awkit.order", "build_certificate"),
    ("order.verify_certificate", "awkit.order", "verify_certificate"),
    ("spectral.is_normal", "awkit.spectral", "is_normal"),
    ("spectral.spectral_measure", "awkit.spectral", "spectral_measure"),
    ("spectral.check_regularity", "awkit.spectral", "check_regularity"),
    ("spectral.integrate", "awkit.spectral", "integrate"),
    ("lattice.Subalgebra.from_generators", "awkit.lattice", "Subalgebra.from_generators"),
    ("lattice.generate_masa", "awkit.lattice", "generate_masa"),
    ("lattice.minimal_projections", "awkit.lattice", "minimal_projections"),
    ("lattice.monotone_closure", "awkit.lattice", "monotone_closure"),
    ("lattice.closure_correspondence", "awkit.lattice", "closure_correspondence"),
    ("core.eigh_hermitian", "awkit.core", "eigh_hermitian"),
    ("core.simultaneous_eigh", "awkit.core", "simultaneous_eigh"),
    ("core.operator_norm", "awkit.core", "operator_norm"),
    ("core.positive_sqrt", "awkit.core", "positive_sqrt"),
    ("core.range_projection", "awkit.core", "range_projection"),
    ("core.HermitianEigenSystem.assemble", "awkit.core", "HermitianEigenSystem.assemble"),
    ("core.AlgebraElement.__init__", "awkit.core", "AlgebraElement.__init__"),
)

# functions whose argument is hashed to count repeated work within an operation
REPEAT_TARGETS = (
    "core.eigh_hermitian",
    "core.simultaneous_eigh",
    "core.operator_norm",
    "lattice.minimal_projections",
)

SIZE_CLASSES = (("1to2", 1, 2), ("3to4", 3, 4), ("5to8", 5, 8))


def _arrays_of(value):
    """The numpy blocks an argument carries, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value]
    if hasattr(value, "blocks"):  # AlgebraElement
        return list(value.blocks)
    if hasattr(value, "basis"):  # Subalgebra
        return [b for el in value.basis for b in el.blocks]
    if isinstance(value, (list, tuple)):
        return [b for v in value for b in _arrays_of(v)]
    return []


def fingerprint(value) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in _arrays_of(value):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _size_class(n: int) -> str:
    for label, lo, hi in SIZE_CLASSES:
        if lo <= n <= hi:
            return label
    return "5to8"  # larger blocks do not occur in these workloads


class Tracer:
    """Collects spans and argument facts while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op]
        self.notes: list = []  # (span index, key, value) recorded at call time
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original) to restore
        self.op = -1

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "awkit" or n.startswith("awkit.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:  # a method: patch the class dictionary entry
                raw = owner.__dict__[last]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, skip_first=True))
                else:
                    wrapped = self._wrap(name, raw, skip_first=True)
                self._saved.append((owner, last, raw))
                setattr(owner, last, wrapped)
                continue
            original = getattr(owner, last)
            wrapped = self._wrap(name, original, skip_first=False)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn, skip_first):
        spans, notes, stack = self.spans, self.notes, self._stack
        repeat = name in REPEAT_TARGETS
        sizes = name == "core.eigh_hermitian"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            arg = args[1 if skip_first else 0] if len(args) > (1 if skip_first else 0) else None
            if repeat:
                notes.append((idx, "fp", fingerprint(arg)))
            if sizes:
                notes.append((idx, "dims", tuple(b.shape[0] for b in arg.blocks)))
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end

        return traced

    # ----------------------------------------------------------- reduction

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Per-operation call counts, self times and ratios from the spans."""
        self_time = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_time[s[3]] -= s[2] - s[1]
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        for s, t in zip(self.spans, self_time):
            calls[s[0]] += 1
            self_ms[s[0]] += 1e3 * t
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_ms"] = self_ms[name] / n_ops

        blocks = defaultdict(int)
        by_max = defaultdict(float)
        seen = defaultdict(set)
        repeats, fp_calls = defaultdict(int), defaultdict(int)
        for idx, key, value in self.notes:
            name, op = self.spans[idx][0], self.spans[idx][4]
            if key == "dims":
                for n in value:
                    blocks[_size_class(n)] += 1
                by_max[_size_class(max(value))] += 1e3 * self_time[idx]
            else:
                fp_calls[name] += 1
                if value in seen[(name, op)]:
                    repeats[name] += 1
                seen[(name, op)].add(value)
        for label, _, _ in SIZE_CLASSES:
            out[f"core.eigh.blocks_{label}"] = blocks[label] / n_ops
            out[f"core.eigh_hermitian.self_ms_max{label}"] = by_max[label] / n_ops
        for name in REPEAT_TARGETS:
            out[f"{name}.repeat_frac"] = repeats[name] / fp_calls[name] if fp_calls[name] else 0.0
        return out
