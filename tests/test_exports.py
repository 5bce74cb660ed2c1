"""The package surface: every export resolves, and every top-level function
and class of ``src/awkit``, private ones included, and every method of a
class is reached from the command line or the self-test.

The walk is by name over the AST of ``src/awkit``: it starts from
``cli.main``, the ``cli._cmd_*`` handlers and ``selftest.run_all`` and
``CRITERIA``, and every name or attribute a reached body reads reaches each
top-level definition, module constant and method of that name. Reaching a
class reads its bases, decorators and class-level statements and reaches
its dunder methods, which Python calls implicitly; each other method or
property is reached on its own, by name. Names resolve by spelling alone,
so the walk can only reach too much, never too little: a definition it
does not reach is called by no subcommand and no suite. Each such
definition is kept below with its reason, a method as ``Class.method``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import awkit

KEEP = {
    "eigh_hermitian": "tracer target, ROADMAP item 1",
    "positive_sqrt": "tracer target, ROADMAP item 1",
    "NotPositive": "tracer target, ROADMAP item 1 (raised by positive_sqrt alone)",
    "range_projection": "tracer target, ROADMAP item 1",
    "monotone_closure": "tracer target, ROADMAP item 1",
    "relative_commutant": "ROADMAP item 15",
    "loewner_leq": "the Loewner order on operands from outside, ROADMAP item 8",
    "_require_self_adjoint": "the outside-operand check of eigh_hermitian and loewner_leq",
    "NotSelfAdjoint": "raised by _require_self_adjoint alone",
    "Subalgebra.contains": "ROADMAP item 15",
    "Subalgebra.project": "ROADMAP item 15",
    "Subalgebra.membership_residual": "ROADMAP item 15",
    "random_self_adjoint": "test helper",
    "random_unitary": "test helper",
}

MODULES = [
    importlib.import_module(f"awkit.{info.name}")
    for info in pkgutil.iter_modules(awkit.__path__)
]


def test_every_export_resolves():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def _module_bodies():
    """The top-level statements of every module of the package."""
    for path in Path(awkit.__file__).parent.glob("*.py"):
        yield from ast.parse(path.read_text(encoding="utf-8")).body


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _methods(cls: ast.ClassDef):
    return [item for item in cls.body if isinstance(item, ast.FunctionDef)]


def _class_parts(cls: ast.ClassDef):
    """What reaching a class reads: its bases, keywords, decorators and
    class-level statements, and its dunder methods, which Python calls
    implicitly. Its other methods are reached by name, one by one."""
    yield from cls.bases + cls.keywords + cls.decorator_list
    for item in cls.body:
        if not isinstance(item, ast.FunctionDef) or _is_dunder(item.name):
            yield item


def _definitions():
    """Each top-level def, class, assigned name and method, by name."""
    found = {}
    for node in _module_bodies():
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.setdefault(node.name, []).append(node)
        if isinstance(node, ast.ClassDef):
            for item in _methods(node):
                if not _is_dunder(item.name):
                    found.setdefault(item.name, []).append(item)
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            if isinstance(target, ast.Name):
                found.setdefault(target.id, []).append(node)
    return found


def _reached():
    found = _definitions()
    roots = ["main", "run_all", "CRITERIA"] + [n for n in found if n.startswith("_cmd_")]
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached or name not in found:
            continue
        reached.add(name)
        for node in found[name]:
            parts = _class_parts(node) if isinstance(node, ast.ClassDef) else [node]
            for part in parts:
                for sub in ast.walk(part):
                    if isinstance(sub, ast.Name):
                        todo.append(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        todo.append(sub.attr)
    return reached


def _unreached():
    """Each top-level function and class, and each method of a reached
    class other than a dunder, that the walk does not reach; a method is
    named Class.method."""
    reached = _reached()
    out = set()
    for node in _module_bodies():
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name not in reached:
            out.add(node.name)
        elif isinstance(node, ast.ClassDef):
            out.update(
                f"{node.name}.{item.name}"
                for item in _methods(node)
                if not _is_dunder(item.name) and item.name not in reached
            )
    return out


def test_every_function_and_class_is_reached_or_kept():
    assert _unreached() == set(KEEP)
    assert all(KEEP.values())
