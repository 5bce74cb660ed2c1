"""The package surface: every export resolves, and every top-level function
and class of ``src/awkit``, private ones included, is reached from the
command line or the self-test.

The walk is by name over the AST of ``src/awkit``: it starts from
``cli.main``, the ``cli._cmd_*`` handlers and ``selftest.run_all`` and
``CRITERIA``, and every name or attribute a reached body reads reaches each
top-level definition, module constant and method of that name. A class is
reached whole. Names resolve by spelling alone, so the walk can only reach
too much, never too little: a definition it does not reach is called by no
subcommand and no suite. Each such definition is kept below with its reason.
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


def _definitions():
    """Each top-level def, class, assigned name and method, by name."""
    found = {}
    for node in _module_bodies():
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.setdefault(node.name, []).append(node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
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
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    todo.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    todo.append(sub.attr)
    return reached


def test_every_function_and_class_is_reached_or_kept():
    defined = {
        node.name
        for node in _module_bodies()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined - _reached() == set(KEEP)
    assert all(KEEP.values())
