"""The package surface: every export resolves, and every exported function
and class is reached from the command line or the self-test.

The walk is by name over the AST of ``src/awkit``: it starts from
``cli.main``, the ``cli._cmd_*`` handlers and ``selftest.run_all`` and
``CRITERIA``, and every name or attribute a reached body reads reaches each
top-level definition, module constant and method of that name. A class is
reached whole. Names resolve by spelling alone, so the walk can only reach
too much, never too little: an export it does not reach is called by no
subcommand and no suite. Each such export is kept below with its reason.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import awkit

KEEP = {
    "eigh_hermitian": "tracer target, ROADMAP item 1",
    "positive_sqrt": "tracer target, ROADMAP item 1",
    "range_projection": "tracer target, ROADMAP item 1",
    "monotone_closure": "tracer target, ROADMAP item 1",
    "relative_commutant": "ROADMAP item 15",
    "random_self_adjoint": "test helper",
    "random_unitary": "test helper",
    "random_projection": "test helper",
}

MODULES = [
    importlib.import_module(f"awkit.{info.name}")
    for info in pkgutil.iter_modules(awkit.__path__)
]


def test_every_export_resolves():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def _definitions():
    """Each top-level def, class, assigned name and method, by name."""
    found = {}
    for path in Path(awkit.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
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


def test_every_exported_function_and_class_is_reached_or_kept():
    exported = {
        name
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if inspect.isfunction(getattr(module, name)) or inspect.isclass(getattr(module, name))
    }
    assert exported - _reached() == set(KEEP)
    assert all(KEEP.values())
