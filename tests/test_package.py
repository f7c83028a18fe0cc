import ast
from pathlib import Path

import scds

SRC = Path(scds.__file__).resolve().parent


def test_public_names_resolve_once_and_star_import():
    assert len(scds.__all__) == len(set(scds.__all__))
    for name in scds.__all__:
        assert hasattr(scds, name), name
    namespace = {}
    exec("from scds import *", namespace)
    assert set(scds.__all__) <= namespace.keys()


def _names_used(node):
    """Every identifier that ``node`` reads: bare names, attributes and
    names imported from another module."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def test_no_unused_imports_or_uncalled_private_helpers():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        imported = set()
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in stmt.names)
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                imported.update(a.asname or a.name for a in stmt.names)
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{module}: import {name}" for name in sorted(imported - read)]
    # A private function or class must be read by a statement other than its
    # own definition, in any module of the package.
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    reads = [(stmt, _names_used(stmt)) for tree in trees.values() for stmt in tree.body]
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, defs) or not stmt.name.startswith("_") or stmt.name.startswith("__"):
                continue
            if not any(other is not stmt and stmt.name in names for other, names in reads):
                unused.append(f"{module}: def {stmt.name}")
    assert unused == []
