"""Every public name of the package is used by the program itself.

A name listed in a module's ``__all__`` must be used as code somewhere in
``src/``, ``scripts/`` or ``perfbench/`` outside its own definition.  The
``__all__`` lists, the package's re-exports, docstrings and imports do not
count as uses.  Oracles and closed-form references that only the tests need
live in ``tests/oracles.py``.
"""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fsimcal"
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def _exports(path):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


@functools.cache
def _used_names():
    """Names loaded as code in the program files, outside their own definitions."""
    used = set()
    for top in PROGRAM_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                names = set()
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                used |= names - _defined_names(stmt)
    return used


MODULES = sorted(p for p in PACKAGE.glob("*.py") if _exports(p))


def test_the_package_modules_declare_exports():
    assert {p.stem for p in MODULES} >= {"su2", "signal_model", "noise", "estimators", "fisher", "harness"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_used_by_the_program(path):
    unused = sorted(set(_exports(path)) - _used_names())
    assert not unused, f"{path.name} exports names only the tests use: {unused}"
