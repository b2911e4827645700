"""Every public name of the package is used by the program outside its own module.

A name listed in a module's ``__all__`` must be used as code in a file of
``src/``, ``scripts/`` or ``perfbench/`` other than the module that defines
it.  The ``__all__`` lists, the package's re-exports, docstrings and imports
do not count as uses, and a name only its own module or the tests use is
not exported.  Oracles and closed-form references that only the tests need
live in ``tests/oracles.py``.  The package itself re-exports exactly the
names that ``scripts/`` and ``perfbench/`` use through it, as
``from fsimcal import X`` or ``fsimcal.X``.  Likewise, every defaulted
parameter of a module-level function of the package is passed, by keyword
or at its position, by some call in those program files.
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


def _program_files(*tops):
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path, ast.parse(path.read_text(encoding="utf-8"))


@functools.cache
def _used_names():
    """{program file: the names it loads as code}."""
    used = {}
    for path, tree in _program_files(*PROGRAM_DIRS):
        names = used.setdefault(path, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return used


MODULES = sorted(p for p in PACKAGE.glob("*.py") if _exports(p))
SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")}


def test_the_package_modules_declare_exports():
    assert {p.stem for p in MODULES} >= {"su2", "signal_model", "noise", "estimators", "fisher", "harness"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_used_by_the_program(path):
    elsewhere = set().union(*(names for other, names in _used_names().items() if other != path))
    unused = sorted(set(_exports(path)) - elsewhere)
    assert not unused, f"{path.name} exports names no other program file uses: {unused}"


def test_the_package_reexports_exactly_the_names_used_through_it():
    reexported = {
        alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    through_package = set()
    for _, tree in _program_files("scripts", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "fsimcal":
                through_package |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "fsimcal":
                through_package.add(node.attr)
    assert reexported == through_package - SUBMODULES


def _defaulted_parameters(fn):
    """{name: position, or None for keyword-only} of fn's parameters that have a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    named = {p.arg: i for i, p in enumerate(positional) if i >= first}
    return named | {p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}


@functools.cache
def _program_calls():
    """{callee name: [(positional count, keyword names)]} over the calls in the program files.

    A call with *args counts as passing every position, one with **kwargs every keyword.
    """
    calls = {}
    for _, tree in _program_files(*PROGRAM_DIRS):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((float("inf") if starred else len(node.args), keywords))
    return calls


def test_every_defaulted_parameter_is_set_by_the_program():
    # A default no program call overrides is a knob only the tests turn.
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls = _program_calls().get(fn.name, [])
            for name, position in _defaulted_parameters(fn).items():
                if not any(name in kw or None in kw or (position is not None and n > position) for n, kw in calls):
                    unset.append(f"{path.stem}.{fn.name}({name})")
    assert not unset, f"defaulted parameters no program call sets: {unset}"
