"""No library module, test or script imports a name it never uses, or
imports again inside a function a name it imports at top level; and the
private names library modules import from their siblings are a fixed list.

No linter ships with the project, so this stdlib `ast` check keeps imports
from lingering once their last caller is gone. The package's `__init__.py`
is exempt: it imports `_lazy` only for the error a missing numpy raises.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "floquet_dqpt"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")
# Private names a library module imports from a sibling module, per module.
# Each couples the two past the sibling's public API, so a new one fails here.
PRIVATE_IMPORTS = {
    "dqpt.py": {"_t_chunks", "_uniform_band_weights"},
    "dynamics.py": {"_band_sign"},
    "geometry.py": {"_band_sign", "_t_chunks", "_uniform_band_weights"},
}
TESTS_AND_SCRIPTS = sorted(str(p.relative_to(ROOT))
                           for folder in ("tests", "scripts")
                           for p in (ROOT / folder).glob("*.py"))


def imported_names(nodes) -> set:
    imported = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    return imported


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported_names(ast.walk(tree)) - used


def reimports(source: str) -> set:
    # names a function imports although the module imports them at top level
    tree = ast.parse(source)
    nested = imported_names(
        node for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn))
    return imported_names(tree.body) & nested


def private_imports(source: str) -> set:
    # names starting with "_" in any relative import
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")}


def test_unused_imports_flags_a_dead_name():
    assert unused_imports("import math\nfrom os import path, sep\n"
                          "x = path.join(sep)\n") == {"math"}


def test_reimports_flags_a_name_imported_again_in_a_function():
    source = ("import math\nfrom os import path\n"
              "def f():\n    from os import path\n    import json\n"
              "    return path, json, math\n")
    assert reimports(source) == {"path"}
    assert not unused_imports(source)


@pytest.mark.parametrize("module", MODULES)
def test_library_module_has_no_unused_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert not unused_imports(source)
    assert not reimports(source)
    assert private_imports(source) == PRIVATE_IMPORTS.get(module, set())


def test_private_imports_flags_relative_imports_of_private_names():
    assert private_imports("from .model import (ModelParams, _t_chunks)\n"
                           "from ._x import y\nfrom os import _exit\n"
                           "def f():\n    from . import _z\n") \
        == {"_t_chunks", "_z"}


@pytest.mark.parametrize("path", TESTS_AND_SCRIPTS)
def test_test_or_script_has_no_unused_imports(path):
    source = (ROOT / path).read_text(encoding="utf-8")
    assert not unused_imports(source)
    assert not reimports(source)
