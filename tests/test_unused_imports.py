"""No library module, test or script imports a name it never uses.

No linter ships with the project, so this stdlib `ast` check keeps imports
from lingering once their last caller is gone. The package's `__init__.py`
is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "floquet_dqpt"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")
TESTS_AND_SCRIPTS = sorted(str(p.relative_to(ROOT))
                           for folder in ("tests", "scripts")
                           for p in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_flags_a_dead_name():
    assert unused_imports("import math\nfrom os import path, sep\n"
                          "x = path.join(sep)\n") == {"math"}


@pytest.mark.parametrize("module", MODULES)
def test_library_module_has_no_unused_imports(module):
    assert not unused_imports((PACKAGE / module).read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", TESTS_AND_SCRIPTS)
def test_test_or_script_has_no_unused_imports(path):
    assert not unused_imports((ROOT / path).read_text(encoding="utf-8"))
