"""Every name that a module under src/ or scripts/ imports is used in it.

No linter runs on this repository, so this catches an import that a deletion
leaves behind.  A package's ``__init__.py`` holds only its docstring: callers
import each name from the module that defines it, so no re-export layer can
grow back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGES = sorted((ROOT / "src").rglob("__init__.py"))
MODULES = sorted(path for path in (ROOT / "src").rglob("*.py") if path.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """``line name`` of each name imported in ``tree`` and never read."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os.path\nimport json\nfrom x import (a, b as c)\n"
                     "print(os.sep, c)\n")
    assert _unused_imports(tree) == ["2 json", "3 a"]


def _only_a_docstring(tree: ast.Module) -> bool:
    return (len(tree.body) == 1 and isinstance(tree.body[0], ast.Expr)
            and isinstance(tree.body[0].value, ast.Constant)
            and isinstance(tree.body[0].value.value, str))


@pytest.mark.parametrize("path", PACKAGES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_a_package_init_holds_only_its_docstring(path):
    assert _only_a_docstring(ast.parse(path.read_text(encoding="utf-8")))


def test_an_export_in_a_package_init_is_found():
    assert not _only_a_docstring(ast.parse('"""Doc."""\nfrom .a import b\n'))
    assert not _only_a_docstring(ast.parse('"""Doc."""\n__version__ = "1"\n'))
    assert not _only_a_docstring(ast.parse(""))
