"""Every name that a module under src/, scripts/ or tests/ imports is used
in it, but for an import on a line marked ``# noqa: F401``, and every
module-level constant and class under src/ is referenced from src/, scripts/
or perfbench/.

No linter runs on this repository, so this catches an import or a constant
that a deletion leaves behind.  A package's ``__init__.py`` holds only its
docstring: callers import each name from the module that defines it, so no
re-export layer can grow back.  Only ``miner.py`` schedules a run: no
other module under src/ builds a thread or an executor or sets ``ISSUE_RANK``.
Only ``backends/baseline.py`` imports numpy.  No module under src/ imports
the HTTP stack (``http``, ``email``, ``ssl``, ``urllib.request``) when it is
imported itself.  Every error kind in ``errors.py`` is raised somewhere, and
an ``except`` under src/ names only ``MiningError`` or a kind that is raised.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGES = sorted((ROOT / "src").rglob("__init__.py"))
MODULES = sorted(path for path in (ROOT / "src").rglob("*.py") if path.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """``line name`` of each name imported in ``source`` and never read, but
    for one imported on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("import os.path\nimport json\nfrom x import (a, b as c)\n"
              "print(os.sep, c)\nimport numpy  # noqa: F401\n")
    assert _unused_imports(source) == ["2 json", "3 a"]


def _defined(tree: ast.Module) -> dict[str, int]:
    """``name -> line`` of each class and assigned name at the top of ``tree``."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return defined


def _referenced(trees) -> set[str]:
    """Every name that ``trees`` read, as a name, an attribute or an import."""
    names: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    return names


def test_every_module_level_constant_and_class_under_src_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES + PERFBENCH}
    referenced = _referenced(trees.values())
    unreferenced = [f"{path.relative_to(ROOT).as_posix()}:{line} {name}"
                    for path, tree in trees.items() if path.is_relative_to(ROOT / "src")
                    for name, line in _defined(tree).items() if name not in referenced]
    assert unreferenced == []


def test_an_unreferenced_constant_or_class_is_found():
    module = ast.parse("X = 1\nY: int = 2\nclass C: pass\nclass D: pass\n"
                       "A, B = X, 3\ndef f():\n    return D\n")
    other = ast.parse("import m\nfrom m import Y\nprint(m.A, m.C)\n")
    referenced = _referenced([module, other])
    assert sorted(name for name in _defined(module) if name not in referenced) == ["B"]


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


# What builds a thread or an executor, by the name it is called by.
_SCHEDULERS = {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process"}


def _schedules(tree: ast.Module) -> list[str]:
    """``line what`` of each thread or executor that ``tree`` builds and of
    each use of ``ISSUE_RANK.set`` in it, called or passed on."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _SCHEDULERS:
                found.append(f"{node.lineno} {name}")
        elif (isinstance(node, ast.Attribute) and node.attr == "set"
              and isinstance(node.value, ast.Name) and node.value.id == "ISSUE_RANK"):
            found.append(f"{node.lineno} ISSUE_RANK.set")
    return found


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.is_relative_to(ROOT / "src") and path.name != "miner.py"],
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_only_the_miner_schedules_the_run(path):
    """``miner.py`` owns the run's schedule: the call pool's executor, the
    issue drivers and the issue ranks."""
    assert _schedules(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_thread_an_executor_or_a_rank_outside_the_miner_is_found():
    tree = ast.parse("import threading\nfrom concurrent import futures as f\n"
                     "threading.Thread(target=print)\nwith f.ThreadPoolExecutor(2) as x:\n"
                     "    ISSUE_RANK.set(1)\nother.set(1)\nset(x)\nCallPool(2)\n"
                     "copy_context().run(ISSUE_RANK.set, 2)\n")
    assert sorted(_schedules(tree)) == ["3 Thread", "4 ThreadPoolExecutor", "5 ISSUE_RANK.set",
                                        "9 ISSUE_RANK.set"]


# The one module under src/ that imports numpy: it holds head training, the
# baselines, their training data and the ablation.  An import under
# ``TYPE_CHECKING`` counts too.
_NUMPY_MODULES = {"rationale_miner/backends/baseline.py"}


def _numpy_imports(tree: ast.Module) -> list[str]:
    """``line module`` of each import of numpy or of a numpy submodule in
    ``tree``, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found.extend(f"{node.lineno} {module}" for module in modules
                     if module.partition(".")[0] == "numpy")
    return found


@pytest.mark.parametrize("path", [path for path in MODULES if path.is_relative_to(ROOT / "src")],
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_only_the_baseline_module_imports_numpy(path):
    """Only ``backends/baseline.py`` imports numpy, so prompt-head mining,
    ``stats``, ``split`` and ``eval`` never load it."""
    named = path.relative_to(ROOT / "src").as_posix() in _NUMPY_MODULES
    assert bool(_numpy_imports(ast.parse(path.read_text(encoding="utf-8")))) == named


def test_a_numpy_import_is_found():
    tree = ast.parse("import numpy as np\nimport numpyish\nfrom numpy.linalg import norm\n"
                     "from . import numpy\nimport os, numpy.random\n"
                     "def f():\n    import numpy\n")
    assert _numpy_imports(tree) == ["1 numpy", "3 numpy.linalg", "5 numpy.random", "7 numpy"]


# The standard library's HTTP stack.  The remote backend's transport is the
# package's own; ssl and urllib.request load inside the functions that need
# them (an https:// backend, a ``*_proxy`` variable), never on import.
_HTTP_STACK = ("http", "email", "ssl", "urllib.request")


def _in_http_stack(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in _HTTP_STACK)


def _http_stack_imports_on_import(tree: ast.Module) -> list[str]:
    """``line module`` of each import of the HTTP stack that runs when the
    module of ``tree`` is imported: one outside every function body."""
    found = []
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # ``from urllib import request`` imports urllib.request
            modules = [node.module] if _in_http_stack(node.module) else [
                f"{node.module}.{alias.name}" for alias in node.names]
        else:
            nodes.extend(ast.iter_child_nodes(node))
            continue
        found.extend(f"{node.lineno} {module}" for module in modules if _in_http_stack(module))
    return sorted(found, key=lambda entry: int(entry.split()[0]))


@pytest.mark.parametrize("path", [path for path in MODULES if path.is_relative_to(ROOT / "src")],
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_no_module_under_src_imports_the_http_stack_on_import(path):
    """A command that sends nothing over plain HTTP loads no http.client,
    email, ssl or urllib.request."""
    assert _http_stack_imports_on_import(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_http_stack_import_on_import_is_found():
    tree = ast.parse("import ssl\nimport http.client as hc\nfrom email import parser\n"
                     "from urllib import request, parse\nimport urllib.parse\n"
                     "import sslib, httpx\nif True:\n    from urllib.request import urlopen\n"
                     "class C:\n    import email.utils\n"
                     "def f():\n    import ssl\n    from http import client\n"
                     "try:\n    import socket\nexcept ImportError:\n    import http\n")
    assert _http_stack_imports_on_import(tree) == [
        "1 ssl", "2 http.client", "3 email", "4 urllib.request", "8 urllib.request",
        "10 email.utils", "17 http"]


def _names(node: ast.AST) -> set[str]:
    """Each name in ``node``, bare or as the attribute of a module."""
    return {part.id if isinstance(part, ast.Name) else part.attr for part in ast.walk(node)
            if isinstance(part, (ast.Name, ast.Attribute))}


def _raised_and_caught(trees) -> tuple[set[str], set[str]]:
    """The names that a ``raise`` in ``trees`` raises, called or not, and the
    names that an ``except`` clause in them catches."""
    raised, caught = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _names(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _names(node.type)
    return raised, caught


def _idle_error_kinds(errors: ast.Module, trees) -> list[str]:
    """``never raised K`` for each class K in ``errors`` but ``MiningError``
    that no ``raise`` in ``trees`` raises, and ``caught, never raised K`` for
    each such K that an ``except`` in them names."""
    kinds = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    kinds.discard("MiningError")
    raised, caught = _raised_and_caught(trees)
    return sorted([f"never raised {kind}" for kind in kinds - raised] +
                  [f"caught, never raised {kind}" for kind in (kinds & caught) - raised])


def test_every_error_kind_is_raised_and_every_caught_one_too():
    """A kind that no ``raise`` under src/ raises, or an ``except`` that waits
    for one, guards a cause that no input reaches."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES if path.is_relative_to(ROOT / "src")]
    errors = ast.parse((ROOT / "src" / "rationale_miner" / "errors.py").read_text(encoding="utf-8"))
    assert _idle_error_kinds(errors, trees) == []


def test_an_idle_error_kind_is_found():
    errors = ast.parse("class MiningError(Exception): pass\n" + "".join(
        f"class {kind}(MiningError): pass\n" for kind in "ABCDE"))
    module = ast.parse("try:\n    raise A('x')\nexcept (B, MiningError):\n    raise\n"
                       "except C as exc:\n    raise errors.D from exc\n"
                       "def f():\n    raise C if f else OSError\n")
    assert _idle_error_kinds(errors, [module]) == ["caught, never raised B", "never raised B",
                                                   "never raised E"]
