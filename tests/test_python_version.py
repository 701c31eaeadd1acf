"""Every source file parses at the oldest Python that pyproject.toml declares.

Only a newer interpreter may run the suite, so this catches syntax that the
declared minimum lacks (``except*``, type-parameter lists, ...) before a user
of that minimum does.  It checks syntax only, not the library calls made.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src", "tests", "scripts")


def _minimum_python() -> tuple[int, int]:
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    spec = pyproject["project"]["requires-python"]
    match = re.fullmatch(r">=\s*3\.(\d+)", spec)
    assert match, f"requires-python is not of the form >=3.N: {spec!r}"
    return 3, int(match.group(1))


def _parses_at(source: str, version: tuple[int, int]) -> bool:
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError:
        return False
    return True


def test_sources_parse_at_the_declared_minimum_python():
    minimum = _minimum_python()
    files = sorted(path for name in CHECKED_DIRS for path in (ROOT / name).rglob("*.py"))
    assert files
    too_new = [str(path.relative_to(ROOT)) for path in files
               if not _parses_at(path.read_text(encoding="utf-8"), minimum)]
    assert too_new == []


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def first[T](items: list[T]) -> T:\n    return items[0]\n",
])
def test_syntax_newer_than_3_10_does_not_parse_at_3_10(source):
    assert not _parses_at(source, (3, 10))
