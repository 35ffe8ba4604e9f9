"""The package imports nothing outside the standard library.

numpy may well be installed where the tests run, so an accidental import
would pass every other test; this reads the imports instead of running them.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "collatzkit").glob("*.py"))


def test_sources_found():
    assert any(p.name == "__init__.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    assert sorted(m for m in modules if m.split(".")[0] not in sys.stdlib_module_names) == []
