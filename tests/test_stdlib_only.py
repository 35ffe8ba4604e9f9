"""The package and its literal oracles, tests/literal.py, import nothing
outside the standard library, and the package checks its arguments with
`raise`, never with `assert`.

numpy may well be installed where the tests run, so an accidental import
would pass every other test; this reads the imports instead of running them.
`python -O` strips assert statements, so a check written as one would vanish
without any test run under plain `python` noticing; this reads the syntax
tree for them.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "collatzkit").glob("*.py"))
LITERAL = Path(__file__).resolve().parent / "literal.py"


def test_sources_found():
    assert any(p.name == "__init__.py" for p in SOURCES)


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("path", [*SOURCES, LITERAL], ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    modules = set()
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    assert sorted(m for m in modules if m.split(".")[0] not in sys.stdlib_module_names) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert [node.lineno for node in _nodes(path) if isinstance(node, ast.Assert)] == []
