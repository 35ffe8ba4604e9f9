"""The package and its literal oracles, tests/literal.py, import nothing
outside the standard library; the package checks its arguments with
`raise`, never with `assert`, and its arithmetic is exact.

numpy may well be installed where the tests run, so an accidental import
would pass every other test; this reads the imports instead of running them.
`python -O` strips assert statements, so a check written as one would vanish
without any test run under plain `python` noticing; this reads the syntax
tree for them. A float can enter only through `math`, a float literal or a
true division `/`, so the package has none of the three (a `float`
annotation, such as a wall time's, is not arithmetic).
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


def _float_sources(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "math" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "math"
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point_arithmetic(path):
    assert [node.lineno for node in _nodes(path) if _float_sources(node)] == []
