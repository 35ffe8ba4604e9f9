"""Every module-level private function of the package has a caller in it.

A private function that only the tests call is a second implementation kept
for comparison; it belongs in the tests as a literal oracle, not in the
package. This reads the syntax trees, so it imports nothing from collatzkit.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "collatzkit").glob("*.py"))


def _names(node):
    # every name the subtree refers to: bare names, attributes, imports
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_function_is_referenced_in_the_package():
    private, uses = [], []  # uses: (module, top-level def or None, name)
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = top.name
                if top.name.startswith("_") and not top.name.startswith("__"):
                    private.append((path.name, top.name))
            uses.extend((path.name, owner, name) for name in _names(top))
    assert private, "no private functions found"
    # a function's references to itself (recursion) do not count
    unused = [(mod, fn) for mod, fn in private if not any(name == fn and (m, o) != (mod, fn) for m, o, name in uses)]
    assert unused == []
