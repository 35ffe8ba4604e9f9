"""Every private function of the package, and every name it exports, has a use.

A private function that only the tests call is a second implementation kept
for comparison; it belongs in the tests as a literal oracle, not in the
package. A public name has a use when other package code refers to it or a
README `>>>` example calls it. This reads the syntax trees, so it imports
nothing from collatzkit.
"""

import ast
import doctest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "collatzkit"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _names(node):
    # every name the subtree refers to: bare names read, attributes, imports
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
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


def test_every_exported_name_is_used_in_the_package_or_the_readme():
    init = PACKAGE / "__init__.py"
    exported = [
        alias.asname or alias.name
        for top in ast.parse(init.read_text()).body
        if isinstance(top, ast.ImportFrom)
        for alias in top.names
    ]
    assert exported, "no exported names found"
    used = set()
    for path in SOURCES:
        if path == init:
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            # a class or function referring to itself is no use of it
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            used.update(name for name in _names(top) if name != own)
    # code only: a name in README prose or in a docstring is no call
    for example in doctest.DocTestParser().get_examples((ROOT / "README.md").read_text()):
        used.update(_names(ast.parse(example.source)))
    unused = [name for name in exported if name not in used]
    assert not unused, f"exported with no use in the package or a README example: {unused}"
