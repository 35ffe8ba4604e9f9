"""Every private function of the package, every name it exports and every
public member of its classes has a use.

A private function that only the tests call is a second implementation kept
for comparison; it belongs in the tests as a literal oracle, not in the
package. A public name or member has a use when other package code refers
to it or a README `>>>` example calls it. This reads the syntax trees, so it
imports nothing from collatzkit.
"""

import ast
import doctest
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "collatzkit"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _readme_examples():
    # code only: a name in README prose or in a docstring is no call
    return [ast.parse(ex.source) for ex in doctest.DocTestParser().get_examples((ROOT / "README.md").read_text())]


def _attributes_read(node):
    # how often each attribute name is read in the subtree
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


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
    for example in _readme_examples():
        used.update(_names(example))
    unused = [name for name in exported if name not in used]
    assert not unused, f"exported with no use in the package or a README example: {unused}"


def test_every_public_method_or_property_is_read_in_the_package_or_the_readme():
    members, read = [], Counter()  # members: (class, def node)
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read += _attributes_read(tree)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                members.extend(
                    (cls.name, fn)
                    for fn in cls.body
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_")
                )
    assert members, "no public members found"
    in_readme = set().union(*(_attributes_read(example) for example in _readme_examples()))
    # a member reading itself inside its own def is no use of it
    unused = [
        f"{cls}.{fn.name}"
        for cls, fn in members
        if fn.name not in in_readme and read[fn.name] - _attributes_read(fn)[fn.name] <= 0
    ]
    assert not unused, f"public members never read in the package or a README example: {unused}"
