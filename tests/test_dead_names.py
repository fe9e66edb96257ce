"""Every function, class, method and property that ``src/metasched``
defines is used by the program: some module of ``src/metasched`` or
``perfbench`` refers to its name outside its own definition. A helper
that only the tests call belongs in the tests, as ``tests/oracles.py``
holds the reference forms.

The check reads the source with ``ast`` and matches bare names, so an
attribute of the same name anywhere counts as a use: it finds helpers
nothing calls, not every dead path.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metasched"
# "module.name" or "module.Class.name" -> why it stays without a reference
ALLOWED = {}


def _references(node):
    """How often each name is read under ``node``, as a ``Name`` or as
    the attribute of an ``Attribute``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(module, tree):
    """(qualified name, node) of each module-level function and class,
    and of each method or property of a module-level class, but dunders
    and overrides: a base class reaches those by itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            bases = getattr(module, node.name).__mro__[1:]
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                dunder = item.name.startswith("__") and item.name.endswith("__")
                if not dunder and not any(hasattr(b, item.name) for b in bases):
                    yield f"{node.name}.{item.name}", item


def test_every_package_definition_is_referenced():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}
    uses = Counter()
    for tree in trees.values():
        uses.update(_references(tree))
    unused = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        module = importlib.import_module(f"metasched.{path.stem}".removesuffix(".__init__"))
        for qualname, node in _definitions(module, tree):
            if uses[node.name] == _references(node)[node.name]:
                unused.add(f"{path.stem}.{qualname}")
    assert sorted(unused - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - unused) == [], "allowed names that are now referenced"
