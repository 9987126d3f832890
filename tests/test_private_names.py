"""Source hygiene: every private helper of the package is used.

A private name (one leading underscore) is internal to ``efgp``, so a
private top-level name or private method that no code in the package reads
is dead: typically a helper that a deletion left behind.
"""

import ast
from collections import Counter
from pathlib import Path

import efgp

SRC = Path(efgp.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reads(node) -> Counter:
    """Names and attributes read (Load context) anywhere under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _definitions(tree):
    """(name, node) of every private top-level function, class and
    assignment, and of every private method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f.name, f) for f in node.body
                            if isinstance(f, ast.FunctionDef) and _private(f.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets
                        if isinstance(t, ast.Name) and _private(t.id))


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=p.name)
             for p in sorted(SRC.glob("*.py"))}
    reads = sum((_reads(t) for t in trees.values()), Counter())
    defined, orphans = 0, []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            defined += 1
            # a function that only calls itself is not used
            if reads[name] - _reads(node)[name] <= 0:
                orphans.append(f"{module}: {name} (line {node.lineno})")
    assert defined > 0
    assert orphans == []
