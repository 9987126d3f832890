"""Source hygiene: every private helper of the package is used, and every
exported function is run by the package or is one of the paper's lemma
checks.

A private name (one leading underscore) is internal to ``efgp``, so a
private top-level name or private method that no code in the package reads
is dead: typically a helper that a deletion left behind.  An exported
function that no module of the package reads is a second route, and
belongs with the tests as an oracle.
"""

import ast
import inspect
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


# the paper's lemma checks: the acceptance criteria call them, no command does
LEMMA_CHECKS = {"almost_orthogonality_check", "angle_increment_check",
                "log_bound_check", "oscillatory_partial_sums",
                "prufer_sum_diagnostics", "solve_recurrence", "to_prufer",
                "verify_recursions"}


def test_every_exported_function_is_run_or_a_lemma_check():
    trees = [ast.parse(p.read_text(), filename=p.name)
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    reads = sum((_reads(t) for t in trees), Counter())
    functions = {name for name in efgp.__all__
                 if inspect.isfunction(getattr(efgp, name))}
    assert LEMMA_CHECKS <= functions
    unread = [name for name in sorted(functions - LEMMA_CHECKS)
              if reads[name] == 0]
    assert unread == []
