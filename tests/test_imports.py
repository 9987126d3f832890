"""Source hygiene: no module of the package imports a name it never uses,
and every name in ``efgp.__all__`` resolves."""

import ast
from pathlib import Path

import pytest

import efgp

SRC = Path(efgp.__file__).parent


def _imported(tree) -> dict:
    """Name bound -> line, for every import but ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if module == "__init__.py":
        used = set(efgp.__all__)  # the package imports only to re-export
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert unused == {}, f"{module} imports names it never uses (line numbers)"


def test_all_names_resolve():
    assert len(set(efgp.__all__)) == len(efgp.__all__)
    missing = [name for name in efgp.__all__ if not hasattr(efgp, name)]
    assert missing == []
