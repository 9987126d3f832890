"""The mutant table in tools/mutants.py stays applicable: every entry's edit
applies to a copy of its file, and every node it names is a test
function.  The mutants themselves run outside tier-1
(python tools/mutants.py)."""

import ast
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import mutants  # noqa: E402


def test_every_entry_applies_once_and_names_existing_tests(tmp_path):
    assert len({m.id for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        copy = tmp_path / m.id / m.file
        copy.parent.mkdir(parents=True)
        shutil.copy2(ROOT / m.file, copy)
        mutants.apply(tmp_path / m.id, m)
        assert m.old != m.new, m.id
        for node in m.tests:
            path, name = node.split("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            assert name in {f.name for f in tree.body
                            if isinstance(f, ast.FunctionDef)}, (m.id, node)
