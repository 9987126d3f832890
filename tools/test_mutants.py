"""Self-test of the mutant runner on a two-file tree of its own: a mutant
that no test catches is reported as surviving, and a broken entry, or one
whose nodes do not pass unedited, as an error.  Run from the repository
root: python -m pytest tools/test_mutants.py
"""

from pathlib import Path

import mutants

TREE = {
    "pyproject.toml": '[tool.pytest.ini_options]\npythonpath = ["src"]\n',
    "src/toy.py": "def f():\n    return 1\n",
    "tests/test_toy.py": ("import pytest\nfrom toy import f\n\n\n"
                          "def test_f():\n    assert f() in (1, 2)\n\n\n"
                          "def test_broken():\n    assert f() == 2\n\n\n"
                          "@pytest.mark.skip\ndef test_skipped():\n"
                          "    assert f() == 1\n"),
}


def _tree(tmp_path: Path) -> Path:
    for name, text in TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    return tmp_path


def _mutant(new, old="return 1", node="tests/test_toy.py::test_f"):
    return mutants.Mutant("toy", "src/toy.py", old, new, (node,))


def test_verdicts(tmp_path):
    root = _tree(tmp_path)
    assert mutants.run(_mutant("return 3"), root)[0] == "killed"
    assert mutants.run(_mutant("return 2"), root)[0] == "survived"
    # old text absent, and a node id that names no test
    verdict, _, why = mutants.run(_mutant("return 3", old="return 4"), root)
    assert verdict == "error" and "occurs 0 times" in why
    assert mutants.run(_mutant("return 3", node="tests/test_toy.py::test_g"),
                       root)[0] == "error"
    # a node that fails, or is skipped, without any edit catches nothing
    for node in ("tests/test_toy.py::test_broken",
                 "tests/test_toy.py::test_skipped"):
        verdict, _, why = mutants.run(_mutant("return 3", node=node), root)
        assert verdict == "error" and "unedited copy" in why, node
    # the runner edits only its copy
    assert (root / "src/toy.py").read_text() == TREE["src/toy.py"]


def test_survivor_fails_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mutants, "ROOT", _tree(tmp_path))
    monkeypatch.setattr(mutants, "MUTANTS", (_mutant("return 2"),))
    assert mutants.main() == 1
    out = capsys.readouterr().out
    assert "survived toy" in out and "0 of 1 mutants killed" in out
