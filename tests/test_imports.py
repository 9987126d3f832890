"""Source hygiene: no module of the package imports a name it never uses,
every name in ``efgp.__all__`` resolves, and the CLI runs without the
heavy scipy.linalg import."""

import ast
import json
import os
import subprocess
import sys
import textwrap
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


def test_cli_runs_without_scipy_linalg(tmp_path):
    # _kernels loads scipy's compiled BLAS/LAPACK wrappers by path:
    # importing scipy.linalg would also import its array-API layer and with
    # it numpy.f2py, numpy.testing and numpy.ma, most of the CLI's set-up
    code = textwrap.dedent("""
        import json, sys
        from efgp import cli
        out = sys.argv[1]
        pot = {"family": "resonant", "c": 2.2, "omega": 2.0943951023931953,
               "delta": 1.3575974530435633}
        for doc in (
                {"command": "bound-check", "potential": pot,
                 "phi": 2.4891024719091113, "N": 50, "window": [-2.0, 2.0],
                 "x_values": [1.0471975511965976], "output_dir": out + "/b"},
                {"command": "lemma-sums", "phi": 1.0, "N": 200,
                 "potential": {"family": "random_sign", "c": 1.0, "seed": 7},
                 "x_values": [0.4, 1.1], "output_dir": out + "/l"}):
            cli.run(cli.parse_config(json.dumps(doc)))
        print(json.dumps(sorted(sys.modules)))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert (tmp_path / "b" / "spectrum.csv").is_file()
    assert {"scipy.linalg", "numpy.f2py", "numpy.testing",
            "numpy.ma"} & loaded == set()
