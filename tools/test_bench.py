"""Self-test of tools/bench.py's pair protocol at perfbench's "tiny" sizes
and --seconds 1: two copies of one tree meet no claim, and a time.sleep
injected into the parent's classify makes the change meet the wall_s
claim; a parent slowed by load against a quiet second parent meets none.
Run from the repository root: python -m pytest tools/test_bench.py
(about 80 s).
"""

import shutil
from pathlib import Path

import bench

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [1, 2, 3, 4, 5]
# classify_spectrum's first statement
CLASSIFY = '    _instance(spec, OperatorSpec, "spec")\n'


def _tree(dest: Path, sleep: bool = False) -> Path:
    """A copy of the working tree's sources and benchmark; with sleep, its
    classify_spectrum first sleeps 20 ms."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns(
            "__pycache__", "_work"))
    if sleep:
        path = dest / "src" / "efgp" / "spectral.py"
        text = path.read_text(encoding="utf-8")
        assert text.count(CLASSIFY) == 1
        path.write_text(text.replace(CLASSIFY, '    __import__("time").sleep'
                                     '(0.02)\n' + CLASSIFY), encoding="utf-8")
    return dest


def _pair(parent: Path, change: Path, control: Path) -> dict:
    return bench.pair_trees(parent, change, control, SEEDS, 1.0,
                            ("window-bound",), "tiny")


def test_rule_counts_pairs_and_the_parents_spread():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    # lower in 9 of 10 by more than the parent's IQR (0.55)
    faster = [p - 0.6 for p in parent[:9]] + [2.0]
    assert bench.rule(parent, faster, "lower") == (9, True)
    # lower in 10 of 10, but by less than the IQR
    assert bench.rule(parent, [p - 0.1 for p in parent], "lower") == (10, False)
    # lower in 8 of 10 only
    assert bench.rule(parent, faster[:8] + [2.0, 2.0], "lower")[1] is False
    assert bench.rule(parent, [p + 0.6 for p in parent], "higher") == (10, True)


def _runs(**walls) -> dict:
    # per name, one metrics dict per seed; every metric but wall_s is 1.0
    return {name: [{**dict.fromkeys(bench.END_TO_END, 1.0), "wall_s": v}
                   for v in values] for name, values in walls.items()}


def test_load_on_the_parents_runs_alone_meets_no_claim():
    quiet = [0.050, 0.051, 0.052, 0.053, 0.054, 0.055, 0.056, 0.057, 0.058,
             0.059]
    # the change's runs equal the quiet parent2 and control runs; load
    # slowed the runs of the first parent by 30%
    runs = _runs(parent=[1.3 * v for v in quiet], parent2=quiet,
                 change=quiet, control=quiet)
    rows = bench.compare("window-bound", runs)
    wall = next(r for r in rows if r["metric"] == "wall_s")
    assert (wall["better_in"], wall["rule"]) == (10, True)
    assert (wall["parent2_better_in"], wall["parent2_rule"]) == (0, False)
    assert bench.claims(rows) == []
    table = bench.table({"rows": rows, "claims_met": bench.claims(rows)})
    assert "| 10 of 10 | 0 of 10 |" in table and "no claim met" in table
    # a change that is faster than parent, parent2 and control meets it
    runs["parent2"] = runs["control"] = runs["parent"]
    assert bench.claims(bench.compare("window-bound", runs)) == [
        ("window-bound", "wall_s")]


def test_status_flags_a_regression_and_a_wide_spread():
    parent = [1.0, 1.5, 2.0, 2.5, 3.0]  # IQR 1.5 of median 2.0
    assert bench._status([2.0] * 4, [2.6] * 4, "lower", 0.25, 0.3) \
        == "worse than bound"
    assert bench._status(parent, [1.9] * 5, "lower", 0.25, -0.05) \
        == "unresolved"
    # every change run better than every parent run resolves it
    assert bench._status(parent, [0.9] * 5, "lower", 0.25, -0.55) == ""
    assert bench._status(parent, [3.1] * 5, "higher", 0.25, 0.55) == ""
    assert bench._status([2.0] * 4, [2.1] * 4, "higher", 0.25, 0.05) == ""


def test_export_writes_a_committed_tree(tmp_path):
    commit = bench.export("HEAD", tmp_path)
    assert len(commit) == 40
    assert (tmp_path / "perfbench" / "run.py").is_file()
    assert (tmp_path / "src" / "efgp" / "__init__.py").is_file()


def test_two_copies_of_one_tree_meet_no_claim(tmp_path):
    trees = [_tree(tmp_path / name) for name in ("a", "b", "c")]
    out = _pair(*trees)
    assert out["claims_met"] == []
    assert "no claim met" in bench.table(out)
    assert {r["metric"] for r in out["rows"]} == set(bench.END_TO_END)


def test_sleep_in_the_parents_classify_meets_the_claim(tmp_path):
    parent, control = (_tree(tmp_path / name, sleep=True)
                       for name in ("parent", "control"))
    out = _pair(parent, _tree(tmp_path / "change"), control)
    assert out["claims_met"] == [("window-bound", "wall_s")]
    wall = next(r for r in out["rows"] if r["metric"] == "wall_s")
    assert wall["better_in"] == len(SEEDS) and wall["move"] < -0.5
    assert "claim met on window-bound wall_s" in bench.table(out)
