"""Self-tests of the benchmark: a tiny smoke run of every workload, and
fault injection showing that each output check can fail.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from checks import Checker, identical_bytes  # noqa: E402
from tracer import PER_LAYER, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

from efgp import cli  # noqa: E402

SEED = 7


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_metrics_match_the_code():
    spec = _declared()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_reports_every_metric(workload):
    spec = _declared()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        detail, result = run.run_benchmark(workload, SEED, 0.5, trace, "tiny")
        assert result["correct"], detail["reps"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        assert detail["environment"]["backend"] in ("numpy", "numba")
        if trace:
            assert detail["trace_summary"]["notes"] == []
            assert result["metrics"]["trace.overhead_s"]["unit"] == "s"
        else:
            assert all(result["metrics"][m]["value"] > 0
                       for m in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                                 "pass_ratio"))


def test_same_seed_same_inputs():
    for w in WORKLOADS:
        assert make_config(w, SEED) == make_config(w, SEED)
        assert make_config(w, SEED) != make_config(w, SEED + 1)


def test_tracer_notes_a_missing_name_and_restores_bindings():
    tracer = Tracer()
    original = cli.evolve_trajectory
    tracer.install(TARGETS + (("gone", "efgp.spectral", "_golden_missing", None),))
    try:
        assert cli.evolve_trajectory is not original
        assert tracer.notes == ["absent: efgp.spectral._golden_missing"]
    finally:
        tracer.uninstall()
    assert cli.evolve_trajectory is original


# -- fault injection -------------------------------------------------------

def _outputs(workload, tmp_path):
    cfg = make_config(workload, SEED, "tiny")
    out = tmp_path / workload
    report = cli.run(cli.parse_config(json.dumps(dict(cfg, output_dir=str(out)))))
    assert report["exit_code"] == 0
    checker = Checker(workload, cfg)
    assert checker.problems(out) == []
    return checker, out


def _rewrite(path, edit):
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def test_dropped_eigenvalue_is_caught(tmp_path):
    checker, out = _outputs("window-bound", tmp_path)

    def drop_middle_row(text):
        lines = text.splitlines(keepends=True)
        del lines[len(lines) // 2]
        return "".join(lines)

    _rewrite(out / "spectrum.csv", drop_middle_row)
    assert any("records, oracle has" in p for p in checker.problems(out))


def test_perturbed_theta_is_caught(tmp_path):
    checker, out = _outputs("prufer-csv", tmp_path)

    def perturb_theta(text):
        lines = text.splitlines(keepends=True)
        cells = lines[10].split(",")
        cells[3] = repr(float(cells[3]) + 1e-6)
        lines[10] = ",".join(cells)
        return "".join(lines)

    before, _ = worker._digests(out, prune=False)
    _rewrite(out / "trajectory_1.csv", perturb_theta)
    assert any("theta_bar - theta != x" in p for p in checker.problems(out))
    # as a repeat of the untouched output it also fails byte identity
    after, _ = worker._digests(out, prune=False)
    assert identical_bytes("prufer-csv", [{"digests": before},
                                          {"digests": after}])[1] != []


def test_skewed_exponent_is_caught(tmp_path):
    checker, out = _outputs("construct", tmp_path)

    def skew(text):
        report = json.loads(text)
        report["payload"]["fitted_exponent"] *= 1.1
        return json.dumps(report)

    _rewrite(out / "report.json", skew)
    assert any("fitted exponent" in p for p in checker.problems(out))


def test_wrong_sup_is_caught(tmp_path):
    checker, out = _outputs("lemma-sums", tmp_path)

    def shift_sup(text):
        diag = json.loads(text)
        diag["c1"][0]["sup_abs"] += 1e-6
        return json.dumps(diag)

    _rewrite(out / "diagnostics.json", shift_sup)
    assert any("reference" in p for p in checker.problems(out))


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
