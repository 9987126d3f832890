"""Golden outputs: the CLI's bytes for window-bound, lemma-sums, construct
and prufer-csv on seeds 3, 7 and 11 match ``tests/golden.json``.

Where this environment is the recorded one (numpy, scipy, BLAS builds and
kernels, CPU), every output's SHA-256 must match; elsewhere every decoded
value must match within ``golden.RTOL`` (see ``tools/golden.py``).  The
branch that ran is printed.  A change that alters bytes on purpose
rewrites the record with ``python tools/golden.py --write``.
"""

import copy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import golden  # noqa: E402


@pytest.fixture(scope="module")
def record():
    return golden.load()


@pytest.fixture(scope="module")
def runs(record):
    return golden.run_all({name: r["config"] for name, r in record["runs"].items()})


def test_golden_outputs(record, runs, capsys):
    branch, bad = golden.check(record, runs)
    with capsys.disabled():
        print(f"\ngolden outputs: {len(runs)} runs compared by {branch}")
    assert bad == []


def test_decoded_values_match_in_any_environment(record, runs):
    # the branch another machine takes runs here too
    assert golden.value_mismatches(record, runs) == []


def test_trajectory_csv_ends_at_the_payload_values(runs):
    # one trajectory gives both, the CSV through cli._FORMATTERS and
    # report.json through the JSON writer: the same floats on any machine
    for seed in golden.SEEDS:
        values = runs[f"prufer-csv/{seed}"]["values"]
        for j, name in enumerate(("trajectory_1.csv", "trajectory_2.csv")):
            for col, key in (("ln_R", "ln_R_final"), ("theta", "theta_final")):
                final = values["payload"][f"payload.trajectories[].{key}"]["at"][j]
                assert values[name][col]["at"][-1] == final, (seed, name, col)


def test_value_check_sees_a_deviation(record, runs):
    want = record["runs"]["prufer-csv/7"]["values"]["trajectory_1.csv"]["ln_R"]
    got = copy.deepcopy(runs)
    col = got["prufer-csv/7"]["values"]["trajectory_1.csv"]["ln_R"]
    col["at"][5] += 10 * golden.RTOL * want["max_abs"]
    assert [line.split(":")[0] for line in golden.value_mismatches(record, got)] == [
        "prufer-csv/7 trajectory_1.csv ln_R[1587]"]
    col["n"] -= 1
    assert len(golden.value_mismatches(record, got)) == 1
    del got["lemma-sums/3"]["values"]["payload"]["payload.n0"]
    assert len(golden.value_mismatches(record, got)) == 2


def test_record_covers_every_workload_and_seed_in_under_1_mb(record):
    assert golden.RECORD.stat().st_size < 2 ** 20
    assert sorted(record["runs"]) == sorted(
        f"{w}/{s}" for w in golden.SIZES for s in golden.SEEDS)
    for name, r in record["runs"].items():
        assert r["config"]["N"] == golden.SIZES[name.split("/")[0]]
        assert "payload" in r["sha256"] and set(r["sha256"]) == set(r["values"])
