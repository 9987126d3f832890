"""Benchmark snapshots and A/B pairs, on perfbench/run.py as it stands.

Every run is one ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a tree exported with ``git archive``, so what is measured is
committed code; the metrics are the end-to-end ones BENCHMARK.json declares,
read from the result object on the run's last line.

    python tools/bench.py snapshot [--seeds 1-10] [--seconds 10]

runs the declared workloads once per seed on HEAD and writes
BENCH_numpy.json: the commit, host, versions, command lines, per-seed
metrics, and each metric's median and quartiles.

    python tools/bench.py pair REV [--seeds 1-10] [--seconds 10]

runs the A/B protocol between REV (the parent) and HEAD (the change): per
seed, one run of each, the parent first in every other pair, then the same
between REV and a second copy of REV (the control).  It prints, per
workload and metric, the parent's median [quartiles], the change's median,
the move, in how many pairs the change and the control were better than
the parent, and in how many the change was better than the control pair's
parent run of the same seed (parent2).  A move worse than BENCHMARK.json's
bound is flagged, and so is a metric whose parent runs spread wider than
the bound (unresolved), unless every change run is better than every
parent run.  The claim rule: the change is better in at least 9 of 10
pairs (ceil(0.9 n) of n; a tie counts for neither), and its median is
better than the parent's by more than the parent's interquartile range.
A wall_s claim is met on a workload where the rule holds for the change,
holds again for the change against parent2, and does not hold for the
control: host load that falls on one set of parent runs cannot meet a
claim alone.

Both commands take --workload (repeatable; default the declared ones).
Exit status: 0, or 1 when a run fails or reports an incorrect result.
``pair_trees`` also takes perfbench's smaller scales (workloads.SIZES, e.g.
"tiny"), through ``run_benchmark``, for quick runs of the protocol itself.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "BENCH_numpy.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DECLARED = tuple(w["name"] for w in BENCHMARK["workloads"])
# name -> (better, bound) of each end-to-end metric
END_TO_END = {m["name"]: (m["better"], m["bound"])
              for m in BENCHMARK["end_to_end"]}
# the metric a claim of a gain is read on
CLAIM = "wall_s"
# run_benchmark at another scale: run.py's main has no --scale
_SCALED = ("import json, sys; sys.path.insert(0, 'perfbench'); import run; "
           "d, r = run.run_benchmark(sys.argv[1], int(sys.argv[2]), "
           "float(sys.argv[3]), False, sys.argv[4]); "
           "print(json.dumps(d)); print(json.dumps(r))")


class BenchError(Exception):
    pass


def export(rev: str, dest: Path, repo: Path = ROOT) -> str:
    """Write the tree of rev into dest; return rev's full commit hash."""
    commit = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify",
                             rev + "^{commit}"], capture_output=True,
                            text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar",
                          commit], capture_output=True, check=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def command(workload: str, seed: int, seconds: float, scale: str) -> list:
    """The command line of one run, to be started in a tree's root."""
    if scale == "full":
        return ["python3", "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", f"{seconds:g}",
                "--trace", "0"]
    return ["python3", "-c", _SCALED, workload, str(seed), f"{seconds:g}",
            scale]


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             scale: str) -> tuple:
    """(detail, result) of one run in tree; BenchError unless it exits 0
    with a correct result."""
    cmd = command(workload, seed, seconds, scale)
    proc = subprocess.run([sys.executable] + cmd[1:], cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"{' '.join(cmd)} in {tree} exited with "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise BenchError(f"{' '.join(cmd)} in {tree}: incorrect result "
                         f"({result['failed']} of {result['attempted']} failed)")
    return detail, result


def _metrics(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method)."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def rule(parent: list, change: list, better: str) -> tuple:
    """(pairs in which the change is better, whether the claim rule holds):
    better in at least ceil(0.9 n) of n pairs, and the median better by
    more than the parent's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    s = spread(parent)
    gap = sign * (s["median"] - statistics.median(change))
    return wins, wins >= math.ceil(0.9 * len(parent)) and gap > s["q3"] - s["q1"]


def _host() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform()}


def snapshot(rev: str, seeds: list, seconds: float, workloads: tuple) -> dict:
    """The snapshot document of rev: one run per workload and seed."""
    with tempfile.TemporaryDirectory(prefix="efgp-bench-") as tmp:
        tree = Path(tmp) / "tree"
        commit = export(rev, tree)
        doc = {"git_head": commit, "host": _host(), "seconds": seconds,
               "seeds": seeds, "workloads": {}}
        for w in workloads:
            runs = []
            for seed in seeds:
                detail, result = run_once(tree, w, seed, seconds, "full")
                doc["versions"] = {k: detail["environment"].get(k) for k in
                                   ("python", "numpy", "scipy", "backend")}
                runs.append({"seed": seed,
                             "command": command(w, seed, seconds, "full"),
                             "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": _metrics(result)})
                print(f"{w} seed {seed}: {_metrics(result)}", flush=True)
            doc["workloads"][w] = {
                "runs": runs,
                "summary": {m: spread([r["metrics"][m] for r in runs])
                            for m in END_TO_END}}
    return doc


def _alternate(trees: dict, w: str, seeds: list, seconds: float,
               scale: str) -> dict:
    """Per-seed metrics of the pairs (parent, change) and (parent,
    control), in that order per seed, the parent first in every other
    pair."""
    out = {"parent": [], "change": [], "parent2": [], "control": []}
    for i, seed in enumerate(seeds):
        for a, b in (("parent", "change"), ("parent2", "control")):
            for name in ((a, b) if i % 2 == 0 else (b, a)):
                tree = trees["parent" if name == "parent2" else name]
                out[name].append(
                    _metrics(run_once(tree, w, seed, seconds, scale)[1]))
                print(f"{w} seed {seed} {name}: {out[name][-1]}", flush=True)
    return out


def _status(parent: list, change: list, better: str, bound: float,
            move: float) -> str:
    """'worse than bound', 'unresolved' (the parent's runs spread wider
    than the bound, and the change's runs do not all read better), or ''."""
    sign = 1.0 if better == "lower" else -1.0
    if sign * move > bound:
        return "worse than bound"
    s = spread(parent)
    all_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if s["median"] and (s["q3"] - s["q1"]) / abs(s["median"]) > bound \
            and not all_better:
        return "unresolved"
    return ""


def compare(w: str, runs: dict) -> list:
    """The table rows of workload w, one per end-to-end metric, from its
    runs as _alternate returns them."""
    rows = []
    for m, (better, bound) in END_TO_END.items():
        p, p2, c, k = ([r[m] for r in runs[name]] for name in
                       ("parent", "parent2", "change", "control"))
        s, med_c = spread(p), statistics.median(c)
        move = (med_c - s["median"]) / s["median"] if s["median"] else 0.0
        wins, holds = rule(p, c, better)
        wins2, holds2 = rule(p2, c, better)
        ctl_wins, ctl_holds = rule(p2, k, better)
        rows.append({"workload": w, "metric": m, "parent": s,
                     "change": med_c, "control": statistics.median(k),
                     "move": move, "better_in": wins, "rule": holds,
                     "parent2_better_in": wins2, "parent2_rule": holds2,
                     "control_better_in": ctl_wins,
                     "control_rule": ctl_holds, "pairs": len(p),
                     "status": _status(p, c, better, bound, move)})
    return rows


def claims(rows: list) -> list:
    """(workload, metric) of each claim met among the rows."""
    return [(r["workload"], r["metric"]) for r in rows if r["metric"] == CLAIM
            and r["rule"] and r["parent2_rule"] and not r["control_rule"]]


def pair_trees(parent: Path, change: Path, control: Path, seeds: list,
               seconds: float, workloads: tuple,
               scale: str = "full") -> dict:
    """The A/B table of change against parent, and of control (a copy of
    parent) against parent, per workload and metric, and the claims met."""
    trees = {"parent": parent, "change": change, "control": control}
    rows = [r for w in workloads
            for r in compare(w, _alternate(trees, w, seeds, seconds, scale))]
    return {"rows": rows, "claims_met": claims(rows)}


def pair(rev: str, seeds: list, seconds: float, workloads: tuple) -> dict:
    """pair_trees on trees of rev, HEAD and rev again."""
    with tempfile.TemporaryDirectory(prefix="efgp-bench-") as tmp:
        trees = [Path(tmp) / name for name in ("parent", "change", "control")]
        commits = [export(r, t) for r, t in zip((rev, "HEAD", rev), trees)]
        out = pair_trees(*trees, seeds, seconds, workloads)
    out["parent_commit"], out["change_commit"] = commits[0], commits[1]
    return out


def table(out: dict) -> str:
    """The pair result as a markdown table and a verdict line."""
    n = out["rows"][0]["pairs"] if out["rows"] else 0
    rules = ("rule", "parent2_rule", "control_rule")
    lines = ["| workload | metric | parent median [q1, q3] | change median "
             "| move | change better | change better than parent2 "
             "| control median | control better "
             "| claim rule (change / against parent2 / control) |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for r in out["rows"]:
        p = r["parent"]
        flag = f" ({r['status']})" if r["status"] else ""
        lines.append(
            f"| {r['workload']} | {r['metric']} | {p['median']:.4g} "
            f"[{p['q1']:.4g}, {p['q3']:.4g}] | {r['change']:.4g} "
            f"| {100 * r['move']:+.1f}%{flag} | {r['better_in']} of {n} "
            f"| {r['parent2_better_in']} of {n} "
            f"| {r['control']:.4g} | {r['control_better_in']} of {n} "
            f"| {' / '.join('holds' if r[k] else 'fails' for k in rules)} |")
    met = ", ".join(f"{w} {m}" for w, m in out["claims_met"])
    lines.append(f"verdict on {CLAIM}: "
                 + (f"claim met on {met}" if met else "no claim met"))
    return "\n".join(lines)


def _seeds(text: str) -> list:
    """'1-10' or '3,7,11' as a list of ints."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    snap = sub.add_parser("snapshot")
    ab = sub.add_parser("pair")
    ab.add_argument("rev")
    for p in (snap, ab):
        p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
        p.add_argument("--seconds", type=float, default=10.0)
        p.add_argument("--workload", action="append", dest="workloads")
    args = parser.parse_args(argv)
    workloads = tuple(args.workloads or DECLARED)
    t0 = time.perf_counter()
    try:
        if args.mode == "snapshot":
            doc = snapshot("HEAD", args.seeds, args.seconds, workloads)
            SNAPSHOT.write_text(json.dumps(doc, indent=1) + "\n",
                                encoding="utf-8")
            print(f"wrote {SNAPSHOT}")
        else:
            out = pair(args.rev, args.seeds, args.seconds, workloads)
            print(f"parent {out['parent_commit']}, change "
                  f"{out['change_commit']}")
            print(table(out))
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"took {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
