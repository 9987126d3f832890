"""Workload process: set up, time config runs through efgp.cli, report.

run.py starts this script with one JSON argument, the job.  It prints
{"event": "ready"} once set-up (import, warm-up config, input generation)
is done and, unless the job is set-up only, one {"event": "done", ...}
line with every repeat's timings and output digests.  The output checks
run in the parent, off the clock and outside this process's memory.
"""

import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import STAGES, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Files above this size are hashed and then removed from the second repeat
# on, so a long run does not fill the disk with identical trajectories.
KEEP_BYTES = 1 << 20
MAX_REPS = 20
# byte-identity across repeats is one of these workloads' checks
MIN_REPS = {"prufer-csv": 2, "lemma-sums": 2}


def _emit(obj):
    print(json.dumps(obj), flush=True)


def _digests(rep_dir, prune):
    """sha256 of every output file, and the names of the files pruned."""
    out, pruned = {}, []
    for path in sorted(rep_dir.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[path.name] = h.hexdigest()
        if prune and path.stat().st_size > KEEP_BYTES:
            path.unlink()
            pruned.append(path.name)
    return out, pruned


def _run_config(cli, doc):
    """One timed config run: parse, compute, write every output."""
    text = json.dumps(doc)
    gc.collect()
    t0 = time.perf_counter()
    c0 = time.process_time()
    report, exit_code, error = None, None, None
    try:
        report = cli.run(cli.parse_config(text), threads=1, quiet=True)
        exit_code = report["exit_code"]
    except Exception:  # a failing run is counted, the benchmark goes on
        error = traceback.format_exc()
    rec = {"wall": time.perf_counter() - t0,
           "cpu": time.process_time() - c0,
           "exit_code": exit_code, "error": error}
    return rec, report


def _repeat(cli, cfg, run_dir, workload, seconds):
    reps = []
    begin = time.perf_counter()
    while True:
        rep_dir = run_dir / f"rep{len(reps) + 1}"
        rec, _ = _run_config(cli, dict(cfg, output_dir=str(rep_dir)))
        rec["dir"] = rep_dir.name
        rec["digests"], rec["pruned"] = (
            _digests(rep_dir, prune=bool(reps)) if rep_dir.is_dir() else ({}, []))
        reps.append(rec)
        elapsed = time.perf_counter() - begin
        longest = max(r["wall"] for r in reps)
        if len(reps) >= MAX_REPS:
            return reps
        if len(reps) >= MIN_REPS.get(workload, 1) and elapsed + longest > seconds:
            return reps


def _traced_rep(cli, cfg, run_dir, untraced_wall):
    tracer = Tracer()
    tracer.install()
    rep_dir = run_dir / "traced"
    try:
        rec, report = tracer.call(
            "bench.run", _run_config, (cli, dict(cfg, output_dir=str(rep_dir))),
            {}, None)
    finally:
        tracer.uninstall()
    rec["dir"] = rep_dir.name
    rec["digests"], rec["pruned"] = (
        _digests(rep_dir, prune=True) if rep_dir.is_dir() else ({}, []))
    rec["traced"] = True
    timings = report["timings"] if report else {}
    metrics = layer_metrics(tracer, rec["wall"], untraced_wall, timings)
    table = tracer.self_times()
    # spans are kept in memory during the run and written once, here
    with open(run_dir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "work"],
                   "spans": tracer.spans}, fh)
    layers = {name: {"calls": c, "total_s": incl, "self_s": own}
              for name, (c, incl, own) in table.items()}
    dominant = max((n for n in layers if n != "bench.run"),
                   key=lambda n: layers[n]["self_s"], default=None)
    trace = {"notes": tracer.notes, "layers": layers, "dominant": dominant,
             "unlisted_stages": sorted(set(timings) - set(STAGES))}
    return rec, metrics, trace


def main():
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import efgp
    from efgp import cli

    workload, seed = job["workload"], job["seed"]
    run_dir = Path(job["run_dir"])
    warm = workloads.make_config(workload, seed, "warmup")
    rec, _ = _run_config(cli, dict(warm, output_dir=str(run_dir / "warmup")))
    if rec["error"] is not None:
        sys.stderr.write(f"warm-up config failed:\n{rec['error']}")
        return 1
    cfg = workloads.make_config(workload, seed, job["scale"])
    _emit({"event": "ready"})
    if job["setup_only"]:
        return 0

    reps = _repeat(cli, cfg, run_dir, workload, job["seconds"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = {"event": "done", "reps": reps, "peak_rss_mb": peak_rss_mb,
            "versions": {"efgp": efgp.__version__, "backend": efgp.backend(),
                         "python": platform.python_version(),
                         "numpy": numpy.__version__,
                         "scipy": scipy.__version__}}
    if job["trace"]:
        untraced = statistics.median(r["wall"] for r in reps)
        rec, metrics, trace = _traced_rep(cli, cfg, run_dir, untraced)
        reps.append(rec)
        done["per_layer"] = metrics
        done["trace"] = trace
    _emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
