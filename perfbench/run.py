"""End-to-end and per-layer benchmark of the efgp CLI.

Run from the repository root:

    python3 perfbench/run.py --workload window-bound --seed 1 --seconds 50 --trace 0

Each run starts fresh workload processes (worker.py) that import efgp from
src/, set up and time config runs through ``efgp.cli.parse_config`` and
``efgp.cli.run``.  This process checks every repeat's outputs off the
clock, prints one detail line (environment, samples, check results,
trace summary) and, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import Checker, identical_bytes
from tracer import PER_LAYER
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# fresh-interpreter set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 3
# the whole run must end within 180 s
DEADLINE_S = 170.0
# The CLI computes on one thread (threads=1).  Left at its default,
# OpenBLAS splits the long np.dot of the decay fit over both cores and its
# idle helper thread then spins, which on construct burns about 1.7 CPU-s
# per wall-s and competes with the computing thread for the two cores.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_ratio", "1"))


class BenchError(Exception):
    pass


def _first_line(path, prefix):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def environment(seed):
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _first_line("/proc/cpuinfo", "model name")
        or platform.processor(),
        "caches": _caches(),
        "loadavg_start": list(os.getloadavg()),
        "thread_env": SINGLE_THREADED,
    }


def _spawn(job, deadline):
    """Run one worker; return (seconds from start to ready, done message)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env=dict(os.environ, **SINGLE_THREADED))
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, done = None, None
    try:
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                continue  # not the worker protocol
            msg = json.loads(line)
            if msg["event"] == "ready":
                ready = time.perf_counter() - t0
            elif msg["event"] == "done":
                done = msg
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"workload process exited with {proc.returncode}")
    if not job["setup_only"] and done is None:
        raise BenchError("workload process ended without a result")
    return ready, done


def _check(workload, cfg, run_dir, reps):
    """Check every repeat off the clock; one problem list per repeat."""
    checker = Checker(workload, cfg)
    checked = []
    for rep, problems in zip(reps, identical_bytes(workload, reps)):
        if rep["error"] is not None:
            problems.append(f"raised: {rep['error'].strip().splitlines()[-1]}")
        elif rep["exit_code"] != 0:
            problems.append(f"exit code {rep['exit_code']}")
        else:
            problems += checker.problems(run_dir / rep["dir"], rep["pruned"])
        checked.append({"rep": rep["dir"], "wall_s": rep["wall"],
                        "cpu_s": rep["cpu"], "problems": problems})
    return checked


def run_benchmark(workload, seed, seconds, trace, scale="full"):
    """Set up, time and check one workload; return (detail, result)."""
    if not (ROOT / "src" / "efgp" / "__init__.py").is_file():
        raise BenchError(f"efgp sources not found under {ROOT / 'src'}")
    # the lemma-sums oracle uses efgp's public API
    sys.path.insert(0, str(ROOT / "src"))

    deadline = time.monotonic() + DEADLINE_S
    env = environment(seed)
    cfg = make_config(workload, seed, scale)
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    job = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "scale": scale, "run_dir": str(run_dir),
           "setup_only": False}
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(dict(job, setup_only=True), deadline)[0])
        ready, done = _spawn(job, deadline)
        setups.append(ready)
        checked = _check(workload, cfg, run_dir, done["reps"])
    finally:
        # repeat outputs are large; keep only result.json and spans.json
        for entry in run_dir.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry)
    attempted = len(checked)
    failed = sum(1 for c in checked if c["problems"])

    timed = [r for r in done["reps"] if not r.get("traced")]
    if trace:
        metrics = done["per_layer"]
        units = dict(PER_LAYER)
    else:
        metrics = {
            "wall_s": statistics.median(r["wall"] for r in timed),
            "cpu_s": statistics.median(r["cpu"] for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": done["peak_rss_mb"],
            "pass_ratio": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    env.update(done["versions"])
    env["note"] = ("fallback-path numbers: pure-Python/numpy kernels, "
                   "numba absent" if env["backend"] == "numpy"
                   else "JIT-compiled kernels")
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "scale": scale, "environment": env,
              "config": cfg,
              "samples": {"wall_s": len(timed), "setup_s": len(setups)},
              "setup_s": setups, "reps": checked,
              "trace_summary": done.get("trace")}
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, result = run_benchmark(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
