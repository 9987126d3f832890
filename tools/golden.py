"""Golden outputs: the bytes the CLI writes for four workloads on seeds 3, 7
and 11, recorded in ``tests/golden.json`` and checked on every run.

    python tools/golden.py --write   # run the configs, rewrite the record
    python tools/golden.py --check   # run them again, compare, exit 1 on a mismatch

The configs are the benchmark's window-bound (N = 1000), lemma-sums
(N = 1e6), construct (N = 4e4) and prufer-csv (N = 2e4) documents of
``perfbench/workloads.py``; ``--write`` builds them, and the record keeps
them, so ``--check`` and ``tests/test_golden.py`` need only the record.
Each config runs through ``cli.run`` in a temporary directory.  The record
holds, per run, the SHA-256 of every output file but report.json, and of
the payload: report.json without ``timings``, ``config`` and
``environment`` (which vary from run to run or name the machine), hashed
as ``json.dumps(payload, sort_keys=True)``.

The bytes depend on the BLAS kernels: on one host, switching OpenBLAS's
kernels with ``OPENBLAS_CORETYPE`` changes every hashed output in the last
bits.  So the record also holds the environment (numpy, scipy, their BLAS
builds and kernels, numpy's CPU features, the CPU) and decoded values:
per output, every column of a CSV and every leaf path of a JSON document
(list entries in order), as its length, up to SAMPLES evenly spaced
entries, the largest magnitude and the compensated sums of the numbers and
of their magnitudes.  Where the environment matches the record, the check
compares hashes (exact bytes); elsewhere it compares the decoded values:
each sampled number within RTOL times the column's largest magnitude, each
sum within RTOL times the sum of magnitudes, every length and text exactly.
It prints which branch ran.  A change that alters bytes on purpose runs
``--write`` and names the changed outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "golden.json"
SEEDS = (3, 7, 11)
SIZES = {"window-bound": 1000, "lemma-sums": 1_000_000, "construct": 40_000,
         "prufer-csv": 20_000}
# kept entries per column of the decoded values
SAMPLES = 64
# the tolerance of the decoded values: OpenBLAS's Prescott, Nehalem and
# Haswell kernels against SkylakeX, on one host, moved no value by more
# than 7.8e-13 of its column's largest magnitude
RTOL = 1e-9


def configs() -> dict:
    """The CLI config documents by run name, built from perfbench's
    workloads (no output_dir)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return {f"{w}/{seed}": dict(workloads.make_config(w, seed), N=n)
            for w, n in SIZES.items() for seed in SEEDS}


def _openblas_cores() -> list:
    """The kernel set each OpenBLAS library loaded in this process runs
    (its ``get_corename``), by file name; empty where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    except OSError:
        return []
    cores = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_corename", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "scipy_openblas_get_corename64_"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                cores.append(f"{Path(path).name}: {getattr(lib, name)().decode()}")
                break
    return cores


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """What the bytes depend on besides the source: versions, BLAS builds
    and kernels, numpy's CPU features and the CPU."""
    import efgp._kernels  # noqa: F401  (loads scipy's BLAS, so its kernels show)
    from numpy._core._multiarray_umath import __cpu_features__

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"numpy": blas(np.show_config),
                     "scipy": blas(scipy.show_config)},
            "blas_cores": _openblas_cores(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
            "cpu": _cpu()}


def _leaf(v):
    """A finite number as a float; anything else (text, true, null, nan)
    as its text."""
    if isinstance(v, bool) or v is None:
        return json.dumps(v)
    try:
        f = float(v)
    except ValueError:
        return v
    return f if math.isfinite(f) else str(v)


def _columns(name: str, text: str) -> dict:
    """The decoded values of one output: a CSV's columns by header name
    (its stamp lines as column "#"), or a JSON document's leaves by path."""
    cols: dict = {}
    if name.endswith(".csv"):
        lines = text.splitlines()
        cols["#"] = [ln for ln in lines if ln.startswith("#")]
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        for j, head in enumerate(rows[0]):
            cols[head] = [_leaf(row[j]) for row in rows[1:]]
        return cols

    def walk(obj, path):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], f"{path}.{k}" if path else k)
        elif isinstance(obj, list):
            for v in obj:
                walk(v, path + "[]")
        else:
            cols.setdefault(path, []).append(_leaf(obj))

    walk(json.loads(text), "")
    return cols


def _sampled(n: int) -> list:
    return (list(range(n)) if n <= SAMPLES else
            sorted({round(i * (n - 1) / (SAMPLES - 1)) for i in range(SAMPLES)}))


def _summary(col: list) -> dict:
    nums = [v for v in col if isinstance(v, float)]
    return {"n": len(col), "at": [col[i] for i in _sampled(len(col))],
            "max_abs": max(map(abs, nums), default=0.0),
            "sum": math.fsum(nums), "abs_sum": math.fsum(map(abs, nums))}


def run_one(cfg: dict, out_dir: Path) -> dict:
    """Run one config into out_dir: {"sha256": {output: hash}, "values":
    {output: {column: summary}}}, with the payload as output "payload"."""
    from efgp import cli
    cli.run(cli.parse_config(json.dumps(dict(cfg, output_dir=str(out_dir)))))
    data = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())
            if path.name != "report.json"}
    report = json.loads((out_dir / "report.json").read_bytes())
    for key in ("timings", "config", "environment"):
        del report[key]
    data["payload"] = json.dumps(report, sort_keys=True).encode()
    return {"sha256": {k: hashlib.sha256(b).hexdigest() for k, b in data.items()},
            "values": {k: {c: _summary(v) for c, v in
                           _columns(k, b.decode("utf-8")).items()}
                       for k, b in data.items()}}


def run_all(cfgs: dict) -> dict:
    """run_one of every config, by run name."""
    with tempfile.TemporaryDirectory(prefix="efgp-golden-") as tmp:
        return {name: run_one(cfg, Path(tmp) / name.replace("/", "-"))
                for name, cfg in cfgs.items()}


def hash_mismatches(record: dict, runs: dict) -> list:
    """Every output whose hash differs from the record's, or is missing
    on one side."""
    bad = []
    for name, want in record["runs"].items():
        got = runs[name]["sha256"]
        for out in sorted(set(want["sha256"]) | set(got)):
            if want["sha256"].get(out) != got.get(out):
                bad.append(f"{name} {out}: sha256 {got.get(out)} != "
                           f"recorded {want['sha256'].get(out)}")
    return bad


def _value_mismatches(where: str, want: dict, got: dict) -> list:
    if got["n"] != want["n"]:
        return [f"{where}: {got['n']} entries != recorded {want['n']}"]
    bad = []
    tol = RTOL * want["max_abs"]
    for i, r, g in zip(_sampled(want["n"]), want["at"], got["at"]):
        if isinstance(r, float) and isinstance(g, float):
            if not abs(g - r) <= tol:
                bad.append(f"{where}[{i}]: {g!r} != recorded {r!r} "
                           f"(tolerance {tol:.3g})")
        elif g != r:
            bad.append(f"{where}[{i}]: {g!r} != recorded {r!r}")
    if not abs(got["sum"] - want["sum"]) <= RTOL * want["abs_sum"]:
        bad.append(f"{where}: sum {got['sum']!r} != recorded {want['sum']!r}")
    return bad


def value_mismatches(record: dict, runs: dict) -> list:
    """Every decoded column that differs from the record's beyond RTOL, or
    is missing on one side."""
    bad = []
    for name, want in record["runs"].items():
        got = runs[name]["values"]
        for out in sorted(set(want["values"]) | set(got)):
            w, g = want["values"].get(out, {}), got.get(out, {})
            for col in sorted(set(w) | set(g)):
                where = f"{name} {out} {col}"
                if col not in w or col not in g:
                    bad.append(f"{where}: only in the "
                               f"{'record' if col in w else 'run'}")
                else:
                    bad.extend(_value_mismatches(where, w[col], g[col]))
    return bad


def check(record: dict, runs: dict) -> tuple:
    """(branch, mismatches): exact bytes where the environment matches the
    record, else the decoded values within RTOL."""
    if environment() == record["environment"]:
        return "exact bytes", hash_mismatches(record, runs)
    return f"values within rtol {RTOL:g}", value_mismatches(record, runs)


def load() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="run the configs and rewrite tests/golden.json")
    mode.add_argument("--check", action="store_true",
                      help="run the recorded configs and compare")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.write:
        cfgs = configs()
        runs = run_all(cfgs)
        record = {"environment": environment(),
                  "runs": {name: {"config": cfgs[name], **runs[name]}
                           for name in cfgs}}
        RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {len(runs)} runs to {RECORD.relative_to(ROOT)}")
        return 0
    record = load()
    runs = run_all({name: r["config"] for name, r in record["runs"].items()})
    print("environment:", json.dumps(environment(), sort_keys=True))
    branch, bad = check(record, runs)
    print(f"golden outputs: {len(runs)} runs compared by {branch}")
    for line in bad:
        print("MISMATCH", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
