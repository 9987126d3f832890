"""Batch front-end: JSON experiment configs in, CSV/JSON reports out.

One positional argument names the config document.  Exit status contract:
0 success, 1 any error (parse, validation, or numerical), 2 when a
bound-check run found the eigenvalue-sum inequality violated, so CI can
treat a genuine bound violation differently from a tooling failure.

Every CSV starts with a comment line carrying the toolkit version and the
config hash; report.json embeds the same fields.  Given identical configs,
all CSV and diagnostics outputs are byte-identical across runs (fixed
accumulation order, deterministic seeds); report.json additionally carries
wall-clock timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__, _kernels, analysis, spectral
from .errors import (
    EfgpError,
    ParseError,
    PipelineError,
    ValidationError,
)
from .operators import FAMILIES, OperatorSpec, Potential, build_jacobi, envelope_constant, make_potential
from .prufer import SpectralParam, evolve_trajectory

COMMANDS = ("spectrum", "prufer", "bound-check", "lemma-sums", "construct")


@dataclass
class ExperimentConfig:
    command: str
    output_dir: str = "out"
    potential: Optional[Potential] = None
    phi: Optional[float] = None
    n: Optional[int] = None
    window: Optional[tuple] = None
    x_values: tuple = ()
    checkpoints: Optional[tuple] = None
    certified_only: bool = True
    C: Optional[float] = None
    envelope_range: Optional[tuple] = None
    x: Optional[float] = None
    c: Optional[float] = None
    raw: dict = field(default_factory=dict)


# Largest N and envelope_range end.  lemma-sums holds no array this long
# and has run at it in 43 MB; the other commands hold several float64
# arrays this long per energy, 800 MB each.
MAX_N = 10 ** 8


def _is_num(v) -> bool:
    # an integer beyond the float range would overflow float(v)
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_int(v) -> bool:
    # beyond int64, numpy raises OverflowError on sizes and indices
    return (isinstance(v, int) and not isinstance(v, bool)
            and -2 ** 63 <= v < 2 ** 63)


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"{path}{key}", "required field is missing")
    return obj[key]


def _reject_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}{key}", "unknown field")


def _as_phase(v, fieldname: str) -> float:
    if not _is_num(v):
        raise ValidationError(fieldname, "must be a number")
    if not 0.0 < float(v) < math.pi:
        raise ValidationError(fieldname, "must lie in the open interval (0, pi)")
    return float(v)


def _parse_potential(obj, path: str = "potential") -> Potential:
    if not isinstance(obj, dict):
        raise ValidationError(path, "must be an object")
    allowed = {"family", "c", "omega", "delta", "seed", "values",
               "values_file", "n0"}
    _reject_unknown(obj, allowed, path + ".")
    family = _need(obj, "family", path + ".")
    fam = family.lower().replace("-", "_") if isinstance(family, str) else None
    if fam not in FAMILIES:
        raise ValidationError(f"{path}.family",
                              f"must be one of {', '.join(FAMILIES)}")
    # a field that no formula of this family reads would be silently ignored
    for key, owner in (("omega", "resonant"), ("delta", "resonant"),
                       ("seed", "random_sign")):
        if key in obj and fam != owner:
            raise ValidationError(f"{path}.{key}",
                                  f"is read only by the {owner} family")
    kwargs = {}
    for key in ("c", "omega", "delta"):
        if key in obj:
            if not _is_num(obj[key]):
                raise ValidationError(f"{path}.{key}", "must be a number")
            kwargs[key] = float(obj[key])
    if "seed" in obj:
        if not _is_int(obj["seed"]):
            raise ValidationError(f"{path}.seed", "must be an integer")
        kwargs["seed"] = obj["seed"]
    if "n0" in obj:
        if not _is_int(obj["n0"]) or obj["n0"] < 1:
            raise ValidationError(f"{path}.n0", "must be a positive integer")
        kwargs["n0"] = obj["n0"]
    values = None
    if "values" in obj and "values_file" in obj:
        raise ValidationError(f"{path}.values", "give values or values_file, not both")
    if "values" in obj:
        if (not isinstance(obj["values"], list)
                or not all(_is_num(v) for v in obj["values"])):
            raise ValidationError(f"{path}.values", "must be a list of numbers")
        values = obj["values"]
    if "values_file" in obj:
        if not isinstance(obj["values_file"], str):
            raise ValidationError(f"{path}.values_file", "must be a string")
        try:
            text = Path(obj["values_file"]).read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # a NUL in the path, not UTF-8
            raise ValidationError(f"{path}.values_file", f"unreadable: {exc}")
        values = []
        for i, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValidationError(f"{path}.values_file",
                                      f"line {i} is not a number: {line!r}")
    try:
        return make_potential(family, values=values, **kwargs)
    except EfgpError as exc:
        raise ValidationError(path, str(exc))


def _finite_float(token: str) -> float:
    v = float(token)
    if not math.isfinite(v):
        raise ParseError(f"config holds the non-finite number {token}")
    return v


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON experiment document into an ExperimentConfig.

    Strict mode: unknown fields anywhere are rejected with their path, and
    so are the NaN and Infinity tokens and floats that overflow (1e999).
    """
    try:
        obj = json.loads(text, parse_float=_finite_float,
                         parse_constant=_finite_float)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal beyond int_max_str_digits
        raise ParseError(f"config is not well-formed JSON: {exc}")
    if not isinstance(obj, dict):
        raise ParseError("config must be a JSON object")

    command = _need(obj, "command", "")
    if command not in COMMANDS:
        raise ValidationError("command", f"must be one of {', '.join(COMMANDS)}")

    common = {"command", "output_dir"}
    per_command = {
        "spectrum": common | {"potential", "phi", "N", "window",
                              "checkpoints"},
        "prufer": common | {"potential", "phi", "N", "x_values"},
        "bound-check": common | {"potential", "phi", "N", "x_values", "window",
                                 "checkpoints", "certified_only", "C",
                                 "envelope_range"},
        "lemma-sums": common | {"potential", "phi", "N", "x_values"},
        "construct": common | {"x", "c", "N", "checkpoints"},
    }
    _reject_unknown(obj, per_command[command], "")

    cfg = ExperimentConfig(command=command, raw=obj)
    if "output_dir" in obj:
        if not isinstance(obj["output_dir"], str):
            raise ValidationError("output_dir", "must be a string")
        if "\0" in obj["output_dir"]:
            raise ValidationError("output_dir", "must not hold a NUL character")
        cfg.output_dir = obj["output_dir"]

    n = _need(obj, "N", "")
    if not _is_int(n) or not 2 <= n <= MAX_N:
        raise ValidationError("N", f"must be an integer in [2, {MAX_N}]")
    cfg.n = n

    if command != "construct":
        cfg.potential = _parse_potential(_need(obj, "potential", ""))
        cfg.phi = _as_phase(_need(obj, "phi", ""), "phi")

    if "window" in obj or command == "spectrum":
        w = _need(obj, "window", "")
        if (not isinstance(w, list) or len(w) != 2
                or not all(_is_num(v) for v in w) or not w[0] < w[1]):
            raise ValidationError("window", "must be [lo, hi] with lo < hi")
        cfg.window = (float(w[0]), float(w[1]))

    if "x_values" in obj or command in ("prufer", "lemma-sums"):
        xs = _need(obj, "x_values", "")
        if not isinstance(xs, list) or not xs:
            raise ValidationError("x_values", "must be a nonempty list")
        cfg.x_values = tuple(
            _as_phase(v, f"x_values[{i}]") for i, v in enumerate(xs))

    if command == "bound-check" and cfg.window is None and not cfg.x_values:
        raise ValidationError("x_values", "bound-check needs x_values or window")

    if "checkpoints" in obj:
        cps = obj["checkpoints"]
        if (not isinstance(cps, list) or not cps
                or not all(_is_int(v) for v in cps)):
            raise ValidationError("checkpoints", "must be a list of integers")
        if any(v < 2 or v > cfg.n for v in cps):
            raise ValidationError("checkpoints", f"entries must lie in [2, {cfg.n}]")
        if sorted(cps) != cps:
            raise ValidationError("checkpoints", "must be increasing")
        cfg.checkpoints = tuple(cps)

    if "C" in obj:
        if not _is_num(obj["C"]) or not obj["C"] >= 0:
            raise ValidationError("C", "must be >= 0")
        cfg.C = float(obj["C"])

    if "certified_only" in obj:
        if not isinstance(obj["certified_only"], bool):
            raise ValidationError("certified_only", "must be a boolean")
        cfg.certified_only = obj["certified_only"]

    if "envelope_range" in obj:
        if "C" in obj:
            raise ValidationError("envelope_range",
                                  "is not read when C is given")
        er = obj["envelope_range"]
        if (not isinstance(er, list) or len(er) != 2
                or not all(_is_int(v) for v in er)
                or not 1 <= er[0] <= er[1] <= MAX_N):
            raise ValidationError("envelope_range", "must be [lo, hi] integers "
                                  f"with 1 <= lo <= hi <= {MAX_N}")
        cfg.envelope_range = (er[0], er[1])

    if command == "construct":
        cfg.x = _as_phase(_need(obj, "x", ""), "x")
        cv = _need(obj, "c", "")
        if not _is_num(cv):
            raise ValidationError("c", "must be a number")
        cfg.c = float(cv)

    return cfg


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

# the text of every value of a column, by the one type its values share;
# a column of texts is written as it is
_FORMATTERS = {float: float.__repr__, int: int.__repr__,
               bool: ("false", "true").__getitem__, str: str}


def _write_csv(path: Path, names, columns, stamp: str):
    """A stamp line, the header ``names`` and one line per row of the
    equal-length ``columns``.  The values of a column are all float, all
    int, all bool or all str, and are written by that type's _FORMATTERS
    entry."""
    # empty columns (no rows) have no type to look up
    rows = zip(*(map(_FORMATTERS[type(col[0])], col)
                 for col in columns if len(col)))
    lines = [f"# {stamp}", ",".join(names), *map(",".join, rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# report.json's payload.records until _write_json splices in the records'
# text; no config string holds a NUL
_RECORDS = "\0records"


def _write_json(path: Path, obj, records: Optional[str] = None):
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline.
    ``records`` is the JSON text of a list, written at depth 0; where it is
    given, obj's payload.records is _RECORDS, and the text takes its place,
    indented to depth 2."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    if records is not None:
        text = text.replace(json.dumps(_RECORDS),
                            records.replace("\n", "\n    "), 1)
    path.write_text(text + "\n", encoding="utf-8")


# a record's reported fields: spectrum.csv's columns, then r1, which only
# report.json holds
_RECORD_KEYS = ("E", "weight", "x", "certificate_N", "certificate_RNsq",
                "certificate_passed", "decay_exponent", "r1")
_SPECTRUM_COLS = _RECORD_KEYS[:7]
# the column texts of the non-finite floats, and their report.json text
# (strict JSON has no NaN/Infinity tokens)
_NONFINITE = {"nan": "null", "inf": "null", "-inf": "null"}
# the _RECORD_KEYS indices in report.json's (sorted) key order
_JSON_ORDER = sorted(range(len(_RECORD_KEYS)), key=_RECORD_KEYS.__getitem__)
# one record object of report.json's records list, %s for each value
_RECORD_ROW = json.dumps(dict.fromkeys(_RECORD_KEYS, "%s"), sort_keys=True,
                         indent=2).replace('"%s"', "%s").replace("\n", "\n  ")


def _record_texts(records) -> tuple:
    """The records' fields, one column per _RECORD_KEYS entry, as values
    and as their _FORMATTERS texts.  A value is nan where a record has
    none (x and r1 outside (-2, 2), decay_exponent without a fit window)."""
    certs = [r.certificate for r in records]
    columns = [[r.E for r in records], [r.weight for r in records],
               [math.nan if v is None else v for v in (r.x for r in records)],
               [c.n_star for c in certs], [c.rn_sq for c in certs],
               [c.passed for c in certs],
               [math.nan if r.decay_exponent is None else r.decay_exponent
                for r in records],
               [math.nan if r.r1 is None else r.r1 for r in records]]
    return columns, [list(map(_FORMATTERS[type(col[0])], col)) if col else []
                     for col in columns]


def _record_dicts(columns, texts) -> list:
    """The records of the report: None where a value is not finite."""
    return [dict(zip(_RECORD_KEYS, row)) for row in zip(*(
        [None if t in _NONFINITE else v for v, t in zip(col, tcol)]
        for col, tcol in zip(columns, texts)))]


def _write_spectrum(path: Path, records, stamp: str) -> tuple:
    """Write spectrum.csv of records; return them as report dicts and as
    the JSON text of report.json's records list.  Each value is formatted
    once, and both files are written from that text."""
    columns, texts = _record_texts(records)
    _write_csv(path, _SPECTRUM_COLS, texts[:len(_SPECTRUM_COLS)], stamp)
    rows = zip(*(map(_NONFINITE.get, texts[i], texts[i])
                 for i in _JSON_ORDER))
    body = ",\n  ".join(map(_RECORD_ROW.__mod__, rows))
    return _record_dicts(columns, texts), f"[\n  {body}\n]" if body else "[]"


class _Stages:
    """Per-stage wall-clock bookkeeping; rewraps errors with the stage name."""

    def __init__(self):
        self.timings = {}

    def run(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except EfgpError as exc:
            raise PipelineError(name, exc) from exc
        finally:
            self.timings[name] = time.perf_counter() - t0


def _classify_set(spec, energies, checkpoints):
    """The eigenvalue set of the energies' records; energies outside
    (-2, 2) stay uncertified."""
    inside = iter(spectral.classify_spectrum(
        spec, [E for E in energies if -2.0 < E < 2.0], checkpoints))
    return spectral.make_eigenvalue_set([
        next(inside) if -2.0 < E < 2.0 else spectral.EigenvalueRecord(
            E=float(E), certificate=spectral.Certificate(n_star=0,
                                                         rn_sq=float("nan")))
        for E in energies])


# --------------------------------------------------------------------------
# command pipelines
# --------------------------------------------------------------------------

def run(cfg: ExperimentConfig, threads: int = 1, quiet: bool = True) -> dict:
    """Execute a validated config; writes outputs and returns the report.

    The report carries "exit_code": 0, or 2 when a bound-check found the
    inequality violated.  Every command runs on the calling thread.  The
    ``threads`` keyword does nothing; it stays only because
    ``perfbench/worker.py`` passes ``threads=1``.
    """
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file on the path, a NUL in it
        raise ValidationError("output_dir", f"cannot be created: {exc}")
    # the hash identifies the experiment, not where it lands on disk
    hashed = {k: v for k, v in cfg.raw.items() if k != "output_dir"}
    cfg_hash = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    stamp = f"efgp {__version__} config={cfg_hash}"
    stages = _Stages()
    exit_code = 0

    def note(msg):
        if not quiet:
            print(msg)

    payload: dict = {}
    records_json = None

    if cfg.command in ("spectrum", "bound-check"):
        spec = OperatorSpec(cfg.potential, cfg.phi, cfg.n)
        energies = [2.0 * math.cos(xv) for xv in cfg.x_values]
        if cfg.window is not None:
            jac = stages.run("build_jacobi", build_jacobi, spec)
            # stage name kept: perfbench/tracer.py reads cli.stage.bisection_s
            eigs = stages.run("bisection", spectral.eigenvalues_in_window,
                              jac, cfg.window)
            energies.extend(float(v) for v in eigs)
        eset = stages.run("classify", _classify_set, spec, energies,
                          cfg.checkpoints)
        report = None
        if cfg.command == "bound-check":
            if cfg.C is not None:
                c_used = cfg.C
            else:
                lo, hi = cfg.envelope_range or (1, cfg.n)
                c_used = stages.run("envelope", envelope_constant,
                                    cfg.potential, lo, hi)
            report = stages.run("check_theorem", analysis.check_theorem,
                                eset, c_used, cfg.certified_only)
        # written only once every stage has succeeded
        record_dicts, records_json = _write_spectrum(
            out_dir / "spectrum.csv", eset.records, stamp)
        if report is None:
            note(f"spectrum: {len(energies)} eigenvalues in window")
            payload = {"count": len(record_dicts), "records": record_dicts}
        else:
            payload = {**report.to_json_dict(), "records": record_dicts}
            if not report.satisfied:
                exit_code = 2
            note(f"bound-check: lhs={report.lhs:.6g} rhs={report.rhs:.6g} "
                 f"satisfied={report.satisfied}")

    elif cfg.command == "prufer":
        spec = OperatorSpec(cfg.potential, cfg.phi, cfg.n)

        def one(j, xval):
            traj = evolve_trajectory(spec, SpectralParam.from_x(xval))
            u = traj.u_values()
            columns = (range(1, traj.n + 1), u[1:].tolist(),
                       traj.R[1:].tolist(), traj.theta[1:].tolist(),
                       traj.theta_bar[1:].tolist(), traj.ln_R[1:].tolist())
            _write_csv(out_dir / f"trajectory_{j}.csv",
                       ("n", "u", "R", "theta", "theta_bar", "ln_R"),
                       columns, stamp)
            return {"x": xval, "E": traj.param.E, "r1": traj.r1,
                    "ln_R_final": float(traj.ln_R[-1]),
                    "theta_final": float(traj.theta[-1]),
                    "file": f"trajectory_{j}.csv"}

        summaries = stages.run("trajectories", lambda: [
            one(j, xv) for j, xv in enumerate(cfg.x_values, 1)])
        payload = {"trajectories": summaries}

    elif cfg.command == "lemma-sums":
        spec = OperatorSpec(cfg.potential, cfg.phi, cfg.n)
        diag = stages.run("diagnostics", lambda: analysis.lemma_sums(
            spec, [SpectralParam.from_x(xv) for xv in cfg.x_values]))
        payload = diag.to_json_dict()
        payload["x_values"] = list(cfg.x_values)
        payload["stabilization_threshold"] = analysis.STABILIZATION_THRESHOLD
        _write_json(out_dir / "diagnostics.json",
                    {"version": __version__, "config_hash": cfg_hash,
                     **payload})

    elif cfg.command == "construct":
        res = stages.run("construct", spectral.resonance_construct,
                         cfg.x, cfg.c, cfg.n)
        spec = OperatorSpec(res.potential, res.phi, cfg.n)
        record = stages.run("classify", spectral.classify_point_spectrum,
                            spec, res.E, cfg.checkpoints)
        c_used = stages.run("envelope", envelope_constant,
                            res.potential, 1, cfg.n)
        eset = spectral.make_eigenvalue_set([record])
        bound = stages.run("check_theorem", analysis.check_theorem,
                           eset, c_used, True)
        payload = {
            "x": cfg.x, "c": cfg.c, "E": res.E, "phi": res.phi,
            "delta": res.delta,
            "predicted_exponent": res.predicted_exponent,
            "fitted_exponent": res.fitted_exponent,
            "potential": {"family": res.potential.family,
                          "c": res.potential.amplitude,
                          "omega": res.potential.omega,
                          "delta": res.potential.delta},
            "record": _record_dicts(*_record_texts([record]))[0],
            "bound": bound.to_json_dict(),
        }
        note(f"construct: fitted exponent {res.fitted_exponent:.4f} "
             f"(predicted {res.predicted_exponent:.4f})")

    report = {
        "version": __version__,
        "backend": _kernels.backend(),
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__},
        "command": cfg.command,
        "config": cfg.raw,
        "config_hash": cfg_hash,
        "timings": stages.timings,
        "payload": payload,
        "exit_code": exit_code,
    }
    # report.json's records are the texts spectrum.csv was written from
    _write_json(out_dir / "report.json", report if records_json is None else
                {**report, "payload": {**payload, "records": _RECORDS}},
                records_json)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="efgp",
        description="Prufer/EFGP toolkit for half-line discrete Schrodinger "
                    "operators with Coulomb-decay potentials")
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--output-dir", help="override the config's output_dir")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means a violated bound
        if exc.code == 0:
            raise
        return 1

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if args.output_dir:
            cfg.output_dir = args.output_dir
        report = run(cfg, quiet=args.quiet)
    except EfgpError as exc:
        print(f"error in {args.config}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error in {args.config}: out of memory; lower N or the "
              f"number of x_values", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"report written to {Path(cfg.output_dir) / 'report.json'}")
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
