"""Per-layer tracing from outside the package.

The tracer replaces, for the duration of one traced run, the names that
efgp's modules look up at call time (``_kernels.sturm_counts``,
``spectral.classify_point_spectrum``, ``cli._write_csv``, ...) with
wrappers that record a span per call: name, start, end, parent span and
work counts.  A function imported by name into several modules (such as
``evolve_trajectory`` in ``cli`` and ``spectral``) is replaced at every
binding.  A name that no longer exists is skipped with a note and its
metrics read 0, so refactors inside the package cannot crash the run.

Spans stay in memory until the run ends; ``layer_metrics`` folds them into
the per-layer metrics listed in ``PER_LAYER``.
"""

import sys
import time

KERNELS = ("sturm_counts", "prufer_forward", "backward_resonant",
           "kahan_cumsum")

# cli stages whose report.json timings are copied into cli.stage.<name>_s
STAGES = ("build_jacobi", "bisection", "classify", "envelope",
          "check_theorem", "trajectories", "diagnostics", "construct")

_F8 = 8  # bytes per float64 / int64
_INHERITED = object()


def _sturm_work(args, kwargs, out):
    diag, shifts = args[0], args[1]
    sites = diag.shape[0] * shifts.shape[0]
    # every shift re-reads the diagonal; one int64 count out per shift
    return {"sites": sites, "bytes": _F8 * (sites + shifts.shape[0])}


def _prufer_work(args, kwargs, out):
    n = args[0].shape[0] - 1
    # reads V, writes theta and ln R
    return {"sites": n, "bytes": 3 * _F8 * n}


def _backward_work(args, kwargs, out):
    n_launch, n_record = args[6], args[7]
    # the potential is evaluated on the fly; only ln R is stored
    return {"sites": n_launch, "bytes": _F8 * n_record}


def _kahan_work(args, kwargs, out):
    n = args[0].shape[0]
    return {"sites": n, "bytes": 2 * _F8 * n}


def _window_work(args, kwargs, out):
    return {"eigs": len(out)}


def _classify_work(args, kwargs, out):
    return {"certified": int(bool(out.certificate.passed))}


def _evolve_work(args, kwargs, out):
    return {"sites": out.n}


def _values_work(args, kwargs, out):
    return {"sites": len(out)}


def _written_bytes(args, kwargs, out):
    return {"bytes": args[0].stat().st_size}


# (span name, module, attribute path, work counter or None)
TARGETS = (
    ("kernels.sturm_counts", "efgp._kernels", "sturm_counts", _sturm_work),
    ("kernels.prufer_forward", "efgp._kernels", "prufer_forward", _prufer_work),
    ("kernels.backward_resonant", "efgp._kernels", "backward_resonant",
     _backward_work),
    ("kernels.kahan_cumsum", "efgp._kernels", "kahan_cumsum", _kahan_work),
    ("spectral.window", "efgp.spectral", "eigenvalues_in_window", _window_work),
    ("spectral.classify", "efgp.spectral", "classify_point_spectrum",
     _classify_work),
    ("spectral.construct", "efgp.spectral", "resonance_construct", None),
    ("prufer.evolve", "efgp.prufer", "evolve_trajectory", _evolve_work),
    ("operators.values", "efgp.operators", "Potential.values", _values_work),
    ("operators.build_jacobi", "efgp.operators", "build_jacobi", None),
    ("operators.envelope", "efgp.operators", "envelope_constant", None),
    ("analysis.diagnostics", "efgp.analysis", "prufer_sum_diagnostics", None),
    ("analysis.check_theorem", "efgp.analysis", "check_theorem", None),
    ("cli.parse", "efgp.cli", "parse_config", None),
    ("cli.write", "efgp.cli", "_write_csv", _written_bytes),
    ("cli.write", "efgp.cli", "_write_json", _written_bytes),
)


def _per_layer():
    out = []
    for k in KERNELS:
        out += [(f"kernels.{k}_s", "s"), (f"kernels.{k}_calls", "count"),
                (f"kernels.{k}_sites", "count"),
                (f"kernels.{k}_ns_per_site", "ns"),
                (f"kernels.{k}_mb_computed", "MB")]
    out += [("kernels.backward_final_share", "1"),
            ("spectral.window_s", "s"), ("spectral.window_eigs", "count"),
            ("spectral.classify_s", "s"), ("spectral.classify_calls", "count"),
            ("spectral.certified_ratio", "1"), ("spectral.construct_s", "s"),
            ("prufer.evolve_s", "s"), ("prufer.evolve_calls", "count"),
            ("prufer.evolve_sites", "count"),
            ("prufer.evolve_ns_per_site", "ns"),
            ("operators.values_s", "s"), ("operators.values_sites", "count"),
            ("operators.build_jacobi_s", "s"), ("operators.envelope_s", "s"),
            ("analysis.diagnostics_s", "s"), ("analysis.check_theorem_s", "s"),
            ("cli.parse_s", "s"), ("cli.write_s", "s"), ("cli.write_mb", "MB"),
            ("cli.compute_s", "s")]
    out += [(f"cli.stage.{s}_s", "s") for s in STAGES]
    out.append(("trace.overhead_s", "s"))
    return tuple(out)


# (metric name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = _per_layer()


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, work counts]
        self.spans = []
        self.notes = []
        self._stack = []
        self._undo = []

    def call(self, name, fn, args, kwargs, work):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, {}]
        self.spans.append(span)
        self._stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            try:
                span[4] = work(args, kwargs, out)
            except (AttributeError, IndexError, KeyError, TypeError,
                    ValueError) as exc:
                # a changed signature loses the counts, not the run
                note = f"no work counts for {name}: {exc!r}"
                if note not in self.notes:
                    self.notes.append(note)
        return out

    def wrapper(self, name, fn, work):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)
        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        """Wrap every target that resolves; note the ones that do not."""
        for name, module_name, path, work in targets:
            try:
                owner = sys.modules[module_name]
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (KeyError, AttributeError):
                self.notes.append(f"absent: {module_name}.{path}")
                continue
            wrapped = self.wrapper(name, original, work)
            if isinstance(owner, type):
                self._rebind(owner, parts[-1], wrapped)
                continue
            # a function imported by name lives in several module globals
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "efgp" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, owner, key, value):
        # an inherited method has no entry of its own to restore
        self._undo.append((owner, key, vars(owner).get(key, _INHERITED)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, value)

    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls, incl, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, incl + (t1 - t0),
                           own + (t1 - t0) - child[i])
        return table


def layer_metrics(tracer, wall_traced, wall_untraced, stage_timings):
    """Fold recorded spans into {metric name: value} over PER_LAYER."""
    table = tracer.self_times()

    def total(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def work(name, key):
        return sum(s[4].get(key, 0) for s in tracer.spans if s[0] == name)

    def per_site_ns(name):
        sites = work(name, "sites")
        return total(name) * 1e9 / sites if sites else 0.0

    m = {}
    for k in KERNELS:
        span = f"kernels.{k}"
        m[f"{span}_s"] = total(span)
        m[f"{span}_calls"] = calls(span)
        m[f"{span}_sites"] = work(span, "sites")
        m[f"{span}_ns_per_site"] = per_site_ns(span)
        m[f"{span}_mb_computed"] = work(span, "bytes") / 1e6
    backward = [s[4].get("sites", 0) for s in tracer.spans
                if s[0] == "kernels.backward_resonant"]
    m["kernels.backward_final_share"] = (
        backward[-1] / sum(backward) if sum(backward) else 0.0)
    m["spectral.window_s"] = total("spectral.window")
    m["spectral.window_eigs"] = work("spectral.window", "eigs")
    m["spectral.classify_s"] = total("spectral.classify")
    m["spectral.classify_calls"] = calls("spectral.classify")
    n_classify = calls("spectral.classify")
    m["spectral.certified_ratio"] = (
        work("spectral.classify", "certified") / n_classify
        if n_classify else 0.0)
    m["spectral.construct_s"] = total("spectral.construct")
    m["prufer.evolve_s"] = total("prufer.evolve")
    m["prufer.evolve_calls"] = calls("prufer.evolve")
    m["prufer.evolve_sites"] = work("prufer.evolve", "sites")
    m["prufer.evolve_ns_per_site"] = per_site_ns("prufer.evolve")
    m["operators.values_s"] = total("operators.values")
    m["operators.values_sites"] = work("operators.values", "sites")
    m["operators.build_jacobi_s"] = total("operators.build_jacobi")
    m["operators.envelope_s"] = total("operators.envelope")
    m["analysis.diagnostics_s"] = total("analysis.diagnostics")
    m["analysis.check_theorem_s"] = total("analysis.check_theorem")
    m["cli.parse_s"] = total("cli.parse")
    m["cli.write_s"] = total("cli.write")
    m["cli.write_mb"] = work("cli.write", "bytes") / 1e6
    m["cli.compute_s"] = wall_traced - total("cli.write")
    for stage in STAGES:
        m[f"cli.stage.{stage}_s"] = float(stage_timings.get(stage, 0.0))
    m["trace.overhead_s"] = wall_traced - wall_untraced
    return m
