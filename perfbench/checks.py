"""Output checks, run off the clock against oracles outside the timed path.

``Checker(workload, cfg).problems(rep_dir, pruned)`` returns a list of
problems with one repeat's outputs (empty = correct).  ``identical_bytes``
compares the output digests of repeats; a large output that the worker
pruned after hashing is covered by that comparison with the first
repeat, whose files are all kept and checked.  Oracles are computed once
per seed:

* window-bound: every eigenvalue of the same Jacobi diagonal from
  ``scipy.linalg.eigvalsh_tridiagonal`` (LAPACK, not the Sturm kernel);
* lemma-sums: Prufer angles from ``solve_recurrence`` + ``to_prufer``
  (the vectorized route, not ``prufer_forward``) summed with numpy.
"""

import csv
import json
import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

# agreement of the bisected eigenvalues (tol 1e-10) with LAPACK
EIG_TOL = 1e-9
# the CLI's default distinct_tol, under which candidates merge
DISTINCT_TOL = 1e-8
# sups of the reference sums; measured agreement is about 1e-15
SUP_TOL = 1e-9
# fitted decay exponent against c / (4 sin x), as in acceptance 7 and 8
EXPONENT_REL_TOL = 0.05
_EPS = np.finfo(float).eps

# outputs promised byte-identical across repeats of one config
DETERMINISTIC = {"prufer-csv": "trajectory_", "lemma-sums": "diagnostics.json"}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def identical_bytes(workload, reps):
    """Problems per repeat: deterministic outputs differing from repeat 1."""
    prefix = DETERMINISTIC.get(workload)
    if prefix is None or not reps:
        return [[] for _ in reps]
    first = {k: v for k, v in reps[0]["digests"].items() if k.startswith(prefix)}
    out = [[] if first else [f"no {prefix}* output"]]
    for rep in reps[1:]:
        mine = {k: v for k, v in rep["digests"].items() if k.startswith(prefix)}
        out.append([] if mine == first else
                    [f"{prefix}* bytes differ from the first repeat"])
    return out


class Checker:
    def __init__(self, workload, cfg):
        self.workload = workload
        self.cfg = cfg
        self._oracle = None

    def problems(self, rep_dir, pruned=()):
        check = {"window-bound": self._window_bound,
                 "construct": self._construct,
                 "prufer-csv": self._prufer_csv,
                 "lemma-sums": self._lemma_sums}[self.workload]
        try:
            report = _read_json(rep_dir / "report.json")
        except (OSError, ValueError) as exc:
            return [f"report.json unreadable: {exc}"]
        if report.get("exit_code") != 0:
            return [f"exit code {report.get('exit_code')}"]
        try:
            return check(rep_dir, report, set(pruned))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"malformed output: {exc!r}"]

    # -- window-bound --------------------------------------------------

    def _window_oracle(self):
        cfg = self.cfg
        pot, n = cfg["potential"], cfg["N"]
        sites = np.arange(1, n + 1, dtype=float)
        v = pot["c"] * np.sin(pot["omega"] * sites + pot["delta"]) / sites
        diag = v.copy()
        diag[0] -= math.cos(cfg["phi"]) / math.sin(cfg["phi"])
        eigs = eigvalsh_tridiagonal(diag, np.ones(n - 1))
        lo, hi = cfg["window"]
        energies = sorted([float(e) for e in eigs if lo < e < hi]
                          + [2.0 * math.cos(x) for x in cfg["x_values"]])
        # candidates within DISTINCT_TOL of each other merge into one record
        clusters = []
        for e in energies:
            if clusters and e - clusters[-1][1] <= DISTINCT_TOL:
                clusters[-1][1] = e
            else:
                clusters.append([e, e])
        envelope = float(np.max(sites * np.abs(v)))
        return clusters, envelope

    def _window_bound(self, rep_dir, report, pruned):
        if self._oracle is None:
            self._oracle = self._window_oracle()
        clusters, envelope = self._oracle
        n = self.cfg["N"]
        with open(rep_dir / "spectrum.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        bad = []
        if len(rows) != len(clusters):
            bad.append(f"{len(rows)} records, oracle has {len(clusters)}")
        else:
            worst = max(max(lo - float(r["E"]), float(r["E"]) - hi)
                        for r, (lo, hi) in zip(rows, clusters))
            if worst > EIG_TOL:
                bad.append(f"eigenvalue off the oracle by {worst:.3e}")
        certified = []
        for r in rows:
            n_star = int(r["certificate_N"])
            passed = r["certificate_passed"] == "true"
            if n_star > 0 and passed != (float(r["certificate_RNsq"]) <= 1.0 / n_star):
                bad.append(f"E={r['E']}: passed != (rn_sq <= 1/n_star)")
            if passed:
                certified.append(r)
        e_target = 2.0 * math.cos(math.pi / 3.0)
        target = [r for r in rows if abs(float(r["E"]) - e_target) <= 1e-12]
        if not target or target[0]["certificate_passed"] != "true" \
                or int(target[0]["certificate_N"]) != n:
            bad.append(f"engineered E=1 record not certified at N*={n}")
        p = report["payload"]
        lhs = math.fsum(float(r["weight"]) for r in certified)
        if not _close(p["lhs"], lhs) or p["records_used"] != len(certified):
            bad.append(f"lhs {p['lhs']} != sum of certified weights {lhs}")
        if not _close(p["C_used"], envelope):
            bad.append(f"C_used {p['C_used']} != envelope {envelope}")
        if not (p["lhs"] <= p["rhs"] and p["satisfied"]):
            bad.append(f"bound violated: lhs {p['lhs']} > rhs {p['rhs']}")
        return bad

    # -- construct -----------------------------------------------------

    def _construct(self, rep_dir, report, pruned):
        cfg = self.cfg
        p = report["payload"]
        predicted = cfg["c"] / (4.0 * math.sin(cfg["x"]))
        fitted = p["fitted_exponent"]
        bad = []
        if not abs(fitted - predicted) <= EXPONENT_REL_TOL * predicted:
            bad.append(f"fitted exponent {fitted} not within 5% of {predicted}")
        rec = p["record"]
        if not (rec["certificate_passed"]
                and rec["certificate_RNsq"] <= 1.0 / rec["certificate_N"]):
            bad.append("certificate did not pass")
        if not p["bound"]["satisfied"]:
            bad.append("eigenvalue-sum bound not satisfied")
        return bad

    # -- prufer-csv ----------------------------------------------------

    def _prufer_csv(self, rep_dir, report, pruned):
        bad = []
        for j, x in enumerate(self.cfg["x_values"], 1):
            path = rep_dir / f"trajectory_{j}.csv"
            if path.name in pruned:
                continue
            with open(path, encoding="utf-8") as fh:
                fh.readline()  # version / config-hash stamp
                if fh.readline().strip() != "n,u,R,theta,theta_bar,ln_R":
                    bad.append(f"{path.name}: unexpected header")
                    continue
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
            n, u, r, theta, theta_bar = table[:, :5].T
            if not np.array_equal(n, np.arange(1, self.cfg["N"] + 1)):
                bad.append(f"{path.name}: sites are not 1..N")
                continue
            # R(n)^2 = u(n)^2 + u(n-1)^2 - 2 u(n) u(n-1) cos x, for n >= 2;
            # u is rebuilt from theta, whose absolute precision is ulp(theta)
            un, um, r2 = u[1:], u[:-1], r[1:] ** 2
            rhs = un * un + um * um - 2.0 * un * um * math.cos(x)
            res = np.abs(r2 - rhs) / (1.0 + r2 + un * un + um * um)
            tol = 1e-12 + 32.0 * _EPS * float(np.max(np.abs(theta)))
            if res.max() > tol:
                bad.append(f"{path.name}: radius identity residual "
                           f"{res.max():.3e} > {tol:.3e}")
            # theta_bar - theta = x up to the rounding of theta + x
            dev = np.abs(theta_bar - theta - x)
            if np.any(dev > 2.0 * _EPS * np.maximum(np.abs(theta_bar), 1.0)):
                k = int(np.argmax(dev))
                bad.append(f"{path.name}: theta_bar - theta != x at n={k + 1}")
        return bad

    # -- lemma-sums ----------------------------------------------------

    def _lemma_oracle(self):
        import efgp

        cfg = self.cfg
        pot = cfg["potential"]
        n_max = cfg["N"]
        spec = efgp.OperatorSpec(
            efgp.make_potential(pot["family"], c=pot["c"], seed=pot["seed"]),
            cfg["phi"], n_max)
        trajs = [efgp.to_prufer(efgp.solve_recurrence(
            spec, efgp.SpectralParam.from_x(x))) for x in cfg["x_values"]]
        # first site from which every |nu_j| stays below 1/2
        n0 = 1
        for t in trajs:
            big = np.nonzero(np.abs(t.nu[1:]) >= 0.5)[0]
            if big.size:
                n0 = max(n0, int(big[-1]) + 2)
        sites = np.arange(n0, n_max + 1, dtype=float)
        sins = [np.sin(2.0 * t.theta_bar[n0:]) for t in trajs]
        c2 = [float(np.max(np.abs(0.5 * np.log(sites)
                                  - np.cumsum(s * s / sites)))) for s in sins]
        c1 = {}
        for j in range(len(sins)):
            for k in range(j + 1, len(sins)):
                c1[(j + 1, k + 1)] = float(np.max(np.abs(
                    np.cumsum(sins[j] * sins[k] / sites))))
        return n0, c1, c2

    def _lemma_sums(self, rep_dir, report, pruned):
        if self._oracle is None:
            self._oracle = self._lemma_oracle()
        n0, c1, c2 = self._oracle
        d = _read_json(rep_dir / "diagnostics.json")
        bad = []
        if d["hypothesis_ok"] is not True:
            bad.append("hypothesis_ok is false")
        if d["n0"] != n0:
            bad.append(f"onset n0 {d['n0']} != reference {n0}")
        got2 = [e["sup_abs"] for e in d["c2"]]
        got1 = {(e["j"], e["k"]): e["sup_abs"] for e in d["c1"]}
        if len(got2) != len(c2) or set(got1) != set(c1):
            bad.append("diagnostics cover other trajectories than configured")
            return bad
        worst = max([abs(a - b) for a, b in zip(got2, c2)]
                    + [abs(got1[key] - c1[key]) for key in c1])
        if worst > SUP_TOL:
            bad.append(f"sups differ from the reference by {worst:.3e}")
        return bad
