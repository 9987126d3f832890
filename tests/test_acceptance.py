"""Acceptance suite: one test per criterion, each printing a verdict line.

Every numerical tolerance and every timing floor (criteria 1, 7 and 10) is
asserted on every run.
"""

import json
import math
import time

import numpy as np

from efgp import (
    OperatorSpec,
    SpectralParam,
    WeightedVector,
    almost_orthogonality_check,
    angle_increment_check,
    build_jacobi,
    check_theorem,
    classify_point_spectrum,
    eigenvalues_in_window,
    envelope_constant,
    errors,
    evolve_trajectory,
    log_bound_check,
    make_eigenvalue_set,
    make_potential,
    oscillatory_partial_sums,
    prufer_sum_diagnostics,
    resonance_construct,
    solve_recurrence,
    to_prufer,
    verify_recursions,
)
from efgp.analysis import normalize_weighted
from efgp.cli import main as cli_main

PI = math.pi

FAMILIES = ("coulomb", "alternating", "resonant", "random_sign")


def _random_cases(count=100, seed=20240901):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        fam = FAMILIES[i % 4]
        kwargs = {"c": float(rng.uniform(0.1, 2.0))}
        if fam == "resonant":
            kwargs["omega"] = float(rng.uniform(0.1, 2 * PI - 0.1))
            kwargs["delta"] = float(rng.uniform(0.0, 2 * PI))
        if fam == "random_sign":
            kwargs["seed"] = int(rng.integers(0, 2 ** 32))
        cases.append((fam, kwargs,
                      float(rng.uniform(0.2, PI - 0.2)),
                      float(rng.uniform(0.1, PI - 0.1))))
    return cases


def _verdict(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_efgp_identity_suite():
    cases = _random_cases()
    worst = 0.0
    t0 = time.perf_counter()
    for fam, kwargs, x, phi in cases:
        spec = OperatorSpec(make_potential(fam, **kwargs), phi, 10 ** 4)
        sol = solve_recurrence(spec, SpectralParam.from_x(x))
        rep = verify_recursions(sol, to_prufer(sol))
        worst = max(worst, rep.max_residual())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(1, ok,
             f"100 cases at N=1e4: max residual {worst:.3e} (<= 1e-10), "
             f"runtime {elapsed:.2f}s (< 10s)")


def test_criterion_2_angle_increment_suite():
    cases = _random_cases()
    violations = 0
    for fam, kwargs, x, phi in cases:
        spec = OperatorSpec(make_potential(fam, **kwargs), phi, 10 ** 5)
        traj = evolve_trajectory(spec, SpectralParam.from_x(x))
        violations += len(angle_increment_check(traj))
    _verdict(2, violations == 0,
             f"100 cases at N=1e5: {violations} violations of "
             f"|theta(n+1)-theta(n)-x| <= pi*|nu(n)| where |nu| < 1/2")


def test_criterion_3_free_spectrum_oracle():
    worst_free = 0.0
    for n in (3, 10, 50):
        spec = OperatorSpec(make_potential("coulomb", c=0.0), PI / 2, n)
        got = eigenvalues_in_window(build_jacobi(spec), (-2.0, 2.0))
        expect = np.sort(2.0 * np.cos(np.arange(1, n + 1) * PI / (n + 1)))
        assert got.size == n
        worst_free = max(worst_free, float(np.max(np.abs(got - expect))))
    rng = np.random.default_rng(4242)
    worst_dense = 0.0
    for _ in range(20):
        c = float(rng.uniform(0.0, 2.0))
        phi = float(rng.uniform(0.2, PI - 0.2))
        jac = build_jacobi(OperatorSpec(make_potential("coulomb", c=c), phi, 40))
        got = eigenvalues_in_window(jac, (-2.0, 2.0))
        w = np.linalg.eigvalsh(jac.to_dense())
        w = w[(w > -2.0) & (w < 2.0)]
        assert got.size == w.size
        worst_dense = max(worst_dense, float(np.max(np.abs(got - w))))
    ok = worst_free <= 1e-12 and worst_dense <= 1e-10
    _verdict(3, ok,
             f"free spectrum error {worst_free:.3e} (<= 1e-12); "
             f"20 Coulomb cases vs dense oracle {worst_dense:.3e} (<= 1e-10)")


def test_criterion_4_c2_dyadic_stabilization():
    details = []
    ok = True
    for c in (0.0, 1.0):
        spec = OperatorSpec(make_potential("coulomb", c=c), PI / 2, 10 ** 6)
        for x in (PI / 3, PI / 4, 2 * PI / 5):
            traj = evolve_trajectory(spec, SpectralParam.from_x(x))
            diag = prufer_sum_diagnostics([traj], 10 ** 6)
            growth = diag.diag[0].dyadic[-1] - diag.diag[0].dyadic[-2]
            ok = ok and growth < 0.05
            details.append(f"c={c} x={x:.3f}: growth {growth:.4f}")
    _verdict(4, ok, "deviation |ln N/2 - sum| dyadic growth < 0.05 for " +
             "; ".join(details))


def test_criterion_5_oscillatory_sums():
    alt = oscillatory_partial_sums(PI, None, 10 ** 6)
    n = np.arange(1, 10 ** 6 + 1, dtype=float)
    slow = oscillatory_partial_sums(1.0, 3.0 * np.log(n), 10 ** 6)
    raised = False
    try:
        oscillatory_partial_sums(0.0, None, 10)
    except errors.ResonantFrequency:
        raised = True
    ok = alt.sup_abs <= 1.0 and slow.stabilized and raised
    _verdict(5, ok,
             f"alpha=pi: sup {alt.sup_abs} (<= 1); alpha=1, gamma=3 ln n: "
             f"stabilized={slow.stabilized} at N=1e6; alpha=0 raised="
             f"{raised}")


def test_criterion_6_almost_orthogonality_trials():
    rng = np.random.default_rng(606)
    trials = 0
    attempts = 0
    while trials < 1000:
        attempts += 1
        assert attempts < 20000, "trial generation stalled"
        n0 = int(rng.integers(1, 20))
        dim = int(rng.integers(30, 201 - n0))
        m = int(rng.integers(2, 7))
        es = []
        for _ in range(m):
            es.append(normalize_weighted(
                WeightedVector(rng.standard_normal(dim), n0, n0 + dim)))
        beta = max(abs(np.sum(np.arange(n0, n0 + dim) * a.entries * b.entries))
                   for i, a in enumerate(es) for b in es[i + 1:])
        if not beta * m < 1.0:
            continue
        g = WeightedVector(rng.standard_normal(dim), n0, n0 + dim)
        rep = almost_orthogonality_check(g, es)
        assert rep.holds
        trials += 1
    _verdict(6, True,
             f"1000 randomized weighted-space trials (dim <= 200, beta*m < 1) "
             f"all satisfy the near-Bessel bound ({attempts} attempts)")


def test_criterion_7_resonant_decay_law():
    t0 = time.perf_counter()
    res = resonance_construct(PI / 2, 2.5, 10 ** 6)
    spec = OperatorSpec(res.potential, res.phi, 10 ** 6)
    rec = classify_point_spectrum(spec, res.E, checkpoints=[10 ** 6])
    elapsed = time.perf_counter() - t0
    rel = abs(res.fitted_exponent - 0.625) / 0.625
    cert = rec.certificate
    ok = (rel <= 0.05 and cert.passed and cert.n_star == 10 ** 6
          and cert.rn_sq <= 1e-6 and elapsed < 5.0)
    _verdict(7, ok,
             f"fitted exponent {res.fitted_exponent:.4f} vs 0.625 "
             f"(rel err {rel:.2%} <= 5%); R(1e6)^2 = {cert.rn_sq:.3e} "
             f"<= 1e-6; runtime {elapsed:.2f}s (< 5s)")


def test_criterion_8_theorem_bound():
    details = []
    ok = True
    for x, c in ((PI / 2, 2.5), (PI / 3, 2.2), (2 * PI / 5, 2.4)):
        res = resonance_construct(x, c, 10 ** 6)
        spec = OperatorSpec(res.potential, res.phi, 10 ** 6)
        rec = classify_point_spectrum(spec, res.E)
        c_used = envelope_constant(res.potential, 1, 10 ** 6)
        rep = check_theorem(make_eigenvalue_set([rec]), c_used)
        ok = ok and rec.certificate.passed and rep.satisfied and rep.margin > 0
        details.append(f"(x={x:.3f},c={c}): lhs={rep.lhs:.3f} "
                       f"rhs={rep.rhs:.3f} margin={rep.margin:.3f}")
    _verdict(8, ok, "certified constructions satisfy the bound: " +
             "; ".join(details))


def test_criterion_8_negative_control(tmp_path):
    cfg = {"command": "bound-check",
           "potential": {"family": "coulomb", "c": 0.0},
           "phi": PI / 2, "N": 100, "window": [-2.0, 2.0],
           "certified_only": False, "C": 0.0,
           "output_dir": str(tmp_path / "o")}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(cfg))
    code = cli_main([str(path), "--quiet"])
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    lhs, rhs = rep["payload"]["lhs"], rep["payload"]["rhs"]
    # closed form sum_k sin^2(k pi/101) = (N+1)/2 = 50.5
    ok = (code == 2 and rhs == 1.0 and lhs > rhs
          and abs(lhs - 50.5) <= 1e-6)
    _verdict(8, ok,
             f"negative control (uncertified free N=100, C=0): lhs={lhs:.6f} "
             f"(= (N+1)/2 = 50.5) > rhs={rhs}, exit status {code} (= 2); "
             f"the certificate gate is load-bearing")


def test_criterion_9_log_inequalities():
    checked = 0
    for eps in (0.1, 0.3, 0.49):
        xs = np.linspace(0.0, eps, 10 ** 4 + 2)[1:-1]
        for x in xs:
            assert log_bound_check(float(x), eps) == (True, True)
            checked += 1
    _verdict(9, True,
             f"ln(1+x) >= x/(1+eps) and ln(1-x) >= -x/(1-eps) on all "
             f"{checked} grid points (eps in {{0.1, 0.3, 0.49}})")


def test_criterion_10_performance_and_determinism(tmp_path):
    p = make_potential("coulomb", c=1.0)
    spec = OperatorSpec(p, PI / 2, 10 ** 6)
    param = SpectralParam.from_x(PI / 3)
    evolve_trajectory(spec, param)  # touch everything once
    t0 = time.perf_counter()
    traj = evolve_trajectory(spec, param)
    elapsed = time.perf_counter() - t0
    assert traj.n == 10 ** 6 and np.isfinite(traj.ln_R[1:]).all()

    cfg = {"command": "prufer",
           "potential": {"family": "random_sign", "c": 1.0, "seed": 3},
           "phi": 1.1, "N": 20000, "x_values": [0.8, 2.2],
           "output_dir": "PLACEHOLDER"}
    blobs = []
    for sub in ("a", "b"):
        cfg["output_dir"] = str(tmp_path / sub)
        path = tmp_path / f"{sub}.json"
        path.write_text(json.dumps(cfg))
        assert cli_main([str(path), "--quiet"]) == 0
        blobs.append(tuple((tmp_path / sub / f"trajectory_{j}.csv").read_bytes()
                           for j in (1, 2)))
    identical = blobs[0] == blobs[1]
    ok = identical and elapsed < 1.0
    _verdict(10, ok,
             f"N=1e6 renormalized trajectory in {elapsed * 1000:.0f} ms "
             f"(< 1000 ms); repeated runs byte-identical: {identical}")
