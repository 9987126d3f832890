import itertools
import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import efgp
from efgp import (
    Certificate,
    EigenvalueRecord,
    JacobiMatrix,
    OperatorSpec,
    build_jacobi,
    classify_point_spectrum,
    classify_spectrum,
    eigenvalues_in_window,
    eigenvector,
    errors,
    make_eigenvalue_set,
    make_potential,
    resonance_construct,
    sturm_count,
)
from efgp.prufer import SpectralParam, common_onset, evolve_trajectory
from efgp import _kernels, analysis, spectral
from efgp.spectral import default_checkpoints

PI = math.pi


def free_jacobi(n):
    return JacobiMatrix(diagonal=np.zeros(n))


def free_eigs(n):
    return 2.0 * np.cos(np.arange(1, n + 1) * PI / (n + 1))


def test_sturm_free_n3():
    # eigenvalues are sqrt(2), 0, -sqrt(2); strictly below 0 -> one
    assert sturm_count(free_jacobi(3), 0.0) == 1
    assert sturm_count(free_jacobi(3), -2.0) == 0
    assert sturm_count(free_jacobi(3), 2.0) == 3


def test_sturm_below_gershgorin_is_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = rng.uniform(-3, 3, 17)
        jac = JacobiMatrix(diagonal=d)
        assert sturm_count(jac, d.min() - 2.0 - 1e-9) == 0
        assert sturm_count(jac, d.max() + 2.0 + 1e-9) == 17


def test_sturm_matches_dense_oracle():
    p = make_potential("coulomb", c=1.0)
    jac = build_jacobi(OperatorSpec(p, PI / 2, 30))
    w = np.linalg.eigvalsh(jac.to_dense())
    for e in (-1.5, -0.3, 0.0, 0.42, 1.9):
        assert sturm_count(jac, e) == int(np.sum(w < e))


def test_window_free_n3():
    got = eigenvalues_in_window(free_jacobi(3), (-1.0, 1.0))
    assert got.shape == (1,)
    assert abs(got[0]) <= 1e-12


def test_window_free_n5_closed_form():
    got = eigenvalues_in_window(free_jacobi(5), (-2.0, 2.0))
    assert np.max(np.abs(np.sort(got) - np.sort(free_eigs(5)))) <= 1e-12


def test_window_count_consistency():
    jac = free_jacobi(40)
    got = eigenvalues_in_window(jac, (-2.0, 2.0))
    assert got.size == sturm_count(jac, 2.0) - sturm_count(jac, -2.0) == 40


def test_window_matches_dense_oracle():
    p = make_potential("coulomb", c=1.0)
    jac = build_jacobi(OperatorSpec(p, PI / 2, 40))
    got = eigenvalues_in_window(jac, (-2.0, 2.0))
    w = np.linalg.eigvalsh(jac.to_dense())
    w = w[(w > -2.0) & (w < 2.0)]
    assert got.size == w.size
    assert np.max(np.abs(np.sort(got) - w)) <= 1e-10


def test_window_endpoint_rule_free_n3():
    # eigenvalues -sqrt(2), 0, sqrt(2): one exactly at lo is kept, one
    # exactly at hi is dropped
    got = eigenvalues_in_window(free_jacobi(3), (0.0, 1.0))
    assert got.shape == (1,)
    assert abs(got[0]) <= 1e-12
    assert eigenvalues_in_window(free_jacobi(3), (-1.0, 0.0)).size == 0


# integer diagonals with an eigenvalue exactly at an integer shift; the
# ratio form of the Sturm recurrence rounded 1/3 and counted it
@pytest.mark.parametrize("diag, tie", [([-1, 1, 0, 0], 2.0),
                                       ([-2, 0, -1, -1], 1.0)])
def test_sturm_exact_tie(diag, tie):
    jac = JacobiMatrix(np.array(diag, dtype=float))
    assert sturm_count(jac, tie) == 3
    got = eigenvalues_in_window(jac, (tie, tie + 1.0))
    assert got.shape == (1,) and abs(got[0] - tie) <= 1e-12
    assert eigenvalues_in_window(jac, (tie - 1.0, tie)).size == 0


def _char_poly(diag, E):
    """det(E - J) in exact integer arithmetic."""
    p_prev, p = 1, E - diag[0]
    for d in diag[1:]:
        p_prev, p = p, (E - d) * p - p_prev
    return p


def test_sturm_exact_on_small_integer_matrices():
    # every diagonal in {-2..2}^n, n <= 5, at every integer shift in [-3, 3]:
    # eigenvalues are simple, an exact zero of det(E - J) is a tie at E and
    # is not counted, and no other eigenvalue lies within 1e-9 of an integer
    shifts = np.arange(-3.0, 4.0)
    for n in range(1, 6):
        for diag in itertools.product(range(-2, 3), repeat=n):
            d = np.array(diag, dtype=float)
            w = np.linalg.eigvalsh(JacobiMatrix(d).to_dense())
            want = [int(np.sum(w < E - (1e-9 if _char_poly(diag, int(E)) == 0
                                        else 0.0)))
                    for E in shifts]
            assert list(_kernels.sturm_counts(d, shifts)) == want, diag


def test_sturm_counts_stay_cheap():
    d = np.random.default_rng(5).uniform(-1.0, 1.0, 10 ** 6)
    shifts = np.array([-2.0, 2.0])
    t0 = time.perf_counter()
    _kernels.sturm_counts(d, shifts)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("window", [(math.nan, 1.0), (-1.0, math.nan),
                                    (-math.inf, 1.0), (-1.0, math.inf)])
def test_window_rejects_nonfinite_ends(window):
    with pytest.raises(errors.ParamOutOfRange):
        eigenvalues_in_window(free_jacobi(3), window)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_window_rejects_nonfinite_diagonal(bad):
    d = np.zeros(5)
    d[2] = bad
    with pytest.raises(errors.ParamOutOfRange):
        eigenvalues_in_window(JacobiMatrix(d), (-2.0, 2.0))
    with pytest.raises(errors.ParamOutOfRange):
        sturm_count(JacobiMatrix(d), 0.0)
    with pytest.raises(errors.ParamOutOfRange):
        sturm_count(free_jacobi(5), bad)


def test_empty_jacobi_rejected():
    empty = free_jacobi(0)
    with pytest.raises(errors.ParamOutOfRange):
        sturm_count(empty, 0.0)
    with pytest.raises(errors.ParamOutOfRange):
        eigenvalues_in_window(empty, (-2.0, 2.0))


def test_window_lapack_failure_is_no_convergence(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("stemr did not converge")

    monkeypatch.setattr(spectral, "eigvalsh_tridiagonal", failing)
    with pytest.raises(errors.NoConvergence):
        eigenvalues_in_window(free_jacobi(5), (-2.0, 2.0))


def test_window_coulomb_n2000_matches_dense():
    jac = build_jacobi(OperatorSpec(make_potential("coulomb", c=2.0), 1.0, 2000))
    w = np.linalg.eigvalsh(jac.to_dense())
    t0 = time.perf_counter()
    for lo, hi in ((-2.0, 2.0), (0.5, 0.51)):
        got = eigenvalues_in_window(jac, (lo, hi))
        expect = w[(w >= lo) & (w < hi)]
        assert got.size == expect.size > 0
        assert np.max(np.abs(got - expect)) <= 1e-10
    # a loose floor: LAPACK takes well under a second for this matrix, a
    # pure-Python Sturm bisection about a minute
    assert time.perf_counter() - t0 < 10.0


def test_window_full_band_stays_cheap():
    # one all-eigenvalue call: 0.31 s on a 2-core Xeon, where a per-index
    # LAPACK bisection to 1e-10 took 3.6 s
    jac = build_jacobi(OperatorSpec(make_potential("coulomb", c=2.0), 1.0, 4000))
    t0 = time.perf_counter()
    got = eigenvalues_in_window(jac, (-2.0, 2.0))
    assert time.perf_counter() - t0 < 1.5
    assert got.size == sturm_count(jac, 2.0) - sturm_count(jac, -2.0) > 0


def test_interlacing_random_potentials():
    rng = np.random.default_rng(8)
    for _ in range(5):
        d = rng.uniform(-1.5, 1.5, 20)
        lam_full = eigenvalues_in_window(JacobiMatrix(d), (-4.0, 4.0))
        lam_sub = eigenvalues_in_window(JacobiMatrix(d[:-1]), (-4.0, 4.0))
        assert lam_full.size == 20 and lam_sub.size == 19
        for k in range(19):
            assert lam_full[k] <= lam_sub[k] + 1e-9
            assert lam_sub[k] <= lam_full[k + 1] + 1e-9


def test_eigenvector_free_n3():
    v = eigenvector(free_jacobi(3), 0.0)
    expect = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert np.max(np.abs(v - expect)) <= 1e-10


def test_eigenvector_free_closed_form():
    n, k = 12, 4
    e = 2.0 * math.cos(k * PI / (n + 1))
    v = eigenvector(free_jacobi(n), e)
    expect = np.sin(np.arange(1, n + 1) * k * PI / (n + 1))
    expect /= np.linalg.norm(expect)
    diff = min(np.max(np.abs(v - expect)), np.max(np.abs(v + expect)))
    assert diff <= 1e-9


def test_eigenvector_residual_coulomb():
    p = make_potential("coulomb", c=1.0)
    jac = build_jacobi(OperatorSpec(p, PI / 2, 40))
    eigs = eigenvalues_in_window(jac, (-2.0, 2.0))
    norm = np.max(np.abs(jac.diagonal)) + 2.0
    for e in eigs[::7]:
        v = eigenvector(jac, e)
        assert np.linalg.norm(jac.apply(v) - e * v) <= 1e-10 * norm


def test_eigenvector_no_convergence_off_spectrum():
    with pytest.raises(errors.NoConvergence):
        eigenvector(free_jacobi(10), 5.0)


def test_eigenvector_rejects_nonfinite_inputs():
    for e in (float("nan"), float("inf")):
        with pytest.raises(errors.ParamOutOfRange):
            eigenvector(free_jacobi(3), e)
    with pytest.raises(errors.ParamOutOfRange):
        eigenvector(JacobiMatrix(np.array([0.0, float("nan"), 0.0])), 0.0)
    with pytest.raises(errors.ParamOutOfRange):
        eigenvector(free_jacobi(0), 0.0)


def test_eigenvector_lapack_failure_is_no_convergence(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("stein did not converge")

    monkeypatch.setattr(spectral, "eigh_tridiagonal", failing)
    with pytest.raises(errors.NoConvergence):
        eigenvector(free_jacobi(3), 0.0)


def test_default_checkpoints():
    assert default_checkpoints(10 ** 6) == [100, 1000, 10 ** 4, 10 ** 5, 10 ** 6]
    assert default_checkpoints(5) == [5]
    assert default_checkpoints(100) == [100]


def test_classify_free_never_certifies():
    spec = OperatorSpec(make_potential("coulomb", c=0.0), PI / 2, 10 ** 4)
    rec = classify_point_spectrum(spec, 2.0 * math.cos(1.1))
    assert not rec.certificate.passed
    # R is constant for the free evolution, so R(N*)^2 ~ 1 > 1/N*
    assert rec.certificate.rn_sq * rec.certificate.n_star > 1.0
    assert abs(rec.decay_exponent) < 0.05
    assert rec.weight == pytest.approx(math.sin(1.1) ** 2, rel=1e-12)


def test_classify_validates_inputs():
    spec = OperatorSpec(make_potential("coulomb", c=0.0), PI / 2, 1000)
    with pytest.raises(errors.ParamOutOfRange):
        classify_point_spectrum(spec, 2.5)
    with pytest.raises(errors.ParamOutOfRange):
        classify_point_spectrum(spec, 0.0, checkpoints=[1, 10])
    with pytest.raises(errors.ParamOutOfRange):
        classify_point_spectrum(spec, 0.0, checkpoints=[2000])
    for cps in ([math.nan], [math.inf], [99.9], [100, 500.0]):
        with pytest.raises(errors.ParamOutOfRange):
            classify_point_spectrum(spec, 0.0, checkpoints=cps)


def test_certificate_waits_for_hypothesis_onset():
    # near the band edge |nu(n)| = 2/(n sin x) stays above 1/2 well past
    # N* = 100, where R merely dips during the slow rotation
    spec = OperatorSpec(make_potential("coulomb", c=2.0), 1.0, 4000)
    for k, onset in ((0, 801), (1, 259), (2, 155)):
        x = 0.005 + k * (PI - 0.01) / 299
        rec = classify_point_spectrum(spec, 2.0 * math.cos(x))
        traj = evolve_trajectory(spec, SpectralParam.from_x(x))
        assert common_onset([traj], spec.n) == (onset, True)
        assert rec.certificate.n_star >= onset
        assert not rec.certificate.passed


def test_certificate_without_eligible_checkpoint():
    spec = OperatorSpec(make_potential("coulomb", c=2.0), 1.0, 4000)
    rec = classify_point_spectrum(spec, 2.0 * math.cos(0.005), checkpoints=[100])
    assert rec.certificate.n_star == 0
    assert math.isnan(rec.certificate.rn_sq)
    assert not rec.certificate.passed


def test_certificate_survives_overflowing_growth():
    # R(N)/R(1) ~ e^2000 before the onset at n ~ 4000: past the float range
    spec = OperatorSpec(make_potential("coulomb", c=2000.0), 1.0, 10 ** 4)
    rec = classify_point_spectrum(spec, 0.0)
    assert rec.certificate == Certificate(n_star=10 ** 4, rn_sq=math.inf,
                                          passed=False)


def test_classify_n2_has_no_decay_fit():
    spec = OperatorSpec(make_potential("coulomb", c=1.0), PI / 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = classify_point_spectrum(spec, 0.3)
    assert rec.decay_exponent is None
    # |nu(2)| = 1/(2 sin x) > 1/2: no checkpoint reaches the hypothesis onset
    assert rec.certificate.n_star == 0
    assert not rec.certificate.passed


def _classify_reference(spec, E, checkpoints=None):
    """The one-energy route that classify_spectrum replaced: a full
    trajectory, its own onset scan and ln R at every site."""
    param = SpectralParam.from_energy(E)
    traj = evolve_trajectory(spec, param)
    ln_rel = traj.ln_R - traj.ln_R[1]
    onset, hyp_ok = common_onset([traj], spec.n)
    cps = default_checkpoints(spec.n) if checkpoints is None else sorted(checkpoints)
    best = (None, 0, math.nan)
    for c in cps:
        if not hyp_ok or c < onset:
            continue
        try:
            rn_sq = math.exp(2.0 * ln_rel[c])
        except OverflowError:
            rn_sq = math.inf
        if best[0] is None or c * rn_sq < best[0]:
            best = (c * rn_sq, c, rn_sq)
    _, n_star, rn_sq = best
    fit_lo = max(2, spec.n // 2)
    decay = None
    if spec.n > fit_lo:
        t = np.log(np.arange(fit_lo, spec.n + 1))
        t_c = t - t.mean()
        y = ln_rel[fit_lo:]
        decay = -float(np.dot(t_c, y - y.mean()) / np.dot(t_c, t_c))
    return EigenvalueRecord(
        E=float(E), x=param.x, weight=spectral.theorem_weight(E),
        certificate=Certificate(n_star=n_star, rn_sq=rn_sq,
                                passed=n_star > 0 and rn_sq <= 1.0 / n_star),
        decay_exponent=decay, r1=traj.r1)


POTENTIALS = st.one_of(
    st.builds(lambda c: make_potential("coulomb", c=c), st.floats(0.0, 50.0)),
    st.builds(lambda c: make_potential("alternating", c=c), st.floats(0.0, 50.0)),
    st.builds(lambda c, w, d: make_potential("resonant", c=c, omega=w, delta=d),
              st.floats(0.0, 50.0), st.floats(0.1, 3.0), st.floats(0.0, 6.3)),
    st.builds(lambda c, seed: make_potential("random_sign", c=c, seed=seed),
              st.floats(0.0, 50.0), st.integers(0, 1000)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pot=POTENTIALS, phi=st.floats(0.01, 3.13), n=st.integers(2, 2000),
       es=st.lists(st.floats(-1.999, 1.999), min_size=1, max_size=40),
       cps=st.one_of(st.none(), st.lists(st.integers(0, 10 ** 4), min_size=1,
                                         max_size=4)))
# R(N)/R(1) past the float range: rn_sq = inf
@example(pot=make_potential("coulomb", c=2000.0), phi=1.0, n=10 ** 4,
         es=[0.0], cps=None)
# a single-site fit window: no decay exponent
@example(pot=make_potential("coulomb", c=1.0), phi=PI / 2, n=2, es=[0.3],
         cps=None)
# the onset at 801 comes after the only checkpoint: n_star = 0
@example(pot=make_potential("coulomb", c=2.0), phi=1.0, n=4000,
         es=[2.0 * math.cos(0.005)], cps=[98])
# groups of 16, 16 and 1 energies on one reused buffer
@example(pot=make_potential("coulomb", c=2.0), phi=1.0, n=1000,
         es=[2.0 * math.cos(0.09 * j + 0.05) for j in range(31)], cps=None)
# a group that rescales (E = -1.9 does, three times) between groups that do
# not (E = 1.9 does not): no stale scale or pair column in either direction
@example(pot=make_potential("coulomb", c=200.0), phi=1.0, n=1000,
         es=[1.9] * 16 + [-1.9] * 16 + [1.9], cps=None)
def test_classify_spectrum_matches_one_energy_route(pot, phi, n, es, cps):
    # duplicates included; checkpoints mapped into [2, N]
    es = es + es[:2]
    cps = None if cps is None else [2 + c % (n - 1) for c in cps]
    spec = OperatorSpec(pot, phi, n)
    got = classify_spectrum(spec, es, cps)
    assert got == [classify_point_spectrum(spec, E, cps) for E in es]
    assert got == [_classify_reference(spec, E, cps) for E in es]


def test_classify_spectrum_validates_inputs():
    spec = OperatorSpec(make_potential("coulomb", c=1.0), 1.0, 100)
    assert classify_spectrum(spec, []) == []
    for es in (0.5, [0.5, 2.0], [0.5, "a"], [math.nan]):
        with pytest.raises(errors.ParamOutOfRange):
            classify_spectrum(spec, es)
    with pytest.raises(errors.ParamOutOfRange):
        classify_spectrum(spec, [], checkpoints=[1])


def test_classify_many_energies_stays_cheap():
    # window-bound's size: 1001 candidates at N = 1000 on its engineered
    # resonant potential (0.25 to 0.30 s as one evolution per energy)
    pot = make_potential("resonant", c=2.2, omega=2.0 * PI / 3.0,
                         delta=1.3575974530435633)
    spec = OperatorSpec(pot, 2.4891024719091113, 1000)
    es = 2.0 * np.cos(np.linspace(0.002, PI - 0.002, 1001))
    classify_spectrum(spec, es[:16])
    # best of three: a shared machine can run 2x slower for seconds
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        recs = classify_spectrum(spec, es)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.3
    assert len(recs) == 1001


def test_classify_many_energies_stays_off_the_page_fault_path():
    # window-bound's size: each group must store its pairs and the pairs at
    # the sites read into buffers of the call, not into fresh outputs that
    # the allocator hands back to the OS between groups (about 8k minor
    # faults per call when it did).  A fresh process, because a large block
    # freed earlier raises glibc's thresholds for handing memory back, which
    # would hide the cost here.
    pytest.importorskip("resource")
    code = textwrap.dedent("""
        import math, resource
        import numpy as np
        from efgp import OperatorSpec, classify_spectrum, make_potential
        pot = make_potential("resonant", c=2.2, omega=2.0 * math.pi / 3.0,
                             delta=1.3575974530435633)
        spec = OperatorSpec(pot, 2.4891024719091113, 1000)
        es = 2.0 * np.cos(np.linspace(0.002, math.pi - 0.002, 1001))
        classify_spectrum(spec, es)
        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            classify_spectrum(spec, es)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
        print(min(faults))
    """)
    src = str(Path(efgp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


@pytest.mark.parametrize("shape", [(1, 2), (3, 17), (16, 501), (20, 800)])
def test_decay_exponents_do_not_depend_on_memory_layout(shape):
    rng = np.random.default_rng(shape)
    ln_r = rng.standard_normal(shape) * 30.0 - 5.0
    want = spectral._decay_exponents(ln_r, 7)
    # a strided view: every other row and column of a wider array
    wide = np.zeros((2 * shape[0], 2 * shape[1] + 1))
    wide[::2, 1::2] = ln_r
    for other in (np.asfortranarray(ln_r), wide[::2, 1::2],
                  np.asfortranarray(wide)[::2, 1::2]):
        assert spectral._decay_exponents(other, 7) == want


def test_theorem_weight_single_definition():
    # any module that binds the name shares the one definition
    assert efgp.theorem_weight is spectral.theorem_weight
    assert getattr(analysis, "theorem_weight", efgp.theorem_weight) is efgp.theorem_weight
    assert not hasattr(spectral, "theorem_weight_of")


def test_resonance_predicted_exponent_trivial():
    res = resonance_construct(PI / 2, 2.5, 10 ** 4)
    assert res.predicted_exponent == pytest.approx(0.625, rel=1e-12)
    assert res.E == pytest.approx(0.0, abs=1e-15)
    assert 0.0 < res.phi < PI


def test_resonance_subcritical_rejected():
    with pytest.raises(errors.SubcriticalAmplitude):
        resonance_construct(PI / 2, 1.9, 10 ** 4)


def test_resonance_certificate_on_and_off_target():
    n = 10 ** 5
    res = resonance_construct(PI / 2, 2.5, n)
    spec = OperatorSpec(res.potential, res.phi, n)
    rec = classify_point_spectrum(spec, res.E, checkpoints=[10 ** 3, 10 ** 4, n])
    assert rec.certificate.passed
    assert rec.decay_exponent > 0.5
    off = classify_point_spectrum(spec, 2.0 * math.cos(PI / 3),
                                  checkpoints=[10 ** 3, 10 ** 4, n])
    assert not off.certificate.passed


def test_certificate_monotone_in_evidence():
    # once the fitted decay rate clears 1/2 with margin, every late
    # checkpoint passes: n * R(n)^2 ~ n^(1 - 2p) is eventually < 1
    n = 10 ** 5
    res = resonance_construct(PI / 3, 2.2, n)
    assert res.fitted_exponent > 0.55
    spec = OperatorSpec(res.potential, res.phi, n)
    traj = evolve_trajectory(spec, SpectralParam.from_energy(res.E))
    ln_rel = traj.ln_R - traj.ln_R[1]
    for c in (10 ** 3, 10 ** 4, 10 ** 5):
        assert c * math.exp(2.0 * ln_rel[c]) <= 1.0


@pytest.mark.parametrize("x", [2.295428242706648, 2.3416])
def test_resonance_above_half_pi_meets_law(x):
    # a searched phase with a (0, 1) launch fitted -0.308 and 0.597
    # against 0.635 at these points
    n = 4 * 10 ** 4
    res = resonance_construct(x, 2.54 * math.sin(x), n)
    assert abs(res.fitted_exponent / res.predicted_exponent - 1.0) <= 0.05
    rec = classify_point_spectrum(OperatorSpec(res.potential, res.phi, n), res.E)
    assert rec.certificate.passed


@pytest.mark.parametrize("x", [0.02, PI - 0.02])
def test_resonance_band_edges_certify(x):
    # at the band edges a searched phase left N * R(N)^2 at about 42
    n = 2000
    res = resonance_construct(x, 2.54 * math.sin(x), n)
    rec = classify_point_spectrum(OperatorSpec(res.potential, res.phi, n), res.E)
    assert rec.certificate.passed


def test_resonance_construct_is_one_backward_pass(monkeypatch):
    calls = []
    kernel = _kernels.backward_resonant

    def counting(*args):
        calls.append(args[6])  # n_launch
        return kernel(*args)

    monkeypatch.setattr(_kernels, "backward_resonant", counting)
    t0 = time.perf_counter()
    resonance_construct(PI / 3, 2.2, 10 ** 5)
    # a floor on every backend: one pass of 1.6e6 sites takes about a
    # second in pure Python, a 94-run phase search about 40 s
    assert time.perf_counter() - t0 < 10.0
    assert calls == [16 * 10 ** 5]


def test_eigenvalue_set_merges_duplicates():
    def rec(e, passed, margin):
        return EigenvalueRecord(
            E=e, x=None, weight=1 - e * e / 4,
            certificate=Certificate(n_star=100, rn_sq=margin / 100, passed=passed))

    a = rec(0.5, False, 2.0)
    b = rec(0.5 + 1e-10, True, 0.5)
    c = rec(0.9, False, 3.0)
    eset = make_eigenvalue_set([c, a, b])
    assert len(eset.records) == 2
    assert eset.records[0].certificate.passed  # kept the better certificate
    es = [r.E for r in eset.records]
    assert es == sorted(es)
    assert all(abs(es[i + 1] - es[i]) > 1e-8 for i in range(len(es) - 1))
