import math

import numpy as np
import pytest

from efgp import (
    Certificate,
    EigenvalueRecord,
    OperatorSpec,
    WeightedVector,
    almost_orthogonality_check,
    check_theorem,
    classify_point_spectrum,
    errors,
    evolve_trajectory,
    log_bound_check,
    make_eigenvalue_set,
    make_potential,
    oscillatory_partial_sums,
    prufer_sum_diagnostics,
    resonance_construct,
    theorem_bound,
    theorem_weight,
    weighted_dot,
)
from efgp.analysis import dyadic_stabilized, normalize_weighted
from efgp.prufer import SpectralParam
from efgp.spectral import eigenvalues_in_window
from efgp.operators import build_jacobi

PI = math.pi


# --- weights and bound -----------------------------------------------------

def test_theorem_weight_values():
    assert theorem_weight(0.0) == 1.0
    assert theorem_weight(2.0) == 0.0
    assert theorem_weight(math.sqrt(2.0)) == pytest.approx(0.5, rel=1e-15)


def test_theorem_weight_is_sin_squared():
    for x in np.linspace(0.01, PI - 0.01, 101):
        assert theorem_weight(2 * math.cos(x)) == pytest.approx(
            math.sin(x) ** 2, abs=1e-14)


def test_theorem_bound_values():
    assert theorem_bound(0.0) == 1.0
    assert theorem_bound(2.0) == 3.0
    assert theorem_bound(2.5) == 4.125
    with pytest.raises(errors.NegativeConstant):
        theorem_bound(-0.1)
    # an infinite or nan right side is no bound and not strict JSON
    for C in (1e200, math.inf, math.nan):
        with pytest.raises(errors.ParamOutOfRange):
            theorem_bound(C)


def test_check_theorem_empty_set():
    rep = check_theorem(make_eigenvalue_set([]), 1.0)
    assert rep.lhs == 0.0
    assert rep.rhs == 1.5
    assert rep.satisfied and rep.records_used == 0


def test_check_theorem_certified_construction():
    # full pipeline: engineered eigenvalue at E ~ 0 carries weight 1
    n = 10 ** 5
    res = resonance_construct(PI / 2, 2.5, n)
    rec = classify_point_spectrum(OperatorSpec(res.potential, res.phi, n),
                                  res.E, checkpoints=[10 ** 3, 10 ** 4, n])
    assert rec.certificate.passed
    rep = check_theorem(make_eigenvalue_set([rec]), 2.5)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(4.125, abs=0)
    assert rep.satisfied
    assert rep.margin == pytest.approx(3.125, abs=1e-12)


def test_check_theorem_negative_control_uncertified():
    # raw truncation eigenvalues overfill the bound unless certified;
    # closed form: sum_k sin^2(k pi/101) = 101/2 - 1/2 + 1/2 = 50.5
    jac = build_jacobi(OperatorSpec(make_potential("coulomb", c=0.0), PI / 2, 100))
    eigs = eigenvalues_in_window(jac, (-2.0, 2.0))
    recs = [EigenvalueRecord(
        E=float(e), x=None, weight=theorem_weight(e),
        certificate=Certificate(n_star=100, rn_sq=1.0, passed=False))
        for e in eigs]
    eset = make_eigenvalue_set(recs)
    rep = check_theorem(eset, 0.0, certified_only=False)
    oracle = sum(math.sin(k * PI / 101) ** 2 for k in range(1, 101))
    assert oracle == pytest.approx(50.5, abs=1e-12)
    assert rep.lhs == pytest.approx(oracle, abs=1e-8)
    assert rep.rhs == 1.0
    assert not rep.satisfied
    # with the certificate gate the same set contributes nothing
    gated = check_theorem(eset, 0.0, certified_only=True)
    assert gated.lhs == 0.0 and gated.satisfied


def test_check_theorem_monotone():
    def rec(e):
        return EigenvalueRecord(
            E=e, x=None, weight=theorem_weight(e),
            certificate=Certificate(n_star=10, rn_sq=0.01, passed=True))

    s1 = make_eigenvalue_set([rec(0.1)])
    s2 = make_eigenvalue_set([rec(0.1), rec(0.7)])
    assert check_theorem(s2, 1.0).lhs >= check_theorem(s1, 1.0).lhs
    assert theorem_bound(2.0) >= theorem_bound(1.0)


# --- oscillatory sums ------------------------------------------------------

def test_alternating_series_sup():
    s = oscillatory_partial_sums(PI, None, 10 ** 5)
    assert s.sup_abs <= 1.0
    # partial sums of sum (-1)^n / n live in [-1, 0]
    re = s.partials.real
    assert re.min() >= -1.0 - 1e-14 and re.max() <= 1e-12


def test_resonant_alpha_rejected():
    with pytest.raises(errors.ResonantFrequency):
        oscillatory_partial_sums(0.0, None, 100)
    with pytest.raises(errors.ResonantFrequency):
        oscillatory_partial_sums(4.0 * PI, None, 100)


def test_slow_gamma_stabilizes():
    n = np.arange(1, 10 ** 5 + 1, dtype=float)
    s = oscillatory_partial_sums(1.0, 3.0 * np.log(n), 10 ** 5)
    assert s.stabilized
    assert s.hypothesis_max_n_dgamma <= 3.0 + 1e-9
    assert np.isfinite(s.sup_abs)


def test_harmonic_divergence_detected():
    # gamma chosen to cancel the phase leaves the harmonic series, whose
    # sup grows by ln 2 per dyadic window
    n = np.arange(1, 10 ** 5 + 1, dtype=float)
    s = oscillatory_partial_sums(1.0, -1.0 * n, 10 ** 5)
    assert not s.stabilized
    assert s.dyadic[-1] - s.dyadic[-2] > 0.5


def test_partial_sums_reproducible_bitwise():
    n = np.arange(1, 5001, dtype=float)
    a = oscillatory_partial_sums(1.3, 2.0 * np.log(n), 5000)
    b = oscillatory_partial_sums(1.3, 2.0 * np.log(n), 5000)
    assert np.array_equal(a.partials, b.partials)
    assert a.sup_abs == b.sup_abs


def test_partial_sum_increments_track_terms():
    # fixed left-to-right compensated accumulation: consecutive partials
    # differ by the n-th term up to one rounding of the running sum
    n = np.arange(1, 2001, dtype=float)
    s = oscillatory_partial_sums(1.3, 0.5 * np.log(n), 2000)
    terms = np.exp(1j * (1.3 * n + 0.5 * np.log(n))) / n
    diffs = np.diff(s.partials)
    err = np.abs(diffs - terms[1:])
    bound = 4e-16 * (1.0 + np.abs(s.partials[1:]))
    assert np.all(err <= bound)


def test_gamma_callable_and_length_check():
    s = oscillatory_partial_sums(2.0, lambda n: 0.1 * n ** 0.5, 100)
    assert s.partials.shape == (100,)
    with pytest.raises(errors.LengthMismatch):
        oscillatory_partial_sums(2.0, np.zeros(5), 100)
    # a scalar or a square table is no gamma sequence
    with pytest.raises(errors.LengthMismatch):
        oscillatory_partial_sums(2.0, lambda n: 0.5, 100)
    with pytest.raises(errors.LengthMismatch):
        oscillatory_partial_sums(2.0, np.zeros((100, 100)), 100)


def test_json_export_shape():
    s = oscillatory_partial_sums(PI, None, 256)
    d = s.to_json_dict()
    assert set(d) == {"alpha", "sup_abs", "dyadic_profile",
                      "hypothesis_max_n_dgamma"}
    assert len(d["dyadic_profile"]) == 9  # 2^0 .. 2^8


# --- trajectory sum diagnostics --------------------------------------------

def free_trajs(xs, n):
    spec = OperatorSpec(make_potential("coulomb", c=0.0), PI / 2, n)
    return [evolve_trajectory(spec, SpectralParam.from_x(x)) for x in xs]


def test_c2_free_single_matches_direct_oracle():
    n = 10 ** 5
    (traj,) = free_trajs([PI / 4], n)
    diag = prufer_sum_diagnostics([traj], n)
    # independent oracle: plain cumulative sums of the same terms
    sites = np.arange(1, n + 1, dtype=float)
    terms = np.sin(2.0 * traj.theta_bar[1:]) ** 2 / sites
    dev = np.abs(0.5 * np.log(sites) - np.cumsum(terms))
    assert diag.n0 == 1
    assert diag.diag[0].sup_abs == pytest.approx(dev.max(), abs=1e-9)
    assert diag.diag[0].stabilized


def test_c1_c2_free_pair():
    n = 10 ** 5
    trajs = free_trajs([PI / 3, PI / 5], n)
    diag = prufer_sum_diagnostics(trajs, n)
    assert diag.hypothesis_ok
    assert diag.cross[0, 1] == diag.cross[1, 0] > 0
    for p in diag.pair_sums:
        assert p.stabilized
    for d in diag.diag:
        assert d.stabilized


def test_coulomb_onset_and_hypothesis():
    n = 10 ** 4
    spec = OperatorSpec(make_potential("coulomb", c=1.0), PI / 2, n)
    trajs = [evolve_trajectory(spec, SpectralParam.from_x(x))
             for x in (PI / 3, PI / 4)]
    diag = prufer_sum_diagnostics(trajs, n)
    # |nu| = 1/(n sin x) < 1/2 from n = 3 on at both parameters
    assert diag.n0 == 3
    assert diag.hypothesis_ok


def test_degenerate_frequencies_rejected():
    n = 1000
    with pytest.raises(errors.DegenerateFrequencies):
        prufer_sum_diagnostics(free_trajs([PI / 3, PI / 3], n), n)
    with pytest.raises(errors.DegenerateFrequencies):
        prufer_sum_diagnostics(free_trajs([PI / 2], n), n)  # 2x = pi
    with pytest.raises(errors.LengthMismatch):
        prufer_sum_diagnostics(free_trajs([PI / 3], 100), 200)


# --- weighted space --------------------------------------------------------

def test_weighted_dot_indicator():
    b = WeightedVector(entries=np.array([0, 0, 0, 1.0]), n0=2, n_end=6)
    assert weighted_dot(b, b) == 5.0


def test_weighted_dot_disjoint_supports():
    b = WeightedVector(entries=np.array([1.0, 0.0, 0.0, 0.0]), n0=1, n_end=5)
    c = WeightedVector(entries=np.array([0.0, 0.0, 1.0, 2.0]), n0=1, n_end=5)
    assert weighted_dot(b, c) == 0.0


def test_weighted_dot_matches_naive_oracle():
    rng = np.random.default_rng(12)
    b = WeightedVector(entries=rng.standard_normal(100), n0=3, n_end=103)
    c = WeightedVector(entries=rng.standard_normal(100), n0=3, n_end=103)
    naive = math.fsum(n * bv * cv for n, bv, cv
                      in zip(range(3, 103), b.entries, c.entries))
    assert weighted_dot(b, c) == pytest.approx(naive, rel=1e-13)


def test_weighted_dot_range_mismatch():
    b = WeightedVector(entries=np.zeros(4), n0=1, n_end=5)
    c = WeightedVector(entries=np.zeros(4), n0=2, n_end=6)
    with pytest.raises(errors.RangeMismatch):
        weighted_dot(b, c)
    with pytest.raises(errors.RangeMismatch):
        WeightedVector(entries=np.zeros(3), n0=1, n_end=5)


def test_bessel_orthonormal_case():
    # indicator vectors are orthogonal in the weighted product
    dim, n0 = 20, 2
    es = []
    for j in range(4):
        v = np.zeros(dim)
        v[j] = 1.0
        es.append(normalize_weighted(WeightedVector(v, n0, n0 + dim)))
    g = WeightedVector(np.ones(dim), n0, n0 + dim)
    rep = almost_orthogonality_check(g, es)
    assert rep.beta == 0.0
    assert rep.rhs == pytest.approx(weighted_dot(g, g), rel=1e-15)
    assert rep.holds


def test_single_vector_cauchy_schwarz():
    rng = np.random.default_rng(1)
    e = normalize_weighted(WeightedVector(rng.standard_normal(30), 1, 31))
    g = WeightedVector(rng.standard_normal(30), 1, 31)
    rep = almost_orthogonality_check(g, [e])
    assert rep.holds
    assert rep.lhs <= weighted_dot(g, g) * (1 + 1e-12)


def test_not_unit_vectors_rejected():
    v = WeightedVector(np.ones(10), 1, 11)
    g = WeightedVector(np.ones(10), 1, 11)
    with pytest.raises(errors.NotUnitVectors):
        almost_orthogonality_check(g, [v])


def test_precondition_beta_too_large():
    base = np.ones(10)
    e1 = normalize_weighted(WeightedVector(base.copy(), 1, 11))
    bumped = base.copy()
    bumped[0] += 0.01
    e2 = normalize_weighted(WeightedVector(bumped, 1, 11))
    with pytest.raises(errors.PreconditionFailed):
        almost_orthogonality_check(e1, [e1, e2])


def test_orthogonality_with_trajectory_vectors():
    # vectors sin(2 theta_bar_j(n))/n in the weighted space, as used to
    # bound the eigenvalue sum
    n = 10 ** 4
    spec = OperatorSpec(make_potential("coulomb", c=1.0), PI / 2, n)
    xs = (PI / 3, PI / 4, 2 * PI / 5)
    trajs = [evolve_trajectory(spec, SpectralParam.from_x(x)) for x in xs]
    n0 = 3
    sites = np.arange(n0, n, dtype=float)
    es = []
    for t in trajs:
        f = np.sin(2.0 * t.theta_bar[n0:n]) / sites
        es.append(normalize_weighted(WeightedVector(f, n0, n)))
    v = spec.potential.values(n0, n - 1)
    g = WeightedVector(v, n0, n)
    rep = almost_orthogonality_check(g, es)
    assert rep.holds
    assert rep.beta < 1.0 / 3.0


# --- logarithm bounds ------------------------------------------------------

def test_log_bound_basic():
    assert log_bound_check(0.1, 0.5) == (True, True)


def test_log_bound_domain_errors():
    with pytest.raises(errors.DomainError):
        log_bound_check(0.5, 0.1)
    with pytest.raises(errors.DomainError):
        log_bound_check(-0.1, 0.5)
    with pytest.raises(errors.DomainError):
        log_bound_check(0.5, 1.5)


def test_log_bound_tiny_x():
    for eps in (0.1, 0.3, 0.9):
        assert log_bound_check(1e-300, eps) == (True, True)


def test_log_bound_grid():
    for eps in (0.1, 0.3, 0.49):
        xs = np.linspace(0.0, eps, 10 ** 3 + 2)[1:-1]
        assert all(log_bound_check(float(x), eps) == (True, True) for x in xs)


def test_dyadic_stabilized_helper():
    assert dyadic_stabilized([1.0, 1.0, 1.01])
    assert not dyadic_stabilized([1.0, 1.5, 2.2])
    assert not dyadic_stabilized([1.0])
