import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    lemma_sums,
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
from efgp import _kernels
from efgp.analysis import (
    DiagonalSum,
    PairSum,
    SumDiagnostics,
    _LaneSums,
    dyadic_profile,
    dyadic_stabilized,
    normalize_weighted,
)
from efgp.prufer import (
    SpectralParam,
    _onsets,
    boundary_values,
    common_onset,
)
from efgp.spectral import eigenvalues_in_window
from efgp.operators import build_jacobi
from test_prufer import _reverse_max
from test_spectral import POTENTIALS

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
    recs = [EigenvalueRecord(E=float(e),
                             certificate=Certificate(n_star=100, rn_sq=1.0))
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
            E=e, certificate=Certificate(n_star=10, rn_sq=0.01))

    s1 = make_eigenvalue_set([rec(0.1)])
    s2 = make_eigenvalue_set([rec(0.1), rec(0.7)])
    assert check_theorem(s2, 1.0).lhs >= check_theorem(s1, 1.0).lhs
    assert theorem_bound(2.0) >= theorem_bound(1.0)


@pytest.mark.parametrize("certified_only", [True, False])
def test_check_theorem_sums_only_inside_the_band(certified_only):
    # the paper's sum runs over (-2, 2); outside it 1 - E^2/4 <= 0 would
    # lower the left side
    def rec(e):
        return EigenvalueRecord(
            E=e, certificate=Certificate(n_star=10, rn_sq=0.01))

    eset = make_eigenvalue_set([rec(e) for e in (-3.0, -2.0, 0.0, 1.0, 2.0,
                                                 7.0)])
    rep = check_theorem(eset, 0.0, certified_only=certified_only)
    assert rep.lhs == 1.75 and rep.records_used == 2
    assert not rep.satisfied


def test_hand_built_records_cannot_contradict_their_evidence():
    # R(N*)^2 = 5 at N* = 100 fails R(N*)^2 <= 1/N*, and a record's weight
    # is 1 - E^2/4 of its own E: there is no field that could claim
    # otherwise
    failing = EigenvalueRecord(E=0.3, certificate=Certificate(n_star=100,
                                                              rn_sq=5.0))
    assert not failing.certificate.passed
    rep = check_theorem(make_eigenvalue_set([failing]), 1.0)
    assert rep.records_used == 0 and rep.lhs == 0.0
    near_edge = EigenvalueRecord(E=1.9, certificate=Certificate(n_star=100,
                                                                rn_sq=0.001))
    rep = check_theorem(make_eigenvalue_set([failing, near_edge]), 1.0)
    assert rep.records_used == 1
    assert rep.lhs == 1.0 - 1.9 * 1.9 / 4.0
    assert rep.lhs == pytest.approx(0.0975, rel=1e-12)
    assert near_edge.x == math.acos(0.95)
    assert EigenvalueRecord(E=2.5, certificate=failing.certificate).x is None


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


@pytest.mark.parametrize("alpha, gamma", [(PI, None), (1.0, "log"), (2.5, "lin")])
@pytest.mark.parametrize("n_max", [1, 8191, 2 ** 15 + 3])
def test_partial_sums_match_two_real_sums(alpha, gamma, n_max):
    # the cos and sin lanes of one complex sum against two real sums
    n = np.arange(1, n_max + 1, dtype=np.float64)
    g = {None: np.zeros(n_max), "log": 3.0 * np.log(n), "lin": -0.3 * n}[gamma]
    s = oscillatory_partial_sums(alpha, g, n_max)
    phase = alpha * n + g
    re = _kernels.kahan_cumsum(np.cos(phase) / n)
    im = _kernels.kahan_cumsum(np.sin(phase) / n)
    mods = np.hypot(re, im)
    assert s.sup_abs == float(mods.max())
    assert s.dyadic == tuple(dyadic_profile(mods))


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


def _dyadic_reference(a):
    """The full running max read at 2^k - 1, k = 0.. within range."""
    runmax = np.maximum.accumulate(a)
    return [float(runmax[2 ** k - 1]) for k in range(a.shape[0].bit_length())]


_RNG = np.random.default_rng(5)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025]
                         + [int(v) for v in _RNG.integers(4, 5000, 6)])
@pytest.mark.parametrize("nan_share", [0.0, 0.001, 0.3])
def test_dyadic_profile_matches_running_max(n, nan_share):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * np.exp(rng.uniform(-5, 5, n))
    a[rng.random(n) < nan_share] = np.nan
    got = dyadic_profile(a)
    ref = _dyadic_reference(a)
    assert len(got) == len(ref) == n.bit_length()
    assert all(type(v) is float for v in got)
    assert np.array_equal(got, ref, equal_nan=True)


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


def _degenerate(xs):
    """2 x_j or x_j +/- x_k within 1e-6 of a multiple of pi."""
    near = [2.0 * x for x in xs]
    near += [a + s * b for i, a in enumerate(xs) for b in xs[i + 1:]
             for s in (1.0, -1.0)]
    return any(abs(math.remainder(v, PI)) < 1e-6 for v in near)


def _unblocked_angles(un, um, param):
    """The lift in one pass over all sites, as prufer._Lift computes it
    blockwise."""
    n = un.shape[0]
    theta = np.full(n + 1, np.nan)
    principal = np.arctan2(um * param.sin_x, un - um * param.cos_x)
    d = np.diff(principal) - param.x
    d = d - 2.0 * np.pi * np.ceil((d - np.pi) / (2.0 * np.pi))  # into (-pi, pi]
    theta[1] = principal[0]
    theta[2:] = principal[0] + np.arange(1, n) * param.x + np.cumsum(d)
    return theta


_CHUNK = _kernels._CHUNK
_RANDOM_SIGN = make_potential("random_sign", c=1.0, seed=3)
# a 1e120 spike cuts the pair at site 11, before the onset 32 that V(31) = 1
# sets; a resonant table with |V| < sin(x)/2 pumps R at x = 1.1 until the
# pair leaves the band twice after the onset 1
_SPIKE = make_potential("table", values=[0.0] * 9 + [1e120] + [0.0] * 20 + [1.0])
_PUMP = make_potential("table", values=[0.4 * math.sin(2.2 * k)
                                        for k in range(1, 6001)])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pot=POTENTIALS, phi=st.floats(0.01, 3.13), n=st.integers(2, 5000),
       xs=st.lists(st.floats(0.01, PI - 0.01), min_size=1, max_size=4))
# blocks of the lift ending just before, at and just after a chunk end
@example(pot=_RANDOM_SIGN, phi=1.0, n=_CHUNK - 1, xs=[0.4, 1.1])
@example(pot=_RANDOM_SIGN, phi=1.0, n=_CHUNK, xs=[1.9])
@example(pot=make_potential("coulomb", c=3.0), phi=2.0, n=_CHUNK + 1,
         xs=[0.4, 1.1, 2.5])
@example(pot=_RANDOM_SIGN, phi=1.0, n=2 * _CHUNK + 3, xs=[0.4, 1.1, 1.9, 2.5])
# pairs rescaled before the onset, and after it
@example(pot=_SPIKE, phi=1.0, n=150, xs=[1.1, 1.9])
@example(pot=_PUMP, phi=1.0, n=6000, xs=[1.1, 1.9])
# onset 2: a one-site window is lifted before the sums start
@example(pot=make_potential("table", values=[1.0]), phi=1.0, n=50, xs=[1.1])
# onset 9001, inside the second block of lemma_sums: that block is summed
# from its middle
@example(pot=make_potential("random_sign", c=1.0, seed=5, values=[3.0] * 9000),
         phi=0.7, n=20000, xs=[0.5, 1.3])
def test_lemma_sums_match_trajectory_route(pot, phi, n, xs):
    assume(not _degenerate(xs))
    spec = OperatorSpec(pot, phi, n)
    params = [SpectralParam.from_x(x) for x in xs]
    trajs = [evolve_trajectory(spec, p) for p in params]
    assert (lemma_sums(spec, params).to_json_dict()
            == prufer_sum_diagnostics(trajs, n).to_json_dict())
    nu_ref = np.concatenate(([np.nan], pot.values(1, n)))
    for t, p in zip(trajs, params):
        # nu(n) = V(n)/sin x from a fresh evaluation of V, slot 0 nan
        assert np.array_equal(t.nu, nu_ref / p.sin_x, equal_nan=True)
    # the onsets read off each |nu_j| itself
    onsets = [int(_onsets(_reverse_max(np.abs(t.nu[1:])), 1.0)[0])
              for t in trajs]
    assert common_onset(trajs, n) == (max([1] + onsets), all(onsets))
    V = pot.value_array(n)
    for p in params:
        un, um, _ = _kernels.prufer_forward(V, p.E, *boundary_values(phi))
        got = evolve_trajectory(spec, p).theta
        assert got.tobytes() == _unblocked_angles(un[1:], um[1:], p).tobytes()


@pytest.mark.parametrize("pot, n, before", [(_SPIKE, 150, True),
                                             (_PUMP, 6000, False)])
def test_rescaling_examples_rescale_where_they_claim(pot, n, before):
    spec = OperatorSpec(pot, 1.0, n)
    params = [SpectralParam.from_x(x) for x in (1.1, 1.9)]
    n0 = lemma_sums(spec, params).n0
    ln_scale = _kernels.prufer_forward(pot.value_array(n), params[0].E,
                              *boundary_values(1.0))[2]
    cuts = np.flatnonzero(np.diff(ln_scale[1:])) + 1  # the cut sites
    assert cuts.size and ((cuts < n0) if before else (cuts > n0)).all()


def test_lemma_sums_holds_v_and_a_few_mib():
    # the bound of a design that held V, 8 bytes a site (tracemalloc sees
    # numpy's buffers); the whole-row evolution peaked at 24.9 MB here
    n = 4 * 10 ** 5
    spec = OperatorSpec(make_potential("random_sign", c=1.0, seed=7), 1.0, n)
    params = [SpectralParam.from_x(x) for x in (0.4, 1.1, 1.9, 2.5)]
    tracemalloc.start()
    try:
        lemma_sums(spec, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n + 1) + 4 * 2 ** 20


def test_lemma_sums_memory_does_not_grow_with_n():
    # no array as long as the lattice: V is read block by block, and the
    # block buffers of the driver, the lift and the sums (about 3 MiB for
    # four parameters) are allocated once per call
    params = [SpectralParam.from_x(x) for x in (0.4, 1.1, 1.9, 2.5)]
    peaks = []
    for n in (2 ** 17 + 5, 2 ** 20 + 5):
        spec = OperatorSpec(make_potential("random_sign", c=1.0, seed=7), 1.0, n)
        tracemalloc.start()
        try:
            lemma_sums(spec, params)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 4 * 2 ** 20
    assert abs(peaks[1] - peaks[0]) < 256 * 2 ** 10


def _lane_sums(sins, n0, n_max, hyp_ok, cuts=()):
    """The sums of the rows sins, given over the sites n0..n_max, as
    _LaneSums forms them: one add per run of the lengths in cuts that fits
    in the rows, then one of the sites left (as prufer_sum_diagnostics
    does, one add of the whole rows if cuts is empty)."""
    acc = _LaneSums(len(sins), n0, n_max)
    lo = 0
    for length in cuts:
        if lo + length > len(sins[0]):
            break
        acc.add([row[lo:lo + length] for row in sins])
        lo += length
    acc.add([row[lo:] for row in sins])
    return acc.result(hyp_ok)


def _unblocked_sums(sins, n0, n_max, hyp_ok):
    """The sums one at a time over all sites, as _LaneSums computes them in
    two-lane pieces."""
    m = len(sins)
    sites = np.arange(n0, n_max + 1, dtype=np.float64)
    half_log_n = 0.5 * np.log(sites)
    diag = []
    for j in range(m):
        dev = np.abs(half_log_n - _kernels.kahan_cumsum(sins[j] * sins[j] / sites))
        diag.append(DiagonalSum(j=j + 1, sup_abs=float(dev.max()),
                                dyadic=tuple(dyadic_profile(dev))))
    cross = np.zeros((m, m))
    pairs = []
    for j in range(m):
        for k in range(j + 1, m):
            mods = np.abs(_kernels.kahan_cumsum(sins[j] * sins[k] / sites))
            cross[j, k] = cross[k, j] = float(mods.max())
            pairs.append(PairSum(j=j + 1, k=k + 1, sup_abs=cross[j, k],
                                 dyadic=tuple(dyadic_profile(mods))))
    return SumDiagnostics(cross=cross, pair_sums=tuple(pairs),
                          diag=tuple(diag), n0=n0, hypothesis_ok=hyp_ok)


# the runs of add calls: the whole rows (no id suffix), then cuts that
# start runs inside dyadic bins and pieces
_CUTS = [(), (1, 3, 4100, 5), (4095, 2), (7, 8192, 1)]


@pytest.mark.parametrize("n0, size, m, cuts", [
    pytest.param(n0, size, m, cuts, id="-".join(
        map(str, (n0, size, m) + (("cut",) + cuts if cuts else ()))))
    for cuts in _CUTS
    for n0 in [1, 37]
    for size in [1, 8191, 8192, 8193, 16384, 16385, 2 ** 15 + 3]
    for m in [1, 2, 3, 4, 5]])
def test_sums_match_one_sum_at_a_time(m, size, n0, cuts):
    # rows ending before, at and after multiples of the 4096-site pieces
    # and the dyadic bins; odd m leaves a zero padding lane in both lane
    # groups.  The cuts add the rows in runs that start and end inside
    # dyadic bins and pieces, as lemma_sums does from the block holding n0
    rng = np.random.default_rng(100 * m + size % 97 + n0)
    sins = [np.sin(rng.uniform(0.0, 7.0, size)) for _ in range(m)]
    n_max = n0 + size - 1
    got = _lane_sums(sins, n0, n_max, True, cuts)
    want = _unblocked_sums(sins, n0, n_max, True)
    assert got.to_json_dict() == want.to_json_dict()
    assert np.array_equal(got.cross, want.cross)


def test_sums_propagate_nan_like_one_sum_at_a_time():
    rng = np.random.default_rng(4)
    sins = [np.sin(rng.uniform(0.0, 7.0, 20000)) for _ in range(3)]
    sins[1][9000] = np.nan
    got = _lane_sums(sins, 5, 20004, False).to_json_dict()
    want = _unblocked_sums(sins, 5, 20004, False).to_json_dict()
    # NaN != NaN in a dict comparison; the JSON text spells it out
    assert "NaN" in json.dumps(got)
    assert json.dumps(got) == json.dumps(want)


def test_degenerate_frequencies_rejected():
    n = 1000
    with pytest.raises(errors.DegenerateFrequencies):
        prufer_sum_diagnostics(free_trajs([PI / 3, PI / 3], n), n)
    with pytest.raises(errors.DegenerateFrequencies):
        prufer_sum_diagnostics(free_trajs([PI / 2], n), n)  # 2x = pi
    with pytest.raises(errors.LengthMismatch):
        prufer_sum_diagnostics(free_trajs([PI / 3], 100), 200)
    with pytest.raises(errors.LengthMismatch, match="trajectory"):
        prufer_sum_diagnostics([], n)
    spec = OperatorSpec(make_potential("coulomb", c=0.0), PI / 2, n)
    with pytest.raises(errors.LengthMismatch, match="spectral parameter"):
        lemma_sums(spec, [])


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
    with pytest.raises(errors.NotUnitVectors, match="zero vector"):
        normalize_weighted(WeightedVector(np.zeros(10), 1, 11))


def test_precondition_beta_too_large():
    base = np.ones(10)
    e1 = normalize_weighted(WeightedVector(base.copy(), 1, 11))
    bumped = base.copy()
    bumped[0] += 0.01
    e2 = normalize_weighted(WeightedVector(bumped, 1, 11))
    with pytest.raises(errors.PreconditionFailed):
        almost_orthogonality_check(e1, [e1, e2])
    with pytest.raises(errors.PreconditionFailed, match="at least one"):
        almost_orthogonality_check(e1, [])


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
