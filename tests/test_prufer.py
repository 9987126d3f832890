import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efgp import (
    OperatorSpec,
    Potential,
    Solution,
    SpectralParam,
    angle_increment_check,
    errors,
    evolve_trajectory,
    make_potential,
    solve_recurrence,
    to_prufer,
    verify_recursions,
)
from efgp import _kernels
from efgp.prufer import (_block_onsets, _ln_r, _onsets, _potential_onsets,
                         _wrap_pi, boundary_values)
from oracles import prufer_step, recur

PI = math.pi


def corrupt_theta(traj, site, offset):
    """Copy of the trajectory with theta(site) shifted (fault injection)."""
    theta = traj.theta.copy()
    theta[site] += offset
    return replace(traj, theta=theta)


def free_spec(n, phi=PI / 2):
    return OperatorSpec(make_potential("coulomb", c=0.0), phi, n)


def test_spectral_param_identities():
    for x in np.linspace(0.05, PI - 0.05, 17):
        p = SpectralParam.from_x(x)
        assert p.E == pytest.approx(2 * math.cos(x), abs=0)
        assert p.sin_x > 0
        assert -2 < p.E < 2
    q = SpectralParam.from_energy(1.3)
    assert 2 * math.cos(q.x) == pytest.approx(1.3, abs=1e-15)
    with pytest.raises(errors.ParamOutOfRange):
        SpectralParam.from_x(PI)
    with pytest.raises(errors.ParamOutOfRange):
        SpectralParam.from_energy(2.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, "a", 0])
def test_spectral_param_rejects_bad_x(x):
    # E and sin_x follow from x, so a bad x cannot reach the driver, which
    # never terminates on a non-finite coupling
    with pytest.raises(errors.ParamOutOfRange):
        SpectralParam(x)


def test_boundary_condition_exact():
    for phi in (0.3, PI / 2, 2.8):
        u0, u1 = boundary_values(phi)
        assert u0 * math.sin(phi) + u1 * math.cos(phi) == 0.0


def test_free_solution_period_four():
    sol = solve_recurrence(free_spec(12), SpectralParam.from_x(PI / 2))
    expect = np.array([0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0], dtype=float)
    assert np.allclose(sol.u, expect, atol=1e-12)


def test_free_solution_closed_form():
    # u(n) = cos(phi) s(n) - sin(phi) t(n) with s, t the unit free
    # solutions; t(n) = sin(nx)/sin(x), s(n) = -sin((n-1)x)/sin(x)
    rng = np.random.default_rng(5)
    for _ in range(5):
        phi = rng.uniform(0.2, PI - 0.2)
        x = rng.uniform(0.2, PI - 0.2)
        spec = free_spec(1000, phi)
        sol = solve_recurrence(spec, SpectralParam.from_x(x))
        n = np.arange(0, 1001, dtype=float)
        t = np.sin(n * x) / math.sin(x)
        s = -np.sin((n - 1) * x) / math.sin(x)
        expect = math.cos(phi) * s - math.sin(phi) * t
        assert np.max(np.abs(sol.u - expect)) <= 1e-10 * np.max(np.abs(expect) + 1)


def test_recurrence_residual_oracle():
    p = make_potential("coulomb", c=1.0)
    spec = OperatorSpec(p, PI / 2, 10 ** 4)
    param = SpectralParam.from_x(PI / 3)
    sol = solve_recurrence(spec, param)
    v = p.values(1, spec.n)
    u = sol.u
    res = np.abs(u[:-2] + u[2:] + v[:-1] * u[1:-1] - param.E * u[1:-1])
    scale = np.abs(u[:-2]) + np.abs(u[2:]) + np.abs(u[1:-1]) + 1.0
    assert np.max(res / scale) <= 1e-12


def test_overflow_signalled():
    p = make_potential("table", values=[1e160, -1e160, 1e160])
    spec = OperatorSpec(p, 1.0, 5)
    with pytest.raises(errors.Overflow):
        solve_recurrence(spec, SpectralParam.from_x(1.0))


def test_trajectory_beyond_float_range_raises_overflow():
    # ln R passes ln(float max) early: R and u must not come back as inf
    spec = OperatorSpec(make_potential("coulomb", c=2000.0), 1.0, 10 ** 4)
    traj = evolve_trajectory(spec, SpectralParam.from_x(1.0))
    with pytest.raises(errors.Overflow, match=r"R\((\d+)\)") as exc:
        traj.R
    site = int(exc.value.args[0].split("(")[1].split(")")[0])
    ln_max = math.log(np.finfo(float).max)
    assert traj.ln_R[site] >= ln_max - 1e-12
    assert np.all(traj.ln_R[1:site] < ln_max + 1e-12)
    with pytest.raises(errors.Overflow):
        traj.u_values()


def test_wronskian_constant():
    p = make_potential("random_sign", c=1.5, seed=21)
    spec = OperatorSpec(p, PI / 2, 10 ** 5)
    param = SpectralParam.from_x(1.2)
    V = p.value_array(spec.n)
    sub = (V[1:spec.n] - param.E)[None]
    s, t = recur(1.0, 0.0, sub)[0], recur(0.0, 1.0, sub)[0]
    assert np.all(np.abs(s) <= 1e300) and np.all(np.abs(t) <= 1e300)
    w = s[1:] * t[:-1] - s[:-1] * t[1:]
    assert np.max(np.abs(w - w[0])) <= 1e-12 * (1 + np.abs(w[0]))


def test_to_prufer_free_constant_radius():
    # u(n) = sin(nx) gives R = sin(x) and theta(n) = (n-1)x
    x = 0.9
    spec = free_spec(200)
    param = SpectralParam.from_x(x)
    n = np.arange(0, 201, dtype=float)
    sol = Solution(u=np.sin(n * x), spec=spec, param=param)
    traj = to_prufer(sol)
    assert np.allclose(traj.R[1:], math.sin(x), rtol=1e-12)
    assert np.allclose(traj.theta[1:], (n[1:] - 1) * x, atol=1e-12)


def test_free_ratio_is_one():
    sol = solve_recurrence(free_spec(500, 0.6), SpectralParam.from_x(1.1))
    traj = to_prufer(sol)
    ratios = traj.R[2:] / traj.R[1:-1]
    assert np.allclose(ratios, 1.0, rtol=1e-12)


def test_prufer_invariant_projections():
    # R cos(theta) = u(n) - u(n-1) cos x, R sin(theta) = u(n-1) sin x
    p = make_potential("alternating", c=1.2)
    spec = OperatorSpec(p, 1.0, 2000)
    param = SpectralParam.from_x(1.3)
    sol = solve_recurrence(spec, param)
    traj = to_prufer(sol)
    u = sol.u
    r, th = traj.R[1:], traj.theta[1:]
    tol = 1e-12 * (np.abs(u[1:]) + np.abs(u[:-1]) + 1.0)
    assert np.all(np.abs(r * np.cos(th) - (u[1:] - u[:-1] * param.cos_x)) <= tol)
    assert np.all(np.abs(r * np.sin(th) - u[:-1] * param.sin_x) <= tol)
    assert np.all(r > 0)


def test_degenerate_solution_rejected():
    spec = free_spec(10)
    param = SpectralParam.from_x(1.0)
    sol = Solution(u=np.zeros(11), spec=spec, param=param)
    with pytest.raises(errors.DegenerateSolution):
        to_prufer(sol)


def test_degenerate_pair_named_across_a_block_end():
    # u = 1 up to site m, 0 after: the first zero pair (u(n), u(n-1)) is at
    # n = m + 2, in the second block of the lift
    m = _kernels._CHUNK + 5
    u = np.zeros(2 * _kernels._CHUNK + 1)
    u[:m + 1] = 1.0
    sol = Solution(u=u, spec=free_spec(u.shape[0] - 1),
                   param=SpectralParam.from_x(1.0))
    with pytest.raises(errors.DegenerateSolution, match=rf"R\({m + 2}\) = 0"):
        to_prufer(sol)


def test_ln_r_rejects_a_zero_radius():
    # classify and construct form ln R without the lift, which names the
    # site; the radius formula itself refuses R = 0
    param = SpectralParam.from_x(1.0)
    un, um = np.array([[1.0, 0.0, 2.0]]), np.array([[0.5, 0.0, 1.0]])
    with pytest.raises(errors.DegenerateSolution):
        _ln_r(un, um, np.zeros((1, 3)), param.cos_x, param.sin_x)
    ok = _ln_r(un[:, ::2], um[:, ::2], 3.0, param.cos_x, param.sin_x)
    want = np.log(np.hypot(un[:, ::2] - um[:, ::2] * param.cos_x,
                           um[:, ::2] * param.sin_x)) + 3.0
    assert ok.tobytes() == want.tobytes()


def test_prufer_step_identity_at_zero_nu():
    ratio, nxt = prufer_step(0.37, 0.0, 1.1)
    assert ratio == 1.0
    assert nxt == 0.37 + 1.1
    # nu = 0 is a rotation by x, bit for bit, also on angles where the
    # angle rebuilt from arctan2 rounds 1-2 ulp away from theta + x
    rng = np.random.default_rng(11)
    theta = np.concatenate([rng.uniform(-3.0, 3.0, 32),
                            rng.uniform(-1e4, 1e4, 32)])
    tb = theta + 1.1
    rebuilt = tb + _wrap_pi(np.arctan2(np.sin(tb), np.cos(tb)) - tb)
    assert (rebuilt != tb).any()
    ratio, nxt = prufer_step(theta, np.zeros(64), 1.1)
    assert (ratio == 1.0).all() and nxt.tobytes() == tb.tobytes()


def test_prufer_step_right_angle():
    # theta + x = pi/2 forces ratio = 1 + nu^2
    for nu in (-0.7, 0.2, 1.5):
        ratio, _ = prufer_step(PI / 2 - 0.4, nu, 0.4)
        assert ratio == pytest.approx(1 + nu * nu, rel=1e-12)


def test_prufer_step_on_arrays_equals_scalar_calls():
    rng = np.random.default_rng(5)
    theta = rng.uniform(-10.0, 10.0, 64)
    nu = rng.uniform(-3.0, 3.0, 64)
    nu[:4] = (0.0, 0.5, -0.5, 1.0)
    ratio, nxt = prufer_step(theta, nu, 1.1)
    assert isinstance(ratio, np.ndarray) and isinstance(nxt, np.ndarray)
    for j in range(theta.size):
        # bit for bit: the same operations, one element at a time
        assert (float(ratio[j]), float(nxt[j])) == prufer_step(
            float(theta[j]), float(nu[j]), 1.1)


def test_prufer_step_reproduces_trajectory():
    # cross-implementation oracle: stepping (R, theta) analytically must
    # match the transformation of the directly-evolved solution
    p = make_potential("resonant", c=1.0, omega=0.9, delta=0.3)
    spec = OperatorSpec(p, 0.8, 10 ** 4)
    param = SpectralParam.from_x(2 * PI / 5)
    sol = solve_recurrence(spec, param)
    traj = to_prufer(sol)
    nu = traj.nu
    r = np.empty(spec.n + 1)
    th = np.empty(spec.n + 1)
    r[1], th[1] = traj.R[1], traj.theta[1]
    for n in range(1, spec.n):
        ratio, nxt = prufer_step(th[n], nu[n], param.x)
        r[n + 1] = r[n] * math.sqrt(ratio)
        th[n + 1] = nxt
    scale = 1.0 + np.abs(traj.theta[1:])
    assert np.max(np.abs(th[1:] - traj.theta[1:]) / scale) <= 1e-10
    assert np.max(np.abs(r[1:] / traj.R[1:] - 1.0)) <= 1e-10


def test_verify_recursions_free_solution():
    sol = solve_recurrence(free_spec(200, 1.1), SpectralParam.from_x(0.7))
    rep = verify_recursions(sol, to_prufer(sol))
    assert rep.max_residual() <= 1e-13


def test_verify_recursions_coulomb_large():
    p = make_potential("coulomb", c=1.0)
    spec = OperatorSpec(p, PI / 2, 10 ** 5)
    param = SpectralParam.from_x(PI / 4)
    sol = solve_recurrence(spec, param)
    rep = verify_recursions(sol, to_prufer(sol))
    assert rep.max_residual() <= 1e-10


@pytest.mark.parametrize("values, x", [
    ([12.0] * 200, 1.0),  # max |u| 5.9e205
    ([12.0] * 280, 0.3),  # max |u| 5.9e278
    ([30.0, -30.0] * 100, 2.0),  # max |u| 8.7e293
    ([0.0, 1e210, 0.0, 0.0], 1.0),  # max |u| 1.6e210, nu(2)^2 out of range
])
def test_verify_recursions_near_the_float_limit(values, x):
    # u(n)^2 and R(n)^2 leave the float range although u does not, and so
    # do nu^2 and R(n+1)^2/R(n)^2 after a huge V(n): the radius and ratio
    # identities must still come out finite and small
    spec = OperatorSpec(make_potential("table", values=values), 1.0, len(values))
    sol = solve_recurrence(spec, SpectralParam.from_x(x))
    assert np.max(np.abs(sol.u)) > 1e200
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rep = verify_recursions(sol, to_prufer(sol))
    for res in (rep.max_res_efgp0, rep.max_res_efgp1, rep.max_res_efgp2):
        assert math.isfinite(res) and res <= 1e-10


def test_verify_recursions_detects_corruption():
    sol = solve_recurrence(free_spec(200, 1.1), SpectralParam.from_x(0.7))
    traj = corrupt_theta(to_prufer(sol), 50, 0.1)
    rep = verify_recursions(sol, traj)
    assert rep.max_res_efgp2 > 1e-3


def test_verify_recursions_length_mismatch():
    sol = solve_recurrence(free_spec(100), SpectralParam.from_x(1.0))
    traj = to_prufer(solve_recurrence(free_spec(50), SpectralParam.from_x(1.0)))
    with pytest.raises(errors.LengthMismatch):
        verify_recursions(sol, traj)


def test_angle_increment_zero_potential():
    sol = solve_recurrence(free_spec(1000), SpectralParam.from_x(1.0))
    traj = to_prufer(sol)
    assert angle_increment_check(traj) == []
    # the lift itself tracks (n-1)x to rounding
    inc = np.diff(traj.theta[1:]) - 1.0
    assert np.max(np.abs(inc)) <= 1e-13


def test_angle_increment_coulomb():
    p = make_potential("coulomb", c=1.0)
    spec = OperatorSpec(p, PI / 2, 10 ** 4)
    traj = to_prufer(solve_recurrence(spec, SpectralParam.from_x(PI / 3)))
    assert angle_increment_check(traj) == []


def test_angle_increment_random_sign_sweep():
    rng = np.random.default_rng(17)
    for k in range(100):
        c = rng.uniform(0.1, 1.0)
        x = rng.uniform(0.3, PI - 0.3)
        phi = rng.uniform(0.2, PI - 0.2)
        p = make_potential("random_sign", c=c, seed=k)
        spec = OperatorSpec(p, phi, 2000)
        traj = evolve_trajectory(spec, SpectralParam.from_x(x))
        assert angle_increment_check(traj) == []


def test_evolve_trajectory_matches_to_prufer():
    p = make_potential("random_sign", c=1.9, seed=4)
    spec = OperatorSpec(p, 2.0, 10 ** 4)
    param = SpectralParam.from_x(0.5)
    t1 = to_prufer(solve_recurrence(spec, param))
    t2 = evolve_trajectory(spec, param)
    # no rescale fires, and both routes share one transform
    assert np.array_equal(t1.theta[1:], t2.theta[1:])
    assert np.array_equal(t1.ln_R[1:], t2.ln_R[1:])
    assert t2.r1 == pytest.approx(t1.r1, rel=1e-13)


def test_evolve_trajectory_across_rescales():
    # u grows about 10.9x per site: the kernel's pair crosses 1e100 twice
    # (ln R reaches about 474) while the raw u stays below 1e300
    spec = OperatorSpec(make_potential("table", values=[12.0] * 200), 1.0, 200)
    param = SpectralParam.from_x(1.0)
    t1 = to_prufer(solve_recurrence(spec, param))
    t2 = evolve_trajectory(spec, param)
    assert np.max(t1.ln_R[1:]) > 2 * math.log(1e100)
    tol = 1e-15 * np.maximum(1.0, np.abs(t1.ln_R[1:]))
    assert np.all(np.abs(t1.ln_R[1:] - t2.ln_R[1:]) <= tol)
    assert np.max(np.abs(t1.theta[1:] - t2.theta[1:])) <= 1e-12


def test_u_reconstruction_roundtrip():
    p = make_potential("alternating", c=0.8)
    spec = OperatorSpec(p, 1.3, 500)
    param = SpectralParam.from_x(1.9)
    sol = solve_recurrence(spec, param)
    traj = evolve_trajectory(spec, param)
    u = traj.u_values()
    assert np.max(np.abs(u - sol.u)) <= 1e-10 * np.max(1 + np.abs(sol.u))


def _scanned_onsets(rev, sin_x):
    """The onsets by one division scan over all sites, fl(rev / sin x) < 1/2."""
    below = rev / np.reshape(sin_x, (-1, 1)) < 0.5
    return np.where(below.any(axis=1), below.argmax(axis=1) + 1, 0)


@st.composite
def _onset_case(draw):
    sin_x = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
    half = sin_x[0] / 2
    # plateaus, and values at sin x / 2 and one ulp to either side
    value = st.sampled_from([0.0, half, np.nextafter(half, 0.0),
                             np.nextafter(half, 1.0), 0.3, 1.0, 3.0])
    values = draw(st.lists(value | st.floats(0.0, 2.0), min_size=1, max_size=300))
    return -np.sort(-np.array(values)), sin_x  # non-increasing, as rev is


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_onset_case())
@example(case=(np.full(40, 3.0), [0.5, 1.0]))  # no onset
@example(case=(np.array([0.5, 0.5, np.nextafter(0.5, 0.0), 0.0]), [1.0]))
def test_onsets_match_division_scan(case):
    rev, sin_x = case
    assert _onsets(rev, sin_x).tolist() == _scanned_onsets(rev, sin_x).tolist()


@pytest.mark.parametrize("sin_x", [2.0 ** -k for k in range(61)] + [2.0 ** -1021])
def test_onsets_at_the_half_of_a_power_of_two(sin_x):
    # sin x / 2 and one ulp to either side, sin x down to the smallest
    # value whose half is a normal number; within a block and across the
    # first block end, on both signs
    half = sin_x / 2
    below, above = np.nextafter(half, 0.0), np.nextafter(half, np.inf)
    for rev in ([half], [below], [above], [half, below], [above, half, below],
                [above, above, half, below, below, 0.0], [below, 0.0]):
        rev = np.array(rev)
        assert _onsets(rev, sin_x).tolist() == _scanned_onsets(rev, sin_x).tolist()
    for head in ([half], [above, -below], [-half, below], [below]):
        V = np.zeros(2 * _B + 3)
        V[_B - 1:_B - 1 + len(head)] = head
        assert (_onsets(V, [sin_x, 2 * sin_x]).tolist()
                == _scanned_onsets(_reverse_max(np.abs(V)), [sin_x, 2 * sin_x]).tolist())


def _reverse_max(a):
    """max(a[i:]) for every i."""
    return np.maximum.accumulate(a[::-1])[::-1]


def _bisected_onsets(rev, sin_x):
    """The onsets bisected on the reverse cumulative max rev of |V(1..N)|,
    as _onsets computed them before it read block maxima of V."""
    s = np.reshape(np.asarray(sin_x, dtype=np.float64), -1)
    n = rev.shape[0]
    fails = np.zeros(s.shape, dtype=np.intp)
    for k in reversed(range(n.bit_length())):
        more = fails + (1 << k)
        failing = ~(rev[np.minimum(more, n) - 1] / s < 0.5)
        fails = np.where((more <= n) & failing, more, fails)
    return np.where(fails < n, fails + 1, 0)


_B = _kernels._BLOCK


@st.composite
def _potential_onset_case(draw):
    """V(1..N) on a plateau, with values set at block ends and one site to
    either side of them, anywhere, and at the last site."""
    sin_x = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
    half = sin_x[0] / 2
    value = st.sampled_from([0.0, half, np.nextafter(half, 0.0),
                             np.nextafter(half, 1.0), 0.3, 1.0, 3.0])
    value |= st.floats(0.0, 2.0)
    n = draw(st.sampled_from([1, 2, _B - 1, _B, _B + 1, 3 * _B + 5])
             | st.integers(1, 3 * _B + 5))
    V = np.full(n, draw(st.sampled_from([0.0, 0.01, np.nextafter(half, 0.0)])))
    ends = [k * _B + d for k in range(1, 4) for d in (-2, -1, 0)]
    for site in draw(st.lists(st.sampled_from(ends) | st.integers(0, n - 1),
                              max_size=6)):
        if site < n:
            V[site] = draw(value)
    if draw(st.booleans()):
        V[-1] = draw(value)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.where(rng.integers(0, 2, n) == 1, V, -V), sin_x


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_potential_onset_case())
@example(case=(np.full(3 * _B, -3.0), [0.5, 1.0]))  # no onset
@example(case=(np.concatenate((np.zeros(_B), [0.5])), [1.0]))  # the last site fails
@example(case=(np.concatenate((np.full(_B, 0.5), np.zeros(_B))), [1.0, 0.99]))
def test_onsets_from_block_maxima_match_reverse_max_bisection(case):
    V, sin_x = case
    assert (_onsets(V, sin_x).tolist()
            == _bisected_onsets(_reverse_max(np.abs(V)), sin_x).tolist())


def _failing_at(n, sites):
    """V(1..n), zero but for 3.0 at each of sites, which fail every sin x."""
    V = np.zeros(n)
    V[np.array(sites, dtype=np.intp) - 1] = 3.0
    return V


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_potential_onset_case())
@example(case=(_failing_at(2 * _B + 5, [_B]), [0.5]))  # a block's last site
@example(case=(_failing_at(2 * _B + 5, [_B - 1]), [0.5]))  # the site before it
@example(case=(_failing_at(3 * _B + 5, [3 * _B + 2]), [0.5, 1.0]))  # partial block
@example(case=(_failing_at(_B + 7, [_B + 7]), [0.5]))  # site N: no onset
@example(case=(np.zeros(2 * _B + 5), [0.5]))  # no failing site
def test_streamed_onsets_match_in_memory_onsets(case):
    V, sin_x = case
    pot = make_potential("table", values=V)
    got = _block_onsets(pot.values, V.shape[0], sin_x).tolist()
    assert got == _onsets(pot.value_array(V.shape[0])[1:], sin_x).tolist()
    assert got == _bisected_onsets(_reverse_max(np.abs(V)), sin_x).tolist()


@st.composite
def _family_onset_case(draw):
    """(potential, N, sin x values): any family, with or without explicit
    values and an onset site, its amplitude 0, moderate, at a multiple of
    the smallest sin x / 2 or so large that the bound reaches past N."""
    sin_x = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
    family = draw(st.sampled_from(["coulomb", "alternating", "resonant",
                                   "random_sign", "table"]))
    # fl(c / 8) = min(sin x) / 2 exactly: site 8 of c/n fails, site 9 passes
    c = draw(st.sampled_from([0.0, 4.0 * min(sin_x), 1e4])
             | st.floats(-5.0, 5.0))
    head = draw(st.lists(st.floats(-2.0, 2.0), max_size=12,
                         min_size=int(family == "table")))
    pot = make_potential(family, c=c, omega=draw(st.floats(0.1, 3.0)),
                         delta=draw(st.floats(0.0, 6.3)),
                         seed=draw(st.integers(0, 1000)), values=head,
                         n0=draw(st.integers(1, 30)))
    n = draw(st.sampled_from([1, 2, 8, 9, _B + 1]) | st.integers(1, 3 * _B + 5))
    return pot, n, sin_x


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_family_onset_case())
@example(case=(make_potential("coulomb", c=2.0), 100, [0.5]))  # onset 9 = H + 1
@example(case=(make_potential("coulomb", c=1e4), 2 * _B + 5, [0.5]))  # H >= N
@example(case=(make_potential("table", values=[0.0] * 20 + [1.0]), 15, [0.5]))
@example(case=(make_potential("random_sign", c=1.0, seed=3, values=[0.1, 3.0],
                              n0=20), 40, [0.3, 0.9]))
def test_potential_onsets_match_the_full_pass(case):
    pot, n, sin_x = case
    assert (_potential_onsets(pot, n, sin_x).tolist()
            == _block_onsets(pot.values, n, sin_x).tolist())


def test_potential_onsets_read_only_the_head(monkeypatch):
    # lemma-sums' x values on random_sign c = 1: 1/n < sin(0.4)/2 from
    # n = 6 on, so of 1e6 sites only V(1..5) is read
    pot = make_potential("random_sign", c=1.0, seed=3)
    sin_x = [math.sin(x) for x in (0.4, 1.1, 1.9, 2.5)]
    want = _block_onsets(pot.values, 10 ** 6, sin_x).tolist()
    reads, values = [], Potential.values

    def counting(self, n_lo, n_hi):
        reads.append((n_lo, n_hi))
        return values(self, n_lo, n_hi)

    monkeypatch.setattr(Potential, "values", counting)
    assert _potential_onsets(pot, 10 ** 6, sin_x).tolist() == want
    assert reads == [(1, 5)]
