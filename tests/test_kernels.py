"""Kernels against independent references: plain-Python loops of the
rescaled recurrences, an extended-precision recurrence, and each other."""

import importlib.util
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgp import (OperatorSpec, _kernels, errors, make_potential,
                  resonance_construct, solve_recurrence)
from efgp.prufer import (SpectralParam, _ln_r, _trajectory, boundary_values,
                         evolve_trajectory)
from efgp.spectral import _centred_log_sites, _decay_exponents
from oracles import recur

RESCALE_HI, RESCALE_LO = 1e100, 1e-100


def _rescale_needed(a, b):
    m = max(abs(a), abs(b))
    return m if m > RESCALE_HI or (m < RESCALE_LO and m != 0.0) else None


def _ln_r_of(pairs, param):
    """ln R of site-indexed (un, um, ln_scale) at the sites 1..N."""
    un, um, ln_scale = (a[1:] for a in pairs)
    return _ln_r(un, um, ln_scale, param.cos_x, param.sin_x)


def loop_forward(V, E, u0, u1):
    """Oracle for prufer_forward: one site per iteration."""
    n_max = V.shape[0] - 1
    un, um, ln_scale = np.full((3, n_max + 1), np.nan)
    a, b, sigma = u1, u0, 0.0
    for n in range(1, n_max + 1):
        un[n], um[n], ln_scale[n] = a, b, sigma
        if n < n_max:
            m = _rescale_needed(a, b)
            if m is not None:
                a, b, sigma = a / m, b / m, sigma + math.log(m)
            a, b = (E - V[n]) * a - b, a
    return un, um, ln_scale


def loop_backward(amp, omega, delta, E, u_next, u_launch, n_launch, n_record):
    """Oracle for backward_resonant: one site per iteration, V on the fly."""
    un, um, ln_scale = np.full((3, n_record + 1), np.nan)
    a, b, sigma = u_next, u_launch, 0.0
    for n in range(n_launch, 0, -1):
        m = _rescale_needed(a, b)
        if m is not None:
            a, b, sigma = a / m, b / m, sigma + math.log(m)
        c = (E - amp * math.sin(omega * n + delta) / n) * b - a
        if n <= n_record:
            un[n], um[n], ln_scale[n] = b, c, sigma
        a, b = b, c
    return un, um, ln_scale


def _rescale_sites(ln_scale):
    return np.flatnonzero(np.diff(ln_scale[1:])) + 1


def _assert_same_evolution(got, want, param):
    assert np.array_equal(_rescale_sites(got[2]), _rescale_sites(want[2]))
    lnr, ref = _ln_r_of(got, param), _ln_r_of(want, param)
    np.testing.assert_array_less(
        np.abs(lnr - ref), 1e-12 * np.maximum(1.0, np.abs(ref)))


def _table12(n):
    V = np.full(n + 1, 12.0)
    V[0] = 0.0
    return V


FORWARD_CASES = {
    "table12-N200": (lambda: _table12(200), 2),
    "table12-N1e5": (lambda: _table12(10 ** 5), 1030),
    "coulomb2000-N1e4": (
        lambda: make_potential("coulomb", c=2000.0).value_array(10 ** 4), 5),
    "random_sign-N2e5": (
        lambda: make_potential("random_sign", c=1.0, seed=3)
        .value_array(2 * 10 ** 5), 0),
}


@pytest.mark.parametrize("case", sorted(FORWARD_CASES))
def test_prufer_forward_matches_loop(case):
    make_v, rescales = FORWARD_CASES[case]
    V = make_v()
    param = SpectralParam.from_x(1.0)
    u0, u1 = math.cos(1.0), -math.sin(1.0)
    got = _kernels.prufer_forward(V, param.E, u0, u1)
    want = loop_forward(V, param.E, u0, u1)
    assert _rescale_sites(want[2]).size == rescales
    _assert_same_evolution(got, want, param)


def _jump1e250(jump=545, tail=20):
    # for every BATCH_XS the pair before the jump is below 1e57, so the loop
    # oracle stays finite; the batched chunks, unscaled, overflow on it
    V = np.zeros(jump + tail + 2)
    V[1:jump + 1] = 5.0
    V[jump + 1] = 1e250
    return V


BATCH_CASES = {
    "table12-N1e5": lambda: _table12(10 ** 5),
    "coulomb2000-N1e4": FORWARD_CASES["coulomb2000-N1e4"][0],
    "jump1e250": _jump1e250,
}
# growth rates differ across these x, so the blocks rescale at different
# sites and leave the float range in different chunks
BATCH_XS = (1.0, 0.4, 2.2, 1.3, 2.9)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_prufer_forward_batch_rows_match_loop(case):
    # each row of a batched call passes the loop oracle and is its
    # single-energy call bit for bit
    V = BATCH_CASES[case]()
    params = [SpectralParam.from_x(x) for x in BATCH_XS]
    u0, u1 = math.cos(1.0), -math.sin(1.0)
    got = _kernels.prufer_forward(V, [p.E for p in params], u0, u1)
    assert all(a.shape == (len(params), V.shape[0]) for a in got)
    for i, p in enumerate(params):
        row = tuple(a[i] for a in got)
        _assert_same_evolution(row, loop_forward(V, p.E, u0, u1), p)
        for a, b in zip(row, _kernels.prufer_forward(V, p.E, u0, u1)):
            assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("c, rescales", [(2.5, 0), (1000.0, 4)])
def test_backward_resonant_matches_loop(c, rescales):
    n, x, delta = 2000, 1.1, 0.4
    launch = 16 * n
    param = SpectralParam.from_x(x)
    theta = x * launch + 0.5 * delta
    u_launch = math.sin(theta) / param.sin_x
    u_next = math.cos(theta) + u_launch * param.cos_x
    args = (c, 2 * x, delta, param.E, u_next, u_launch, launch, n)
    want = loop_backward(*args)
    assert _rescale_sites(want[2]).size == rescales
    _assert_same_evolution(_kernels.backward_resonant(*args), want, param)


def test_exact_zero_pair_takes_the_cut_search():
    # (u(1), u(0)) = (0, 1): the first chunk holds an exact zero, so its
    # min |pair| = 0 < _RESCALE_LO, and it must still cut at the rescales
    V = _table12(2000)
    got = _kernels.prufer_forward(V, 0.0, 1.0, 0.0)
    want = loop_forward(V, 0.0, 1.0, 0.0)
    assert want[0][1] == 0.0 and _rescale_sites(want[2]).size > 10
    _assert_same_evolution(got, want, SpectralParam.from_energy(0.0))


def test_rescale_of_a_chunk_wholly_below_the_band():
    # no pair exceeds _RESCALE_HI (12^40 < 1e100), so only the lower edge
    # of the band calls for the cut at site 1
    V = _table12(40)
    got = _kernels.prufer_forward(V, 0.5, 1e-200, 3e-201)
    want = loop_forward(V, 0.5, 1e-200, 3e-201)
    assert _rescale_sites(want[2]).tolist() == [1]
    _assert_same_evolution(got, want, SpectralParam.from_energy(0.5))


def test_sturm_counts_exact_zero_pair_with_rescales():
    # every Sturm chunk starts from w(0) = 0, and at the shift d(1) the
    # pair at site 2 is exactly 0 too; d(k) = 40 then rescales the chunk
    noise = np.random.default_rng(8).uniform(-1.0, 1.0, 600)
    d = np.concatenate(([2.0], 40.0 + noise))
    shifts = np.array([2.0, 0.0, 39.5, 40.0, 41.2])
    w = np.linalg.eigvalsh(np.diag(d) + np.eye(d.size, k=1) + np.eye(d.size, k=-1))
    assert list(_kernels.sturm_counts(d, shifts)) == [int(np.sum(w < E))
                                                      for E in shifts]


def test_rescale_at_first_site():
    # a launch pair already below the band is rescaled before the first step
    V = _table12(300)
    got = _kernels.prufer_forward(V, 0.5, 1e-200, 3e-201)
    want = loop_forward(V, 0.5, 1e-200, 3e-201)
    assert _rescale_sites(want[2])[0] == 1
    _assert_same_evolution(got, want, SpectralParam.from_energy(0.5))


def test_solve_recurrence_extended_precision():
    n = 2 * 10 ** 5
    spec = OperatorSpec(make_potential("random_sign", c=1.0, seed=3), 1.0, n)
    param = SpectralParam.from_x(1.2)
    # no site beyond 1e300: the call returns rather than raise Overflow
    u = solve_recurrence(spec, param).u
    ref = np.empty(n + 1, dtype=np.longdouble)
    ref[0], ref[1] = boundary_values(1.0)
    Vl = spec.potential.value_array(n).astype(np.longdouble)
    El = np.longdouble(param.E)
    for k in range(1, n):
        ref[k + 1] = (El - Vl[k]) * ref[k] - ref[k - 1]
    err = np.max(np.abs(u - ref)) / np.max(np.abs(ref))
    assert err <= 1e-12


def test_overflowing_step_rescales_before_it():
    # a jump to 1e250 after a growing stretch: the unscaled step to the jump
    # leaves the float range whenever the pair before it exceeds ~1.8e58;
    # with one site after the jump, that step reaches the last site
    param = SpectralParam.from_x(1.0)
    u0, u1 = (np.longdouble(v) for v in boundary_values(1.0))
    E, c, s = (np.longdouble(v) for v in (param.E, param.cos_x, param.sin_x))
    for jump, tail in itertools.product(range(100, 300), (20, 1)):
        table = [5.0] * jump + [1e250] + [0.0] * tail
        spec = OperatorSpec(make_potential("table", values=table), 1.0,
                            len(table))
        lnr = evolve_trajectory(spec, param).ln_R[1:]
        assert np.isfinite(lnr).all(), jump
        um, un, ref = u0, u1, []
        for v in table:
            ref.append(0.5 * np.log((un - um * c) ** 2 + (um * s) ** 2))
            um, un = un, (E - np.longdouble(v)) * un - um
        ref = np.array(ref, dtype=float)
        np.testing.assert_array_less(
            np.abs(lnr - ref), 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_solve_recurrence_overflow_site():
    # the site named is the first of the unrescaled loop beyond 1e300
    param = SpectralParam.from_energy(1.0)
    potential = make_potential("table", values=[12.0] * 2000)
    ref = list(boundary_values(1.0))
    while abs(ref[-1]) <= 1e300:
        ref.append((param.E - 12.0) * ref[-1] - ref[-2])
    site = len(ref) - 1
    with pytest.raises(errors.Overflow, match=f"at site {site}$"):
        solve_recurrence(OperatorSpec(potential, 1.0, 2000), param)
    # up to the site before it, the solution is the loop's
    u = solve_recurrence(OperatorSpec(potential, 1.0, site - 1), param).u
    np.testing.assert_allclose(u, ref[:-1], rtol=1e-13)


def test_many_rescales_stay_cheap():
    # 1030 rescales at N = 1e5: each restart re-solves only a short chunk
    V = _table12(10 ** 5)
    _kernels.prufer_forward(V, 1.0, 1.0, 0.5)
    t0 = time.perf_counter()
    _kernels.prufer_forward(V, 1.0, 1.0, 0.5)
    assert time.perf_counter() - t0 < 0.3


def test_batched_rescales_stay_cheap():
    # 16 energies rescaling at different sites, over 14000 distinct ones in
    # all: each block restarts only from its own cuts, so the cost stays
    # near that of one block's 1030 restarts
    V = _table12(10 ** 5)
    es = np.linspace(-1.9, 1.9, 16)
    _kernels.prufer_forward(V, es, 1.0, 0.5)
    # best of three: a shared machine can run 2x slower for seconds
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        ln_scale = _kernels.prufer_forward(V, es, 1.0, 0.5)[2]
        best = min(best, time.perf_counter() - t0)
    assert best < 0.3
    sites = [set(_rescale_sites(row).tolist()) for row in ln_scale]
    assert len(set().union(*sites)) > 10 * len(sites[0])


@pytest.mark.parametrize("c, rescales", [(2.5, 0), (1000.0, 4)])
def test_backward_pairs_match_mirrored_forward(c, rescales):
    # backwards from M = 16N is forwards on the mirrored potential
    # W(k) = V(M + 1 - k), with w(k) = u(M + 1 - k): one recurrence and one
    # rescale rule, so both give the same ln R once the pairs go through
    # the radius formula (which is symmetric in its two arguments).
    # c = 2.5 is a decaying resonance; c = 1000 crosses 1e100 repeatedly,
    # also inside resonance_construct's fit window.  The pairs are those of
    # resonance_construct, whose fit must have the bits of the fit over the
    # trajectory of the same pairs.
    n, x = 2000, 1.1
    res = resonance_construct(x, c, n)
    delta, pot = res.delta, res.potential
    launch = 16 * n
    param = SpectralParam.from_x(x)
    theta = x * launch + 0.5 * delta
    u_launch = math.sin(theta) / param.sin_x
    u_next = math.cos(theta) + u_launch * param.cos_x
    un, um, ln_scale = _kernels.backward_resonant(
        c, 2 * x, delta, param.E, u_next, u_launch, launch, n)

    W = np.zeros(launch + 2)
    W[1:launch + 1] = pot.values(1, launch)[::-1]
    fn, fm, fs = _kernels.prufer_forward(W, param.E, u_next, u_launch)
    assert np.unique(ln_scale[1:]).size == 1 + rescales
    assert ln_scale[1] == pytest.approx(fs[-1], rel=1e-12)
    fwd = _ln_r_of((fn, fm, fs), param)
    # backward site n is forward site M + 2 - n
    mirrored = fwd[launch + 1 - np.arange(1, n + 1)]
    lnr = _ln_r_of((un, um, ln_scale), param)
    np.testing.assert_array_less(
        np.abs(mirrored - lnr), 1e-12 * np.maximum(1.0, np.abs(lnr)))

    fit_lo = min(1000, max(10, n // 100))
    window = [tuple(a[None, 1:] for a in (un, um, ln_scale))]
    traj = _trajectory(pot.value_array(n), param, window, [n])
    want = _decay_exponents(traj.ln_R[None, fit_lo:],
                            *_centred_log_sites(fit_lo, n))[0]
    assert res.fitted_exponent.hex() == want.hex()


def test_cumsum_adds_left_to_right():
    # kahan_cumsum's TwoSum errors assume s[i] = fl(s[i-1] + x[i])
    x = np.random.default_rng(6).standard_normal(10 ** 5)
    s = np.cumsum(x)
    assert np.array_equal(s[1:], s[:-1] + x[1:])


def test_kahan_cumsum_accuracy():
    # compensated sums track fsum to 1 ulp where plain cumsum drifts
    n = 10 ** 5
    terms = np.cos(0.7 * np.arange(1, n + 1)) / np.arange(1, n + 1)
    got = _kernels.kahan_cumsum(terms.copy())
    for k in [2 ** j for j in range(17)] + [n]:
        exact = math.fsum(terms[:k])
        assert abs(got[k - 1] - exact) <= math.ulp(exact)


def test_kahan_cumsum_recovers_absorbed_terms():
    # Kahan's single compensation term loses both 1.0s and returns 0.0
    assert _kernels.kahan_cumsum([1.0, 1e100, 1.0, -1e100])[-1] == 2.0


def test_kahan_cumsum_short_inputs():
    assert _kernels.kahan_cumsum(np.empty(0)).shape == (0,)
    assert np.array_equal(_kernels.kahan_cumsum(np.array([2.5])), [2.5])
    assert np.array_equal(_kernels.kahan_cumsum(np.array([2.5, 0.25])),
                          [2.5, 2.75])


def test_backend_reports_numpy():
    assert _kernels.backend() == "numpy"


@st.composite
def _sum_rows(draw, n):
    """A float64 row of length n: normals scaled by 10^k, |k| <= 300, with a
    run of leading -0.0, +/-1e100 pairs that cancel and +/-5e-324 entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    for value in (1e100, -1e100, 5e-324, -5e-324):
        x[draw(st.lists(st.integers(0, n - 1), max_size=4))] = value
    x[:draw(st.integers(0, n))] = -0.0
    return x


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tolist()


def _cascaded_cumsum(x):
    """One real row summed as kahan_cumsum first did it, without lanes or
    carry: np.cumsum plus the prefix sums of the TwoSum errors."""
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    t = np.concatenate((s[:1], s[1:] - s[:-1]))
    return s + np.cumsum((x - t) + (prev - (s - t)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(1, 200))
def test_kahan_cumsum_blocks_and_lanes(data, n):
    x, y = data.draw(_sum_rows(n)), data.draw(_sum_rows(n))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))
    want_x = _kernels.kahan_cumsum(x.copy())
    want_y = _kernels.kahan_cumsum(y.copy())
    assert _bits(want_x) == _bits(_cascaded_cumsum(x))
    # blocks cut anywhere, run from a zero carry, give one call's bits
    carry = np.zeros(2)
    got = [_kernels.kahan_cumsum(b.copy(), carry) for b in np.split(x, cuts)]
    assert _bits(np.concatenate(got)) == _bits(want_x)
    assert carry[0] == np.cumsum(x)[-1]  # the plain running sum, +0.0 for -0.0
    # a complex row is the two real calls on its parts
    z = np.empty(n, dtype=np.complex128)
    z.real, z.imag = x, y
    lanes = _kernels.kahan_cumsum(z.copy())
    assert _bits(lanes.real) == _bits(want_x)
    assert _bits(lanes.imag) == _bits(want_y)
    # and the complex rows of a 2-D array carry across blocks the same way
    rows = np.stack((z, z[::-1]))
    carry = np.zeros((2, 2), dtype=np.complex128)
    got = np.concatenate([_kernels.kahan_cumsum(b.copy(), carry)
                          for b in np.split(rows, cuts, axis=1)], axis=1)
    assert _bits(got[0]) == _bits(lanes)
    assert _bits(got[1].real) == _bits(_kernels.kahan_cumsum(x[::-1].copy()))


# -- the windowed driver against the whole-row driver it replaced ----------

def _whole_row_pairs(sub, n_sites, w0, w1, cur, prev, scale):
    """The driver as it was before it yielded windows: (B, ·) outputs holding
    each block's last cur.shape[1] sites, kept here as the reference."""
    chunk_max = _kernels._CHUNK
    nb = cur.shape[0]
    first = n_sites - cur.shape[1] + 1
    scale[...] = 0.0
    ids, k = np.arange(nb), np.ones(nb, dtype=np.intp)
    a, b = np.array(w1, dtype=np.float64), np.array(w0, dtype=np.float64)
    if first == 1:
        cur[:, 0], prev[:, 0] = a, b
    offsets = np.arange(max(chunk_max, nb) + 1)
    grow = chunk_max
    rescaled = False
    while ids.size:
        n_act = ids.size
        left = n_sites - k
        fewest, most = int(left.min()), int(left.max())
        chunk = min(max(1, chunk_max // n_act), grow, most)
        last = np.minimum(left, chunk)
        sites = (k if fewest < most else k[:1])[:, None] + offsets[:chunk]
        w = sub(ids, np.minimum(sites, n_sites - 1) if chunk > fewest else sites)
        if chunk > fewest:
            w[sites >= n_sites] = 0.0
        y = recur(b, a, w)
        over = ~np.isfinite(y[:, -1])
        i = 0
        while over[i:-1].any():
            i += int(over[i:-1].argmax()) + 1
            y[i:] = recur(b[i:], a[i:], w[i:])
            over[i:] = ~np.isfinite(y[i:, -1])
        ay = np.abs(y)
        rows = offsets[:n_act]
        if ay.max() <= RESCALE_HI and ay.min() >= RESCALE_LO:
            cut, j, mj = np.zeros(n_act, dtype=bool), last, np.ones(n_act)
        else:
            m = np.maximum(ay[:, 1:], ay[:, :-1])
            out = (m > RESCALE_HI) | ((m < RESCALE_LO) & (m != 0.0))
            if chunk > fewest:
                out[offsets[:chunk + 1] > last[:, None]] = False
            if chunk >= fewest:
                end = np.flatnonzero(last == left)
                out[end, last[end]] = ~np.isfinite(m[end, last[end]])
            cut = out.any(axis=1)
            j = np.where(cut, out.argmax(axis=1), last)
            if over.any():
                j -= cut & (j > 0) & ~np.isfinite(m[rows, j])
            mj = np.where(cut, m[rows, j], 1.0)
        for i, bk, kb, jb, c, d in zip(rows.tolist(), ids.tolist(), k.tolist(),
                                       j.tolist(), cut.tolist(), mj.tolist()):
            lo = max(kb + 1, first)
            if lo <= kb + jb:
                cur[bk, lo - first:kb + jb + 1 - first] = y[i, lo - kb + 1:jb + 2]
                prev[bk, lo - first:kb + jb + 1 - first] = y[i, lo - kb:jb + 1]
            if c:
                rescaled = True
                scale[bk, max(kb + jb + 1 - first, 0)] += math.log(d)
        a, b, k = y[rows, j + 1] / mj, y[rows, j] / mj, k + j
        grow = int(j.max())
        grow += grow // 4 + 16
        if chunk >= fewest:
            going = k < n_sites
            ids, k, a, b = ids[going], k[going], a[going], b[going]
    if rescaled:
        np.cumsum(scale, axis=1, out=scale)


def _whole_row_forward(V, E, u0, u1):
    n_max = V.shape[0] - 1
    es = np.reshape(np.asarray(E, dtype=np.float64), (-1, 1))
    out = np.full((3, es.shape[0], n_max + 1), np.nan)
    _whole_row_pairs(lambda blocks, sites: V[sites] - es[blocks], n_max,
                     np.full(es.shape[0], u0), np.full(es.shape[0], u1),
                     out[0, :, 1:], out[1, :, 1:], out[2, :, 1:])
    return tuple(out.reshape((3,) + np.shape(E) + (n_max + 1,)))


def _whole_row_backward(amp, omega, delta, E, u_next, u_launch, n_launch,
                        n_record):
    def sub(blocks, sites):
        n = (n_launch + 1 - sites).astype(np.float64)
        return amp * np.sin(omega * n + delta) / n - E

    un, um, ln_scale = out = np.full((3, n_record + 1), np.nan)
    _whole_row_pairs(sub, n_launch + 1, [u_next], [u_launch],
                     um[None, :0:-1], un[None, :0:-1], ln_scale[None, :0:-1])
    return tuple(out)


def _whole_row_sturm(diag, shifts):
    nb, n = shifts.shape[0], diag.shape[0]
    cur, prev, scale = np.empty((3, nb, n))
    _whole_row_pairs(lambda blocks, sites: diag[sites - 1] - shifts[blocks, None],
                     n + 1, np.zeros(nb), np.ones(nb), cur, prev, scale)
    same = np.signbit(cur) == np.signbit(prev)
    return np.count_nonzero((cur != 0.0) & (same | (prev == 0.0)), axis=1)


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _spikes(n, sites, value=1e120):
    """Site-indexed V, zero but for value at each of sites: the pair leaves
    the band at the site after each spike."""
    V = np.zeros(n + 1)
    V[sites] = value
    return V


def _last_site_overflow(n):
    # V(n-2) = 50 lifts |u(n-1)| past 1.8, and the step over V(n-1) = 1e308
    # then overflows: only the pair at the last site n leaves the float range
    V = np.zeros(n + 1)
    V[n - 2], V[n - 1] = 50.0, 1e308
    return V


W = _kernels._CHUNK  # a window width the cases below cut at
WINDOW_CASES = {
    "table12-N1e5": lambda: _table12(10 ** 5),
    "jump1e250": _jump1e250,
    # a cut at a window's last site, the site before and the site after it
    "cut-at-window-end": lambda: _spikes(2 * W + 50, [W - 1, 2 * W - 1]),
    "cut-before-window-end": lambda: _spikes(2 * W + 50, [W - 2]),
    "cut-after-window-end": lambda: _spikes(2 * W + 50, [W, 2 * W]),
    "inf-at-last-site": lambda: _last_site_overflow(2 * W),
    "inf-at-last-site-mid-window": lambda: _last_site_overflow(W + 77),
}


def _windowed_forward(V, E, u0, u1, ends):
    """The (cur, prev, scale) rows of the sites 1..N, joined from the
    windows of _forward_windows ending at ends."""
    parts = [tuple(a.copy() for a in window)
             for window in _kernels._forward_windows(V, E, u0, u1, ends)]
    return tuple(np.concatenate(p, axis=1) for p in zip(*parts))


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_forward_windows_match_whole_row_driver(case):
    V = WINDOW_CASES[case]()
    n = V.shape[0] - 1
    u0, u1 = boundary_values(1.0)
    for E in ([2.0 * math.cos(x) for x in BATCH_XS], 2.0 * math.cos(1.0)):
        want = _whole_row_forward(V, E, u0, u1)
        assert np.count_nonzero(np.diff(want[2][..., 1:])) > 0  # it rescales
        _assert_same_bits(_kernels.prufer_forward(V, E, u0, u1), want)
        es = np.atleast_1d(E)
        rows = [a.reshape(es.size, -1)[:, 1:] for a in want]
        # one-site windows at the start, where no step is taken in the first
        # one, and windows ending around W and 2W
        odd = sorted({1, 2, 3, W - 1, W, W + 1, 2 * W} & set(range(1, n))) + [n]
        regular = [_kernels._ends(0, n, w) for w in (W, _kernels._BLOCK, 100)]
        for ends in regular + [odd]:
            _assert_same_bits(_windowed_forward(V, es, u0, u1, ends), rows)


def test_window_end_cuts_fall_where_the_case_names():
    u0, u1 = boundary_values(1.0)
    E = 2.0 * math.cos(1.0)
    for case, sites in [("cut-at-window-end", [W, 2 * W]),
                        ("cut-before-window-end", [W - 1]),
                        ("cut-after-window-end", [W + 1, 2 * W + 1])]:
        ln_scale = _kernels.prufer_forward(WINDOW_CASES[case](), E, u0, u1)[2]
        assert _rescale_sites(ln_scale).tolist() == sites


# the kept sites n = n_record..1 are the last window, the mirrored sites
# 32002 - n_record..32001; the _CHUNK-wide windows before them end inside
# the third chunk (n_record = 2000), at W, at W + 1 after a one-site
# window, at the site before the last (n_record = 1), and at site 1, a
# one-site window that takes no step (n_record = launch)
@pytest.mark.parametrize("n_record", [2000, 32002 - (W + 1), 32002 - (W + 2),
                                      1, 32000])
def test_backward_windows_match_whole_row_driver(n_record):
    # c = 1e5 rescales all along, before the kept window too
    launch, x, delta, c = 32000, 1.1, 0.4, 1e5
    param = SpectralParam.from_x(x)
    theta = x * launch + 0.5 * delta
    u_launch = math.sin(theta) / param.sin_x
    u_next = math.cos(theta) + u_launch * param.cos_x
    args = (c, 2 * x, delta, param.E, u_next, u_launch, launch, n_record)
    want = _whole_row_backward(*args)
    if n_record < launch:
        assert want[2][n_record] > 0.0  # rescaled before the kept window
    _assert_same_bits(_kernels.backward_resonant(*args), want)


@pytest.mark.parametrize("n", [600, 3 * W + 7])
def test_sturm_count_windows_match_whole_row_driver(n):
    noise = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    d = 40.0 + noise
    d[0] = 2.0
    shifts = np.array([2.0, 0.0, 39.5, 40.0, 41.2])
    got = _kernels.sturm_counts(d, shifts)
    assert got.tolist() == _whole_row_sturm(d, shifts).tolist()


def _window_rows(V, E, u0, u1, ends, work):
    """The joined (cur, prev, scale) rows of a driver call on V's sites
    1..N, V an array read through a values function, as the streamed
    callers pass it."""
    parts = [tuple(a.copy() for a in window) for window in
             _kernels._forward_windows(lambda lo, hi: V[lo:hi + 1], E, u0, u1,
                                       ends, None, work)]
    return tuple(np.concatenate(p, axis=1) for p in zip(*parts))


def test_driver_workspace_reuse_matches_fresh_calls():
    # one workspace drives calls of other shapes in turn, which leave its
    # band with other shapes and constant entries: every call yields the
    # bits of a call on a fresh workspace, and of the whole-row reference
    u0, u1 = boundary_values(2.4891024719091113)
    xs = 2.0 * np.cos(np.linspace(0.002, math.pi - 0.002, 1001))
    es = [2.0 * math.cos(x) for x in BATCH_XS]
    B = _kernels._BLOCK
    calls = {
        # 16 energies x 1000 sites, as classify_spectrum's groups
        "classify": (make_potential("resonant", c=2.2, omega=2.0 * math.pi / 3.0,
                                    delta=1.3575974530435633).value_array(1000),
                     xs[:16], [1000]),
        # 4 blocks in 8192-site windows, as lemma_sums
        "lemma": (make_potential("random_sign", c=1.0, seed=3)
                  .value_array(3 * B + 100), xs[[100, 400, 700, 900]],
                  _kernels._ends(0, 3 * B + 100, B)),
        "rescaling": (_table12(3000), es, _kernels._ends(0, 3000, 1000)),
        "overflowing": (_jump1e250(), es, [_jump1e250().shape[0] - 1]),
    }
    work = _kernels._Workspace()
    rescales = {}
    for name in ("classify", "lemma", "rescaling", "overflowing", "classify"):
        V, E, ends = calls[name]
        got = _window_rows(V, E, u0, u1, ends, work)
        _assert_same_bits(got, _window_rows(V, E, u0, u1, ends, None))
        want = _whole_row_forward(V, E, u0, u1)
        _assert_same_bits(got, tuple(a[:, 1:] for a in want))
        rescales[name] = np.count_nonzero(np.diff(want[2][:, 1:]))
    # the classify-shaped call takes the step with no cut, the others cut
    assert rescales["classify"] == 0 and rescales["rescaling"] > 100


def test_missing_scipy_extension_names_the_directory():
    with pytest.raises(ImportError) as exc:
        _kernels._scipy_linalg_extension("_no_such")
    where = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    assert "_no_such" in str(exc.value)
    assert all(directory in str(exc.value) for directory in where)
