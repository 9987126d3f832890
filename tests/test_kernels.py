"""Cross-checks between the JIT-compiled kernels and their Python source,
and of the kernels against each other."""

import importlib.util
import math

import numpy as np
import pytest

from efgp import _kernels, make_potential
from efgp.prufer import SpectralParam, _transform

needs_numba = pytest.mark.skipif(_kernels.backend() != "numba",
                                 reason="numba unavailable")


def _case_inputs():
    rng = np.random.default_rng(77)
    n = 20000
    V = np.zeros(n + 1)
    V[1:] = rng.uniform(-1.5, 1.5, n) / np.arange(1, n + 1)
    x = 1.234
    return V, 2.0 * math.cos(x)


@needs_numba
def test_solve_forward_paths_agree():
    V, E = _case_inputs()
    py = _kernels.solve_forward.py_func
    nb = _kernels.solve_forward
    u1, f1 = py(V, E, 1.0, 0.5)
    u2, f2 = nb(V, E, 1.0, 0.5)
    assert f1 == f2 == -1
    np.testing.assert_allclose(u1, u2, rtol=1e-14, atol=0)


@needs_numba
def test_prufer_forward_paths_agree():
    V, E = _case_inputs()
    py = _kernels.prufer_forward.py_func(V, E, 1.0, 0.5)
    nb = _kernels.prufer_forward(V, E, 1.0, 0.5)
    for a, b in zip(py, nb):
        np.testing.assert_allclose(a[1:], b[1:], rtol=1e-14, atol=0)


@needs_numba
def test_backward_resonant_paths_agree():
    x = 1.1
    args = (2.5, 2 * x, 0.4, 2 * math.cos(x), 0.0, 1.0, 40000, 10000)
    py = _kernels.backward_resonant.py_func(*args)
    nb = _kernels.backward_resonant(*args)
    for a, b in zip(py, nb):
        np.testing.assert_allclose(a[1:], b[1:], rtol=1e-10, atol=0)


@pytest.mark.parametrize("c, rescales", [(2.5, 0), (1000.0, 4)])
def test_backward_pairs_match_mirrored_forward(c, rescales):
    # backwards from M = 16N is forwards on the mirrored potential
    # W(k) = V(M + 1 - k), with w(k) = u(M + 1 - k): one recurrence and one
    # rescale rule, so both give the same ln R once the pairs go through
    # the shared transform (the radius is symmetric in its two arguments).
    # c = 2.5 is a decaying resonance; c = 1000 crosses 1e100 repeatedly.
    n, x, delta = 2000, 1.1, 0.4
    launch = 16 * n
    param = SpectralParam.from_x(x)
    pot = make_potential("resonant", c=c, omega=2 * x, delta=delta)
    theta = x * launch + 0.5 * delta
    u_launch = math.sin(theta) / param.sin_x
    u_next = math.cos(theta) + u_launch * param.cos_x
    un, um, ln_scale = _kernels.backward_resonant(
        c, 2 * x, delta, param.E, u_next, u_launch, launch, n)
    back = _transform(un[1:], um[1:], ln_scale[1:], pot.values(1, n), param)

    W = np.zeros(launch + 2)
    W[1:launch + 1] = pot.values(1, launch)[::-1]
    fn, fm, fs = _kernels.prufer_forward(W, param.E, u_next, u_launch)
    assert np.unique(ln_scale[1:]).size == 1 + rescales
    assert ln_scale[1] == pytest.approx(fs[-1], rel=1e-12)
    fwd = _transform(fn[1:], fm[1:], fs[1:], W[1:], param)
    # backward site n is forward site M + 2 - n
    mirrored = fwd.ln_R[launch + 2 - np.arange(1, n + 1)]
    lnr = back.ln_R[1:]
    np.testing.assert_array_less(
        np.abs(mirrored - lnr), 1e-12 * np.maximum(1.0, np.abs(lnr)))


@needs_numba
def test_sturm_counts_paths_identical():
    rng = np.random.default_rng(5)
    d = rng.uniform(-2, 2, 300)
    shifts = np.linspace(-4, 4, 37)
    py = _kernels.sturm_counts.py_func(d, shifts, _kernels.PIVMIN)
    nb = _kernels.sturm_counts(d, shifts, _kernels.PIVMIN)
    assert np.array_equal(py, nb)


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


def test_backend_reports_numba_by_default():
    installed = importlib.util.find_spec("numba") is not None
    assert _kernels.backend() == ("numba" if installed else "numpy")
