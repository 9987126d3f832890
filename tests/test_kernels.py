"""Cross-checks between the JIT-compiled kernels and their Python source."""

import importlib.util
import math

import numpy as np
import pytest

from efgp import _kernels

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
    E, cosx, sinx = 2 * math.cos(x), math.cos(x), math.sin(x)
    py = _kernels.backward_resonant.py_func
    nb = _kernels.backward_resonant
    l1, a1, b1 = py(2.5, 2 * x, 0.4, E, cosx, sinx, 40000, 10000, 0.0, 1.0)
    l2, a2, b2 = nb(2.5, 2 * x, 0.4, E, cosx, sinx, 40000, 10000, 0.0, 1.0)
    np.testing.assert_allclose(l1[1:], l2[1:], rtol=0, atol=1e-10)
    assert a1 == pytest.approx(a2, rel=1e-10)
    assert b1 == pytest.approx(b2, rel=1e-10)


@needs_numba
def test_sturm_counts_paths_identical():
    rng = np.random.default_rng(5)
    d = rng.uniform(-2, 2, 300)
    shifts = np.linspace(-4, 4, 37)
    py = _kernels.sturm_counts.py_func(d, shifts, _kernels.PIVMIN)
    nb = _kernels.sturm_counts(d, shifts, _kernels.PIVMIN)
    assert np.array_equal(py, nb)


@needs_numba
def test_kahan_cumsum_paths_bitwise_identical():
    # pure add/sub sequence: both paths must match bit for bit
    rng = np.random.default_rng(6)
    terms = rng.standard_normal(50000) / np.arange(1, 50001)
    py = _kernels.kahan_cumsum.py_func(terms)
    nb = _kernels.kahan_cumsum(terms)
    assert np.array_equal(py, nb)


def test_kahan_cumsum_accuracy():
    # compensated sums track fsum to ~1 ulp where plain cumsum drifts
    n = 10 ** 5
    terms = np.cos(0.7 * np.arange(1, n + 1)) / np.arange(1, n + 1)
    got = _kernels.kahan_cumsum(terms)[-1]
    exact = math.fsum(terms)
    assert got == pytest.approx(exact, abs=1e-14)


def test_backend_reports_numba_by_default():
    installed = importlib.util.find_spec("numba") is not None
    assert _kernels.backend() == ("numba" if installed else "numpy")
