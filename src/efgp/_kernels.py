"""Sequential numeric kernels, JIT-compiled with numba when it is installed.

Everything here is a loop-carried recurrence (each step depends on the
previous one), which is exactly what numpy cannot vectorize.  Each kernel
is defined once; with numba importable it is compiled with
``numba.njit(cache=True, nogil=True)`` (the plain Python source stays
reachable as ``<kernel>.py_func``), otherwise the same source runs as plain
Python over numpy arrays.

Array layout convention: per-site arrays are indexed by the lattice site n
itself, so ``V[n]`` is the potential at site n (slot 0 unused) and outputs
such as ``lnr[n]`` start at n=1 with slot 0 set to nan.  The kernels only
run recurrences: the Prufer transform of a solution (radius, angle and its
continuous lift) is vectorized, once, in ``prufer.py``.
"""

import math

import numpy as np

try:
    from numba import njit
except ImportError:  # numba is an optional extra
    _BACKEND = "numpy"

    def _jit(fn):
        return fn
else:
    _BACKEND = "numba"
    _jit = njit(cache=True, nogil=True)

# Guarded Sturm recurrence replaces |pivot| <= PIVMIN by +PIVMIN: keeps
# 1/pivot finite in float64 and breaks exact ties upward, so an eigenvalue
# sitting exactly at the shift is not counted (strictly-below semantics).
PIVMIN = 1e-290

# Rescale the evolving pair once its larger entry leaves this band; the
# log-scale accumulator keeps ln R exact.
_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100


@_jit
def solve_forward(V, E, u0, u1):
    """Three-term recurrence u(n+1) = (E - V(n)) u(n) - u(n-1).

    V has length N+1 with V[n] the potential at site n (V[0] ignored).
    Returns (u, flag): u[0..N], and flag = first index whose value left
    the representable range, or -1 if none did.
    """
    n_max = V.shape[0] - 1
    u = np.empty(n_max + 1)
    u[0] = u0
    u[1] = u1
    for n in range(1, n_max):
        un = (E - V[n]) * u[n] - u[n - 1]
        if un > 1e300 or un < -1e300 or un != un:
            return u, n + 1
        u[n + 1] = un
    return u, -1


@_jit
def prufer_forward(V, E, u0, u1):
    """Three-term recurrence with rescaling, for the Prufer transform.

    Returns (un, um, ln_scale), site-indexed with slot 0 = nan: the pair
    (u(n), u(n-1)) equals exp(ln_scale[n]) * (un[n], um[n]).  The pair is
    rescaled once max(|u(n)|, |u(n-1)|) leaves [_RESCALE_LO, _RESCALE_HI]
    (unless it is 0), so it never overflows and ln R stays exact.
    """
    n_max = V.shape[0] - 1
    un = np.empty(n_max + 1)
    um = np.empty(n_max + 1)
    ln_scale = np.empty(n_max + 1)
    un[0] = np.nan
    um[0] = np.nan
    ln_scale[0] = np.nan
    a = u1  # u(n)
    b = u0  # u(n-1)
    sigma = 0.0
    for n in range(1, n_max + 1):
        un[n] = a
        um[n] = b
        ln_scale[n] = sigma
        if n < n_max:
            m = abs(a)
            if abs(b) > m:
                m = abs(b)
            if m > _RESCALE_HI or (m < _RESCALE_LO and m != 0.0):
                a /= m
                b /= m
                sigma += math.log(m)
            anew = (E - V[n]) * a - b
            b = a
            a = anew
    return un, um, ln_scale


@_jit
def backward_resonant(amp, omega, delta, E, cosx, sinx, n_launch, n_record,
                      u_next, u_launch):
    """Run the recurrence backwards from (u(M+1), u(M)) = (u_next, u_launch).

    The potential amp*sin(omega*n + delta)/n is evaluated on the fly so the
    launch site M = n_launch can sit far beyond the recorded range without
    materializing a huge array.  Backwards, the forward-decaying solution is
    the growing one, so generic launch data converges onto it.
    Returns (lnr, u0, u1) with lnr[n] = ln R(n) for n in [1, n_record]
    (slot 0 nan) and the rescaled boundary pair.
    """
    lnr = np.empty(n_record + 1)
    lnr[0] = np.nan
    a = u_next  # u(n+1)
    b = u_launch  # u(n)
    sigma = 0.0
    for n in range(n_launch, 0, -1):
        v = amp * math.sin(omega * n + delta) / n
        c = (E - v) * b - a  # u(n-1)
        if n <= n_record:
            ca = b - c * cosx
            cb = c * sinx
            r = math.hypot(ca, cb)
            if r < 1e-300:
                r = 1e-300
            lnr[n] = math.log(r) + sigma
        a = b
        b = c
        m = abs(a)
        if abs(b) > m:
            m = abs(b)
        if m > _RESCALE_HI:
            a /= m
            b /= m
            sigma += math.log(m)
    return lnr, b, a


@_jit
def sturm_counts(diag, shifts, pivmin):
    """Number of eigenvalues below each shift, by Sturm sign changes.

    diag is the Jacobi diagonal (0-based), off-diagonal entries are 1.
    Pivots with |q| <= pivmin are replaced by +pivmin (documented guard).
    """
    m = shifts.shape[0]
    n = diag.shape[0]
    out = np.empty(m, dtype=np.int64)
    for j in range(m):
        e = shifts[j]
        count = 0
        q = diag[0] - e
        if abs(q) <= pivmin:
            q = pivmin
        if q < 0.0:
            count += 1
        for i in range(1, n):
            q = diag[i] - e - 1.0 / q
            if abs(q) <= pivmin:
                q = pivmin
            if q < 0.0:
                count += 1
        out[j] = count
    return out


@_jit
def kahan_cumsum(terms):
    """Running sums of terms in ascending order with Kahan compensation."""
    out = np.empty_like(terms)
    s = 0.0
    comp = 0.0
    for i in range(terms.shape[0]):
        y = terms[i] - comp
        t = s + y
        comp = (t - s) - y
        s = t
        out[i] = s
    return out


def backend():
    """Name of the kernel backend fixed at import: 'numba' or 'numpy'."""
    return _BACKEND


def warmup():
    """Run every kernel once on tiny inputs (forces JIT compilation)."""
    v = np.zeros(8)
    solve_forward(v, 1.0, 1.0, 0.5)
    prufer_forward(v, 1.0, 1.0, 0.5)
    backward_resonant(1.0, 1.0, 0.0, 1.0, 0.5, math.sqrt(0.75), 16, 8, 0.0, 1.0)
    sturm_counts(np.zeros(4), np.array([0.5]), PIVMIN)
    kahan_cumsum(np.ones(4))
