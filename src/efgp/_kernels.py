"""Sequential numeric kernels, JIT-compiled with numba when available.

Everything here is a loop-carried recurrence (each step depends on the
previous one), which is exactly what numpy cannot vectorize.  The same
source is executed either way:

* default: compiled with ``numba.njit(cache=True, nogil=True)``,
* fallback: plain Python over numpy arrays, selected by setting the
  environment variable ``EFGP_DISABLE_NUMBA=1`` (or when numba is not
  importable).

``benchmarks/bench_kernels.py`` times the two paths against each other.

Array layout convention: per-site arrays are indexed by the lattice site n
itself, so ``V[n]`` is the potential at site n (slot 0 unused) and outputs
``theta[n]``, ``lnr[n]`` start at n=1 with slot 0 set to nan.
"""

import math
import os

import numpy as np

ENV_FLAG = "EFGP_DISABLE_NUMBA"

try:
    from numba import njit as _njit
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional extra
    HAVE_NUMBA = False


def _env_disabled():
    return os.environ.get(ENV_FLAG, "").strip().lower() in {"1", "true", "yes"}


USE_NUMBA = HAVE_NUMBA and not _env_disabled()

# Guarded Sturm recurrence replaces |pivot| <= PIVMIN by +PIVMIN: keeps
# 1/pivot finite in float64 and breaks exact ties upward, so an eigenvalue
# sitting exactly at the shift is not counted (strictly-below semantics).
PIVMIN = 1e-290

# Rescale the evolving pair once its Prufer radius leaves this band; the
# log-scale accumulator keeps ln R exact.
_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100

_TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# kernel sources (plain Python; compiled below when numba is enabled)
# --------------------------------------------------------------------------

def _solve_forward(V, E, u0, u1):
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


def _prufer_forward(V, E, cosx, sinx, x, u0, u1):
    """Evolve Prufer variables for the boundary-condition solution.

    Uses the amplitude/angle representation directly so the iteration can
    rescale the evolving pair (log-scale accumulation) and never overflows.
    Returns (theta, lnr, flag): continuous-lift angles and exact ln R(n),
    both indexed by site with slot 0 = nan; flag is the first site where
    the solution degenerated to zero, or -1.
    """
    n_max = V.shape[0] - 1
    theta = np.empty(n_max + 1)
    lnr = np.empty(n_max + 1)
    theta[0] = np.nan
    lnr[0] = np.nan
    a = u1  # u(n)
    b = u0  # u(n-1)
    sigma = 0.0
    prev = 0.0
    for n in range(1, n_max + 1):
        ca = a - b * cosx
        cb = b * sinx
        r = math.hypot(ca, cb)
        if r == 0.0:
            return theta, lnr, n
        lnr[n] = math.log(r) + sigma
        ang = math.atan2(cb, ca)
        if n == 1:
            theta[n] = ang
        else:
            tgt = prev + x
            d = ang - tgt
            d -= _TWO_PI * math.ceil((d - math.pi) / _TWO_PI)
            theta[n] = tgt + d
        prev = theta[n]
        if n < n_max:
            if r > _RESCALE_HI or r < _RESCALE_LO:
                a /= r
                b /= r
                sigma += math.log(r)
            anew = (E - V[n]) * a - b
            b = a
            a = anew
    return theta, lnr, -1


def _backward_resonant(amp, omega, delta, E, cosx, sinx, n_launch, n_record,
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


def _sturm_counts(diag, shifts, pivmin):
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


def _kahan_cumsum(terms):
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


_SOURCES = {
    "solve_forward": _solve_forward,
    "prufer_forward": _prufer_forward,
    "backward_resonant": _backward_resonant,
    "sturm_counts": _sturm_counts,
    "kahan_cumsum": _kahan_cumsum,
}

_compiled = {}


def compiled_impls():
    """JIT-compiled kernels (ignores the env flag); {} if numba is absent."""
    if HAVE_NUMBA and not _compiled:
        for name, fn in _SOURCES.items():
            _compiled[name] = _njit(cache=True, nogil=True)(fn)
    return _compiled


def python_impls():
    """The uncompiled kernels, always available."""
    return dict(_SOURCES)


if USE_NUMBA:
    _active = compiled_impls()
else:
    _active = _SOURCES

solve_forward = _active["solve_forward"]
prufer_forward = _active["prufer_forward"]
backward_resonant = _active["backward_resonant"]
sturm_counts = _active["sturm_counts"]
kahan_cumsum = _active["kahan_cumsum"]


def backend():
    """Name of the active kernel backend: 'numba' or 'numpy'."""
    return "numba" if USE_NUMBA else "numpy"


def warmup():
    """Run every kernel once on tiny inputs (forces JIT compilation)."""
    v = np.zeros(8)
    solve_forward(v, 1.0, 1.0, 0.5)
    prufer_forward(v, 1.0, 0.5, math.sqrt(0.75), math.acos(0.5), 1.0, 0.5)
    backward_resonant(1.0, 1.0, 0.0, 1.0, 0.5, math.sqrt(0.75), 16, 8, 0.0, 1.0)
    sturm_counts(np.zeros(4), np.array([0.5]), PIVMIN)
    kahan_cumsum(np.ones(4))
