"""Numeric kernels: the three-term recurrence, Sturm counts and the
compensated prefix sum.

The recurrence w(k+1) = (E - W(k)) w(k) - w(k-1), started from
(w(0), w(1)), is forward substitution in a unit lower-triangular band
system with two subdiagonals, so BLAS ``dtbsv`` solves a stretch of it in
the same sequential order as a loop would (:func:`_recur`).  One chunk
driver (:func:`_rescaled_pairs`) adds the log-scale rescaling for the
forward Prufer evolution, the backward resonant launch and Sturm counts.

Per-site arrays are indexed by the lattice site n itself: ``V[n]`` is the
potential at site n (slot 0 unused), and outputs such as ``un[n]`` start
at n=1 with slot 0 set to nan.  The Prufer transform of the returned
solution pairs is vectorized, once, in ``prufer.py``.
"""

import math

import numpy as np
from scipy.linalg.blas import dtbsv

# Rescale the evolving pair once its larger entry leaves this band; the
# log-scale accumulator keeps ln R exact.
_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100

# Longest stretch solved unscaled; temporaries stay O(_CHUNK).
_CHUNK = 2 ** 14


def _recur(w0, w1, sub):
    """w(0..L+1) of w(j+2) = -sub[j] w(j+1) - w(j), from (w(0), w(1)).

    Rows 0 and 1 of the band system pin w(0) and w(1); row j+2 carries
    sub[j] on the first and 1 on the second subdiagonal.
    """
    n = sub.shape[0] + 2
    # Fortran-ordered lower band storage; BLAS reads neither row 0 (the
    # unit diagonal) nor the entries past the last row
    band = np.empty((n, 3)).T
    band[1, 0] = 0.0
    band[1, 1:-1] = sub
    band[2] = 1.0
    w = np.zeros(n)
    w[:2] = w0, w1
    return dtbsv(2, band, w, lower=1, diag=1, overwrite_x=1)


def solve_forward(V, E, u0, u1):
    """Three-term recurrence u(n+1) = (E - V(n)) u(n) - u(n-1).

    V has length N+1 with V[n] the potential at site n (V[0] ignored).
    Returns (u, flag): u[0..N], and flag = first index whose value left
    the representable range, or -1 if none did.
    """
    n_max = V.shape[0] - 1
    u = np.empty(n_max + 1)
    u[:2] = u0, u1
    for k in range(1, n_max, _CHUNK):
        steps = min(_CHUNK, n_max - k)
        y = _recur(u[k - 1], u[k], V[k:k + steps] - E)[2:]
        u[k + 1:k + 1 + steps] = y
        bad = ~(np.abs(y) <= 1e300)  # nan compares false
        if bad.any():
            return u, k + 1 + int(bad.argmax())
    return u, -1


def _rescaled_pairs(sub, n_sites, w0, w1, cur, prev, scale):
    """Rescaled pairs of w(k+1) = -sub(k) w(k) - w(k-1), sites k = 1..n_sites.

    ``sub(k, L)`` returns sub(k..k+L-1), all finite.  The outputs hold the
    last len(cur) sites: (w(k), w(k-1)) = exp(scale) * (cur, prev).  A chunk
    of at most _CHUNK steps is solved unscaled and cut at its first site
    whose max(|w(k)|, |w(k-1)|) leaves [_RESCALE_LO, _RESCALE_HI] (unless
    it is 0; at k = n_sites only if it is inf), or one site earlier if it
    is inf; the pair there is stored, divided by that maximum, and the next
    chunk, about twice as long as the stretch kept, starts from it.
    """
    first = n_sites - cur.shape[0] + 1
    k, a, b, sigma = 1, w1, w0, 0.0  # pair at site k, already stored
    if first == 1:
        cur[0], prev[0], scale[0] = a, b, sigma
    steps = _CHUNK
    while k < n_sites:
        steps = min(steps, n_sites - k)
        y = _recur(b, a, sub(k, steps))  # pair at site k + j: (y[j+1], y[j])
        m = np.maximum(np.abs(y[1:]), np.abs(y[:-1]))
        out = (m > _RESCALE_HI) | ((m < _RESCALE_LO) & (m != 0.0))
        if k + steps == n_sites:  # site n_sites is rescaled only on overflow
            out[-1] = not math.isfinite(m[-1])
        cut = bool(out.any())
        j = int(out.argmax()) if cut else steps
        if cut and j > 0 and not math.isfinite(m[j]):
            j -= 1  # the step overflowed: rescale the in-band pair before it
        lo = max(k + 1, first)
        if lo <= k + j:
            cur[lo - first:k + j + 1 - first] = y[lo - k + 1:j + 2]
            prev[lo - first:k + j + 1 - first] = y[lo - k:j + 1]
            scale[lo - first:k + j + 1 - first] = sigma
        a, b = float(y[j + 1]), float(y[j])
        if cut:
            mj = float(m[j])
            a, b, sigma = a / mj, b / mj, sigma + math.log(mj)
        k += j
        steps = min(_CHUNK, 2 * j + 16)


def prufer_forward(V, E, u0, u1):
    """Three-term recurrence with rescaling, for the Prufer transform.

    Returns (un, um, ln_scale), site-indexed with slot 0 = nan: the pair
    (u(n), u(n-1)) equals exp(ln_scale[n]) * (un[n], um[n]).  The pair is
    rescaled once max(|u(n)|, |u(n-1)|) leaves [_RESCALE_LO, _RESCALE_HI]
    (unless it is 0), so it never overflows and ln R stays exact.
    """
    n_max = V.shape[0] - 1
    un, um, ln_scale = out = np.full((3, n_max + 1), np.nan)
    _rescaled_pairs(lambda k, steps: V[k:k + steps] - E, n_max, u0, u1,
                    un[1:], um[1:], ln_scale[1:])
    return tuple(out)


def backward_resonant(amp, omega, delta, E, u_next, u_launch, n_launch,
                      n_record):
    """Run the recurrence backwards from (u(M+1), u(M)) = (u_next, u_launch).

    u(n-1) = (E - V(n)) u(n) - u(n+1), with the potential
    V(n) = amp*sin(omega*n + delta)/n evaluated chunk by chunk, so the
    launch site M = n_launch can sit far beyond the recorded range without
    materializing a huge array.  Backwards, the forward-decaying solution
    is the growing one, so generic launch data converges onto it.
    Returns (un, um, ln_scale) for the sites n = 1..n_record <= M (slot 0 =
    nan): the pair (u(n), u(n-1)) equals exp(ln_scale[n]) * (un[n], um[n]),
    so (u(0), u(1)) = exp(ln_scale[1]) * (um[1], un[1]).  The pair is
    rescaled by the rule of :func:`prufer_forward`.
    """
    # forwards on the mirrored sequence w(k) = u(M + 1 - k), W(k) = V(M + 1 - k)
    def sub(k, steps):
        n = np.arange(n_launch + 1 - k, n_launch + 1 - k - steps, -1,
                      dtype=np.float64)
        return amp * np.sin(omega * n + delta) / n - E

    un, um, ln_scale = out = np.full((3, n_record + 1), np.nan)
    # mirrored site k = M + 2 - n holds (w(k), w(k-1)) = (u(n-1), u(n))
    _rescaled_pairs(sub, n_launch + 1, u_next, u_launch,
                    um[:0:-1], un[:0:-1], ln_scale[:0:-1])
    return tuple(out)


def sturm_counts(diag, shifts):
    """Eigenvalues strictly below each shift of the Jacobi matrix with
    diagonal d(1..N) = diag and unit off-diagonal, by node counting:
    w(k+1) = (E - d(k)) w(k) - w(k-1) from (0, 1) is det(E - J_k) (Barth,
    Martin & Wilkinson, Numer. Math. 9, 1967).  Step k = 1..N counts when
    w(k), w(k+1) agree in sign bit (a product can underflow) or w(k) = 0,
    but not when w(k+1) = 0.  Every diag - shift must be finite.
    """
    n = diag.shape[0]
    out = np.empty(shifts.shape[0], dtype=np.int64)
    cur, prev, scale = np.empty((3, n))
    for i, e in enumerate(shifts):
        _rescaled_pairs(lambda k, steps, e=e: diag[k - 1:k - 1 + steps] - e,
                        n + 1, 0.0, 1.0, cur, prev, scale)
        same = np.signbit(cur) == np.signbit(prev)
        out[i] = np.count_nonzero((cur != 0.0) & (same | (prev == 0.0)))
    return out


def kahan_cumsum(terms):
    """Running sums of terms in ascending order, compensated.

    Cascaded summation ("Sum2" of Ogita, Rump & Oishi, Accurate Sum and
    Dot Product, SIAM J. Sci. Comput. 26, 2005), at least as accurate as
    Kahan summation: np.cumsum adds left to right, s[i] = fl(s[i-1] +
    terms[i]), and Knuth's TwoSum recovers each of those rounding errors
    exactly; their own prefix sums are added back.  A float64 ndarray
    ``terms`` is overwritten (it holds the errors), which saves a buffer of
    its size.
    """
    terms = np.asarray(terms, dtype=np.float64)
    s = np.cumsum(terms)
    # TwoSum of (prev, terms) with prev = s shifted right, 0 in front:
    # t = s - prev, err = (prev - (s - t)) + (terms - t)
    t = np.empty_like(s)
    t[:1] = s[:1]
    np.subtract(s[1:], s[:-1], out=t[1:])
    terms -= t
    np.subtract(s, t, out=t)
    t[:1] = 0.0 - t[:1]
    np.subtract(s[:-1], t[1:], out=t[1:])
    terms += t
    del t
    s += np.cumsum(terms, out=terms)
    return s


def backend():
    """Name of the kernel backend: 'numpy' (numpy with BLAS band solves)."""
    return "numpy"
