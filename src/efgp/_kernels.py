"""Numeric kernels: the three-term recurrence, Sturm counts and the
compensated prefix sum.

The recurrence w(k+1) = (E - W(k)) w(k) - w(k-1), started from
(w(0), w(1)), is forward substitution in a unit lower-triangular band
system with two subdiagonals, so BLAS ``dtbsv`` solves a stretch of it in
the same sequential order as a loop would (:func:`_recur`).  B independent
recurrences are B blocks laid end to end in one such system, uncoupled by
zero entries.  One resumable driver (:func:`_pair_windows`) runs B blocks
with log-scale rescaling, each rescaled exactly where it would be alone,
and yields their pairs window by window: consecutive stretches of sites
whose ends the caller chooses, so no caller needs to hold a pair array as
long as the lattice.  It reads the coefficients one window at a time and
solves on band buffers allocated once per call.  It serves the forward
Prufer evolution (one block per energy, V read window by window from an
array or a function of the site range), the backward resonant launch (one
block, storing only the sites it returns) and Sturm counts (one block per
shift); ``analysis.lemma_sums`` consumes its windows as they come and
passes ``Potential.values``, so besides block buffers no array is as long
as the lattice.  ``spectral.classify_spectrum`` runs one call per group of
energies, each storing into a slice of one pair buffer that it allocates
once for all its groups.

Per-site arrays are indexed by the lattice site n itself: ``V[n]`` is the
potential at site n (slot 0 unused), and outputs such as ``un[n]`` start
at n=1 with slot 0 set to nan.  The pairs become Prufer variables in one
place, ``prufer._trajectories``, window by window.
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

# Sites per block of the streamed passes: a few (rows, _BLOCK) float
# buffers stay in a core's cache.
_BLOCK = _CHUNK // 2


def _band(nb, n, out=None):
    """Band storage of _recur's system for nb blocks of n rows, as an
    (nb, n, 3) array: every entry but the couplings band[:, 1:-1, 1] is
    set, in out (a flat float64 array of at least 3 nb n entries) if given.

    The C-ordered (row, diagonal) entries are passed to BLAS as
    Fortran-ordered lower band storage; BLAS never reads diagonal 0 (the
    unit diagonal).  Rows 0 and 1 of each block pin w(0) and w(1) and get
    coupling entries 0; row j+2 carries sub[b, j] on the first and 1 on the
    second subdiagonal.
    """
    band = (np.empty((nb, n, 3)) if out is None
            else out[:nb * n * 3].reshape(nb, n, 3))
    band[:, 0, 1] = band[:, -1, 1] = 0.0
    band[:, :-2, 2] = 1.0
    band[:, -2:, 2] = 0.0
    return band


def _solve(band, w0, w1, out=None):
    """w_b(0..n-1) of the blocks of the band system ``band`` (from
    :func:`_band`, couplings filled in) from (w_b(0), w_b(1)) = (w0[b],
    w1[b]), solved in out (a C-contiguous (nb, n) array) if given."""
    w = np.empty(band.shape[:2]) if out is None else out
    w[:, 0], w[:, 1] = w0, w1
    w[:, 2:] = 0.0
    return dtbsv(2, band.reshape(-1, 3).T, w.reshape(-1), lower=1, diag=1,
                 overwrite_x=1).reshape(w.shape)


def _recur(w0, w1, sub):
    """w_b(0..L+1) of w_b(j+2) = -sub[b, j] w_b(j+1) - w_b(j), for the B
    rows b of sub, from (w_b(0), w_b(1)) = (w0[b], w1[b]).

    The B blocks are laid end to end in one band system with two
    subdiagonals (:func:`_band`), uncoupled by zero entries.  Returns a
    (B, L+2) array.
    """
    band = _band(sub.shape[0], sub.shape[1] + 2)
    band[:, 1:-1, 1] = sub
    return _solve(band, w0, w1)


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
        y = _recur(u[k - 1], u[k], (V[k:k + steps] - E)[None])[0, 2:]
        u[k + 1:k + 1 + steps] = y
        bad = ~(np.abs(y) <= 1e300)  # nan compares false
        if bad.any():
            return u, k + 1 + int(bad.argmax())
    return u, -1


def _ends(start, stop, width):
    """Ends of the windows of at most width sites covering start+1..stop."""
    return list(range(start + width, stop, width)) + [stop]


def _pair_windows(coefs, n_sites, w0, w1, ends, out=None):
    """Rescaled pairs of B independent recurrences
    w_b(k+1) = -sub_b(k) w_b(k) - w_b(k-1), sites k = 1..n_sites, yielded
    window by window.

    ``ends`` are the increasing last sites of consecutive windows, the
    first window starting at site 1 and the last ending at n_sites.  For
    each window of sites lo..hi that takes a step, ``coefs(k0, hi)``, with
    k0 = max(lo - 1, 1), is called once and returns the window's
    ``sub(blocks, sites, out)``: it writes into out the (A, L) array of
    sub_b(k), all finite, for the block indices b in ``blocks`` (shape
    (A,)) and the sites k0 <= k < hi in the matching rows of ``sites``, of
    shape (A, L) or (1, L) when one row serves every block.  Block b starts
    from (w_b(0), w_b(1)) = (w0[b], w1[b]).  Per window the generator
    yields (cur, prev, scale), each of shape (B, hi - lo + 1):
    (w_b(k), w_b(k-1)) = exp(scale) * (cur, prev).  They are views of one
    buffer, overwritten by the next window, or with ``out``, a (3, B, M)
    array holding the last M sites, its columns for the window's sites.  A
    window that ends before those sites is not stored: it yields
    (None, None, scale).  No window may straddle the first stored site.

    Each block moves along its own chunks, and one band solve
    (:func:`_band`, :func:`_solve`) advances every block still short of the
    window end by one chunk, of at most about _CHUNK rows in all; its band
    and solution live in buffers allocated once per call, and |solution|
    in the band's diagonal 0, which BLAS never reads.  A block's chunk is
    cut at its first site whose max(|w(k)|, |w(k-1)|) leaves
    [_RESCALE_LO, _RESCALE_HI] (unless it is 0; at k = n_sites only if it
    is inf), or one site earlier if it is inf; the pair there is stored,
    divided by that maximum, and the block's next chunk, a quarter longer
    than the stretch kept, starts from it.  The recurrence does the
    same arithmetic wherever a chunk or a window starts, and scale is the
    running sum of the logs of the divisors, accumulated left to right
    across windows (the total so far enters column 0 of a window before
    its cumsum), so every block gets the bits it would get alone in one
    window.  Once a block leaves the float range, the zero couplings carry
    0 * inf = nan into the blocks after it, so those are solved again, in
    place.
    """
    nb = len(w0)
    # each block's pair (w(k), w(k-1)) at the end k of the last window,
    # rescaled if k was a cut
    end_a, end_b = np.array(w1, dtype=np.float64), np.array(w0, dtype=np.float64)
    total = np.zeros(nb)  # the log scale at the last site yielded
    pending = np.zeros(nb)  # logs of divisors at a window's last site
    ends = list(ends)
    widest = max(hi - lo for lo, hi in zip([0] + ends, ends))
    # a chunk spans at most min(_CHUNK, widest) sites, and all the blocks
    # of one solve at most max(_CHUNK, nb) of them, plus two rows each
    offsets = np.arange(max(min(_CHUNK, widest), nb) + 1)
    rows_max = min(max(_CHUNK, nb), nb * widest) + 2 * nb
    band_buf, y_buf = np.empty(3 * rows_max), np.empty(rows_max)
    band = np.empty((0, 0, 3))
    first = 1 if out is None else n_sites + 1 - out.shape[-1]  # first stored site
    if out is None or first > 1:  # with out, only scale needs a buffer
        buf = np.empty((3 if out is None else 1, nb, widest))
    grow = _CHUNK  # sets the next chunk length
    lo = 1
    for hi in ends:
        if out is None:
            cur, prev, scale = buf[:, :, :hi - lo + 1]
        elif lo >= first:
            cur, prev, scale = out[:, :, lo - first:hi + 1 - first]
        else:  # a window before the stored sites
            cur, prev, scale = None, None, buf[0, :, :hi - lo + 1]
        # until the cumsum, scale holds increments of the log scale
        scale[...] = 0.0
        scale[:, 0] = pending
        pending[...] = 0.0
        rescaled = False
        k0 = max(lo - 1, 1)
        if lo == 1 and cur is not None:
            cur[:, 0], prev[:, 0] = end_a, end_b
        # the blocks short of the window end, each at its site k with the
        # pair (a, b) = (w(k), w(k-1)) it continues from
        ids = np.arange(nb if k0 < hi else 0)
        if ids.size:
            sub = coefs(k0, hi)
        k = np.full(ids.size, k0, dtype=np.intp)
        a, b = end_a[ids], end_b[ids]
        while ids.size:
            n_act = ids.size
            left = hi - k
            fewest, most = int(left.min()), int(left.max())
            chunk = min(max(1, _CHUNK // n_act), grow, most)
            last = np.minimum(left, chunk)  # the block's last site is k + last
            # blocks all at one site share one row of sites
            sites = (k if fewest < most else k[:1])[:, None] + offsets[:chunk]
            if band.shape[:2] != (n_act, chunk + 2):
                # a solve of the last shape left every entry but the couplings
                band = _band(n_act, chunk + 2, band_buf)
            w = band[:, 1:-1, 1]
            sub(ids, np.minimum(sites, hi - 1) if chunk > fewest else sites, w)
            if chunk > fewest:
                w[sites >= hi] = 0.0  # past a block's end: a bounded filler
            # pair at site k + j: y[:, j+1], y[:, j]
            y = _solve(band, b, a, y_buf[:n_act * (chunk + 2)].reshape(n_act, -1))
            # a block that left the float range ends non-finite, and so do
            # the blocks after it, which read nan through the zero couplings
            over = ~np.isfinite(y[:, -1])
            i = 0
            while over[i:-1].any():
                i += int(over[i:-1].argmax()) + 1
                y[i:] = _solve(band[i:], b[i:], a[i:], y[i:])
                over[i:] = ~np.isfinite(y[i:, -1])
            ay = np.abs(y, out=band[..., 0])  # diagonal 0 is never read
            rows = offsets[:n_act]
            if ay.max() <= _RESCALE_HI and ay.min() >= _RESCALE_LO:
                # every pair stays inside the band: no block is cut
                cut, j, mj = np.zeros(n_act, dtype=bool), last, np.ones(n_act)
            else:
                m = np.maximum(ay[:, 1:], ay[:, :-1])
                off = (m > _RESCALE_HI) | ((m < _RESCALE_LO) & (m != 0.0))
                if chunk > fewest:
                    off[offsets[:chunk + 1] > last[:, None]] = False
                if hi == n_sites and chunk >= fewest:
                    # site n_sites is rescaled only on overflow
                    end = np.flatnonzero(last == left)
                    off[end, last[end]] = ~np.isfinite(m[end, last[end]])
                cut = off.any(axis=1)
                j = np.where(cut, off.argmax(axis=1), last)
                if over.any():  # the step overflowed: rescale the pair before it
                    j -= cut & (j > 0) & ~np.isfinite(m[rows, j])
                # the rescaled pairs: dividing by 1 leaves the others exact
                mj = np.where(cut, m[rows, j], 1.0)
            if fewest == most and not cut.any():
                # every block at one site and none cut: one stretch for all
                jb = int(last[0])
                if jb and cur is not None:
                    at = int(k[0]) + 1 - lo
                    cur[ids, at:at + jb] = y[:, 2:jb + 2]
                    prev[ids, at:at + jb] = y[:, 1:jb + 1]
            else:
                for i, bk, kb, jb, c, d in zip(rows.tolist(), ids.tolist(),
                                               k.tolist(), j.tolist(),
                                               cut.tolist(), mj.tolist()):
                    if jb and cur is not None:
                        cur[bk, kb + 1 - lo:kb + jb + 1 - lo] = y[i, 2:jb + 2]
                        prev[bk, kb + 1 - lo:kb + jb + 1 - lo] = y[i, 1:jb + 1]
                    if c:
                        # ln of the divisor at the first site after the rescale
                        if kb + jb < hi:
                            rescaled = True
                            scale[bk, kb + jb + 1 - lo] += math.log(d)
                        else:
                            pending[bk] += math.log(d)
            a, b, k = y[rows, j + 1] / mj, y[rows, j] / mj, k + j
            # a cut sets the next length from the stretch kept; a chunk
            # that ended at the window end does not shorten the next one
            grow = int(j.max()) if cut.any() else max(grow, int(j.max()))
            grow += grow // 4 + 16
            if chunk >= fewest:
                done = k == hi
                end_a[ids[done]], end_b[ids[done]] = a[done], b[done]
                going = ~done
                ids, k, a, b = ids[going], k[going], a[going], b[going]
        if rescaled or scale[:, 0].any():
            scale[:, 0] += total
            np.cumsum(scale, axis=1, out=scale)
        elif total.any():
            scale[...] = total[:, None]
        total = scale[:, -1].copy()
        yield cur, prev, scale
        lo = hi + 1


def _forward_windows(V, E, u0, u1, ends, out=None):
    """:func:`_pair_windows` of u(n+1) = (E_b - V(n)) u(n) - u(n-1) over
    the sites n = 1..N, N = ends[-1], for the B energies E_b of the vector
    E, all from the same (u(0), u(1)); ends and out as there.

    V is the site-indexed potential, or a function ``values(n_lo, n_hi)``
    returning V(n_lo..n_hi) (as ``Potential.values`` does).  Each window
    lo..hi reads V at its sites max(lo - 1, 1)..hi - 1 once, as a view of
    the array V or one call of values, so V is read once in all.
    """
    values = V if callable(V) else (lambda n_lo, n_hi: V[n_lo:n_hi + 1])
    es = np.reshape(np.asarray(E, dtype=np.float64), (-1, 1))
    nb = es.shape[0]

    def coefs(k0, hi):
        v = values(k0, hi - 1)  # v[i] = V(k0 + i)

        def sub(blocks, sites, out):
            lo, hi = sites[0, 0], sites[0, -1]
            if sites.shape[0] == 1 and hi - lo == sites.shape[1] - 1:
                # one row of consecutive sites
                np.subtract(v[lo - k0:hi + 1 - k0], es[blocks], out=out)
            else:
                np.subtract(v[sites - k0], es[blocks], out=out)
        return sub

    return _pair_windows(coefs, ends[-1], np.full(nb, u0), np.full(nb, u1),
                         ends, out)


def prufer_forward(V, E, u0, u1):
    """Three-term recurrence with rescaling, for the Prufer transform.

    E is one energy or a vector of B energies, all evolved from the same
    (u(0), u(1)) by one batched driver.  Returns (un, um, ln_scale),
    site-indexed with slot 0 = nan, of shape (N+1,) or (B, N+1): the pair
    (u(n), u(n-1)) equals exp(ln_scale[n]) * (un[n], um[n]).  The pair is
    rescaled once max(|u(n)|, |u(n-1)|) leaves [_RESCALE_LO, _RESCALE_HI]
    (unless it is 0), so it never overflows and ln R stays exact; each
    energy gets the bits of its own single-energy call.  No program route
    calls it: the tests use it as the whole-row reference, and the
    benchmark's tracer wraps it.
    """
    n_max = V.shape[0] - 1
    out = np.empty((3, np.size(E), n_max + 1))
    out[:, :, 0] = np.nan  # the driver writes every site from 1 on
    for _ in _forward_windows(V, E, u0, u1, [n_max], out[:, :, 1:]):
        pass
    return tuple(out.reshape((3,) + np.shape(E) + (n_max + 1,)))


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
    rescaled by the rule of :func:`_pair_windows`: once
    max(|u(n)|, |u(n-1)|) leaves [_RESCALE_LO, _RESCALE_HI] (unless it is
    0), so it never overflows and ln R stays exact.
    """
    # forwards on the mirrored sequence w(k) = u(M + 1 - k), W(k) = V(M + 1 - k)
    def sub(blocks, sites, out):
        n = (n_launch + 1 - sites).astype(np.float64)
        out[...] = amp * np.sin(omega * n + delta) / n - E

    n_sites = n_launch + 1
    first = n_sites + 1 - n_record  # the mirrored site of n = n_record
    # mirrored site k = M + 2 - n holds (w(k), w(k-1)) = (u(n-1), u(n)), so
    # the driver stores the pairs straight into (um, un) read backwards,
    # and the windows before the first stored site are not stored
    um, un, ln_scale = out = np.full((3, n_record + 1), np.nan)
    ends = _ends(0, first - 1, _CHUNK) + _ends(first - 1, n_sites, _CHUNK)
    for _ in _pair_windows(lambda k0, hi: sub, n_sites, [u_next], [u_launch],
                           ends, out[:, None, :0:-1]):
        pass
    return un, um, ln_scale


def sturm_counts(diag, shifts):
    """Eigenvalues strictly below each shift of the Jacobi matrix with
    diagonal d(1..N) = diag and unit off-diagonal, by node counting:
    w(k+1) = (E - d(k)) w(k) - w(k-1) from (0, 1) is det(E - J_k) (Barth,
    Martin & Wilkinson, Numer. Math. 9, 1967).  Step k = 1..N counts when
    w(k), w(k+1) agree in sign bit (a product can underflow) or w(k) = 0,
    but not when w(k+1) = 0.  Every diag - shift must be finite.  The
    shifts are the blocks of one batched driver call, counted window by
    window.
    """
    nb, n = shifts.shape[0], diag.shape[0]
    counts = np.zeros(nb, dtype=np.intp)
    ends = _ends(0, n + 1, _CHUNK)

    def sub(blocks, sites, out):
        np.subtract(diag[sites - 1], shifts[blocks, None], out=out)

    windows = _pair_windows(lambda k0, hi: sub, n + 1, np.zeros(nb), np.ones(nb),
                            ends)
    for i, (cur, prev, _) in enumerate(windows):
        if i == 0:  # site 1 holds the start (w(1), w(0)), not a step
            cur, prev = cur[:, 1:], prev[:, 1:]
        same = np.signbit(cur) == np.signbit(prev)
        counts += np.count_nonzero((cur != 0.0) & (same | (prev == 0.0)), axis=1)
    return counts


def kahan_cumsum(terms, carry=None, out=None):
    """Running sums of terms in ascending order along the last axis,
    compensated.

    Cascaded summation ("Sum2" of Ogita, Rump & Oishi, Accurate Sum and
    Dot Product, SIAM J. Sci. Comput. 26, 2005), at least as accurate as
    Kahan summation: np.cumsum adds left to right, s[i] = fl(s[i-1] +
    terms[i]), and Knuth's TwoSum recovers each of those rounding errors
    exactly; their own prefix sums are added back.  Rows of a 2-D array are
    independent sums, and complex terms are two independent lanes: complex
    addition is componentwise, so each of the real and imaginary parts gets
    the bits of its own real call, at the cost of one.  A float64 or
    complex128 ndarray ``terms`` is overwritten (it holds the errors),
    which saves a buffer of its size.

    ``carry``, of shape (2,) + terms.shape[:-1] and the dtype of terms,
    continues sums split into blocks: it holds the running sum s and the
    running sum of the errors after the preceding terms, zeros for a fresh
    start (the default), and is updated in place.  Blocks run from a zero
    carry return the bits of one call on the whole rows.

    ``out``, of shape (2,) + terms.shape and the dtype of terms, gives the
    storage of the result (out[0], returned) and of a scratch array of its
    size (out[1]); by default both are new.
    """
    terms = np.asarray(
        terms, dtype=np.complex128 if np.iscomplexobj(terms) else np.float64)
    if carry is None:
        carry = np.zeros((2,) + terms.shape[:-1], dtype=terms.dtype)
    prev = carry[0][..., None]
    first = terms[..., :1].copy()
    terms[..., :1] += prev  # the cumsum continues from the carried sum
    s, t = (np.empty_like(terms), np.empty_like(terms)) if out is None else out
    np.cumsum(terms, axis=-1, out=s)
    terms[..., :1] = first
    # TwoSum of (prev, terms) with prev = s shifted right, the carried sum
    # in front: t = s - prev, err = (prev - (s - t)) + (terms - t)
    np.subtract(s[..., :1], prev, out=t[..., :1])
    np.subtract(s[..., 1:], s[..., :-1], out=t[..., 1:])
    terms -= t
    np.subtract(s, t, out=t)
    np.subtract(prev, t[..., :1], out=t[..., :1])
    np.subtract(s[..., :-1], t[..., 1:], out=t[..., 1:])
    terms += t
    del t
    terms[..., :1] += carry[1][..., None]
    np.cumsum(terms, axis=-1, out=terms)
    if s.shape[-1]:
        carry[0], carry[1] = s[..., -1], terms[..., -1]
    s += terms
    return s


def backend():
    """Name of the kernel backend: 'numpy' (numpy with BLAS band solves)."""
    return "numpy"
