"""Numeric kernels: the three-term recurrence, Sturm counts and the
compensated prefix sum.

The recurrence w(k+1) = (E - W(k)) w(k) - w(k-1), started from
(w(0), w(1)), is forward substitution in a unit lower-triangular band
system with two subdiagonals, so BLAS ``dtbsv`` solves a stretch of it in
the same sequential order as a loop would (:func:`_recur`).  B independent
recurrences are B blocks laid end to end in one such system, uncoupled by
zero entries.  One chunk driver (:func:`_rescaled_pairs`) runs B blocks
with log-scale rescaling, each rescaled exactly where it would be alone;
it serves the forward Prufer evolution (one block per energy), the
backward resonant launch (one block) and Sturm counts (one block per
shift).

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
    """w_b(0..L+1) of w_b(j+2) = -sub[b, j] w_b(j+1) - w_b(j), for the B
    rows b of sub, from (w_b(0), w_b(1)) = (w0[b], w1[b]).

    The B blocks are laid end to end in one band system with two
    subdiagonals: rows 0 and 1 of each block pin w(0) and w(1) and get
    coupling entries 0; row j+2 carries sub[b, j] on the first and 1 on the
    second subdiagonal.  Returns a (B, L+2) array.
    """
    nb, n = sub.shape[0], sub.shape[1] + 2
    # C-ordered (row, diagonal) entries, passed to BLAS as Fortran-ordered
    # lower band storage; BLAS never reads diagonal 0 (the unit diagonal)
    band = np.empty((nb, n, 3))
    band[:, 0, 1] = band[:, -1, 1] = 0.0
    band[:, 1:-1, 1] = sub
    band[:, :-2, 2] = 1.0
    band[:, -2:, 2] = 0.0
    w = np.zeros((nb, n))
    w[:, 0], w[:, 1] = w0, w1
    return dtbsv(2, band.reshape(-1, 3).T, w.reshape(-1), lower=1, diag=1,
                 overwrite_x=1).reshape(nb, n)


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


def _rescaled_pairs(sub, n_sites, w0, w1, cur, prev, scale):
    """Rescaled pairs of B independent recurrences
    w_b(k+1) = -sub_b(k) w_b(k) - w_b(k-1), sites k = 1..n_sites.

    ``sub(blocks, sites)`` returns the (A, L) array of sub_b(k), all
    finite, for the block indices b in ``blocks`` (shape (A,)) and the
    sites k < n_sites in the matching rows of ``sites``, of shape (A, L) or
    (1, L) when one row serves every block.  Block b starts
    from (w_b(0), w_b(1)) = (w0[b], w1[b]).  The (B, ·) outputs hold each
    block's last cur.shape[1] sites:
    (w_b(k), w_b(k-1)) = exp(scale) * (cur, prev).

    Each block moves along its own chunks, and one band solve
    (:func:`_recur`) advances every unfinished block by one chunk, of at
    most about _CHUNK rows in all.  A block's chunk is cut at its first
    site whose max(|w(k)|, |w(k-1)|) leaves [_RESCALE_LO, _RESCALE_HI]
    (unless it is 0; at k = n_sites only if it is inf), or one site
    earlier if it is inf; the pair there is stored, divided by that
    maximum, and the block's next chunk, a quarter longer than the stretch
    kept, starts from it.  The recurrence does the same arithmetic
    wherever a chunk starts, and scale is the running sum of the logs of
    the divisors, accumulated left to right, so every block gets the bits
    it would get alone.  Once a block leaves the float range, the zero
    couplings carry 0 * inf = nan into the blocks after it, so those are
    solved again.
    """
    nb = cur.shape[0]
    first = n_sites - cur.shape[1] + 1
    # until the final cumsum, scale holds increments of the log scale
    scale[...] = 0.0
    # unfinished blocks ids, each at its site k with the pair
    # (a, b) = (w(k), w(k-1)) it continues from, rescaled if k was a cut
    ids, k = np.arange(nb), np.ones(nb, dtype=np.intp)
    a, b = np.array(w1, dtype=np.float64), np.array(w0, dtype=np.float64)
    if first == 1:
        cur[:, 0], prev[:, 0] = a, b
    offsets = np.arange(max(_CHUNK, nb) + 1)
    grow = _CHUNK  # sets the next chunk length
    rescaled = False
    while ids.size:
        n_act = ids.size
        left = n_sites - k
        fewest, most = int(left.min()), int(left.max())
        chunk = min(max(1, _CHUNK // n_act), grow, most)
        last = np.minimum(left, chunk)  # the block's last site is k + last
        # blocks all at one site share one row of sites
        sites = (k if fewest < most else k[:1])[:, None] + offsets[:chunk]
        w = sub(ids, np.minimum(sites, n_sites - 1) if chunk > fewest else sites)
        if chunk > fewest:
            w[sites >= n_sites] = 0.0  # past a block's end: a bounded filler
        y = _recur(b, a, w)  # pair at site k + j: y[:, j+1], y[:, j]
        # a block that left the float range ends non-finite, and so do the
        # blocks after it, which read nan through the zero couplings
        over = ~np.isfinite(y[:, -1])
        i = 0
        while over[i:-1].any():
            i += int(over[i:-1].argmax()) + 1
            y[i:] = _recur(b[i:], a[i:], w[i:])
            over[i:] = ~np.isfinite(y[i:, -1])
        ay = np.abs(y)
        rows = offsets[:n_act]
        if ay.max() <= _RESCALE_HI and ay.min() >= _RESCALE_LO:
            # every pair stays inside the band: no block is cut
            cut, j, mj = np.zeros(n_act, dtype=bool), last, np.ones(n_act)
        else:
            m = np.maximum(ay[:, 1:], ay[:, :-1])
            out = (m > _RESCALE_HI) | ((m < _RESCALE_LO) & (m != 0.0))
            if chunk > fewest:
                out[offsets[:chunk + 1] > last[:, None]] = False
            if chunk >= fewest:  # site n_sites is rescaled only on overflow
                end = np.flatnonzero(last == left)
                out[end, last[end]] = ~np.isfinite(m[end, last[end]])
            cut = out.any(axis=1)
            j = np.where(cut, out.argmax(axis=1), last)
            if over.any():  # the step overflowed: rescale the pair before it
                j -= cut & (j > 0) & ~np.isfinite(m[rows, j])
            # the rescaled pairs: dividing by 1 leaves the others exact
            mj = np.where(cut, m[rows, j], 1.0)
        for i, bk, kb, jb, c, d in zip(rows.tolist(), ids.tolist(), k.tolist(),
                                       j.tolist(), cut.tolist(), mj.tolist()):
            lo = max(kb + 1, first)
            if lo <= kb + jb:
                cur[bk, lo - first:kb + jb + 1 - first] = y[i, lo - kb + 1:jb + 2]
                prev[bk, lo - first:kb + jb + 1 - first] = y[i, lo - kb:jb + 1]
            if c:
                rescaled = True
                # ln of the divisor at the first site after the rescale; the
                # rescales before the first stored site all add to column 0
                scale[bk, max(kb + jb + 1 - first, 0)] += math.log(d)
        a, b, k = y[rows, j + 1] / mj, y[rows, j] / mj, k + j
        grow = int(j.max())
        grow += grow // 4 + 16
        if chunk >= fewest:
            going = k < n_sites
            ids, k, a, b = ids[going], k[going], a[going], b[going]
    if rescaled:
        np.cumsum(scale, axis=1, out=scale)


def prufer_forward(V, E, u0, u1):
    """Three-term recurrence with rescaling, for the Prufer transform.

    E is one energy or a vector of B energies, all evolved from the same
    (u(0), u(1)) by one batched driver.  Returns (un, um, ln_scale),
    site-indexed with slot 0 = nan, of shape (N+1,) or (B, N+1): the pair
    (u(n), u(n-1)) equals exp(ln_scale[n]) * (un[n], um[n]).  The pair is
    rescaled once max(|u(n)|, |u(n-1)|) leaves [_RESCALE_LO, _RESCALE_HI]
    (unless it is 0), so it never overflows and ln R stays exact; each
    energy gets the bits of its own single-energy call.
    """
    n_max = V.shape[0] - 1
    es = np.reshape(np.asarray(E, dtype=np.float64), (-1, 1))
    nb = es.shape[0]
    out = np.empty((3, nb, n_max + 1))
    out[:, :, 0] = np.nan  # the driver writes every site from 1 on
    un, um, ln_scale = out

    def sub(blocks, sites):
        lo, hi = sites[0, 0], sites[0, -1]
        if sites.shape[0] == 1 and hi - lo == sites.shape[1] - 1:
            return V[lo:hi + 1] - es[blocks]  # one row of consecutive sites
        return V[sites] - es[blocks]

    _rescaled_pairs(sub, n_max, np.full(nb, u0), np.full(nb, u1),
                    un[:, 1:], um[:, 1:], ln_scale[:, 1:])
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
    rescaled by the rule of :func:`prufer_forward`.
    """
    # forwards on the mirrored sequence w(k) = u(M + 1 - k), W(k) = V(M + 1 - k)
    def sub(blocks, sites):
        n = (n_launch + 1 - sites).astype(np.float64)
        return amp * np.sin(omega * n + delta) / n - E

    un, um, ln_scale = out = np.full((3, n_record + 1), np.nan)
    # mirrored site k = M + 2 - n holds (w(k), w(k-1)) = (u(n-1), u(n))
    _rescaled_pairs(sub, n_launch + 1, [u_next], [u_launch],
                    um[None, :0:-1], un[None, :0:-1], ln_scale[None, :0:-1])
    return tuple(out)


def sturm_counts(diag, shifts):
    """Eigenvalues strictly below each shift of the Jacobi matrix with
    diagonal d(1..N) = diag and unit off-diagonal, by node counting:
    w(k+1) = (E - d(k)) w(k) - w(k-1) from (0, 1) is det(E - J_k) (Barth,
    Martin & Wilkinson, Numer. Math. 9, 1967).  Step k = 1..N counts when
    w(k), w(k+1) agree in sign bit (a product can underflow) or w(k) = 0,
    but not when w(k+1) = 0.  Every diag - shift must be finite.  The
    shifts are the blocks of one batched driver call.
    """
    nb, n = shifts.shape[0], diag.shape[0]
    cur, prev, scale = np.empty((3, nb, n))
    _rescaled_pairs(lambda blocks, sites: diag[sites - 1] - shifts[blocks, None],
                    n + 1, np.zeros(nb), np.ones(nb), cur, prev, scale)
    same = np.signbit(cur) == np.signbit(prev)
    return np.count_nonzero((cur != 0.0) & (same | (prev == 0.0)), axis=1)


def kahan_cumsum(terms, carry=None):
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
    """
    terms = np.asarray(
        terms, dtype=np.complex128 if np.iscomplexobj(terms) else np.float64)
    if carry is None:
        carry = np.zeros((2,) + terms.shape[:-1], dtype=terms.dtype)
    prev = carry[0][..., None]
    first = terms[..., :1].copy()
    terms[..., :1] += prev  # the cumsum continues from the carried sum
    s = np.cumsum(terms, axis=-1)
    terms[..., :1] = first
    # TwoSum of (prev, terms) with prev = s shifted right, the carried sum
    # in front: t = s - prev, err = (prev - (s - t)) + (terms - t)
    t = np.empty_like(s)
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
