"""Numeric kernels: the three-term recurrence, Sturm counts and the
compensated prefix sum, and the two compiled LAPACK/BLAS routines the
toolkit calls.

The routines are BLAS ``dtbsv`` (the recurrence's band solve) and LAPACK
``dstevd`` (the window eigenvalues, ``spectral.eigenvalues_in_window``),
taken from scipy's own compiled wrapper modules ``_fblas`` and
``_flapack`` in the installed scipy/linalg directory.  They are loaded by
path (:func:`_scipy_linalg_extension`), so ``scipy/linalg/__init__.py``
never runs: importing it costs about 0.3 s, most of it scipy's array-API
layer, which imports numpy.f2py, numpy.testing, numpy.ma and more.

The recurrence w(k+1) = (E - W(k)) w(k) - w(k-1), started from
(w(0), w(1)), is forward substitution in a unit lower-triangular band
system with two subdiagonals (:func:`_band`), so BLAS ``dtbsv`` solves a
stretch of it in the same sequential order as a loop would.  B independent
recurrences are B blocks laid end to end in one such system, uncoupled by
zero entries.  One resumable driver (:func:`_forward_windows`) runs B
blocks, one per energy E_b, with log-scale rescaling, each rescaled
exactly where it would be alone, and yields their pairs window by window:
consecutive stretches of sites whose ends the caller chooses, so no caller
needs to hold a pair array as long as the lattice.  Every window is written
to the front of one buffer, the caller's or the driver's own.  It reads W
one window at a time, from an array or a function of the site range, forms
the couplings W(k) - E_b itself and solves on the buffers of a workspace
(:class:`_Workspace`), the caller's or a fresh one per call; the band's
buffer ends in a contiguous stretch for |solution|, which the rescale test
reads, and the band keeps its constant entries from one solve of a shape to
the next.  It serves the stored solution (``prufer.solve_recurrence``:
W = V, one block, u = exp(scale) * cur), the forward Prufer evolution
(W = V), the backward resonant launch (W(k) = V(M + 1 - k) on the mirrored
sites, one block, keeping its last window, the sites it returns) and Sturm
counts (W = the diagonal, one block per shift).  ``analysis.lemma_sums``
consumes its windows as they come and passes ``Potential.values``, so
besides block buffers no array is as long as the lattice.
``spectral.classify_spectrum`` runs one call per group of energies, each
storing into a slice of one pair buffer that it allocates once for all its
groups and reads in place, and passes all of them one workspace; every
other caller makes one call on a fresh workspace.

Per-site arrays are indexed by the lattice site n itself: ``V[n]`` is the
potential at site n (slot 0 unused), and outputs such as ``un[n]`` start
at n=1 with slot 0 set to nan.  The pairs become Prufer angles through one
lift, ``prufer._Lift``, window by window: in ``prufer._trajectory`` for
one trajectory, and in ``analysis.lemma_sums`` for all its parameters.
"""

import importlib.machinery
import importlib.util
import math

import numpy as np


def _scipy_linalg_extension(name):
    """scipy's compiled module scipy/linalg/<name>, loaded from its file
    without importing the scipy.linalg package.

    The module is created under the private name efgp._kernels.<name> and
    is not entered in sys.modules, so it shadows no scipy module; a later
    ``import scipy.linalg`` loads scipy's own copy as usual.  ImportError,
    naming the directory searched, if the file is missing.
    """
    # find_spec imports the scipy package (scipy/__init__.py), not its
    # linalg subpackage, and finds the directory the way import would
    where = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    for directory in where:
        finder = importlib.machinery.FileFinder(
            directory, (importlib.machinery.ExtensionFileLoader,
                        importlib.machinery.EXTENSION_SUFFIXES))
        # the file is found by the name's last part, which also names
        # the module's init function
        spec = finder.find_spec(f"{__name__}.{name}")
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no compiled module {name} in {', '.join(where)}")


dtbsv = _scipy_linalg_extension("_fblas").dtbsv
dstevd = _scipy_linalg_extension("_flapack").dstevd

# Rescale the evolving pair once its larger entry leaves this band; the
# log-scale accumulator keeps ln R exact.
_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100

# Longest stretch solved unscaled; temporaries stay O(_CHUNK).
_CHUNK = 2 ** 14

# Sites per block of the streamed passes: a few (rows, _BLOCK) float
# buffers stay in a core's cache.
_BLOCK = _CHUNK // 2


def _band(nb, n, out):
    """Band storage of nb recurrences w_b(j+2) = -c_b(j) w_b(j+1) - w_b(j)
    laid end to end, n rows each, as an (nb, n, 3) view of out (a flat
    float64 array of at least 3 nb n entries): every entry but the
    couplings c_b = band[b, 1:-1, 1] is set.

    The C-ordered (row, diagonal) entries are passed to BLAS as
    Fortran-ordered lower band storage; BLAS never reads diagonal 0 (the
    unit diagonal).  Rows 0 and 1 of each block pin w(0) and w(1) and get
    coupling entries 0; row j+2 carries sub[b, j] on the first and 1 on the
    second subdiagonal.
    """
    band = out[:nb * n * 3].reshape(nb, n, 3)
    band[:, 0, 1] = band[:, -1, 1] = 0.0
    band[:, :-2, 2] = 1.0
    band[:, -2:, 2] = 0.0
    return band


def _solve(band, w0, w1, w):
    """w_b(0..n-1) of the blocks of the band system ``band`` (from
    :func:`_band`, couplings filled in) from (w_b(0), w_b(1)) = (w0[b],
    w1[b]), solved in w (a C-contiguous (nb, n) array)."""
    w[:, 0], w[:, 1] = w0, w1
    w[:, 2:] = 0.0
    return dtbsv(2, band.reshape(-1, 3).T, w.reshape(-1), lower=1, diag=1,
                 overwrite_x=1).reshape(w.shape)


def _ends(start, stop, width):
    """Ends of the windows of at most width sites covering start+1..stop."""
    return list(range(start + width, stop, width)) + [stop]


class _Workspace:
    """The buffers of :func:`_forward_windows`, kept across the calls that
    share one: ``band_buf``, the band storage followed by a contiguous
    stretch for |solution|; ``band``, the band of the last solve, an
    (blocks, rows, 3) view of band_buf (:func:`_band`); ``y_buf``, the
    solution; and ``offsets``, 0, 1, 2, ....  Each call grows them to its
    size.  The band keeps its constant entries until a solve of another
    (blocks, rows) shape, or a larger buffer, sets them again.  A fresh
    workspace allocates what one call needs."""

    def __init__(self):
        self.y_buf = np.empty(0)

    def fit(self, rows):
        """Room for solves of at most rows rows in all."""
        if self.y_buf.size < rows:
            self.band_buf, self.y_buf = np.empty(4 * rows), np.empty(rows)
            self.band, self.offsets = np.empty((0, 0, 3)), np.arange(rows)


def _forward_windows(V, E, u0, u1, ends, out=None, work=None):
    """Rescaled pairs of u_b(n+1) = (E_b - V(n)) u_b(n) - u_b(n-1) over the
    sites n = 1..N, N = ends[-1], for the B energies E_b of the vector E,
    all from (u(0), u(1)) = (u0, u1), yielded window by window.

    V is the site-indexed potential, or a function ``values(n_lo, n_hi)``
    returning V(n_lo..n_hi) (as ``Potential.values`` does); every
    V(n) - E_b must be finite.  With a non-finite coupling the rescale rule
    below keeps stepping back and the driver never terminates; the callers
    guarantee finite couplings.  ``ends`` are the increasing last sites of
    consecutive windows, the first starting at site 1.  Each window lo..hi
    that takes a step reads V at its sites max(lo - 1, 1)..hi - 1 once, as
    a view of the array V or one call of values, so V is read once in all.
    Per window the generator yields (cur, prev, scale), each of shape
    (B, hi - lo + 1): (u_b(n), u_b(n-1)) = exp(scale) * (cur, prev).  One
    output rule: every window is written to the first hi - lo + 1 columns
    of one (3, B, W) buffer, ``out`` if given (W at least the widest
    window), else the driver's own, and the next window overwrites it.
    ``work`` is a :class:`_Workspace` that a caller making many calls
    passes to each, so the band's constant entries are set once per shape;
    by default each call gets a fresh one.  The yielded pairs do not depend
    on it.

    Each block moves along its own chunks, and one band solve
    (:func:`_band`, :func:`_solve`) advances every block still short of the
    window end by one chunk, of at most about _CHUNK rows in all; its band,
    solution and |solution| live in the workspace, |solution| in a
    contiguous stretch after the band, so the test whether every pair stays
    inside the band reads it at unit stride.  The couplings V(n) - E_b of a
    chunk are formed in one place: from a slice of the window's V while
    every block is at one site (each window starts so, and they stay so
    until a step of the cut search), else from sites clipped to the window,
    with a zero filler past a block's end.  While every block is at one site
    and no pair of the solve leaves the band, a step is the couplings, the
    solve, the band test and one stretch copied for all blocks; any other
    step searches each block's cut.  A
    block's chunk is cut at its first site whose max(|u(n)|, |u(n-1)|) leaves
    [_RESCALE_LO, _RESCALE_HI] (unless it is 0; at n = N only if it is
    inf), or one site earlier if it is inf; the pair there is stored,
    divided by that maximum, and the block's next chunk, a quarter longer
    than the stretch kept, starts from it.  The recurrence does the same
    arithmetic wherever a chunk or a window starts, and scale is the
    running sum of the logs of the divisors, accumulated left to right
    across windows (the total so far enters column 0 of a window before
    its cumsum), so every block gets the bits it would get alone in one
    window.  Once a block leaves the float range, the zero couplings carry
    0 * inf = nan into the blocks after it, so those are solved again, in
    place.
    """
    values = V if callable(V) else (lambda n_lo, n_hi: V[n_lo:n_hi + 1])
    es = np.asarray(E, dtype=np.float64).reshape(-1, 1)
    nb = es.shape[0]
    ends = list(ends)
    n_sites = ends[-1]
    widest = max(hi - lo for lo, hi in zip([0] + ends, ends))
    work = _Workspace() if work is None else work
    # a chunk spans at most min(_CHUNK, widest) sites, and all the blocks
    # of one solve at most max(_CHUNK, nb) of them, plus two rows each;
    # the offsets read (the sites of a chunk and its pairs, the blocks) are
    # fewer
    work.fit(min(max(_CHUNK, nb), nb * widest) + 2 * nb)
    offsets = work.offsets
    # each block's pair (u(n), u(n-1)) at the end n of the last window,
    # rescaled if n was a cut; the log scale at the last site yielded; the
    # logs of divisors at a window's last site
    end_a, end_b = np.full(nb, u1), np.full(nb, u0)
    total, pending = np.zeros(nb), np.zeros(nb)
    carried = scaled = False  # pending holds a log; total does
    buf = np.empty((3, nb, widest)) if out is None else out
    grow = _CHUNK  # sets the next chunk length
    lo = 1
    for hi in ends:
        cur, prev, scale = buf[:, :, :hi - lo + 1]
        # until the cumsum, scale holds increments of the log scale
        scale[...] = 0.0
        if carried:
            scale[:, 0], pending[...] = pending, 0.0
        rescaled, carried = carried, False
        k0 = k = max(lo - 1, 1)
        if lo == 1:
            cur[:, 0], prev[:, 0] = u1, u0
        # the blocks short of the window end, each at its site k (one int
        # for all until a step searches for cuts) with the pair (a, b) =
        # (u(k), u(k-1)) it continues from and its energy e
        ids, a, b, e = offsets[:nb if k0 < hi else 0], end_a, end_b, es
        if ids.size:
            v = values(k0, hi - 1)  # v[i] = V(k0 + i)
        while ids.size:
            n_act = ids.size
            one_site = not isinstance(k, np.ndarray)
            left = hi - k
            fewest, most = (left, left) if one_site else (int(left.min()), int(left.max()))
            chunk = min(max(1, _CHUNK // n_act), grow, most)
            if work.band.shape[:2] != (n_act, chunk + 2):
                # a solve of the last shape left every entry but the couplings
                work.band = _band(n_act, chunk + 2, work.band_buf)
            band = work.band
            w = band[:, 1:-1, 1]
            if fewest == most:  # every block at site hi - most: one slice of v
                np.subtract(v[hi - most - k0:hi - most - k0 + chunk], e, out=w)
            else:
                sites = k[:, None] + offsets[:chunk]
                np.subtract(v[np.minimum(sites, hi - 1) - k0], e, out=w)
                if chunk > fewest:
                    w[sites >= hi] = 0.0  # past a block's end: a bounded filler
            # pair at site k + j: y[:, j+1], y[:, j]
            y = _solve(band, b, a, work.y_buf[:n_act * (chunk + 2)].reshape(n_act, -1))
            # the last y.size entries of band_buf lie past the band
            ay = np.abs(y, out=work.band_buf[-y.size:].reshape(y.shape))
            inside = (np.maximum.reduce(ay, None) <= _RESCALE_HI
                      and np.minimum.reduce(ay, None) >= _RESCALE_LO)
            if inside and one_site:
                # every pair inside the band and every block (all nb of them)
                # at one site: none is cut, one stretch for all
                cur[:, k + 1 - lo:k + chunk + 1 - lo] = y[:, 2:]
                prev[:, k + 1 - lo:k + chunk + 1 - lo] = y[:, 1:-1]
                a, b, k = y[:, -1].copy(), y[:, -2].copy(), k + chunk
                grow = max(grow, chunk) * 5 // 4 + 16  # the rule below, uncut
                if k == hi:
                    end_a, end_b = a, b
                    break
                continue
            k = np.full(n_act, k)
            last = np.minimum(hi - k, chunk)  # the block's last site is k + last
            rows = offsets[:n_act]
            if inside:
                cut, j, mj = np.zeros(n_act, dtype=bool), last, np.ones(n_act)
            else:
                # a block that left the float range ends non-finite, and so
                # do the blocks after it, which read nan through the zero
                # couplings
                over = ~np.isfinite(y[:, -1])
                i = 0
                while over[i:-1].any():
                    i += int(over[i:-1].argmax()) + 1
                    y[i:] = _solve(band[i:], b[i:], a[i:], y[i:])
                    np.abs(y[i:], out=ay[i:])
                    over[i:] = ~np.isfinite(y[i:, -1])
                m = np.maximum(ay[:, 1:], ay[:, :-1])
                off = (m > _RESCALE_HI) | ((m < _RESCALE_LO) & (m != 0.0))
                if chunk > fewest:
                    off[offsets[:chunk + 1] > last[:, None]] = False
                if hi == n_sites and chunk >= fewest:
                    # site n_sites is rescaled only on overflow
                    end = np.flatnonzero(last == hi - k)
                    off[end, last[end]] = ~np.isfinite(m[end, last[end]])
                cut = off.any(axis=1)
                j = np.where(cut, off.argmax(axis=1), last)
                if over.any():  # the step overflowed: rescale the pair before it
                    j -= cut & (j > 0) & ~np.isfinite(m[rows, j])
                # the rescaled pairs: dividing by 1 leaves the others exact
                mj = np.where(cut, m[rows, j], 1.0)
            for i, bk, kb, jb, c, d in zip(rows.tolist(), ids.tolist(),
                                           k.tolist(), j.tolist(),
                                           cut.tolist(), mj.tolist()):
                if jb:
                    cur[bk, kb + 1 - lo:kb + jb + 1 - lo] = y[i, 2:jb + 2]
                    prev[bk, kb + 1 - lo:kb + jb + 1 - lo] = y[i, 1:jb + 1]
                if c:
                    # ln of the divisor at the first site after the rescale
                    if kb + jb < hi:
                        rescaled = True
                        scale[bk, kb + jb + 1 - lo] += math.log(d)
                    else:
                        carried = True
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
                ids, k, a, b, e = (x[going] for x in (ids, k, a, b, e))
        if rescaled:
            scale[:, 0] += total
            np.cumsum(scale, axis=1, out=scale)
            total, scaled = scale[:, -1].copy(), True
        elif scaled:
            scale[...] = total[:, None]
        yield cur, prev, scale
        lo = hi + 1


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
    It is the driver on the mirrored sites: windows of _CHUNK sites up to
    the sites kept, which form one last window, and the pairs of that
    window are returned.
    Returns (un, um, ln_scale) for the sites n = 1..n_record <= M (slot 0 =
    nan): the pair (u(n), u(n-1)) equals exp(ln_scale[n]) * (un[n], um[n]),
    so (u(0), u(1)) = exp(ln_scale[1]) * (um[1], un[1]).  The pair is
    rescaled by the rule of :func:`_forward_windows`: once
    max(|u(n)|, |u(n-1)|) leaves [_RESCALE_LO, _RESCALE_HI] (unless it is
    0), so it never overflows and ln R stays exact.
    """
    # forwards on the mirrored sequence w(k) = u(M + 1 - k), W(k) = V(M + 1 - k)
    def mirrored(k_lo, k_hi):
        n = (n_launch + 1 - np.arange(k_lo, k_hi + 1)).astype(np.float64)
        return amp * np.sin(omega * n + delta) / n

    n_sites = n_launch + 1
    # mirrored site k = M + 2 - n holds (w(k), w(k-1)) = (u(n-1), u(n)).
    # _forward_windows runs _CHUNK-wide windows up to the kept sites
    # n_record..1, then those as one last window, each written to the front
    # of a reversed buffer: the last one lands in (um, un) read backwards,
    # at buffer index width - n_record + n
    width = max(n_record, _CHUNK)
    buf = np.empty((3, width + 1))
    ends = _ends(0, n_sites - n_record, _CHUNK) + [n_sites]
    for _ in _forward_windows(mirrored, [E], u_next, u_launch, ends,
                              buf[:, None, :0:-1]):
        pass
    um, un, ln_scale = out = buf[:, width - n_record:]
    out[:, 0] = np.nan  # slot 0: a column of an earlier window
    return un, um, ln_scale


def sturm_counts(diag, shifts):
    """Eigenvalues strictly below each shift of the Jacobi matrix with
    diagonal d(1..N) = diag and unit off-diagonal, by node counting:
    w(k+1) = (E - d(k)) w(k) - w(k-1) from (0, 1) is det(E - J_k) (Barth,
    Martin & Wilkinson, Numer. Math. 9, 1967).  Step k = 1..N counts when
    w(k), w(k+1) agree in sign bit (a product can underflow) or w(k) = 0,
    but not when w(k+1) = 0.  Every diag - shift must be finite.  The
    shifts are the energies of one driver call, with V = d, counted window
    by window.
    """
    counts = np.zeros(shifts.shape[0], dtype=np.intp)
    windows = _forward_windows(lambda n_lo, n_hi: diag[n_lo - 1:n_hi], shifts,
                               0.0, 1.0, _ends(0, diag.shape[0] + 1, _CHUNK))
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
