"""Eigenvalues of truncated operators and decay certificates.

Truncation eigenvalues densely fill (-2, 2) and are not eigenvalues of the
half-line operator, so candidate embedded eigenvalues must earn a decay
certificate before they enter any eigenvalue-sum bound: the trajectory is
evolved to N with log-scale accumulation and the R(1)-normalized tail is
tested against R(N*)^2 <= 1/N* at user-chosen checkpoints.  The checkpoint
device is a faithful but heuristic rendering of the underlying liminf
argument, and reports say so via the certificate fields rather than
pretending to decide square-summability.

``classify_spectrum`` certifies many candidates on one operator at once:
one potential evaluation, one onset scan and batched evolutions that read
ln R only where the certificate and the decay fit look;
``classify_point_spectrum`` is its one-energy case.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import compress
from typing import Optional

import numpy as np

from . import _kernels
from .errors import (
    NoConvergence,
    ParamOutOfRange,
    SubcriticalAmplitude,
    ZeroInitial,
)
from .operators import (JacobiMatrix, OperatorSpec, Potential, _instance,
                        _instances, _int, _real, _shown, make_potential)
from .prufer import (
    SpectralParam,
    _energy,
    _onsets,
    _ln_r,
    _param_fields,
    boundary_values,
)

DISTINCT_TOL = 1e-8  # records this close in E are one eigenvalue


def _checked_diagonal(J: JacobiMatrix, *shifts: float) -> np.ndarray:
    """The diagonal d of J, with d - E finite for each shift E (rounding is
    monotone: checking min(d) and max(d) suffices)."""
    _instance(J, JacobiMatrix, "J")
    d = J.diagonal
    if not all(math.isfinite(float(v) - E) for v in (d.min(), d.max()) for E in shifts):
        raise ParamOutOfRange(f"diagonal - E is not finite for E in {shifts}")
    return d


def eigenvalues_in_window(J: JacobiMatrix, window: tuple) -> np.ndarray:
    """Eigenvalues of J in the window, ascending.

    The window is the index set fixed by Sturm counts at its ends:
    indices [count(lo), count(hi)), so an eigenvalue exactly at lo is kept
    and one exactly at hi is dropped.  The values are those entries of one
    call to LAPACK's all-eigenvalue driver ``dstevd`` (``_kernels.dstevd``):
    the call that scipy 1.17's eigvalsh_tridiagonal makes by default, with
    its 1 x 1 shortcut, pinned whatever scipy's default becomes.  A nonzero
    info raises NoConvergence.  That costs O(N^2) whatever the window's
    width; the windows this toolkit runs are the full band (-2, 2) or
    wider.
    """
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise ParamOutOfRange(f"window must be a pair, got {_shown(window)}") from None
    lo, hi = _real(lo, "window[0]"), _real(hi, "window[1]")
    d = _checked_diagonal(J, lo, hi)
    c_lo, c_hi = (int(c) for c in _kernels.sturm_counts(d, np.array([lo, hi])))
    if c_hi <= c_lo:
        return np.empty(0)
    if d.size == 1:  # dstevd rejects the empty off-diagonal
        return d.copy()
    w, _, info = _kernels.dstevd(d, np.ones(d.size - 1), compute_v=0)
    if info != 0:
        raise NoConvergence(f"LAPACK dstevd returned info = {info}")
    return w[c_lo:c_hi]


@dataclass(frozen=True)
class Certificate:
    """Tail-norm checkpoint evidence in the R(1)-normalized scale: the
    eligible checkpoint N* with the best margin and R(N*)^2 there, or
    (0, nan) when no checkpoint was eligible.

    n_star must be an integer in the int64 range and rn_sq a real number in
    the float range (nan and +-inf allowed), else ParamOutOfRange; they are
    stored as int and float, so passed never raises."""

    n_star: int
    rn_sq: float

    def __post_init__(self):
        object.__setattr__(self, "n_star", _int(self.n_star, "n_star"))
        rn_sq = self.rn_sq
        try:
            # float and int first, as in _real
            rn_sq = (float(rn_sq) if isinstance(rn_sq, (float, int, numbers.Real))
                     else None)
        except OverflowError:  # an integer beyond the float range
            rn_sq = None
        if rn_sq is None:
            raise ParamOutOfRange("rn_sq must be a real number in the float "
                                  f"range, got {_shown(self.rn_sq)}")
        object.__setattr__(self, "rn_sq", rn_sq)

    @property
    def passed(self) -> bool:
        """The certificate rule: R(N*)^2 <= 1/N* at an eligible N*."""
        n_star, rn_sq = self.n_star, self.rn_sq
        return n_star > 0 and rn_sq <= 1.0 / n_star


@dataclass(frozen=True)
class EigenvalueRecord:
    """One candidate eigenvalue with its decay evidence.

    Only measurements are stored: weight, x and certificate.passed follow
    from E and the certificate's (N*, R(N*)^2), so a record cannot
    contradict itself.  E must be a finite real number, stored as a float,
    and certificate a Certificate, else ParamOutOfRange, so the derived
    values never raise.  decay_exponent is the negated least-squares slope
    of ln R against ln n (positive means decay), None when the fit window
    holds fewer than two sites; r1 is R(1), None outside (-2, 2).
    """

    E: float
    certificate: Certificate
    decay_exponent: Optional[float] = None
    r1: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "E", _real(self.E, "E"))
        _instance(self.certificate, Certificate, "certificate")

    @property
    def weight(self) -> float:
        """1 - E^2/4 = sin^2(x) (:func:`theorem_weight`)."""
        return theorem_weight(self.E)

    @property
    def x(self) -> Optional[float]:
        """acos(E/2) for E inside (-2, 2), else None."""
        return math.acos(self.E / 2.0) if -2.0 < self.E < 2.0 else None


@dataclass(frozen=True)
class EigenvalueSet:
    """Distinct eigenvalue records, ascending in E."""

    records: tuple


def theorem_weight(E: float) -> float:
    """Weight 1 - E^2/4 of an eigenvalue; equals sin^2(x) for E = 2cos(x).

    E must be a finite real number (ParamOutOfRange otherwise, nan and
    +-inf included)."""
    E = _real(E, "E")
    return 1.0 - E * E / 4.0


def _cert_rank(rec: EigenvalueRecord) -> tuple:
    # better certificate first: passed, then smaller N* x R(N*)^2 margin
    return (not rec.certificate.passed, rec.certificate.n_star * rec.certificate.rn_sq)


def make_eigenvalue_set(records) -> EigenvalueSet:
    """Sort records by E and merge numerical duplicates (energies within
    DISTINCT_TOL), keeping the better certificate of each merged cluster.

    records must be EigenvalueRecords (ParamOutOfRange otherwise); each
    checked its own fields when it was built."""
    records = _instances(records, EigenvalueRecord, "records")
    ordered = sorted(records, key=lambda r: r.E)
    merged = []
    for rec in ordered:
        if merged and abs(rec.E - merged[-1].E) <= DISTINCT_TOL:
            if _cert_rank(rec) < _cert_rank(merged[-1]):
                merged[-1] = rec
        else:
            merged.append(rec)
    return EigenvalueSet(records=tuple(merged))


def default_checkpoints(n: int) -> list:
    """Geometric checkpoint ladder 100, 1000, ... capped and ending at N."""
    pts = []
    p = 100
    while p < n:
        pts.append(p)
        p *= 10
    pts.append(n)
    return [q for q in pts if 2 <= q <= n]


def _centred_log_sites(n_lo: int, n_hi: int) -> tuple:
    """(t_c, tt) of the decay fit over the sites n_lo..n_hi: t_c = t - mean(t)
    for t = ln n, and tt = sum(t_c^2), the same for every row fitted."""
    t = np.log(np.arange(n_lo, n_hi + 1))
    t_c = t - t.mean()
    return t_c, np.sum(t_c * t_c)


def _decay_exponents(ln_r: np.ndarray, t_c: np.ndarray, tt: float) -> list:
    """Negated least-squares slopes of ln R against ln n, one per row of
    ln_r, given on the sites of (t_c, tt) = :func:`_centred_log_sites`; the
    bits of a row do not depend on the memory layout of ln_r, its other
    rows or the BLAS thread count."""
    # row sums run in another order on other layouts; BLAS dot products
    # split long vectors among its threads, so numpy's pairwise sums are used
    # (np.add.reduce: np.sum's and np.mean's sum without their wrappers)
    ln_r = np.ascontiguousarray(ln_r)
    dev = ln_r - np.add.reduce(ln_r, axis=1, keepdims=True) / ln_r.shape[1]
    dev *= t_c
    return (np.add.reduce(dev, axis=1) / -tt).tolist()


def _checked_checkpoints(n: int, checkpoints) -> list:
    """Checkpoints as sorted ints in [2, N], or the default ladder."""
    if checkpoints is None:
        return default_checkpoints(n)
    try:
        cps = sorted(_int(c, "checkpoint") for c in checkpoints)
    except TypeError:
        raise ParamOutOfRange(f"checkpoints must be an iterable of integers, "
                              f"got {_shown(checkpoints)}") from None
    if not cps:
        raise ParamOutOfRange("need at least one checkpoint")
    if cps[0] < 2 or cps[-1] > n:
        raise ParamOutOfRange(
            f"checkpoints must lie in [2, {n}], got [{cps[0]}, {cps[-1]}]")
    return cps


def classify_spectrum(spec: OperatorSpec, energies,
                      checkpoints=None) -> list:
    """Decay certificates of candidate energies: one EigenvalueRecord per
    energy, in input order.

    Each E in (-2, 2) is evolved to N and the tail-norm certificate is
    tested at each checkpoint.  It passes if R(N*)^2 <= 1/N* at some
    eligible checkpoint N*, with R measured relative to R(1).  A checkpoint
    is eligible from the hypothesis onset on, the first site from which
    |nu| = |V|/sin x stays below 1/2: before it R may merely dip during a
    slow rotation.  The record stores only the evidence: E, the eligible
    checkpoint with the best margin and its R(N*)^2, (0, nan) when none
    is eligible, the decay exponent, fitted over [max(2, N/2), N], and
    R(1).  Its weight, x and certificate.passed are derived from them; the
    record and its Certificate check these fields when they are built, as a
    hand-built record does.

    V is evaluated once, and every onset is found in one backward pass
    over it (``prufer._block_onsets``); one array comparison of onsets and
    checkpoints marks the eligible ones.
    The energies are evolved in groups of G = max(1, _CHUNK // N), each by
    one call of the driver (``_kernels._forward_windows``, which forms
    V - E itself) into the same (3, G, N) pair buffer, allocated once per
    call, on one driver workspace for all groups, so the band's constant
    entries are set once per shape.  ln R is formed only where it is read:
    over the fit window, from the pair buffer in place into a
    (G, N - N/2 + 1) buffer of the call, and at the checkpoints, whose
    pairs each group copies into one small (3, len(energies),
    len(checkpoints)) buffer.  ln R(1) is that of the start pair (u(1), u(0)), which the
    driver stores at site 1 unscaled.  The fit's centred ln n and its
    sum of squares are formed once per call (:func:`_centred_log_sites`).
    R(N*)^2 and R(1) are taken with ``math.exp``.  Each record equals the
    one a single-energy evolution gives.
    """
    _instance(spec, OperatorSpec, "spec")
    try:
        es = [_energy(E) for E in energies]
    except TypeError:
        raise ParamOutOfRange(
            f"energies must be an iterable of reals, got {_shown(energies)}") from None
    n = spec.n
    cps = _checked_checkpoints(n, checkpoints)
    # (E, sin x) of SpectralParam.from_energy, without an object each
    _, e_x, sin_x = np.array(
        [_param_fields(math.acos(E / 2.0)) for E in es]).reshape(-1, 3).T
    cos_x, sin_x = e_x[:, None] / 2.0, sin_x[:, None]
    V = spec.potential.value_array(n)
    fit_lo = max(2, n // 2)
    # a slope needs at least two sites (the window is a single site at N=2)
    fit = _centred_log_sites(fit_lo, n) if n > fit_lo else None
    u0, u1 = boundary_values(spec.phi)
    # the driver stores site 1 as the start pair (u(1), u(0)) at scale 0
    ln_r1 = _ln_r(u1, u0, 0.0, cos_x, sin_x)
    onsets = _onsets(V[1:], sin_x[:, 0])[:, None]
    # a checkpoint is eligible from the energy's onset on, never without one
    eligible = (onsets != 0) & (onsets <= cps)
    group = max(1, _kernels._CHUNK // n)
    # a group's pairs at sites 1..N and its ln R over the fit window, the
    # pairs at the checkpoints of all energies, and one driver workspace
    pairs = np.empty((3, min(group, len(es)), n))
    ln_fits = np.empty((pairs.shape[1], n - fit_lo + 1))
    at_cps, cols = np.empty((3, len(es), len(cps))), np.subtract(cps, 1)
    work = _kernels._Workspace()
    decay = [None] * len(es)
    for g in range(0, len(es), group):
        at = slice(g, g + group)
        out = pairs[:, :len(es[at])]
        for _ in _kernels._forward_windows(V, e_x[at], u0, u1, [n], out, work):
            pass
        at_cps[:, at] = out[:, :, cols]
        if fit is not None:  # ln R/R(1) over the fit window, read in place
            ln_fit = _ln_r(*out[:, :, fit_lo - 1:], cos_x[at], sin_x[at],
                           out=ln_fits[:out.shape[1]])
            ln_fit -= ln_r1[at]
            decay[at] = _decay_exponents(ln_fit, *fit)
    records = []
    for E, ok, ln_rel, r1, dec in zip(
            es, eligible.tolist(), (_ln_r(*at_cps, cos_x, sin_x) - ln_r1).tolist(),
            ln_r1[:, 0].tolist(), decay):
        best = (None, 0, math.nan)
        for c, v in compress(zip(cps, ln_rel), ok):
            try:
                rn_sq = math.exp(2.0 * v)
            except OverflowError:  # R grew past the float range by site c
                rn_sq = math.inf
            margin = c * rn_sq  # <= 1 means the certificate holds here
            if best[0] is None or margin < best[0]:
                best = (margin, c, rn_sq)
        _, n_star, rn_sq = best
        # (E, certificate, decay_exponent, r1) and (n_star, rn_sq) by
        # position: keywords cost about 0.5 us a record, 1001 of them
        records.append(EigenvalueRecord(E, Certificate(n_star, rn_sq), dec,
                                        math.exp(r1)))
    return records


def classify_point_spectrum(spec: OperatorSpec, E: float,
                            checkpoints=None) -> EigenvalueRecord:
    """The record of one energy: ``classify_spectrum(spec, [E],
    checkpoints)[0]``, the certificate rule documented there."""
    return classify_spectrum(spec, [E], checkpoints)[0]


@dataclass(frozen=True)
class ResonanceConstruction:
    """A resonant potential carrying one embedded eigenvalue at E = 2cos(x)."""

    potential: Potential
    phi: float
    E: float
    predicted_exponent: float
    fitted_exponent: float
    delta: float


def resonance_construct(x: float, c: float, n: int) -> ResonanceConstruction:
    """Engineer a potential with a decaying solution at E = 2 cos(x).

    The potential family is c*sin(2x*n + delta)/n.  Amplitude-to-frequency
    resonance locks the Prufer angle of one solution at
    theta(n) + x = x*n + delta/2, and along it ln R drifts like
    -(c / (4 sin x)) ln n for every delta, except at the degenerate
    frequency 2x = pi, where the rate is c*|sin(delta)|/2.  The decay is
    square-summable when the exponent exceeds 1/2, i.e. when c > 2 sin(x).

    Both facts are used in closed form.  The phase is
    delta = pi + copysign(pi/6, cos x): |sin(delta)| = 1/2 makes the
    degenerate rate equal the generic law, and giving sin(delta) the sign
    opposite to cos(x) keeps R(N)/R(1) small near the band edges (the
    family is mirror-symmetric under x -> pi - x, delta -> -delta).  One
    backward pass is launched at M = 16N on the locked angle
    theta(M+1) = x*M + delta/2, so it starts on the decaying branch; the
    fitted exponent is the negated slope of ln R against ln n over
    [min(1000, max(10, N/100)), N].  The boundary phase phi is read off the
    solution's (u(0), u(1)).

    Known limit: near the degenerate frequency, for
    0.1 <~ |pi - 2x| * N <~ 10, the fit window sees neither regime and the
    fitted exponent can miss the law by far more than 5%.
    """
    param, c, n = SpectralParam.from_x(x), _real(c, "c"), _int(n, "N")
    x = param.x
    if c <= 2.0 * param.sin_x:
        raise SubcriticalAmplitude(
            f"need c > 2 sin(x) = {2.0 * param.sin_x:.6g}, got {c}")
    if n < 100:
        raise ParamOutOfRange(f"need N >= 100, got {n}")
    omega = 2.0 * x
    delta = math.pi + math.copysign(math.pi / 6.0, param.cos_x)
    potential = make_potential("resonant", c=c, omega=omega, delta=delta)

    # the launch sits 16x beyond N so contamination by the other branch
    # stays below a percent at site N
    launch = 16 * n
    theta = x * launch + 0.5 * delta
    u_launch = math.sin(theta) / param.sin_x
    u_next = math.cos(theta) + u_launch * param.cos_x
    un, um, ln_scale = _kernels.backward_resonant(
        c, omega, delta, param.E, u_next, u_launch, launch, n)
    fit_lo = min(1000, max(10, n // 100))
    ln_r = _ln_r(un[fit_lo:], um[fit_lo:], ln_scale[fit_lo:], param.cos_x,
                 param.sin_x)
    fitted = _decay_exponents(ln_r[None], *_centred_log_sites(fit_lo, n))[0]
    phi = math.atan2(-un[1], um[1]) % math.pi
    if phi == 0.0:
        raise ZeroInitial("degenerate boundary pair: no admissible phase")

    return ResonanceConstruction(
        potential=potential,
        phi=phi,
        E=param.E,
        predicted_exponent=c / (4.0 * param.sin_x),
        fitted_exponent=fitted,
        delta=delta,
    )
