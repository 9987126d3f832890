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
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, eigvalsh_tridiagonal

from . import _kernels
from .errors import (
    NoConvergence,
    ParamOutOfRange,
    SubcriticalAmplitude,
    ZeroInitial,
)
from .operators import (JacobiMatrix, OperatorSpec, Potential, _instance,
                        _instances, _int, _real, make_potential)
from .prufer import (
    SpectralParam,
    _onsets,
    _ln_r,
    _param_fields,
    boundary_values,
)

DISTINCT_TOL = 1e-8  # records this close in E are one eigenvalue


def _checked_diagonal(J: JacobiMatrix, *shifts: float) -> np.ndarray:
    """The diagonal d of J, nonempty and finite, with d - E finite for each
    shift E (rounding is monotone: checking min(d) and max(d) suffices)."""
    _instance(J, JacobiMatrix, "J")
    d = J.diagonal
    if d.size == 0:
        raise ParamOutOfRange("Jacobi matrix must not be empty")
    if not np.isfinite(d).all():
        raise ParamOutOfRange("Jacobi diagonal must be finite")
    if not all(math.isfinite(float(v) - E) for v in (d.min(), d.max()) for E in shifts):
        raise ParamOutOfRange(f"diagonal - E is not finite for E in {shifts}")
    return d


def sturm_count(J: JacobiMatrix, E: float) -> int:
    """Number of eigenvalues of J strictly below E (Sturm node count)."""
    E = _real(E, "E")
    return int(_kernels.sturm_counts(_checked_diagonal(J, E), np.array([E]))[0])


def eigenvalues_in_window(J: JacobiMatrix, window: tuple) -> np.ndarray:
    """Eigenvalues of J in the window, ascending.

    The window is the index set fixed by Sturm counts at its ends:
    indices [count(lo), count(hi)), so an eigenvalue exactly at lo is kept
    and one exactly at hi is dropped.  The values are those entries of one
    call to LAPACK's all-eigenvalue driver (scipy's default for
    eigvalsh_tridiagonal).  That costs O(N^2) whatever the window's width;
    the windows this toolkit runs are the full band (-2, 2) or wider.
    """
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise ParamOutOfRange(f"window must be a pair, got {window!r}") from None
    lo, hi = _real(lo, "window[0]"), _real(hi, "window[1]")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParamOutOfRange(f"window ends must be finite, got ({lo}, {hi})")
    d = _checked_diagonal(J, lo, hi)
    c_lo, c_hi = (int(c) for c in _kernels.sturm_counts(d, np.array([lo, hi])))
    if c_hi <= c_lo:
        return np.empty(0)
    try:
        return eigvalsh_tridiagonal(d, np.ones(d.size - 1))[c_lo:c_hi]
    except LinAlgError as exc:
        raise NoConvergence(f"eigvalsh_tridiagonal: {exc}") from exc


def eigenvector(J: JacobiMatrix, E: float) -> np.ndarray:
    """Unit eigenvector of the eigenvalue of J nearest E, largest component
    positive.

    E must sit within t = 1e-10 * (max|d| + 2) of a true eigenvalue; LAPACK
    (bisection, then inverse iteration in stein) finds the eigenpairs in
    (E - t, E + t].
    """
    E = _real(E, "E")
    if not math.isfinite(E):
        raise ParamOutOfRange(f"E must be finite, got {E}")
    d = _checked_diagonal(J)
    bound = float(np.max(np.abs(d))) + 2.0  # Gershgorin: |eigenvalue| <= bound
    t = 1e-10 * bound
    # beyond the bound no eigenvalue is near, and (E - t, E + t) may round
    # to an empty interval that LAPACK rejects
    if abs(E) > bound + t:
        raise NoConvergence(f"{E} lies outside the spectral bound {bound:.6g}")
    try:
        w, vecs = eigh_tridiagonal(d, np.ones(d.size - 1), select="v",
                                   select_range=(E - t, E + t))
    except LinAlgError as exc:
        raise NoConvergence(f"stein: {exc}") from exc
    if w.size == 0:
        raise NoConvergence(f"no eigenvalue within {t:.3e} of {E}")
    v = vecs[:, int(np.argmin(np.abs(w - E)))]
    return -v if v[np.argmax(np.abs(v))] < 0 else v


@dataclass(frozen=True)
class Certificate:
    """Tail-norm checkpoint result in the R(1)-normalized scale."""

    n_star: int
    rn_sq: float
    passed: bool


@dataclass(frozen=True)
class EigenvalueRecord:
    """One candidate eigenvalue with its decay evidence.

    weight = 1 - E^2/4 = sin^2(x); decay_exponent is the negated
    least-squares slope of ln R against ln n (positive means decay), None
    when the fit window holds fewer than two sites.
    """

    E: float
    x: Optional[float]
    weight: float
    certificate: Certificate
    decay_exponent: Optional[float] = None
    r1: Optional[float] = None


@dataclass(frozen=True)
class EigenvalueSet:
    """Distinct eigenvalue records, ascending in E."""

    records: tuple


def theorem_weight(E: float) -> float:
    """Weight 1 - E^2/4 of an eigenvalue; equals sin^2(x) for E = 2cos(x)."""
    E = _real(E, "E")
    return 1.0 - E * E / 4.0


def _cert_rank(rec: EigenvalueRecord) -> tuple:
    # better certificate first: passed, then smaller N* x R(N*)^2 margin
    return (not rec.certificate.passed, rec.certificate.n_star * rec.certificate.rn_sq)


def make_eigenvalue_set(records) -> EigenvalueSet:
    """Sort records by E and merge numerical duplicates (energies within
    DISTINCT_TOL), keeping the better certificate of each merged cluster."""
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


def _decay_exponents(ln_r: np.ndarray, n_lo: int) -> list:
    """Negated least-squares slopes of ln R against ln n, one per row of
    ln_r, given on the sites n_lo, n_lo + 1, ...; the bits do not depend on
    the memory layout of ln_r."""
    # row means and dot products sum in another order on other layouts
    ln_r = np.ascontiguousarray(ln_r)
    t = np.log(np.arange(n_lo, n_lo + ln_r.shape[1]))
    t_c = t - t.mean()
    tt = np.dot(t_c, t_c)
    dev = ln_r - ln_r.mean(axis=1, keepdims=True)
    return [-float(np.dot(t_c, d) / tt) for d in dev]


def _checked_checkpoints(n: int, checkpoints) -> list:
    """Checkpoints as sorted ints in [2, N], or the default ladder."""
    if checkpoints is None:
        return default_checkpoints(n)
    try:
        cps = sorted(operator.index(c) for c in checkpoints)
    except TypeError:
        raise ParamOutOfRange("checkpoints must be integers") from None
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
    slow rotation.  The recorded (N*, R(N*)^2) pair is the eligible
    checkpoint with the best margin, so passed <=> rn_sq <= 1/n_star holds
    for the stored values either way; with no eligible checkpoint it is
    (0, nan) and the certificate fails.  The decay exponent is fitted over
    [max(2, N/2), N].

    V is evaluated once, and every onset is read off its block maxima.
    The energies are evolved in groups of G = max(1, _CHUNK // N), each by
    one batched driver call (``_kernels._forward_windows``) into the same
    (3, G, N) pair buffer; the pairs at site 1, the checkpoints and the fit
    window are gathered into one more buffer, and ln R is formed only
    there.  Both buffers are allocated once per call, so no group allocates
    an output of its own.  Each record equals the one a single-energy
    evolution gives.
    """
    _instance(spec, OperatorSpec, "spec")
    try:
        es = [_real(E, "E") for E in energies]
    except TypeError:
        raise ParamOutOfRange(
            f"energies must be an iterable of reals, got {energies!r}") from None
    for E in es:
        if not -2.0 < E < 2.0:
            raise ParamOutOfRange(f"E must lie in (-2, 2), got {E}")
    n = spec.n
    cps = _checked_checkpoints(n, checkpoints)
    # (x, E, sin x) of SpectralParam.from_energy, without an object each
    xs, e_x, sin_x = np.array(
        [_param_fields(math.acos(E / 2.0)) for E in es]).reshape(-1, 3).T
    V = spec.potential.value_array(n)
    fit_lo = max(2, n // 2)
    # a slope needs at least two sites (the window is a single site at N=2)
    fit_sites = np.arange(fit_lo, n + 1) if n > fit_lo else np.arange(0)
    sites = np.concatenate(([1], cps, fit_sites))
    u0, u1 = boundary_values(spec.phi)
    onsets = _onsets(V[1:], sin_x)
    group = max(1, _kernels._CHUNK // n)
    # every group stores into buffers allocated once: the pairs at sites
    # 1..N and the pairs at the sites read
    size = min(group, len(es))
    pairs = np.empty((3, size, n))
    taken = np.empty(3 * size * sites.size)
    records = []
    for g in range(0, len(es), group):
        at = slice(g, g + group)
        k = len(es[at])
        out = pairs[:, :k]
        for _ in _kernels._forward_windows(V, e_x[at], u0, u1, [n], out):
            pass
        # the sites are in range, so mode="clip" only lets take write into
        # its C-contiguous out without a buffer
        un, um, ln_scale = np.take(
            out, sites - 1, axis=2, mode="clip",
            out=taken[:3 * k * sites.size].reshape(3, k, -1))
        ln_r = _ln_r(un, um, ln_scale, e_x[at, None] / 2.0, sin_x[at, None])
        ln_rel = ln_r - ln_r[:, :1]
        decay = (_decay_exponents(ln_rel[:, 1 + len(cps):], fit_lo)
                 if fit_sites.size else [None] * k)
        for x, E, onset, at_cps, ln_r1, dec in zip(
                xs[at].tolist(), es[at], onsets[at].tolist(),
                ln_rel[:, 1:1 + len(cps)].tolist(), ln_r[:, 0].tolist(), decay):
            best = (None, 0, math.nan)
            for c, v in zip(cps, at_cps):
                if onset == 0 or c < onset:
                    continue
                try:
                    rn_sq = math.exp(2.0 * v)
                except OverflowError:  # R grew past the float range by site c
                    rn_sq = math.inf
                margin = c * rn_sq  # <= 1 means the certificate holds here
                if best[0] is None or margin < best[0]:
                    best = (margin, c, rn_sq)
            _, n_star, rn_sq = best
            records.append(EigenvalueRecord(
                E=E,
                x=x,
                weight=theorem_weight(E),
                certificate=Certificate(
                    n_star=n_star, rn_sq=rn_sq,
                    passed=n_star > 0 and rn_sq <= 1.0 / n_star),
                decay_exponent=dec,
                r1=math.exp(ln_r1),
            ))
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
    x, c, n = _real(x, "x"), _real(c, "c"), _int(n, "N")
    if not 0.0 < x < math.pi:
        raise ParamOutOfRange(f"x must lie in (0, pi), got {x}")
    if not math.isfinite(c):
        raise ParamOutOfRange(f"amplitude c must be finite, got {c}")
    param = SpectralParam.from_x(x)
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
    fitted = _decay_exponents(ln_r[None], fit_lo)[0]
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
