"""Eigenvalues of truncated operators and decay certificates.

Truncation eigenvalues densely fill (-2, 2) and are not eigenvalues of the
half-line operator, so candidate embedded eigenvalues must earn a decay
certificate before they enter any eigenvalue-sum bound: the trajectory is
evolved to N with log-scale accumulation and the R(1)-normalized tail is
tested against R(N*)^2 <= 1/N* at user-chosen checkpoints.  The checkpoint
device is a faithful but heuristic rendering of the underlying liminf
argument, and reports say so via the certificate fields rather than
pretending to decide square-summability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal, solve_banded

from . import _kernels
from .errors import (
    NoConvergence,
    ParamOutOfRange,
    SubcriticalAmplitude,
    TolTooSmall,
    ZeroInitial,
)
from .operators import JacobiMatrix, OperatorSpec, Potential, make_potential
from .prufer import SpectralParam, evolve_trajectory


def sturm_count(J: JacobiMatrix, E: float) -> int:
    """Number of eigenvalues of J strictly below E (guarded Sturm count)."""
    out = _kernels.sturm_counts(J.diagonal, np.array([float(E)]), _kernels.PIVMIN)
    return int(out[0])


def eigenvalues_in_window(J: JacobiMatrix, window: tuple, tol: float = 1e-12) -> np.ndarray:
    """Eigenvalues of J in the window, ascending, each within tol/2 of its
    eigenvalue.

    The window is the index set fixed by guarded Sturm counts at its ends:
    indices [count(lo), count(hi)), so an eigenvalue exactly at lo is kept
    and one exactly at hi is dropped.  LAPACK's Sturm bisection (stebz)
    then locates those indices to interval width <= tol.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParamOutOfRange(f"window ends must be finite, got ({lo}, {hi})")
    if not tol > 0.0:
        raise ParamOutOfRange("tol must be positive")
    min_tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0)
    if tol < min_tol:
        raise TolTooSmall(f"tol {tol} below machine resolution {min_tol:.3e}")
    d = J.diagonal
    if not np.isfinite(d).all():
        raise ParamOutOfRange("Jacobi diagonal must be finite")
    c_lo, c_hi = (int(v) for v in
                  _kernels.sturm_counts(d, np.array([lo, hi]), _kernels.PIVMIN))
    if c_hi <= c_lo:
        return np.empty(0)
    try:
        return eigvalsh_tridiagonal(
            d, np.ones(d.size - 1), select="i", select_range=(c_lo, c_hi - 1),
            lapack_driver="stebz", tol=tol)
    except LinAlgError as exc:
        raise NoConvergence(f"stebz: {exc}") from exc


def eigenvector(J: JacobiMatrix, E: float, max_iter: int = 50) -> np.ndarray:
    """Unit eigenvector by inverse iteration on the shifted tridiagonal.

    E must sit within bisection tolerance of a true eigenvalue; the
    residual target is 1e-10 * (max|d| + 2).
    """
    n = J.size
    norm_est = float(np.max(np.abs(J.diagonal))) + 2.0
    target = 1e-10 * norm_est
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0
    ab[1, :] = J.diagonal - E
    ab[2, :-1] = 1.0
    # a tiny diagonal nudge keeps the factorization nonsingular at an
    # exact eigenvalue without moving the iteration off target
    ab[1, :] += 1e-14 * norm_est
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        try:
            w = solve_banded((1, 1), ab, v)
        except np.linalg.LinAlgError:
            ab[1, :] += 1e-12 * norm_est
            continue
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            ab[1, :] += 1e-12 * norm_est
            continue
        v = w / nw
        resid = np.linalg.norm(J.apply(v) - E * v)
        if resid <= target:
            if v[np.argmax(np.abs(v))] < 0:
                v = -v
            return v
    raise NoConvergence(
        f"inverse iteration residual above {target:.3e} after {max_iter} steps")


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
    tolerance: float = 1e-8


def theorem_weight(E: float) -> float:
    """Weight 1 - E^2/4 of an eigenvalue; equals sin^2(x) for E = 2cos(x)."""
    return 1.0 - E * E / 4.0


def _cert_rank(rec: EigenvalueRecord) -> tuple:
    # better certificate first: passed, then smaller N* x R(N*)^2 margin
    return (not rec.certificate.passed, rec.certificate.n_star * rec.certificate.rn_sq)


def make_eigenvalue_set(records, tolerance: float = 1e-8) -> EigenvalueSet:
    """Sort records by E and merge numerical duplicates, keeping the
    better certificate of each merged cluster."""
    ordered = sorted(records, key=lambda r: r.E)
    merged = []
    for rec in ordered:
        if merged and abs(rec.E - merged[-1].E) <= tolerance:
            if _cert_rank(rec) < _cert_rank(merged[-1]):
                merged[-1] = rec
        else:
            merged.append(rec)
    return EigenvalueSet(records=tuple(merged), tolerance=tolerance)


def default_checkpoints(n: int) -> list:
    """Geometric checkpoint ladder 100, 1000, ... capped and ending at N."""
    pts = []
    p = 100
    while p < n:
        pts.append(p)
        p *= 10
    pts.append(n)
    return [q for q in pts if 2 <= q <= n]


def _fit_decay_exponent(ln_r: np.ndarray, n_lo: int, n_hi: int) -> float:
    """Negated least-squares slope of ln R over sites [n_lo, n_hi]."""
    sites = np.arange(n_lo, n_hi + 1)
    y = ln_r[n_lo:n_hi + 1]
    t = np.log(sites)
    t_c = t - t.mean()
    slope = float(np.dot(t_c, y - y.mean()) / np.dot(t_c, t_c))
    return -slope


def classify_point_spectrum(spec: OperatorSpec, E: float,
                            checkpoints=None) -> EigenvalueRecord:
    """Evolve at E and test the tail-norm certificate at each checkpoint.

    The certificate passes if R(N*)^2 <= 1/N* at some checkpoint N*, with
    R measured relative to R(1).  The recorded (N*, R(N*)^2) pair is the
    checkpoint with the best margin, so passed <=> rn_sq <= 1/n_star holds
    for the stored values either way.
    """
    E = float(E)
    if not -2.0 < E < 2.0:
        raise ParamOutOfRange(f"E must lie in (-2, 2), got {E}")
    if checkpoints is None:
        checkpoints = default_checkpoints(spec.n)
    cps = sorted(int(c) for c in checkpoints)
    if not cps:
        raise ParamOutOfRange("need at least one checkpoint")
    if cps[0] < 2 or cps[-1] > spec.n:
        raise ParamOutOfRange(
            f"checkpoints must lie in [2, {spec.n}], got [{cps[0]}, {cps[-1]}]")
    param = SpectralParam.from_energy(E)
    traj = evolve_trajectory(spec, param)
    ln_rel = traj.ln_R - traj.ln_R[1]
    best = None
    for c in cps:
        rn_sq = math.exp(2.0 * ln_rel[c])
        margin = c * rn_sq  # <= 1 means the certificate holds here
        if best is None or margin < best[0]:
            best = (margin, c, rn_sq)
    _, n_star, rn_sq = best
    fit_lo = max(2, spec.n // 2)
    # a slope needs at least two sites (the window is a single site at N=2)
    decay = _fit_decay_exponent(ln_rel, fit_lo, spec.n) if spec.n > fit_lo else None
    return EigenvalueRecord(
        E=float(E),
        x=param.x,
        weight=theorem_weight(E),
        certificate=Certificate(n_star=n_star, rn_sq=rn_sq,
                                passed=rn_sq <= 1.0 / n_star),
        decay_exponent=decay,
        r1=traj.r1,
    )


@dataclass(frozen=True)
class ResonanceConstruction:
    """A resonant potential carrying one embedded eigenvalue at E = 2cos(x)."""

    potential: Potential
    phi: float
    E: float
    predicted_exponent: float
    fitted_exponent: float
    delta: float


def _backward_lnr(pot_c: float, omega: float, delta: float,
                  param: SpectralParam, n_launch: int, n_record: int):
    return _kernels.backward_resonant(
        pot_c, omega, delta, param.E, param.cos_x, param.sin_x,
        n_launch, n_record)


def _decay_objective(pot_c, omega, delta, param, n_launch, n_record, fit_lo):
    lnr, _, _ = _backward_lnr(pot_c, omega, delta, param, n_launch, n_record)
    return _fit_decay_exponent(lnr, fit_lo, n_record)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, iters=28):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def resonance_construct(x: float, c: float, n: int,
                        coarse_points: int = 64) -> ResonanceConstruction:
    """Engineer a potential with a decaying solution at E = 2 cos(x).

    The potential family is c*sin(2x*n + delta)/n; amplitude-to-frequency
    resonance locks the Prufer angle so that ln R of one solution drifts
    like -(c / (4 sin x)) ln n, which is square-summable when the exponent
    exceeds 1/2, i.e. when c > 2 sin(x).  delta is tuned by a 64-point
    coarse scan plus golden-section refinement so the fitted decay of the
    backward-launched solution realizes that law.  (At generic x the rate
    is phase-independent and the scan only cleans up transients; at the
    degenerate frequency 2x = pi the family collapses to an alternating
    potential whose rate c*|sin(delta)|/2 does depend on the phase, and the
    scan pins the one matching the generic law.)  The boundary phase phi is
    then read off the decaying solution's (u(0), u(1)).
    """
    if not 0.0 < x < math.pi:
        raise ParamOutOfRange(f"x must lie in (0, pi), got {x}")
    param = SpectralParam.from_x(x)
    if c <= 2.0 * param.sin_x:
        raise SubcriticalAmplitude(
            f"need c > 2 sin(x) = {2.0 * param.sin_x:.6g}, got {c}")
    if n < 100:
        raise ParamOutOfRange(f"need N >= 100, got {n}")
    omega = 2.0 * x
    predicted = c / (4.0 * param.sin_x)

    # stage 1: coarse/refined phase scan at reduced length; the backward
    # launch sits well beyond the fit window so the decaying branch is clean
    n_scan = min(n, 10 ** 5)
    launch_scan = 8 * n_scan
    fit_lo_scan = max(50, n_scan // 100)

    def objective(delta):
        fit = _decay_objective(c, omega, delta, param,
                               launch_scan, n_scan, fit_lo_scan)
        return -abs(fit - predicted)

    grid = np.linspace(0.0, 2.0 * math.pi, coarse_points, endpoint=False)
    vals = [objective(d) for d in grid]
    k = int(np.argmax(vals))
    span = 2.0 * math.pi / coarse_points
    delta = _golden_max(objective, grid[k] - span, grid[k] + span)
    delta = float(np.mod(delta, 2.0 * math.pi))

    # stage 2: final backward pass at full length, launched 16x beyond N so
    # contamination by the growing branch stays below a percent at site N
    launch = 16 * n
    fit_lo = min(1000, max(10, n // 100))
    lnr, u0, u1 = _backward_lnr(c, omega, delta, param, launch, n)
    fitted = _fit_decay_exponent(lnr, fit_lo, n)
    if u0 == 0.0 and u1 == 0.0:
        raise ZeroInitial("backward evolution returned the zero solution")
    phi = math.atan2(-u1, u0) % math.pi
    if phi == 0.0:
        raise ZeroInitial("degenerate boundary pair: no admissible phase")

    return ResonanceConstruction(
        potential=make_potential("resonant", c=c, omega=omega, delta=delta),
        phi=phi,
        E=param.E,
        predicted_exponent=predicted,
        fitted_exponent=fitted,
        delta=delta,
    )
