"""Quantitative diagnostics: the eigenvalue-sum bound and its supporting
machinery.

The headline inequality bounds the weights 1 - E_j^2/4 of distinct
square-summable eigenvalues inside (-2, 2) by (C^2 + 2)/2, where C is the
Coulomb envelope constant.  "Bounded sequence" claims about oscillatory
1/n series are operationalized as dyadic stabilization: the running sup
over N <= 2^k must stop growing (below a threshold) between the last two
dyadic windows, which cleanly separates bounded series from logarithmic
divergence (ln 2 ~ 0.69 growth per window).

All 1/n series are accumulated in ascending order with compensated prefix
sums (cascaded summation: np.cumsum plus the exact TwoSum rounding errors,
see ``_kernels.kahan_cumsum``), so partial sums at N = 10^6 are accurate to
about an ulp and reproducible bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DegenerateFrequencies,
    DomainError,
    LengthMismatch,
    NegativeConstant,
    NotUnitVectors,
    ParamOutOfRange,
    PreconditionFailed,
    RangeMismatch,
    ResonantFrequency,
)
from .prufer import common_onset
from .spectral import EigenvalueSet, theorem_weight

STABILIZATION_THRESHOLD = 0.05
_FREQ_TOL = 1e-9


# --------------------------------------------------------------------------
# eigenvalue-sum bound
# --------------------------------------------------------------------------

def theorem_bound(C: float) -> float:
    """Right-hand side (C^2 + 2)/2 for envelope constant C >= 0."""
    if C < 0.0:
        raise NegativeConstant(f"envelope constant must be >= 0, got {C}")
    rhs = (C * C + 2.0) / 2.0
    if not math.isfinite(rhs):
        raise ParamOutOfRange(f"(C^2 + 2)/2 is not finite for C = {C}")
    return rhs


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the eigenvalue-sum inequality for one record set."""

    lhs: float
    rhs: float
    C_used: float
    satisfied: bool
    margin: float
    records_used: int

    def to_json_dict(self, records=None) -> dict:
        out = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "C_used": self.C_used,
            "satisfied": self.satisfied,
            "margin": self.margin,
            "records_used": self.records_used,
        }
        if records is not None:
            out["records"] = records
        return out


def check_theorem(eset: EigenvalueSet, C: float,
                  certified_only: bool = True) -> BoundReport:
    """Sum the weights of the (certified) records and compare to the bound.

    With certified_only (the default) only records whose tail-norm
    certificate passed contribute; raw truncation eigenvalues would
    otherwise trivially overfill the left side.
    """
    rhs = theorem_bound(C)
    records = [r for r in eset.records
               if not certified_only or r.certificate.passed]
    lhs = float(sum(r.weight for r in records))
    return BoundReport(lhs=lhs, rhs=rhs, C_used=float(C),
                       satisfied=lhs <= rhs, margin=rhs - lhs,
                       records_used=len(records))


# --------------------------------------------------------------------------
# oscillatory 1/n series
# --------------------------------------------------------------------------

def _dist_to_multiple(value: float, period: float) -> float:
    r = math.remainder(value, period)
    return abs(r)


def _size(n_max) -> int:
    """n_max as an int >= 1 (ParamOutOfRange / LengthMismatch otherwise)."""
    try:
        n = operator.index(n_max)
    except TypeError:
        raise ParamOutOfRange(f"n_max must be an integer, got {n_max!r}") from None
    if n < 1:
        raise LengthMismatch(f"n_max must be >= 1, got {n}")
    return n


def dyadic_profile(abs_partials: np.ndarray) -> list:
    """Running sup at the dyadic cutoffs N = 2^k, k = 0.. within range.

    abs_partials[i] is the statistic at N = i + 1.
    """
    runmax = np.maximum.accumulate(abs_partials)
    n_max = abs_partials.shape[0]
    prof = []
    p = 1
    while p <= n_max:
        prof.append(float(runmax[p - 1]))
        p *= 2
    return prof


def dyadic_stabilized(profile, threshold: float = STABILIZATION_THRESHOLD) -> bool:
    """True when the sup grew by less than threshold over the last window."""
    if len(profile) < 2:
        return False
    return (profile[-1] - profile[-2]) < threshold


@dataclass(frozen=True)
class OscSumSeries:
    """Partial sums S_N = sum_{n<=N} e^{i(alpha n + gamma_n)}/n and their sup.

    hypothesis_max_n_dgamma = max n*|gamma(n+1) - gamma(n)| lets the caller
    verify the slow-variation hypothesis behind the boundedness claim.
    """

    alpha: float
    gamma: np.ndarray
    partials: np.ndarray
    sup_abs: float
    dyadic: tuple
    hypothesis_max_n_dgamma: float

    @property
    def stabilized(self) -> bool:
        return dyadic_stabilized(self.dyadic)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "sup_abs": self.sup_abs,
            "dyadic_profile": list(self.dyadic),
            "hypothesis_max_n_dgamma": self.hypothesis_max_n_dgamma,
        }


def oscillatory_partial_sums(alpha: float, gamma_rule, n_max: int) -> OscSumSeries:
    """Compensated partial sums of e^{i(alpha n + gamma_n)}/n up to n_max.

    gamma_rule may be None (zeros), an array of length n_max (gamma_n at
    n = 1..n_max), or a callable applied to the site vector.  alpha must
    stay away from multiples of 2*pi, where the series degenerates to the
    harmonic series.
    """
    n_max = _size(n_max)
    if not math.isfinite(alpha):
        raise ParamOutOfRange(f"alpha must be finite, got {alpha}")
    if _dist_to_multiple(alpha, 2.0 * math.pi) < _FREQ_TOL:
        raise ResonantFrequency(f"alpha = {alpha} is congruent to 0 mod 2*pi")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    if gamma_rule is None:
        gamma = np.zeros(n_max)
    elif callable(gamma_rule):
        gamma = np.asarray(gamma_rule(n), dtype=float)
    else:
        gamma = np.asarray(gamma_rule, dtype=float)
    if gamma.shape != (n_max,):
        raise LengthMismatch(
            f"gamma has shape {gamma.shape}, expected ({n_max},)")
    # alpha*n + gamma may overflow; the finiteness check follows at once
    with np.errstate(over="ignore", invalid="ignore"):
        phase = alpha * n + gamma
        dgamma = np.abs(np.diff(gamma)) * n[:-1]
    if not np.isfinite(phase).all():
        raise ParamOutOfRange("the phase alpha*n + gamma(n) is not finite")
    re = _kernels.kahan_cumsum(np.cos(phase) / n)
    im = _kernels.kahan_cumsum(np.sin(phase) / n)
    partials = re + 1j * im
    mods = np.hypot(re, im)
    return OscSumSeries(
        alpha=float(alpha),
        gamma=gamma,
        partials=partials,
        sup_abs=float(mods.max()),
        dyadic=tuple(dyadic_profile(mods)),
        hypothesis_max_n_dgamma=float(dgamma.max()) if dgamma.size else 0.0,
    )


# --------------------------------------------------------------------------
# Prufer-angle sum diagnostics for several spectral parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSum:
    """Cross sum sup_N |sum_{n<=N} sin(2tb_j) sin(2tb_k)/n| for one pair."""

    j: int
    k: int
    sup_abs: float
    dyadic: tuple

    @property
    def stabilized(self) -> bool:
        return dyadic_stabilized(self.dyadic)


@dataclass(frozen=True)
class DiagonalSum:
    """Deviation sup_N |ln N / 2 - sum_{n<=N} sin^2(2tb_j)/n| for one j."""

    j: int
    sup_abs: float
    dyadic: tuple

    @property
    def stabilized(self) -> bool:
        return dyadic_stabilized(self.dyadic)


@dataclass(frozen=True)
class SumDiagnostics:
    cross: np.ndarray
    pair_sums: tuple
    diag: tuple
    n0: int
    hypothesis_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "n0": self.n0,
            "hypothesis_ok": self.hypothesis_ok,
            "c1": [{"j": p.j, "k": p.k, "sup_abs": p.sup_abs,
                    "dyadic_profile": list(p.dyadic),
                    "stabilized": p.stabilized} for p in self.pair_sums],
            "c2": [{"j": d.j, "sup_abs": d.sup_abs,
                    "dyadic_profile": list(d.dyadic),
                    "stabilized": d.stabilized} for d in self.diag],
        }


def prufer_sum_diagnostics(trajs, n_max: int) -> SumDiagnostics:
    """Cross and diagonal oscillatory sums over a family of trajectories.

    The spectral parameters must be non-degenerate: 2 x_j and x_j +/- x_k
    may not sit within 1e-9 of a multiple of pi.  Sums start at the first
    site from which every |nu_j| < 1/2, mirroring the angle-increment
    hypothesis; hypothesis_ok reports whether such a site exists.
    """
    n_max = _size(n_max)
    m = len(trajs)
    if m == 0:
        raise LengthMismatch("need at least one trajectory")
    if any(t.n < n_max for t in trajs):
        raise LengthMismatch(f"all trajectories must reach N = {n_max}")
    xs = [t.param.x for t in trajs]
    for j, xj in enumerate(xs):
        if _dist_to_multiple(2.0 * xj, math.pi) < _FREQ_TOL:
            raise DegenerateFrequencies(f"2*x_{j + 1} is a multiple of pi")
        for k in range(j + 1, m):
            if (_dist_to_multiple(xj + xs[k], math.pi) < _FREQ_TOL
                    or _dist_to_multiple(xj - xs[k], math.pi) < _FREQ_TOL):
                raise DegenerateFrequencies(
                    f"x_{j + 1} +/- x_{k + 1} is a multiple of pi")

    n0, hyp_ok = common_onset(trajs, n_max)
    sites = np.arange(n0, n_max + 1, dtype=np.float64)
    sins = [np.sin(2.0 * t.theta_bar[n0:n_max + 1]) for t in trajs]
    half_log_n = 0.5 * np.log(sites)

    # terms and deviations are built in place, and kahan_cumsum overwrites
    # its terms: each sum then holds three site-length buffers at its peak
    def partial_sum(a, b):
        terms = a * b
        terms /= sites
        return _kernels.kahan_cumsum(terms)

    diag = []
    for j in range(m):
        dev = partial_sum(sins[j], sins[j])
        np.subtract(half_log_n, dev, out=dev)
        np.abs(dev, out=dev)
        diag.append(DiagonalSum(j=j + 1, sup_abs=float(dev.max()),
                                dyadic=tuple(dyadic_profile(dev))))

    cross = np.zeros((m, m))
    pairs = []
    for j in range(m):
        for k in range(j + 1, m):
            mods = partial_sum(sins[j], sins[k])
            np.abs(mods, out=mods)
            sup = float(mods.max())
            cross[j, k] = cross[k, j] = sup
            pairs.append(PairSum(j=j + 1, k=k + 1, sup_abs=sup,
                                 dyadic=tuple(dyadic_profile(mods))))

    return SumDiagnostics(cross=cross, pair_sums=tuple(pairs),
                          diag=tuple(diag), n0=n0, hypothesis_ok=hyp_ok)


# --------------------------------------------------------------------------
# weighted sequence space and almost-orthogonality
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedVector:
    """Finite sequence b(n), n in [n0, N-1], under <b, c> = sum n b(n) c(n)."""

    entries: np.ndarray
    n0: int
    n_end: int

    def __post_init__(self):
        if self.entries.shape[0] != self.n_end - self.n0:
            raise RangeMismatch(
                f"{self.entries.shape[0]} entries for range [{self.n0}, {self.n_end - 1}]")

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.n0, self.n_end, dtype=np.float64)


def weighted_dot(b: WeightedVector, c: WeightedVector) -> float:
    """Scalar product sum_n n * b(n) * c(n) over the shared index range."""
    if b.n0 != c.n0 or b.n_end != c.n_end:
        raise RangeMismatch(
            f"ranges [{b.n0}, {b.n_end}) and [{c.n0}, {c.n_end}) differ")
    return float(np.sum(b.sites * b.entries * c.entries))


def weighted_norm(b: WeightedVector) -> float:
    return math.sqrt(weighted_dot(b, b))


def normalize_weighted(b: WeightedVector) -> WeightedVector:
    nrm = weighted_norm(b)
    if nrm == 0.0:
        raise NotUnitVectors("cannot normalize the zero vector")
    return WeightedVector(entries=b.entries / nrm, n0=b.n0, n_end=b.n_end)


@dataclass(frozen=True)
class OrthogonalityReport:
    beta: float
    lhs: float
    rhs: float
    holds: bool


def almost_orthogonality_check(g: WeightedVector, e) -> OrthogonalityReport:
    """Near-Bessel inequality sum_j <g, e_j>^2 <= (1 + beta m) ||g||^2.

    The e_j must be unit vectors (to 1e-12) and their largest pairwise
    |inner product| beta must satisfy beta < 1/m.  Comparison carries a
    1e-12 relative slack so the exact-equality Bessel case is not flipped
    by rounding.
    """
    m = len(e)
    if m == 0:
        raise PreconditionFailed("need at least one unit vector")
    for j, ej in enumerate(e):
        if abs(weighted_norm(ej) - 1.0) > 1e-12:
            raise NotUnitVectors(f"vector {j + 1} is not unit to 1e-12")
    beta = 0.0
    for j in range(m):
        for k in range(j + 1, m):
            beta = max(beta, abs(weighted_dot(e[j], e[k])))
    if not beta < 1.0 / m:
        raise PreconditionFailed(
            f"beta = {beta:.6g} must be < 1/{m} = {1.0 / m:.6g}")
    lhs = float(sum(weighted_dot(g, ej) ** 2 for ej in e))
    rhs = (1.0 + beta * m) * weighted_dot(g, g)
    return OrthogonalityReport(beta=beta, lhs=lhs, rhs=rhs,
                               holds=lhs <= rhs * (1.0 + 1e-12))


# --------------------------------------------------------------------------
# elementary logarithm bounds
# --------------------------------------------------------------------------

def log_bound_check(x: float, eps: float) -> tuple:
    """(ln(1+x) >= x/(1+eps), ln(1-x) >= -x/(1-eps)) for 0 < x < eps < 1."""
    if not 0.0 < x < eps:
        raise DomainError(f"need 0 < x < eps, got x={x}, eps={eps}")
    if eps >= 1.0:
        raise DomainError(f"the lower inequality needs eps < 1, got {eps}")
    first = math.log1p(x) >= x / (1.0 + eps)
    second = math.log1p(-x) >= -x / (1.0 - eps)
    return first, second
