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
about an ulp and reproducible bit for bit.  Sums run two at a time, as the
real and imaginary lanes of one complex sum: the cos and sin parts of an
oscillatory series, and pairs of the Prufer-angle sums, which take the
sites in cache-sized blocks with the running sums carried across block
ends, keeping per sum only the maxima of its dyadic bins.  ``lemma_sums``
feeds them in one streamed pass: each block of sites reads its V, is
evolved, lifted to the angle and summed before the next, on block buffers
allocated once per call, so no array is as long as the lattice.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels
from .errors import (
    DegenerateFrequencies,
    DomainError,
    LengthMismatch,
    NegativeConstant,
    NotUnitVectors,
    Overflow,
    ParamOutOfRange,
    PreconditionFailed,
    RangeMismatch,
    ResonantFrequency,
)
from .operators import (OperatorSpec, _instance, _instances, _int, _real,
                        _real_vector)
from .prufer import (
    PruferTrajectory,
    SpectralParam,
    _Lift,
    _potential_onsets,
    boundary_values,
    common_onset,
)
from .spectral import EigenvalueSet, _checked_records

STABILIZATION_THRESHOLD = 0.05
_FREQ_TOL = 1e-9


# --------------------------------------------------------------------------
# eigenvalue-sum bound
# --------------------------------------------------------------------------

def theorem_bound(C: float) -> float:
    """Right-hand side (C^2 + 2)/2 for envelope constant C >= 0.

    C must be a finite real number, else ParamOutOfRange (C = -inf
    included); a finite C < 0 raises NegativeConstant, and a C whose
    (C^2 + 2)/2 leaves the float range ParamOutOfRange."""
    C = _real(C, "C")
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

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_theorem(eset: EigenvalueSet, C: float,
                  certified_only: bool = True) -> BoundReport:
    """Sum the weights 1 - E^2/4 of the (certified) records with
    -2 < E < 2 and compare to the bound.

    The paper's sum runs over the eigenvalues embedded in (-2, 2); a record
    outside the band, which a wider window lists, would enter with a
    negative weight and could hide a violation.  With certified_only (the
    default) only records whose tail-norm certificate passed contribute;
    raw truncation eigenvalues would otherwise trivially overfill the left
    side.  Weights and verdicts are derived from each record's E and
    certificate evidence, so every summed weight lies in (0, 1] and the
    sum and margin stay finite.
    """
    _instance(eset, EigenvalueSet, "eset")
    rhs = theorem_bound(C)
    records = [r for r in _checked_records(eset.records)
               if -2.0 < r.E < 2.0
               and (not certified_only or r.certificate.passed)]
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
    n = _int(n_max, "n_max")
    if n < 1:
        raise LengthMismatch(f"n_max must be >= 1, got {n}")
    return n


def _bin_maxima(run, s0: int, axis: int):
    """(b, maxima): the maxima along axis of run, whose entries there are
    the entries s0, s0 + 1, ... of a sequence, per dyadic bin, entry i
    lying in bin i.bit_length() (the bins [0], [1], [2, 4), [4, 8), ...).
    b is the bin of entry s0; the maxima are those of the bins b, b + 1,
    ... that run touches, the first and the last possibly in part."""
    b = s0.bit_length()
    edges = 2 ** np.arange(b, (s0 + run.shape[axis] - 1).bit_length()) - s0
    return b, np.maximum.reduceat(run, np.concatenate(([0], edges)), axis=axis)


def dyadic_profile(abs_partials: np.ndarray) -> list:
    """Running sup max(abs_partials[:2^k]) for every 2^k <= len(abs_partials),
    from the exact maxima of its whole dyadic bins [0, 1), [1, 2), [2, 4),
    ... (:func:`_bin_maxima`).  Entry i of abs_partials is the statistic at
    the (i + 1)-th summed site: N = i + 1 for sums from site 1, N = n0 + i
    for sums from site n0."""
    k = abs_partials.shape[0].bit_length()
    if k == 0:
        return []
    bins = _bin_maxima(abs_partials[:2 ** (k - 1)], 0, axis=0)[1]
    return np.maximum.accumulate(bins).tolist()


def dyadic_stabilized(profile) -> bool:
    """True when the last window raised the sup by under STABILIZATION_THRESHOLD."""
    if len(profile) < 2:
        return False
    return (profile[-1] - profile[-2]) < STABILIZATION_THRESHOLD


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
    alpha = _real(alpha, "alpha")
    if _dist_to_multiple(alpha, 2.0 * math.pi) < _FREQ_TOL:
        raise ResonantFrequency(f"alpha = {alpha} is congruent to 0 mod 2*pi")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    if gamma_rule is None:
        gamma = np.zeros(n_max)
    else:
        gamma = gamma_rule(n) if callable(gamma_rule) else gamma_rule
        try:
            gamma = np.asarray(gamma, dtype=float)
        except (TypeError, ValueError):
            raise ParamOutOfRange(
                f"gamma must hold real values, got a {type(gamma).__name__}") from None
    if gamma.shape != (n_max,):
        raise LengthMismatch(
            f"gamma has shape {gamma.shape}, expected ({n_max},)")
    # alpha*n + gamma may overflow; the finiteness check follows at once
    with np.errstate(over="ignore", invalid="ignore"):
        phase = alpha * n + gamma
        dgamma = np.abs(np.diff(gamma)) * n[:-1]
    if not np.isfinite(phase).all():
        raise ParamOutOfRange("the phase alpha*n + gamma(n) is not finite")
    terms = np.empty(n_max, dtype=np.complex128)
    np.divide(np.cos(phase), n, out=terms.real)
    np.divide(np.sin(phase), n, out=terms.imag)
    partials = _kernels.kahan_cumsum(terms)
    mods = np.hypot(partials.real, partials.imag)
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
    """Sums over the sites n0..N; entry k of a dyadic profile is the sup
    over N <= n0 - 1 + 2^k."""

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


def _check_frequencies(xs):
    """DegenerateFrequencies if 2 x_j or x_j +/- x_k sits within _FREQ_TOL
    of a multiple of pi."""
    for j, xj in enumerate(xs):
        if _dist_to_multiple(2.0 * xj, math.pi) < _FREQ_TOL:
            raise DegenerateFrequencies(f"2*x_{j + 1} is a multiple of pi")
        for k in range(j + 1, len(xs)):
            if (_dist_to_multiple(xj + xs[k], math.pi) < _FREQ_TOL
                    or _dist_to_multiple(xj - xs[k], math.pi) < _FREQ_TOL):
                raise DegenerateFrequencies(
                    f"x_{j + 1} +/- x_{k + 1} is a multiple of pi")


def _sin_2theta_bar(theta, x, out=None):
    """sin(2 (theta + x)), formed in out (a new array if None; it may be
    theta itself)."""
    tb = np.add(theta, x, out=out)
    tb *= 2.0
    return np.sin(tb, out=tb)


class _LaneSums:
    """Running state of the cross and diagonal sums of the sin(2 theta_bar_j)
    rows over the sites n0..n_max: :meth:`add` takes the next sites, in
    runs of any length, and :meth:`result` gives the diagnostics once every
    site is added.

    Each sum is one lane of a complex row (:func:`_kernels.kahan_cumsum`):
    the m diagonal lanes first, then the m(m-1)/2 cross lanes, each group
    padded with a zero lane to fill its last row.  The sites are summed in
    pieces of at most _kernels._BLOCK // 2, so the three (rows, piece)
    complex buffers, allocated once here, stay in a core's cache beside the
    blocks of the driver and the lift.  A piece may start and end anywhere:
    the carry continues every sum across piece ends, so each lane gets the
    bits of one unblocked sum, and per lane only the maxima of the dyadic
    bins of :func:`_bin_maxima` are kept, the bin past the last whole one
    included.  The profiles and the sups are read off the bins.
    """

    def __init__(self, m: int, n0: int, n_max: int):
        groups = ([(j, j) for j in range(m)],
                  [(j, k) for j in range(m) for k in range(j + 1, m)])
        self.lanes = [jk for g in groups for jk in g + [None] * (len(g) % 2)]
        self.m, self.n0, self.s0 = m, n0, 0  # s0: the sites added so far
        self.rows, self.n_diag = len(self.lanes) // 2, (m + 1) // 2
        # (row, bin, part): the whole bins, then the bin past them
        self.bins = np.zeros((self.rows, (n_max - n0 + 1).bit_length() + 1, 2))
        self.carry = np.zeros((2, self.rows), dtype=np.complex128)
        # piece buffers: the terms, the sum and its scratch array, and the
        # site of each float of a complex row, advanced piece by piece
        width = self.width = min(_kernels._BLOCK // 2, n_max - n0 + 1)
        self.terms = np.empty((self.rows, width), dtype=np.complex128)
        self.work = np.empty((2, self.rows, width), dtype=np.complex128)
        self.n2 = np.repeat(np.arange(n0, n0 + width, dtype=np.float64), 2)

    def add(self, sins):
        """Add the rows sins[j] of sin(2 theta_bar_j) at the next sites."""
        for lo in range(0, len(sins[0]), self.width):
            self._add_piece([row[lo:lo + self.width] for row in sins])

    def _add_piece(self, sins):
        rows, length = self.rows, len(sins[0])
        terms = self.terms[:, :length]
        tv = terms.view(np.float64).reshape(rows, -1, 2)
        n2 = self.n2[:2 * length]
        for i, jk in enumerate(self.lanes):
            out = tv[i // 2, :, i % 2]
            if jk is None:
                out[...] = 0.0
            else:
                np.multiply(sins[jk[0]], sins[jk[1]], out=out)
        np.divide(tv.reshape(rows, -1), n2, out=tv.reshape(rows, -1))
        sums = _kernels.kahan_cumsum(terms, self.carry, self.work[:, :, :length])
        # |ln N / 2 - diagonal sum| and |cross sum|, as (row, site, lane);
        # ln N / 2 goes into the sum's spent scratch array
        dev = sums.view(np.float64).reshape(rows, -1, 2)
        diag_rows = dev[:self.n_diag].reshape(self.n_diag, -1)
        half_log = np.log(n2, out=self.work[1, 0, :length].view(np.float64))
        half_log *= 0.5
        np.subtract(half_log, diag_rows, out=diag_rows)
        np.abs(dev, out=dev)
        self.n2 += length
        b, top = _bin_maxima(dev, self.s0, axis=1)
        bins = self.bins[:, b:b + top.shape[1]]
        np.maximum(bins, top, out=bins)
        self.s0 += length

    def result(self, hyp_ok: bool) -> SumDiagnostics:
        # lane i is (row i // 2, part i % 2)
        bins = self.bins.transpose(0, 2, 1).reshape(2 * self.rows, -1)
        profiles = np.maximum.accumulate(bins[:, :-1], axis=1).tolist()
        sups = bins.max(axis=1).tolist()
        cross = np.zeros((self.m, self.m))
        diag, pair_sums = [], []
        for i, jk in enumerate(self.lanes):
            if jk is None:
                continue
            j, k = jk
            if j == k:
                diag.append(DiagonalSum(j=j + 1, sup_abs=sups[i],
                                        dyadic=tuple(profiles[i])))
            else:
                cross[j, k] = cross[k, j] = sups[i]
                pair_sums.append(PairSum(j=j + 1, k=k + 1, sup_abs=sups[i],
                                         dyadic=tuple(profiles[i])))
        return SumDiagnostics(cross=cross, pair_sums=tuple(pair_sums),
                              diag=tuple(diag), n0=self.n0, hypothesis_ok=hyp_ok)


def prufer_sum_diagnostics(trajs, n_max: int) -> SumDiagnostics:
    """Cross and diagonal oscillatory sums over a family of trajectories.

    The spectral parameters must be non-degenerate: 2 x_j and x_j +/- x_k
    may not sit within 1e-9 of a multiple of pi.  Sums start at the first
    site n0 from which every |nu_j| < 1/2, mirroring the angle-increment
    hypothesis (hypothesis_ok: such a site exists), so dyadic entry k is
    the sup over N <= n0 - 1 + 2^k, not over N <= 2^k.
    """
    n_max = _size(n_max)
    trajs = _instances(trajs, PruferTrajectory, "trajs")
    if not trajs:
        raise LengthMismatch("need at least one trajectory")
    if any(t.n < n_max for t in trajs):
        raise LengthMismatch(f"all trajectories must reach N = {n_max}")
    _check_frequencies([t.param.x for t in trajs])
    n0, hyp_ok = common_onset(trajs, n_max)
    acc = _LaneSums(len(trajs), n0, n_max)
    acc.add([_sin_2theta_bar(t.theta[n0:n_max + 1], t.param.x) for t in trajs])
    return acc.result(hyp_ok)


def lemma_sums(spec: OperatorSpec, params) -> SumDiagnostics:
    """The sums of :func:`prufer_sum_diagnostics` over the trajectories
    ``evolve_trajectory(spec, p)`` of the params to N, in one streamed
    pass.

    The lemma reads only theta, so no radius is formed, and no array as
    long as the lattice is held: V is read block by block
    (``spec.potential.values``), at most twice.  A first pass finds every
    onset from the sites before the envelope bound |V(n)| <= |c|/n falls
    below every sin x / 2 (``prufer._potential_onsets``), a few sites on
    the usual potentials.  Then, per block of _kernels._BLOCK
    sites from site 1, every parameter advances as one block of the
    streamed driver (``_kernels._forward_windows``), which reads the
    block's V and forms V - E itself, all the angles are lifted in one
    step with their carried state (``prufer._Lift``), and from n0 on
    sin(2 theta_bar) enters the carried sums (:class:`_LaneSums`): the
    block that holds n0 from n0 on, every later block whole.  The sites
    before n0 are evolved and lifted but not summed.  The driver, the
    lift and the sums each hold their block buffers, allocated once per
    call, so the memory used does not grow with N.
    """
    _instance(spec, OperatorSpec, "spec")
    params = _instances(params, SpectralParam, "params")
    if not params:
        raise LengthMismatch("need at least one spectral parameter")
    _check_frequencies([p.x for p in params])
    n, width = spec.n, _kernels._BLOCK
    values = spec.potential.values
    onsets = _potential_onsets(spec.potential, n, [p.sin_x for p in params])
    n0, hyp_ok = max([1] + onsets.tolist()), bool(onsets.all())
    ends = _kernels._ends(0, n, width)
    windows = _kernels._forward_windows(values, [p.E for p in params],
                                        *boundary_values(spec.phi), ends)
    xs = np.array([[p.x] for p in params])
    theta = np.empty((len(params), min(width, n)))
    lift = _Lift(params, theta.shape[1])
    acc = _LaneSums(len(params), n0, n)
    lo = 1
    for hi, (cur, prev, _) in zip(ends, windows):
        t = theta[:, :hi - lo + 1]
        lift.step(cur, prev, t)
        if hi >= n0:
            t = t[:, max(n0 - lo, 0):]
            acc.add(_sin_2theta_bar(t, xs, out=t))
        lo = hi + 1
    return acc.result(hyp_ok)


# --------------------------------------------------------------------------
# weighted sequence space and almost-orthogonality
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedVector:
    """Finite sequence b(n), n in [n0, N-1], under <b, c> = sum n b(n) c(n).

    entries must be a finite 1-D ndarray of integer or float dtype, stored
    as float64, and n0, n_end integers; else ParamOutOfRange.
    """

    entries: np.ndarray
    n0: int
    n_end: int

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           _real_vector(self.entries, "entries"))
        object.__setattr__(self, "n0", _int(self.n0, "n0"))
        object.__setattr__(self, "n_end", _int(self.n_end, "n_end"))
        if self.entries.shape[0] != self.n_end - self.n0:
            raise RangeMismatch(
                f"{self.entries.shape[0]} entries for range [{self.n0}, {self.n_end - 1}]")

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.n0, self.n_end, dtype=np.float64)


def _finite_float(value: float, name: str) -> float:
    """value, or Overflow if it is not finite."""
    if not math.isfinite(value):
        raise Overflow(f"{name} exceeds the float range")
    return value


def weighted_dot(b: WeightedVector, c: WeightedVector) -> float:
    """Scalar product sum_n n * b(n) * c(n) over the shared index range;
    Overflow if it leaves the float range."""
    _instance(b, WeightedVector, "b")
    _instance(c, WeightedVector, "c")
    if b.n0 != c.n0 or b.n_end != c.n_end:
        raise RangeMismatch(
            f"ranges [{b.n0}, {b.n_end}) and [{c.n0}, {c.n_end}) differ")
    with np.errstate(over="ignore", invalid="ignore"):
        dot = float(np.sum(b.sites * b.entries * c.entries))
    return _finite_float(dot, "the weighted scalar product")


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
    by rounding.  Overflow if a scalar product or either side leaves the
    float range.
    """
    _instance(g, WeightedVector, "g")
    e = _instances(e, WeightedVector, "e")
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
    dots = [weighted_dot(g, ej) for ej in e]
    lhs = _finite_float(sum(d * d for d in dots), "sum_j <g, e_j>^2")
    rhs = _finite_float((1.0 + beta * m) * weighted_dot(g, g),
                        "(1 + beta m) ||g||^2")
    return OrthogonalityReport(beta=beta, lhs=lhs, rhs=rhs,
                               holds=lhs <= rhs * (1.0 + 1e-12))


# --------------------------------------------------------------------------
# elementary logarithm bounds
# --------------------------------------------------------------------------

def log_bound_check(x: float, eps: float) -> tuple:
    """(ln(1+x) >= x/(1+eps), ln(1-x) >= -x/(1-eps)) for 0 < x < eps < 1.

    x and eps must be finite real numbers (ParamOutOfRange); finite values
    outside 0 < x < eps < 1 raise DomainError."""
    x, eps = _real(x, "x"), _real(eps, "eps")
    if not 0.0 < x < eps:
        raise DomainError(f"need 0 < x < eps, got x={x}, eps={eps}")
    if eps >= 1.0:
        raise DomainError(f"the lower inequality needs eps < 1, got {eps}")
    first = math.log1p(x) >= x / (1.0 + eps)
    second = math.log1p(-x) >= -x / (1.0 - eps)
    return first, second
