"""Prufer (EFGP) variables for the half-line discrete Schrodinger equation.

For E = 2 cos(x) inside the essential spectrum, a solution u of

    u(n-1) + u(n+1) + V(n) u(n) = E u(n)

is rewritten as an amplitude/angle pair through

    R(n) cos(theta(n)) = u(n) - u(n-1) cos(x)
    R(n) sin(theta(n)) = u(n-1) sin(x)

which obeys three identities: the radius formula
R(n)^2 = u(n)^2 + u(n-1)^2 - 2 u(n) u(n-1) cos(x), the one-step amplitude
ratio R(n+1)^2/R(n)^2 = 1 - nu sin(2 theta + 2x) + nu^2 sin^2(theta + x),
and the angle step cot(theta(n+1)) = cot(theta(n) + x) - nu, where
nu(n) = V(n)/sin(x).  The angle is kept as a continuous lift: theta(n+1)
is the representative closest to theta(n) + x, the unique choice compatible
with the increment bound |theta(n+1) - theta(n) - x| <= pi |nu(n)| valid
for |nu| < 1/2.

Every route runs one recurrence driver, ``_kernels._forward_windows``,
which yields rescaled pairs with a log scale, window by window:
``solve_recurrence`` stores the solution u(n) = exp(scale) * cur, and
``evolve_trajectory`` (like ``spectral.resonance_construct`` backwards)
transforms the pairs as they come.  One
transform, ``_trajectory``, takes windows of pairs of one spectral
parameter from ``evolve_trajectory`` (the driver's) or ``to_prufer`` (a
stored solution's): per window one step of the angle lift, ``_Lift``,
which carries theta(1), the last principal angle and the running sum of
the steps to the next window (for B rows at once: ``analysis.lemma_sums``
lifts all its parameters together), and ln R from ``_ln_r``, the only
place the radius formula is evaluated.  ``nu``, ``R``, ``r1`` and
``u_values()`` raise Overflow rather than return inf.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    DegenerateSolution,
    LengthMismatch,
    Overflow,
    ParamOutOfRange,
)
from .operators import OperatorSpec, _finite, _instance, _real


def _wrap_pi(a, out=None, work=None):
    """Reduce modulo 2*pi into (-pi, pi], into out if given, using work (an
    array of a's shape) as scratch if given."""
    # k is an array even for a scalar a, so it is rounded up in place
    k = np.subtract(a, np.pi, out=np.empty(np.shape(a)) if work is None else work)
    k /= 2.0 * np.pi
    np.ceil(k, out=k)
    k *= 2.0 * np.pi
    return np.subtract(a, k, out=out)


def _param_fields(x: float) -> tuple:
    """(x, E, sin_x) of the spectral parameter x: E = 2 cos(x)."""
    return x, 2.0 * math.cos(x), math.sin(x)


def _energy(E) -> float:
    """E as a float in (-2, 2), else ParamOutOfRange."""
    E = _real(E, "E")
    if not -2.0 < E < 2.0:
        raise ParamOutOfRange(f"E must lie in (-2, 2), got {E}")
    return E


@dataclass(frozen=True)
class SpectralParam:
    """Spectral parameter x in (0, pi) with E = 2 cos(x).

    Only x is given; E and sin_x follow from it.  An x that is not a real
    number in (0, pi), nan and inf included, raises ParamOutOfRange.
    """

    x: float
    E: float = field(init=False)
    sin_x: float = field(init=False)

    def __post_init__(self):
        x = _real(self.x, "x")
        if not 0.0 < x < math.pi:
            raise ParamOutOfRange(f"x must lie in (0, pi), got {x}")
        for name, v in zip(("x", "E", "sin_x"), _param_fields(x)):
            object.__setattr__(self, name, v)

    @classmethod
    def from_x(cls, x: float) -> "SpectralParam":
        return cls(x)

    @classmethod
    def from_energy(cls, E: float) -> "SpectralParam":
        return cls.from_x(math.acos(_energy(E) / 2.0))

    @property
    def cos_x(self) -> float:
        return self.E / 2.0


def _float_vector(a, name: str):
    """ParamOutOfRange unless a is a 1-D float ndarray (nan allowed)."""
    if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind == "f"):
        raise ParamOutOfRange(f"{name} must be a 1-D float array, got "
                              f"{type(a).__name__}")


@dataclass(frozen=True)
class Solution:
    """Raw solution values u(0..N) for one operator and spectral parameter.

    u must be a finite 1-D float array of N + 1 values: ParamOutOfRange if
    it is not an array of that kind or holds nan or +-inf, LengthMismatch if
    its length is not N + 1.
    """

    u: np.ndarray
    spec: OperatorSpec
    param: SpectralParam

    def __post_init__(self):
        _instance(self.spec, OperatorSpec, "spec")
        _instance(self.param, SpectralParam, "param")
        _float_vector(self.u, "u")
        if self.u.shape[0] != self.spec.n + 1:
            raise LengthMismatch(f"u has {self.u.shape[0]} values, "
                                 f"N = {self.spec.n} needs {self.spec.n + 1}")
        if not np.isfinite(self.u).all():
            raise ParamOutOfRange("u must be finite")

    @property
    def n(self) -> int:
        return self.u.shape[0] - 1


@dataclass(frozen=True)
class PruferTrajectory:
    """Prufer variables along one trajectory, site-indexed (slot 0 = nan).

    ln_R is exact even when the evolution rescaled internally; R is derived
    from it, and nu = V/sin(x) from the site-indexed V.  theta, ln_R and V
    must be 1-D float arrays, finite from site 1 on (ParamOutOfRange; slot
    0 may hold anything), of one length, at least two, for the sites 0 and
    1 (LengthMismatch).
    """

    theta: np.ndarray
    ln_R: np.ndarray
    V: np.ndarray
    param: SpectralParam

    def __post_init__(self):
        _instance(self.param, SpectralParam, "param")
        for name in ("theta", "ln_R", "V"):
            _float_vector(getattr(self, name), name)
        if not self.theta.shape == self.ln_R.shape == self.V.shape:
            raise LengthMismatch(
                f"theta, ln_R and V have lengths {self.theta.shape[0]}, "
                f"{self.ln_R.shape[0]} and {self.V.shape[0]}")
        if self.theta.shape[0] < 2:
            raise LengthMismatch(f"a trajectory needs the sites 0 and 1, got "
                                 f"{self.theta.shape[0]} entries")
        for name in ("theta", "ln_R", "V"):
            if not np.isfinite(getattr(self, name)[1:]).all():
                raise ParamOutOfRange(f"{name} must be finite from site 1 on")

    @property
    def n(self) -> int:
        return self.theta.shape[0] - 1

    @property
    def nu(self) -> np.ndarray:
        """V(n)/sin(x), site-indexed (slot 0 = nan); Overflow if it leaves
        the float range at some site."""
        with np.errstate(over="ignore"):
            nu = _finite(self.V[1:] / self.param.sin_x, "nu", 1)
        return np.concatenate(([np.nan], nu))

    @property
    def R(self) -> np.ndarray:
        """exp(ln_R); Overflow if R leaves the float range at some site."""
        with np.errstate(over="ignore"):
            return _finite(np.exp(self.ln_R), "R")

    @property
    def theta_bar(self) -> np.ndarray:
        return self.theta + self.param.x

    @property
    def r1(self) -> float:
        """R(1), the fixed scale set by the boundary normalization;
        Overflow if it leaves the float range."""
        try:
            return math.exp(self.ln_R[1])
        except OverflowError:
            raise Overflow("R(1) exceeds the float range") from None

    def u_values(self) -> np.ndarray:
        """Reconstruct u(0..N) from (R, theta)."""
        r = self.R
        s = self.param.sin_x
        c = self.param.cos_x
        u = np.empty(self.n + 1)
        with np.errstate(over="ignore"):
            u[0] = r[1] * math.sin(self.theta[1]) / s
            u[1:] = r[1:] * (np.cos(self.theta[1:]) + np.sin(self.theta[1:]) * c / s)
        return _finite(u, "u")


def boundary_values(phi: float) -> tuple:
    """(u(0), u(1)) = (cos(phi), -sin(phi)) satisfies the phase condition."""
    return math.cos(phi), -math.sin(phi)


def solve_recurrence(spec: OperatorSpec, param: SpectralParam) -> Solution:
    """Evolve the boundary-condition solution out to site N: the streamed
    driver's pairs, one block, window by window, stored as
    u(n) = exp(scale) * cur.  Where the driver never rescaled, scale is 0
    and u holds the bits of the unscaled recurrence.

    Raises Overflow at the first site where |u| exceeds 1e300; use
    :func:`evolve_trajectory` for the rescaled log-scale evolution.
    """
    _instance(spec, OperatorSpec, "spec")
    _instance(param, SpectralParam, "param")
    V = spec.potential.value_array(spec.n)
    u0, u1 = boundary_values(spec.phi)
    ends = _kernels._ends(0, spec.n, _kernels._CHUNK)
    windows = _kernels._forward_windows(V, [param.E], u0, u1, ends)
    u = np.empty(spec.n + 1)
    u[0] = u0
    for lo, hi, (cur, _, scale) in zip([0] + ends, ends, windows):
        # exp(scale) may overflow only past a site beyond 1e300, caught here
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(cur[0], np.exp(scale[0]), out=u[lo + 1:hi + 1])
        bad = ~(np.abs(u[lo + 1:hi + 1]) <= 1e300)  # nan compares false
        if bad.any():
            site = lo + 1 + int(bad.argmax())
            raise Overflow(f"solution amplitude left float range at site {site}")
    return Solution(u=u, spec=spec, param=param)


class _Lift:
    """The angle lift of B rows of pairs, one block of sites at a time.

    :meth:`step` takes the pairs (u(n), u(n-1)), proportional to the rows
    of (un, um), at the next L sites, for the spectral parameters ``params``
    (one per row), and writes theta at those sites into out.  theta(1) is
    the principal angle of the first pair, and each theta(n+1) is the
    representative of its principal angle closest to theta(n) + x:
    theta(n+1) = theta(1) + n x + sum of the wrapped steps.  The state
    carried across block ends is the sites lifted so far, and per row
    theta(1), the last principal angle and the running sum of the steps.
    The sum continues left to right, so every theta(n) gets the bits an
    unblocked evaluation of its row alone gives.  Blocks hold at most
    ``width`` sites; the one scratch block and the row of site numbers are
    allocated here, once.
    """

    def __init__(self, params, width: int):
        self.x, self.cos_x, self.sin_x = (np.array([[getattr(p, a)] for p in params])
                                          for a in ("x", "cos_x", "sin_x"))
        nb = len(params)
        self.s = 0
        self.p0, self.prev, self.carry = np.zeros((3, nb))
        self.work = np.empty((nb, width))
        self.sites = np.arange(width, dtype=np.float64)  # the n of theta(n + 1)

    def step(self, un, um, out):
        """theta at the next L sites of the rows of (un, um), into out."""
        s, length = self.s, un.shape[1]
        work = self.work[:, :length]
        ca = np.multiply(um, self.cos_x, out=out)
        np.subtract(un, ca, out=ca)
        cb = np.multiply(um, self.sin_x, out=work)
        if np.count_nonzero(cb) < cb.size:  # R = 0 needs cb = 0
            zero = (ca == 0.0) & (cb == 0.0)
            if zero.any():
                site = int(zero[zero.any(axis=1).argmax()].argmax())
                raise DegenerateSolution(f"trivial solution: R({s + site + 1}) = 0")
        principal = np.arctan2(cb, ca, out=cb)
        if s == 0:
            self.p0[...] = self.prev[...] = principal[:, 0]
        # the wrapped steps principal(n+1) - principal(n) - x; the carry
        # added to the first one continues the left-to-right sum exactly
        d = out
        np.subtract(principal[:, 1:], principal[:, :-1], out=d[:, 1:])
        np.subtract(principal[:, 0], self.prev, out=d[:, 0])
        self.prev[...] = principal[:, -1]
        d -= self.x
        _wrap_pi(d, out=d, work=work)
        if s == 0:
            d[:, 0] = 0.0  # theta(1) takes no step
        d[:, 0] += self.carry
        np.cumsum(d, axis=1, out=d)
        self.carry[...] = d[:, -1]
        # theta(n + 1) = (theta(1) + n x) + the summed steps, n = s..s+L-1
        base = np.multiply(self.sites[:length], self.x, out=work)
        base += self.p0[:, None]
        d += base
        if s == 0:
            d[:, 0] = self.p0
        self.s += length
        self.sites += length


def _ln_r(un, um, ln_scale, cos_x, sin_x, out=None):
    """ln R of the pairs (u(n), u(n-1)) = exp(ln_scale) (un, um) from the
    radius formula, into out if given; DegenerateSolution where R = 0."""
    r = np.hypot(un - um * cos_x, um * sin_x, out=out)
    if not r.all():
        raise DegenerateSolution("trivial solution: R = 0")
    np.log(r, out=r)
    r += ln_scale
    return r


def _trajectory(V, param, windows, ends) -> PruferTrajectory:
    """The trajectory of param along the site-indexed V, of the pairs
    (u(n), u(n-1)) = exp(scale) (cur, prev), one-row arrays, that windows
    yields, one window per end in ends, of the sites after the previous end
    (0 first), at most _kernels._CHUNK: per window one :class:`_Lift`
    step and :func:`_ln_r`."""
    n = ends[-1]
    theta, ln_r = np.empty((2, 1, n + 1))
    theta[:, 0] = ln_r[:, 0] = np.nan
    lift = _Lift([param], min(n, _kernels._CHUNK))
    for lo, hi, (cur, prev, scale) in zip([0] + ends, ends, windows):
        lift.step(cur, prev, theta[:, lo + 1:hi + 1])
        _ln_r(cur, prev, scale, lift.cos_x, lift.sin_x, out=ln_r[:, lo + 1:hi + 1])
    return PruferTrajectory(theta=theta[0], ln_R=ln_r[0], V=V, param=param)


def to_prufer(sol: Solution) -> PruferTrajectory:
    """Prufer variables of a stored solution: :func:`_trajectory` over
    windows of its pairs, unscaled.

    R(n) <= |u(n)| + |u(n-1)|, so no radius leaves the float range while
    max |u| <= sys.float_info.max / 2; beyond that bound, Overflow."""
    _instance(sol, Solution, "sol")
    if np.abs(sol.u).max() > sys.float_info.max / 2.0:
        raise Overflow("the stored solution exceeds half the float range, "
                       "so its radius R may not be finite")
    u, ends = sol.u[None], _kernels._ends(0, sol.n, _kernels._CHUNK)
    windows = ((u[:, lo + 1:hi + 1], u[:, lo:hi], 0.0)
               for lo, hi in zip([0] + ends, ends))
    return _trajectory(sol.spec.potential.value_array(sol.n), sol.param,
                       windows, ends)


def evolve_trajectory(spec: OperatorSpec, param: SpectralParam) -> PruferTrajectory:
    """Prufer trajectory of one spectral parameter from the recurrence
    (kernel route).

    The kernel rescales the evolving pair and keeps a log-scale
    accumulator, so ln R is exact for N up to millions of sites regardless
    of amplitude growth.  The streamed driver's windows are transformed by
    :func:`_trajectory` as they come, so no pair array spans the lattice.
    """
    _instance(spec, OperatorSpec, "spec")
    _instance(param, SpectralParam, "param")
    V = spec.potential.value_array(spec.n)
    ends = _kernels._ends(0, spec.n, _kernels._CHUNK)
    windows = _kernels._forward_windows(V, [param.E],
                                        *boundary_values(spec.phi), ends)
    return _trajectory(V, param, windows, ends)


def _angle_step(tb, s, nu):
    """theta(n+1) from tb = theta(n) + x, s = sin(tb) and nu = nu(n): the
    two-argument angle of (cos(tb) - nu s, s) on the branch closest to tb."""
    principal = np.arctan2(s, np.cos(tb) - nu * s)
    # nu = 0 is exactly a rotation by x; bypass the reconstruction rounding
    return np.where(nu == 0.0, tb, tb + _wrap_pi(principal - tb))


@dataclass(frozen=True)
class VerifyReport:
    """Maximum normalized residuals of the three Prufer identities."""

    max_res_efgp0: float
    max_res_efgp1: float
    max_res_efgp2: float

    def max_residual(self) -> float:
        return max(self.max_res_efgp0, self.max_res_efgp1, self.max_res_efgp2)


def verify_recursions(sol: Solution, traj: PruferTrajectory) -> VerifyReport:
    """Check the radius, ratio and angle identities along a trajectory.

    Residuals are absolute errors divided by (1 + local magnitudes), so the
    thresholds are scale-free.  The radius identity is formed on the pair
    divided by m = max(1, |u(n)|, |u(n-1)|), with R^2/m^2 =
    exp(2 (ln R - ln m)), and the ratio identity on both sides divided by
    q^2, q = max(1, |nu(n)| / 2^510): exp(2 (ln R(n+1) - ln R(n) - ln q))
    against 1/q^2 - (nu/q)(1/q) sin(2 theta_bar) + (nu/q)^2 sin^2(theta_bar).
    As |nu/q| <= 2^510, neither side exceeds (1 + 2^510)^2 < 2^1021, and
    1/q^2 >= 2^-1028 stays nonzero, so a solution near the float limit
    or a huge nu gives finite residuals.  The 1 of each denominator becomes
    1/m^2 and 1/q^2; where m = 1 and q = 1 nothing is scaled.  The angle is
    predicted by the pole-free step :func:`_angle_step`.
    Overflow if nu leaves the float range (``PruferTrajectory.nu``).
    """
    _instance(sol, Solution, "sol")
    _instance(traj, PruferTrajectory, "traj")
    if traj.n != sol.n:
        raise LengthMismatch(f"solution has N={sol.n}, trajectory N={traj.n}")
    p = sol.param
    m = np.maximum(1.0, np.maximum(np.abs(sol.u[1:]), np.abs(sol.u[:-1])))
    un, um = sol.u[1:] / m, sol.u[:-1] / m
    r_sq = np.exp(2.0 * (traj.ln_R[1:] - np.log(m)))
    rhs0 = un ** 2 + um ** 2 - 2.0 * un * um * p.cos_x
    res0 = np.abs(r_sq - rhs0) / (m ** -2.0 + np.abs(r_sq) + un ** 2 + um ** 2)

    theta = traj.theta[1:]
    nu = traj.nu[1:-1]
    tb = theta[:-1] + p.x
    s = np.sin(tb)
    q = np.maximum(1.0, np.abs(nu) * 2.0 ** -510)
    w, iq = nu / q, 1.0 / q
    ratio = np.exp(2.0 * (np.diff(traj.ln_R[1:]) - np.log(q)))
    rhs1 = iq * iq - w * iq * np.sin(2.0 * tb) + w * w * s * s
    res1 = np.abs(ratio - rhs1) / (iq * iq + np.abs(ratio) + np.abs(rhs1))

    # angle identity, branch-resolved: theta(n+1) must equal the pole-free
    # step from theta(n); comparing as a wrapped difference keeps the
    # common lift magnitude out of the residual
    res2 = np.abs(_wrap_pi(theta[1:] - _angle_step(tb, s, nu))) / (1.0 + np.abs(nu))

    return VerifyReport(
        max_res_efgp0=float(res0.max()),
        max_res_efgp1=float(res1.max()) if res1.size else 0.0,
        max_res_efgp2=float(res2.max()) if res2.size else 0.0,
    )


def angle_increment_check(traj: PruferTrajectory) -> list:
    """Sites violating the angle-increment bound while |nu| < 1/2.

    Returns every n with |nu(n)| < 1/2 but
    |theta(n+1) - theta(n) - x| > pi*|nu(n)|; empty means the bound is
    verified along this trajectory.  A 1e-12 slack absorbs rounding.
    """
    _instance(traj, PruferTrajectory, "traj")
    nu = np.abs(traj.nu[1:-1])
    inc = np.abs(np.diff(traj.theta[1:]) - traj.param.x)
    bad = (nu < 0.5) & (inc > np.pi * nu + 1e-12)
    return [int(i) + 1 for i in np.nonzero(bad)[0]]


def _reverse_max(a):
    """max(a[i:]) for every i."""
    return np.maximum.accumulate(a[::-1])[::-1]


def _block_onsets(values, n: int, sin_x):
    """Hypothesis onset for each sin x: the first site n from which every
    fl(|V(k)| / sin x), k >= n, stays below 1/2, or 0 if site N = n fails;
    ``values(n_lo, n_hi)`` returns V(n_lo..n_hi).

    No quotient is formed: for sin x >= 2^-1021, fl(a / sin x) < 1/2
    exactly when a < sin x / 2.  That half is exact, since it is a normal
    number, and a < sin x / 2 means a <= pred(sin x / 2), whose quotient by
    sin x is at most 1/2 - 2^-54 = pred(1/2); rounding is monotone, so
    fl(a / sin x) <= pred(1/2).  Every caller passes such a sin x:
    ``spectral.classify_spectrum`` takes E in (-2, 2), so sin x >= 1.4e-8,
    and ``analysis.lemma_sums`` and ``analysis.prufer_sum_diagnostics``
    reject frequencies within 4e-10 of a multiple of pi first.

    V is read once, in blocks of _kernels._BLOCK sites from site N back to
    site 1, while some sin x has no last failing site yet.  A block whose
    max |V| lies below the smallest of their halves is passed over; in any
    other, each open half's count of failing sites in the block is its
    ``np.searchsorted`` position in the negated reverse cumulative max of
    |V|, so its last failing site is the block's first site before it plus
    that count.  No array as long as the lattice is formed.
    """
    half = np.reshape(np.asarray(sin_x, dtype=np.float64), -1) / 2.0
    onsets = np.ones(half.shape, dtype=np.intp)
    open_ = np.arange(half.size)  # the halves with no last failing site yet
    width = _kernels._BLOCK
    for lo in range((n - 1) // width * width, -1, -width):
        if open_.size == 0:
            break
        v = np.abs(values(lo + 1, min(lo + width, n)))
        if v.max() < half[open_].min():
            continue
        last = lo + np.searchsorted(-_reverse_max(v), -half[open_], side="right")
        found = last > lo
        onsets[open_[found]] = np.where(last < n, last + 1, 0)[found]
        open_ = open_[~found]
    return onsets


def _potential_onsets(potential, n: int, sin_x):
    """:func:`_block_onsets` of the Potential's V(1..N), read only where an
    onset can lie.

    Past its explicit values every family has |V(n)| <= fl(|c|/n): c/n up
    to sign, or fl(c sin(.))/n with |fl(c sin(.))| <= |c|, or 0 before its
    onset, and rounding is monotone.  So with m the first site where
    fl(|c|/m) < min(sin x)/2, every site after H = max(len(table), m - 1)
    passes for every sin x: only V(1..H) is read, and an onset 0 there
    (site H fails) is H + 1.  H >= N reads V(1..N), and so does an m that
    fails its check.
    """
    c, half = abs(potential.amplitude), min(sin_x) / 2.0
    # m = floor(c / half) + 1 up to the rounding of c / half, checked
    m = int(min(c / half, n)) + 1
    m += not c / m < half
    h = max(len(potential.table), m - 1) if c / m < half else n
    onsets = _block_onsets(potential.values, min(h, n), sin_x)
    if h < n:
        onsets[onsets == 0] = h + 1
    return onsets


def _onsets(V, sin_x):
    """:func:`_block_onsets` of the values V(1..N) held in V."""
    return _block_onsets(lambda n_lo, n_hi: V[n_lo - 1:n_hi], V.shape[0], sin_x)


def common_onset(trajs, n_max: int) -> tuple:
    """First site from which every |nu_j| stays below 1/2, and whether one
    exists within range (the angle-increment hypothesis)."""
    onsets = [int(_onsets(t.V[1:n_max + 1], t.param.sin_x)[0]) for t in trajs]
    return max([1] + onsets), all(onsets)
