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

Both routes share one recurrence, solved as BLAS band systems in
``_kernels``: ``solve_recurrence`` stores the raw solution, and
``evolve_trajectories`` (like ``spectral.resonance_construct`` backwards)
gets it as rescaled pairs with a log scale, window by window.  One
transform, ``_trajectories``, takes windows of pairs of B rows, one per
spectral parameter, from ``evolve_trajectories`` (the driver's) or
``to_prufer`` (a stored solution's): per window one step of the angle
lift, ``_Lift``, which carries theta(1), the last principal angle and the
running sum of the steps to the next window, and ln R from ``_ln_r``, the
only place the radius formula is evaluated.  ``R`` and ``u_values()``
raise Overflow rather than return inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DegenerateSolution,
    LengthMismatch,
    Overflow,
    ParamOutOfRange,
)
from .operators import OperatorSpec, _instance, _instances, _real


def _finite(values, name: str) -> np.ndarray:
    """Site-indexed values, or Overflow naming the first infinite site."""
    inf = np.isinf(values)
    if inf.any():
        site = int(inf.argmax())
        raise Overflow(f"{name}({site}) exceeds the float range")
    return values


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


@dataclass(frozen=True)
class SpectralParam:
    """Spectral parameter x in (0, pi) with E = 2 cos(x)."""

    x: float
    E: float
    sin_x: float

    @classmethod
    def from_x(cls, x: float) -> "SpectralParam":
        x = _real(x, "x")
        if not 0.0 < x < math.pi:
            raise ParamOutOfRange(f"x must lie in (0, pi), got {x}")
        return cls(*_param_fields(x))

    @classmethod
    def from_energy(cls, E: float) -> "SpectralParam":
        E = _real(E, "E")
        if not -2.0 < E < 2.0:
            raise ParamOutOfRange(f"E must lie in (-2, 2), got {E}")
        return cls.from_x(math.acos(E / 2.0))

    @property
    def cos_x(self) -> float:
        return self.E / 2.0


@dataclass(frozen=True)
class Solution:
    """Raw solution values u(0..N) for one operator and spectral parameter."""

    u: np.ndarray
    spec: OperatorSpec
    param: SpectralParam

    @property
    def n(self) -> int:
        return self.u.shape[0] - 1


@dataclass(frozen=True)
class PruferTrajectory:
    """Prufer variables along one trajectory, site-indexed (slot 0 = nan).

    ln_R is exact even when the evolution rescaled internally; R is derived
    from it, and nu = V/sin(x) from the site-indexed V, often shared.
    """

    theta: np.ndarray
    ln_R: np.ndarray
    V: np.ndarray
    param: SpectralParam

    @property
    def n(self) -> int:
        return self.theta.shape[0] - 1

    @property
    def nu(self) -> np.ndarray:
        """V(n)/sin(x), site-indexed (slot 0 = nan)."""
        return np.concatenate(([np.nan], self.V[1:] / self.param.sin_x))

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
        """R(1), the fixed scale set by the boundary normalization."""
        return float(math.exp(self.ln_R[1]))

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
    """Evolve the boundary-condition solution out to site N.

    Raises Overflow if the amplitude leaves the representable range; use
    :func:`evolve_trajectory` for the rescaled log-scale evolution.
    """
    _instance(spec, OperatorSpec, "spec")
    _instance(param, SpectralParam, "param")
    V = spec.potential.value_array(spec.n)
    u0, u1 = boundary_values(spec.phi)
    # overflow is detected and signalled by the kernel itself
    with np.errstate(over="ignore", invalid="ignore"):
        u, flag = _kernels.solve_forward(V, param.E, u0, u1)
    if flag >= 0:
        raise Overflow(f"solution amplitude left float range at site {flag}")
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


def _trajectories(V, params, windows, ends) -> list:
    """Trajectories along the site-indexed V, one per parameter, of the
    pairs (u(n), u(n-1)) = exp(scale) (cur, prev) that windows yields, one
    window per end in ends, of the sites after the previous end (0 first),
    at most _kernels._CHUNK: per window one :class:`_Lift` step and
    :func:`_ln_r`."""
    n = ends[-1]
    theta, ln_r = np.empty((2, len(params), n + 1))
    theta[:, 0] = ln_r[:, 0] = np.nan
    lift = _Lift(params, min(n, _kernels._CHUNK))
    for lo, hi, (cur, prev, scale) in zip([0] + ends, ends, windows):
        lift.step(cur, prev, theta[:, lo + 1:hi + 1])
        _ln_r(cur, prev, scale, lift.cos_x, lift.sin_x, out=ln_r[:, lo + 1:hi + 1])
    return [PruferTrajectory(theta=t, ln_R=lr, V=V, param=p)
            for t, lr, p in zip(theta, ln_r, params)]


def to_prufer(sol: Solution) -> PruferTrajectory:
    """Prufer variables of a stored solution: :func:`_trajectories` over
    windows of its pairs, unscaled."""
    _instance(sol, Solution, "sol")
    u, ends = sol.u[None], _kernels._ends(0, sol.n, _kernels._CHUNK)
    windows = ((u[:, lo + 1:hi + 1], u[:, lo:hi], 0.0)
               for lo, hi in zip([0] + ends, ends))
    return _trajectories(sol.spec.potential.value_array(sol.n), [sol.param],
                         windows, ends)[0]


def evolve_trajectories(spec: OperatorSpec, params) -> list:
    """Prufer trajectories from the recurrence (kernel route), one per
    spectral parameter, all sharing one evaluation of V.

    The kernel rescales the evolving pair and keeps a log-scale
    accumulator, so ln R is exact for N up to millions of sites regardless
    of amplitude growth.  All parameters are evolved as the blocks of one
    streamed driver, whose windows :func:`_trajectories` transforms as they
    come, so no pair array spans the lattice.
    """
    _instance(spec, OperatorSpec, "spec")
    params = _instances(params, SpectralParam, "params")
    V = spec.potential.value_array(spec.n)
    ends = _kernels._ends(0, spec.n, _kernels._CHUNK)
    windows = _kernels._forward_windows(V, [p.E for p in params],
                                        *boundary_values(spec.phi), ends)
    return _trajectories(V, params, windows, ends)


def evolve_trajectory(spec: OperatorSpec, param: SpectralParam) -> PruferTrajectory:
    """Prufer trajectory of one spectral parameter (kernel route)."""
    return evolve_trajectories(spec, [param])[0]


def prufer_step(theta_n, nu_n, x):
    """One analytic Prufer step: (amplitude ratio squared, next angle).

    ratio_sq is the one-step identity evaluated directly; theta_next is
    reconstructed from the two-argument angle of
    (cos(theta+x) - nu sin(theta+x), sin(theta+x)), which has no cotangent
    poles, lifted to the branch closest to theta + x.
    """
    tb = np.asarray(theta_n) + x
    s = np.sin(tb)
    c = np.cos(tb)
    nu = np.asarray(nu_n)
    ratio_sq = 1.0 - nu * np.sin(2.0 * tb) + nu * nu * s * s
    principal = np.arctan2(s, c - nu * s)
    # nu = 0 is exactly a rotation by x; bypass the reconstruction rounding
    theta_next = np.where(nu == 0.0, tb, tb + _wrap_pi(principal - tb))
    if np.ndim(theta_n) == 0 and np.ndim(nu_n) == 0:
        return float(ratio_sq), float(theta_next)
    return ratio_sq, theta_next


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
    thresholds are scale-free.
    """
    _instance(sol, Solution, "sol")
    _instance(traj, PruferTrajectory, "traj")
    if traj.n != sol.n:
        raise LengthMismatch(f"solution has N={sol.n}, trajectory N={traj.n}")
    p = sol.param
    u = sol.u
    r_sq = np.exp(2.0 * traj.ln_R[1:])
    rhs0 = u[1:] ** 2 + u[:-1] ** 2 - 2.0 * u[1:] * u[:-1] * p.cos_x
    res0 = np.abs(r_sq - rhs0) / (1.0 + np.abs(r_sq) + u[1:] ** 2 + u[:-1] ** 2)

    theta = traj.theta[1:]
    nu = traj.nu[1:]
    ratio = np.exp(2.0 * np.diff(traj.ln_R[1:]))
    rhs1, predicted = prufer_step(theta[:-1], nu[:-1], p.x)
    res1 = np.abs(ratio - rhs1) / (1.0 + np.abs(ratio) + np.abs(rhs1))

    # angle identity, branch-resolved: theta(n+1) must equal the pole-free
    # step from theta(n); comparing as a wrapped difference keeps the
    # common lift magnitude out of the residual
    res2 = np.abs(_wrap_pi(theta[1:] - predicted)) / (1.0 + np.abs(nu[:-1]))

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


def _failing_prefix(rev, s):
    """For each entry of s, the count of leading entries of the
    non-increasing rev failing fl(rev / s) < 1/2: the test holds on a tail,
    so bisect, adding each power of two whose last entry still fails."""
    n = rev.shape[0]
    fails = np.zeros(s.shape, dtype=np.intp)
    for k in reversed(range(n.bit_length())):
        more = fails + (1 << k)
        failing = ~(rev[np.minimum(more, n) - 1] / s < 0.5)
        fails = np.where((more <= n) & failing, more, fails)
    return fails


def _block_onsets(values, n: int, sin_x):
    """Hypothesis onset for each sin x: the first site n from which every
    fl(|V(k)| / sin x), k >= n, stays below 1/2, or 0 if site N = n fails;
    ``values(n_lo, n_hi)`` returns V(n_lo..n_hi).

    Division by sin x > 0 is monotone under rounding, so fl(max / sin x) is
    the max of the quotients, and the sites that fail form a prefix of the
    reverse cumulative max.  That prefix is bisected twice: over the
    reverse max of the maxima of |V| in blocks of _kernels._BLOCK sites,
    read block by block in one pass of values, for the last failing block,
    then over the reverse max of |V| in that block, read again.  No array
    as long as the lattice is formed.
    """
    s = np.reshape(np.asarray(sin_x, dtype=np.float64), -1)
    width = _kernels._BLOCK
    top = np.empty(-(-n // width))
    for b in range(top.size):
        v = values(b * width + 1, min(b * width + width, n))
        top[b] = max(v.max(), -v.min())
    last = _failing_prefix(_reverse_max(top), s) - 1  # the last failing block
    onsets = np.ones(s.shape, dtype=np.intp)
    for b in np.unique(last[last >= 0]).tolist():
        which = np.flatnonzero(last == b)
        lo = b * width
        rev = _reverse_max(np.abs(values(lo + 1, min(lo + width, n))))
        end = lo + _failing_prefix(rev, s[which])  # the last failing site
        onsets[which] = np.where(end < n, end + 1, 0)
    return onsets


def _onsets(V, sin_x):
    """:func:`_block_onsets` of the values V(1..N) held in V."""
    return _block_onsets(lambda n_lo, n_hi: V[n_lo - 1:n_hi], V.shape[0], sin_x)


def common_onset(trajs, n_max: int) -> tuple:
    """First site from which every |nu_j| stays below 1/2, and whether one
    exists within range (the angle-increment hypothesis)."""
    onsets = [int(_onsets(t.V[1:n_max + 1], t.param.sin_x)[0]) for t in trajs]
    return max([1] + onsets), all(onsets)
