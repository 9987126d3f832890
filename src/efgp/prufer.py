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

The change of variables is implemented once, vectorized: ``to_prufer``
applies it to a stored solution, and ``evolve_trajectory`` (like
``spectral.resonance_construct`` backwards) to the rescaled pairs of a
kernel recurrence, adding the log scale back to ln R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import (
    DegenerateSolution,
    LengthMismatch,
    Overflow,
    ParamOutOfRange,
)
from .operators import OperatorSpec


def _wrap_pi(a):
    """Reduce modulo 2*pi into (-pi, pi]."""
    return a - 2.0 * np.pi * np.ceil((a - np.pi) / (2.0 * np.pi))


@dataclass(frozen=True)
class SpectralParam:
    """Spectral parameter x in (0, pi) with E = 2 cos(x)."""

    x: float
    E: float
    sin_x: float

    @classmethod
    def from_x(cls, x: float) -> "SpectralParam":
        if not 0.0 < x < math.pi:
            raise ParamOutOfRange(f"x must lie in (0, pi), got {x}")
        return cls(x=float(x), E=2.0 * math.cos(x), sin_x=math.sin(x))

    @classmethod
    def from_energy(cls, E: float) -> "SpectralParam":
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
    from it.  nu holds V(n)/sin(x) aligned with the sites.
    """

    theta: np.ndarray
    ln_R: np.ndarray
    nu: np.ndarray
    param: SpectralParam

    @property
    def n(self) -> int:
        return self.theta.shape[0] - 1

    @property
    def R(self) -> np.ndarray:
        return np.exp(self.ln_R)

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
        u[0] = r[1] * math.sin(self.theta[1]) / s
        u[1:] = r[1:] * (np.cos(self.theta[1:]) + np.sin(self.theta[1:]) * c / s)
        return u


def boundary_values(phi: float) -> tuple:
    """(u(0), u(1)) = (cos(phi), -sin(phi)) satisfies the phase condition."""
    return math.cos(phi), -math.sin(phi)


def transfer_step(V_n: float, E: float, state: tuple) -> tuple:
    """One step (u(n), u(n-1)) -> (u(n+1), u(n)); the 2x2 map has det 1."""
    un, um = state
    return (E - V_n) * un - um, un


def solve_recurrence(spec: OperatorSpec, param: SpectralParam) -> Solution:
    """Evolve the boundary-condition solution out to site N.

    Raises Overflow if the amplitude leaves the representable range; use
    :func:`evolve_trajectory` for the rescaled log-scale evolution.
    """
    V = spec.potential.value_array(spec.n)
    u0, u1 = boundary_values(spec.phi)
    # overflow is detected and signalled by the kernel itself
    with np.errstate(over="ignore", invalid="ignore"):
        u, flag = _kernels.solve_forward(V, param.E, u0, u1)
    if flag >= 0:
        raise Overflow(f"solution amplitude left float range at site {flag}")
    return Solution(u=u, spec=spec, param=param)


def _transform(un, um, ln_scale, V, param: SpectralParam) -> PruferTrajectory:
    """Prufer variables of the pairs (u(n), u(n-1)) = exp(ln_scale) (un, um)
    and the potential V, all given for the sites n = 1..N.

    The angle lift is chosen so each theta(n+1) is the representative of
    its principal angle closest to theta(n) + x.
    """
    # one block for the outputs, allocated before the temporaries: placed
    # among them, the outputs fragmented the heap (lemma-sums peak RSS +10%)
    n = un.shape[0]
    theta, lnr, nu = np.full((3, n + 1), np.nan)
    ca = un - um * param.cos_x
    cb = um * param.sin_x
    r = np.hypot(ca, cb)
    if np.any(r == 0.0):
        bad = int(np.nonzero(r == 0.0)[0][0]) + 1
        raise DegenerateSolution(f"trivial solution: R({bad}) = 0")
    principal = np.arctan2(cb, ca)
    d = _wrap_pi(np.diff(principal) - param.x)
    theta[1] = principal[0]
    theta[2:] = principal[0] + np.arange(1, n) * param.x + np.cumsum(d)
    lnr[1:] = np.log(r) + ln_scale
    nu[1:] = V / param.sin_x
    return PruferTrajectory(theta=theta, ln_R=lnr, nu=nu, param=param)


def to_prufer(sol: Solution) -> PruferTrajectory:
    """Prufer variables of a stored solution (vectorized route)."""
    return _transform(sol.u[1:], sol.u[:-1], 0.0,
                      sol.spec.potential.values(1, sol.n), sol.param)


def evolve_trajectory(spec: OperatorSpec, param: SpectralParam) -> PruferTrajectory:
    """Prufer trajectory straight from the recurrence (kernel route).

    The kernel rescales the evolving pair and keeps a log-scale
    accumulator, so ln R is exact for N up to millions of sites regardless
    of amplitude growth; the pairs then go through the same transform as
    :func:`to_prufer`.
    """
    V = spec.potential.value_array(spec.n)
    u0, u1 = boundary_values(spec.phi)
    un, um, ln_scale = _kernels.prufer_forward(V, param.E, u0, u1)
    return _transform(un[1:], um[1:], ln_scale[1:], V[1:], param)


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
    if traj.n != sol.n:
        raise LengthMismatch(f"solution has N={sol.n}, trajectory N={traj.n}")
    p = sol.param
    u = sol.u
    r_sq = np.exp(2.0 * traj.ln_R[1:])
    rhs0 = u[1:] ** 2 + u[:-1] ** 2 - 2.0 * u[1:] * u[:-1] * p.cos_x
    res0 = np.abs(r_sq - rhs0) / (1.0 + np.abs(r_sq) + u[1:] ** 2 + u[:-1] ** 2)

    theta = traj.theta[1:]
    nu = traj.nu[1:]
    tb = theta[:-1] + p.x
    ratio = np.exp(2.0 * np.diff(traj.ln_R[1:]))
    rhs1 = 1.0 - nu[:-1] * np.sin(2.0 * tb) + nu[:-1] ** 2 * np.sin(tb) ** 2
    res1 = np.abs(ratio - rhs1) / (1.0 + np.abs(ratio) + np.abs(rhs1))

    # angle identity, branch-resolved: theta(n+1) must equal the pole-free
    # reconstruction from theta(n); comparing as a wrapped difference keeps
    # the common lift magnitude out of the residual
    predicted = np.arctan2(np.sin(tb), np.cos(tb) - nu[:-1] * np.sin(tb))
    res2_raw = np.abs(_wrap_pi(theta[1:] - predicted))
    res2 = res2_raw / (1.0 + np.abs(nu[:-1]))

    return VerifyReport(
        max_res_efgp0=float(res0.max()),
        max_res_efgp1=float(res1.max()) if res1.size else 0.0,
        max_res_efgp2=float(res2.max()) if res2.size else 0.0,
    )


def angle_increment_check(traj: PruferTrajectory, nu=None) -> list:
    """Sites violating the angle-increment bound while |nu| < 1/2.

    Returns every n with |nu(n)| < 1/2 but
    |theta(n+1) - theta(n) - x| > pi*|nu(n)|; empty means the bound is
    verified along this trajectory.  A 1e-12 slack absorbs rounding.
    """
    nu_arr = traj.nu[1:] if nu is None else np.asarray(nu, dtype=float)
    if nu_arr.shape[0] < traj.n:
        raise LengthMismatch("nu shorter than the trajectory")
    inc = np.abs(np.diff(traj.theta[1:]) - traj.param.x)
    small = np.abs(nu_arr[:traj.n - 1]) < 0.5
    bad = small & (inc > np.pi * np.abs(nu_arr[:traj.n - 1]) + 1e-12)
    return [int(i) + 1 for i in np.nonzero(bad)[0]]


def common_onset(trajs, n_max: int) -> tuple:
    """First site from which every |nu_j| stays below 1/2, and whether one
    exists within range (the angle-increment hypothesis)."""
    n0 = 1
    ok = True
    for traj in trajs:
        a = np.abs(traj.nu[1:n_max + 1])
        rev = np.maximum.accumulate(a[::-1])[::-1]
        idx = np.nonzero(rev < 0.5)[0]
        if idx.size == 0:
            ok = False
        else:
            n0 = max(n0, int(idx[0]) + 1)
    return n0, ok


def corrupt_theta(traj: PruferTrajectory, site: int, offset: float) -> PruferTrajectory:
    """Copy of the trajectory with theta(site) shifted (fault injection)."""
    theta = traj.theta.copy()
    theta[site] += offset
    return replace(traj, theta=theta)
