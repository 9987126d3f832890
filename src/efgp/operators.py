"""Half-line potentials with Coulomb-type decay and their truncated Jacobi form.

A potential is a deterministic rule n -> V(n) for n >= 1.  Every analytic
family satisfies n*|V(n)| <= amplitude, so the amplitude doubles as a decay
envelope; :func:`envelope_constant` measures the empirical envelope over a
range.  :func:`build_jacobi` folds the phase boundary condition
y(0) sin(phi) + y(1) cos(phi) = 0 into row one of a symmetric tridiagonal
matrix with unit off-diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRange, EmptyTable, ParamOutOfRange, PhaseOutOfRange, UnknownFamily

FAMILIES = ("coulomb", "alternating", "resonant", "random_sign", "table")

# splitmix64 multipliers; the sign stream must be reproducible across
# platforms, so it is pure uint64 arithmetic keyed by (seed, n).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix_bits(seed: int, n: np.ndarray) -> np.ndarray:
    z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ (n.astype(np.uint64) * _SM_GAMMA)) + _SM_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM_M1
    z = (z ^ (z >> np.uint64(27))) * _SM_M2
    return z ^ (z >> np.uint64(31))


def random_signs(seed: int, n: np.ndarray) -> np.ndarray:
    """Deterministic +/-1 stream keyed by seed, counter-based in n."""
    bits = _splitmix_bits(seed, np.asarray(n))
    return np.where((bits >> np.uint64(63)).astype(np.int64) == 0, 1.0, -1.0)


@dataclass(frozen=True)
class Potential:
    """Evaluation rule for V(n), n >= 1; V(n) = 0 for n < onset.

    family:    one of coulomb | alternating | resonant | random_sign | table
    amplitude: scale c; for the analytic families n*|V(n)| <= c
    omega:     radians per step (resonant only)
    delta:     phase offset (resonant only)
    seed:      key of the sign stream (random_sign only)
    table:     explicit values, table[0] = V(1) (table only)
    """

    family: str
    amplitude: float = 0.0
    omega: float = 0.0
    delta: float = 0.0
    seed: int = 0
    table: tuple = ()
    onset: int = 1

    def values(self, n_lo: int, n_hi: int) -> np.ndarray:
        """V(n) for n in [n_lo, n_hi] as a vector."""
        if not 1 <= n_lo <= n_hi:
            raise EmptyRange(f"need 1 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
        n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
        c = self.amplitude
        if self.family == "coulomb":
            v = c / n
        elif self.family == "alternating":
            v = np.where(n % 2 == 0, c, -c) / n
        elif self.family == "resonant":
            # omega*n may overflow and sin(inf) is nan: the finiteness
            # check below follows at once
            with np.errstate(over="ignore", invalid="ignore"):
                v = c * np.sin(self.omega * n + self.delta) / n
        elif self.family == "random_sign":
            v = random_signs(self.seed, n) * c / n
        elif self.family == "table":
            v = np.zeros(n.shape[0])
            mask = n <= len(self.table)
            if mask.any():
                idx = n[mask] - 1
                v[mask] = np.asarray(self.table, dtype=float)[idx]
        else:  # unreachable through make_potential
            raise UnknownFamily(self.family)
        if self.onset > 1:
            v = np.where(n < self.onset, 0.0, v)
        if not np.isfinite(v).all():  # resonant omega*n beyond the float range
            raise ParamOutOfRange(f"V(n) is not finite on [{n_lo}, {n_hi}]")
        return v

    def value_array(self, n_max: int) -> np.ndarray:
        """Site-indexed layout for the kernels: V[n] = V(n), slot 0 = 0."""
        out = np.zeros(n_max + 1)
        out[1:] = self.values(1, n_max)
        return out


def make_potential(family: str, *, c: float = 0.0, omega: float = 0.0,
                   delta: float = 0.0, seed: int = 0, values=None,
                   n0: int = 1) -> Potential:
    """Build a Potential, validating the family-specific parameters."""
    fam = str(family).lower().replace("-", "_")
    if fam not in FAMILIES:
        raise UnknownFamily(f"unknown potential family {family!r}")
    if not math.isfinite(c):
        raise ParamOutOfRange("amplitude must be finite")
    if not (math.isfinite(omega) and math.isfinite(delta)):
        raise ParamOutOfRange(f"omega and delta must be finite, got {omega}, {delta}")
    if n0 < 1:
        raise ParamOutOfRange("onset n0 must be >= 1")
    table = ()
    if fam == "table":
        if values is None or len(values) == 0:
            raise EmptyTable("table family requires a nonempty value sequence")
        table = tuple(float(v) for v in values)
        if not all(math.isfinite(v) for v in table):
            raise ParamOutOfRange("table values must be finite")
    return Potential(family=fam, amplitude=float(c), omega=float(omega),
                     delta=float(delta), seed=int(seed), table=table,
                     onset=int(n0))


def envelope_constant(p: Potential, n_lo: int, n_hi: int) -> float:
    """Empirical Coulomb envelope max n*|V(n)| over [n_lo, n_hi]."""
    if not 1 <= n_lo <= n_hi:
        raise EmptyRange(f"need 1 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    n = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    return float(np.max(n * np.abs(p.values(n_lo, n_hi))))


@dataclass(frozen=True)
class OperatorSpec:
    """Potential + boundary phase phi in (0, pi) + truncation length N."""

    potential: Potential
    phi: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.phi < math.pi:
            raise PhaseOutOfRange(f"phi must lie in (0, pi), got {self.phi}")
        if self.n < 2:
            raise ParamOutOfRange(f"truncation N must be >= 2, got {self.n}")


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix: given diagonal, off-diagonal all 1."""

    diagonal: np.ndarray

    @property
    def size(self) -> int:
        return self.diagonal.shape[0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product."""
        v = np.asarray(vec, dtype=float)
        out = self.diagonal * v
        out[:-1] += v[1:]
        out[1:] += v[:-1]
        return out

    def to_dense(self) -> np.ndarray:
        n = self.size
        m = np.diag(self.diagonal)
        idx = np.arange(n - 1)
        m[idx, idx + 1] = 1.0
        m[idx + 1, idx] = 1.0
        return m

    def gershgorin(self) -> tuple:
        """(lower, upper) bound enclosing the whole spectrum."""
        d = self.diagonal
        return float(d.min() - 2.0), float(d.max() + 2.0)


def build_jacobi(spec: OperatorSpec) -> JacobiMatrix:
    """Truncate H_phi to N sites: d(1) = V(1) - cot(phi), d(n) = V(n).

    Eliminating y(0) = -y(1) cot(phi) turns the boundary condition into the
    row-one shift; the far end gets a hard wall y(N+1) = 0.
    """
    if not 0.0 < spec.phi < math.pi:
        raise PhaseOutOfRange(f"phi must lie in (0, pi), got {spec.phi}")
    d = spec.potential.values(1, spec.n).copy()
    d[0] -= math.cos(spec.phi) / math.sin(spec.phi)
    return JacobiMatrix(diagonal=d)
