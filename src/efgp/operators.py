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
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EmptyRange, EmptyTable, ParamOutOfRange, PhaseOutOfRange, UnknownFamily

FAMILIES = ("coulomb", "alternating", "resonant", "random_sign", "table")

# splitmix64 multipliers; the sign stream must be reproducible across
# platforms, so it is pure uint64 arithmetic keyed by (seed, n).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_SIGN_BIT = np.uint64(1 << 63)


def _int(v, name: str) -> int:
    """v as an int, or ParamOutOfRange (a float size is never truncated)."""
    try:
        return operator.index(v)
    except TypeError:
        raise ParamOutOfRange(f"{name} must be an integer, got {v!r}") from None


def _real(v, name: str) -> float:
    """v as a float if it is a real number, else ParamOutOfRange."""
    if not isinstance(v, numbers.Real):
        raise ParamOutOfRange(f"{name} must be a real number, got {v!r}")
    return float(v)


def _instance(v, cls, name: str):
    """ParamOutOfRange unless v is a cls instance."""
    if not isinstance(v, cls):
        raise ParamOutOfRange(f"{name} must be a {cls.__name__}, got {v!r}")


def _instances(values, cls, name: str) -> list:
    """values as a list of cls instances, else ParamOutOfRange."""
    try:
        out = list(values)
    except TypeError:
        out = None
    if out is None or not all(isinstance(v, cls) for v in out):
        raise ParamOutOfRange(
            f"{name} must be an iterable of {cls.__name__}, got {values!r}")
    return out


def _splitmix_bits(seed: int, n: np.ndarray) -> np.ndarray:
    z = n.astype(np.uint64)  # a new array, mixed in place
    z *= _SM_GAMMA
    z ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    z += _SM_GAMMA
    z ^= z >> np.uint64(30)
    z *= _SM_M1
    z ^= z >> np.uint64(27)
    z *= _SM_M2
    z ^= z >> np.uint64(31)
    return z


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
        n_lo, n_hi = _int(n_lo, "n_lo"), _int(n_hi, "n_hi")
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
            # (-c)/n = -(c/n) exactly: flip the sign bit of c/n where the
            # top bit of the stream marks a -1 of random_signs
            v = c / n
            v.view(np.uint64)[...] ^= _splitmix_bits(self.seed, n) & _SIGN_BIT
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
        """Site-indexed layout for the kernels: V[n] = V(n), slot 0 = 0.

        The values are written block by block, so the temporaries of
        :meth:`values` stay block-sized; a non-finite value raises
        ParamOutOfRange naming its block's range."""
        out = np.empty(n_max + 1)
        out[0] = 0.0
        for lo in range(1, n_max + 1, _kernels._BLOCK):
            hi = min(lo + _kernels._BLOCK - 1, n_max)
            out[lo:hi + 1] = self.values(lo, hi)
        return out


def make_potential(family: str, *, c: float = 0.0, omega: float = 0.0,
                   delta: float = 0.0, seed: int = 0, values=None,
                   n0: int = 1) -> Potential:
    """Build a Potential, validating the family-specific parameters."""
    fam = str(family).lower().replace("-", "_")
    if fam not in FAMILIES:
        raise UnknownFamily(f"unknown potential family {family!r}")
    c, omega, delta = _real(c, "c"), _real(omega, "omega"), _real(delta, "delta")
    seed, n0 = _int(seed, "seed"), _int(n0, "n0")
    if not math.isfinite(c):
        raise ParamOutOfRange("amplitude must be finite")
    if not (math.isfinite(omega) and math.isfinite(delta)):
        raise ParamOutOfRange(f"omega and delta must be finite, got {omega}, {delta}")
    if n0 < 1:
        raise ParamOutOfRange("onset n0 must be >= 1")
    table = ()
    if fam == "table":
        try:
            table = tuple(_real(v, "table value")
                          for v in (() if values is None else values))
        except TypeError:
            raise ParamOutOfRange(f"values must be a sequence, got {values!r}") from None
        if not table:
            raise EmptyTable("table family requires a nonempty value sequence")
        if not all(math.isfinite(v) for v in table):
            raise ParamOutOfRange("table values must be finite")
    return Potential(family=fam, amplitude=c, omega=omega, delta=delta,
                     seed=seed, table=table, onset=n0)


def envelope_constant(p: Potential, n_lo: int, n_hi: int) -> float:
    """Empirical Coulomb envelope max n*|V(n)| over [n_lo, n_hi]."""
    _instance(p, Potential, "p")
    n_lo, n_hi = _int(n_lo, "n_lo"), _int(n_hi, "n_hi")
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
        _instance(self.potential, Potential, "potential")
        object.__setattr__(self, "phi", _real(self.phi, "phi"))
        object.__setattr__(self, "n", _int(self.n, "truncation N"))
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
    _instance(spec, OperatorSpec, "spec")
    if not 0.0 < spec.phi < math.pi:
        raise PhaseOutOfRange(f"phi must lie in (0, pi), got {spec.phi}")
    d = spec.potential.values(1, spec.n).copy()
    d[0] -= math.cos(spec.phi) / math.sin(spec.phi)
    return JacobiMatrix(diagonal=d)
