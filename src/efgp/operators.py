"""Half-line potentials with Coulomb-type decay and their truncated Jacobi form.

A potential is a deterministic rule n -> V(n) for n >= 1.  The formula of
every analytic family satisfies n*|V(n)| <= amplitude, so the amplitude
doubles as a decay envelope unless explicit head values exceed it;
:func:`envelope_constant` measures the empirical envelope over a range.
:func:`build_jacobi` folds the phase boundary condition
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
from .errors import (EmptyRange, EmptyTable, ParamOutOfRange, PhaseOutOfRange,
                     UnknownFamily)

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


def _real_vector(a, name: str) -> np.ndarray:
    """a as float64 if it is a finite 1-D ndarray of integer or float dtype,
    else ParamOutOfRange."""
    if not (isinstance(a, np.ndarray) and a.ndim == 1
            and a.dtype.kind in "iuf"):
        raise ParamOutOfRange(f"{name} must be a 1-D real array, got {a!r}")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ParamOutOfRange(f"{name} must be finite")
    return a


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
    """Evaluation rule for V(n), n >= 1: the family's formula, then the
    explicit values, then V(n) = 0 for n < onset.

    family:    one of coulomb | alternating | resonant | random_sign | table;
               table is the coulomb formula c/n, with c = 0 unless given
    amplitude: scale c; the formulas satisfy n*|V(n)| <= c
    omega:     radians per step (resonant only)
    delta:     phase offset (resonant only)
    seed:      key of the sign stream (random_sign only)
    table:     explicit values V(1..k), table[0] = V(1), which replace the
               formula's first k values for every family; the table family
               needs at least one
    """

    family: str
    amplitude: float = 0.0
    omega: float = 0.0
    delta: float = 0.0
    seed: int = 0
    table: tuple = ()
    onset: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnknownFamily(f"unknown potential family {self.family!r}")
        for name in ("amplitude", "omega", "delta"):
            v = _real(getattr(self, name), name)
            if not math.isfinite(v):
                raise ParamOutOfRange(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "seed", _int(self.seed, "seed"))
        object.__setattr__(self, "onset", _int(self.onset, "onset"))
        if self.onset < 1:
            raise ParamOutOfRange(f"onset must be >= 1, got {self.onset}")
        _instance(self.table, tuple, "table")
        table = tuple(_real(v, "table value") for v in self.table)
        if self.family == "table" and not table:
            raise EmptyTable("table family requires a nonempty value sequence")
        if not all(math.isfinite(v) for v in table):
            raise ParamOutOfRange("table values must be finite")
        object.__setattr__(self, "table", table)

    def values(self, n_lo: int, n_hi: int) -> np.ndarray:
        """V(n) for n in [n_lo, n_hi] as a vector."""
        n_lo, n_hi = _int(n_lo, "n_lo"), _int(n_hi, "n_hi")
        if not 1 <= n_lo <= n_hi:
            raise EmptyRange(f"need 1 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
        n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
        c = self.amplitude
        if self.family == "alternating":
            v = np.where(n % 2 == 0, c, -c) / n
        elif self.family == "resonant":
            # omega*n may overflow and sin(inf) is nan: the finiteness
            # check below follows at once
            with np.errstate(over="ignore", invalid="ignore"):
                v = c * np.sin(self.omega * n + self.delta) / n
        else:  # coulomb, table and random_sign
            v = c / n
        if self.family == "random_sign":
            # (-c)/n = -(c/n) exactly: flip the sign bit of c/n where the
            # top bit of the stream marks a -1 of random_signs
            v.view(np.uint64)[...] ^= _splitmix_bits(self.seed, n) & _SIGN_BIT
        head = self.table[n_lo - 1:n_hi]  # only this range's explicit values
        v[:len(head)] = head
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
        n_max = _int(n_max, "n_max")
        if n_max < 1:
            raise EmptyRange(f"need n_max >= 1, got {n_max}")
        out = np.empty(n_max + 1)
        out[0] = 0.0
        for lo in range(1, n_max + 1, _kernels._BLOCK):
            hi = min(lo + _kernels._BLOCK - 1, n_max)
            out[lo:hi + 1] = self.values(lo, hi)
        return out


def make_potential(family: str, *, c: float = 0.0, omega: float = 0.0,
                   delta: float = 0.0, seed: int = 0, values=None,
                   n0: int = 1) -> Potential:
    """Build a Potential from a family name in any case, with - for _;
    ``values`` become the explicit V(1..k) of any family.  Potential checks
    the parameters."""
    fam = str(family).lower().replace("-", "_")
    try:
        table = tuple(() if values is None else values)
    except TypeError:
        raise ParamOutOfRange(f"values must be a sequence, got {values!r}") from None
    return Potential(family=fam, amplitude=c, omega=omega, delta=delta,
                     seed=seed, table=table, onset=n0)


def envelope_constant(p: Potential, n_lo: int, n_hi: int) -> float:
    """Empirical Coulomb envelope max n*|V(n)| over [n_lo, n_hi], explicit
    values included; :meth:`Potential.values` checks the range."""
    _instance(p, Potential, "p")
    v = p.values(n_lo, n_hi)
    n = np.arange(n_lo, n_lo + v.shape[0], dtype=np.float64)
    return float(np.max(n * np.abs(v)))


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
    """Symmetric tridiagonal matrix: given diagonal, off-diagonal all 1.

    The diagonal must be a nonempty, finite 1-D ndarray of integer or float
    dtype, and is stored as float64; anything else raises ParamOutOfRange.
    """

    diagonal: np.ndarray

    def __post_init__(self):
        d = _real_vector(self.diagonal, "Jacobi diagonal")
        if d.size == 0:
            raise ParamOutOfRange("Jacobi matrix must not be empty")
        object.__setattr__(self, "diagonal", d)

    @property
    def size(self) -> int:
        return self.diagonal.shape[0]

    def to_dense(self) -> np.ndarray:
        n = self.size
        m = np.diag(self.diagonal)
        idx = np.arange(n - 1)
        m[idx, idx + 1] = 1.0
        m[idx + 1, idx] = 1.0
        return m


def build_jacobi(spec: OperatorSpec) -> JacobiMatrix:
    """Truncate H_phi to N sites: d(1) = V(1) - cot(phi), d(n) = V(n).

    Eliminating y(0) = -y(1) cot(phi) turns the boundary condition into the
    row-one shift; the far end gets a hard wall y(N+1) = 0.
    """
    _instance(spec, OperatorSpec, "spec")
    d = spec.potential.values(1, spec.n)
    d[0] -= math.cos(spec.phi) / math.sin(spec.phi)
    return JacobiMatrix(diagonal=d)
