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
import reprlib
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (EmptyRange, EmptyTable, Overflow, ParamOutOfRange,
                     PhaseOutOfRange, UnknownFamily)

FAMILIES = ("coulomb", "alternating", "resonant", "random_sign", "table")

# splitmix64 multipliers; the sign stream must be reproducible across
# platforms, so it is pure uint64 arithmetic keyed by (seed, n).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_SIGN_BIT = np.uint64(1 << 63)


# error messages show a few entries of a container and at most about 80
# characters of any one value, so a long argument is never repr'd whole
_REPR = reprlib.Repr()
_REPR.maxlevel = 2
_REPR.maxstring = _REPR.maxlong = _REPR.maxother = 80


def _shown(v) -> str:
    """A shortened repr(v) for an error message (reprlib), or v's type name
    where repr refuses: an int beyond sys.int_max_str_digits, alone or
    inside a container."""
    try:
        return _REPR.repr(v)
    except ValueError:
        return f"<{type(v).__name__} too long to show>"


def _int(v, name: str) -> int:
    """v as an int in the int64 range, or ParamOutOfRange: a float size is
    never truncated, and numpy cannot index or allocate beyond int64."""
    try:
        i = operator.index(v)
    except TypeError:
        i = None
    if i is None or not -2 ** 63 <= i < 2 ** 63:
        raise ParamOutOfRange(
            f"{name} must be an integer in the int64 range, got {_shown(v)}")
    return i


def _real(v, name: str) -> float:
    """v as a finite float, or ParamOutOfRange: v is no real number, nan,
    +-inf, or an integer beyond the float range (whose digits the message
    does not show).  This is the one finiteness check of real arguments."""
    try:
        # float and int first: the numbers.Real check alone takes about
        # 0.4 us, and a record's weight and x pass here once per read
        x = float(v) if isinstance(v, (float, int, numbers.Real)) else math.nan
    except OverflowError:
        raise ParamOutOfRange(
            f"{name} must be finite, got an integer beyond the float range") from None
    if not math.isfinite(x):
        raise ParamOutOfRange(f"{name} must be a finite real number, got {_shown(v)}")
    return x


def _real_vector(a, name: str) -> np.ndarray:
    """a as float64 if it is a finite 1-D ndarray of integer or float dtype,
    else ParamOutOfRange."""
    if not (isinstance(a, np.ndarray) and a.ndim == 1
            and a.dtype.kind in "iuf"):
        raise ParamOutOfRange(f"{name} must be a 1-D real array, got {_shown(a)}")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ParamOutOfRange(f"{name} must be finite")
    return a


def _finite(values, name: str, first: int = 0) -> np.ndarray:
    """values at the sites first, first + 1, ..., or Overflow naming the
    first infinite site."""
    inf = np.isinf(values)
    if inf.any():
        site = first + int(inf.argmax())
        raise Overflow(f"{name}({site}) exceeds the float range")
    return values


def _instance(v, cls, name: str):
    """ParamOutOfRange unless v is a cls instance."""
    if not isinstance(v, cls):
        raise ParamOutOfRange(f"{name} must be a {cls.__name__}, got {_shown(v)}")


def _instances(values, cls, name: str) -> list:
    """values as a list of cls instances, else ParamOutOfRange."""
    try:
        out = list(values)
    except TypeError:
        out = None
    if out is None or not all(isinstance(v, cls) for v in out):
        raise ParamOutOfRange(
            f"{name} must be an iterable of {cls.__name__}, got {_shown(values)}")
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
            raise UnknownFamily(f"unknown potential family {_shown(self.family)}")
        for name in ("amplitude", "omega", "delta"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        object.__setattr__(self, "seed", _int(self.seed, "seed"))
        object.__setattr__(self, "onset", _int(self.onset, "onset"))
        if self.onset < 1:
            raise ParamOutOfRange(f"onset must be >= 1, got {self.onset}")
        _instance(self.table, tuple, "table")
        table = tuple(_real(v, "table value") for v in self.table)
        if self.family == "table" and not table:
            raise EmptyTable("table family requires a nonempty value sequence")
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
            # top bit of the splitmix64 stream at (seed, n) is set
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
    fam = family.lower().replace("-", "_") if isinstance(family, str) else family
    try:
        table = tuple(() if values is None else values)
    except TypeError:
        raise ParamOutOfRange(f"values must be a sequence, got {_shown(values)}") from None
    return Potential(family=fam, amplitude=c, omega=omega, delta=delta,
                     seed=seed, table=table, onset=n0)


def envelope_constant(p: Potential, n_lo: int, n_hi: int) -> float:
    """Empirical Coulomb envelope max n*|V(n)| over [n_lo, n_hi], explicit
    values included.

    V is read block by block, as :meth:`Potential.value_array` reads it,
    so the memory does not grow with the range, and the max of the block
    maxima is the max itself.  :meth:`Potential.values` checks the range:
    an empty one still reads its first block.  Overflow names the first
    site whose n*|V(n)| leaves the float range."""
    _instance(p, Potential, "p")
    n_lo, n_hi = _int(n_lo, "n_lo"), _int(n_hi, "n_hi")
    best = 0.0
    for lo in range(n_lo, max(n_lo, n_hi) + 1, _kernels._BLOCK):
        v = p.values(lo, min(lo + _kernels._BLOCK - 1, n_hi))
        n = np.arange(lo, lo + v.shape[0], dtype=np.float64)
        with np.errstate(over="ignore"):
            nv = _finite(n * np.abs(v), "n*|V|", lo)
        best = max(best, float(np.max(nv)))
    return best


@dataclass(frozen=True)
class OperatorSpec:
    """Potential + boundary phase phi in (0, pi) + truncation length N.

    phi must be a finite real number and N an integer in the int64 range
    (ParamOutOfRange); a finite phi outside (0, pi) raises PhaseOutOfRange
    and N < 2 ParamOutOfRange."""

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


def build_jacobi(spec: OperatorSpec) -> JacobiMatrix:
    """Truncate H_phi to N sites: d(1) = V(1) - cot(phi), d(n) = V(n).

    Eliminating y(0) = -y(1) cot(phi) turns the boundary condition into the
    row-one shift; the far end gets a hard wall y(N+1) = 0.
    """
    _instance(spec, OperatorSpec, "spec")
    d = spec.potential.values(1, spec.n)
    d[0] -= math.cos(spec.phi) / math.sin(spec.phi)
    return JacobiMatrix(diagonal=d)
