import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efgp import (
    OperatorSpec,
    build_jacobi,
    envelope_constant,
    errors,
    make_potential,
)
from efgp import _kernels
from efgp.operators import Potential
from oracles import dense, random_signs

PI = math.pi


def test_coulomb_values():
    p = make_potential("coulomb", c=1.0)
    assert p.values(5, 5)[0] == pytest.approx(0.2, abs=0)
    assert np.allclose(p.values(1, 10), 1.0 / np.arange(1, 11))


def test_alternating_values():
    p = make_potential("alternating", c=2.0)
    assert p.values(3, 3)[0] == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert p.values(4, 4)[0] == pytest.approx(0.5, rel=1e-15)


def test_resonant_values():
    p = make_potential("resonant", c=1.0, omega=PI, delta=PI / 2)
    # sin(4*pi + pi/2)/4 = 1/4
    assert p.values(4, 4)[0] == pytest.approx(0.25, abs=1e-15)


def test_random_sign_deterministic():
    p = make_potential("random_sign", c=1.0, seed=42)
    v1 = p.values(1, 1000)
    v2 = p.values(1, 1000)
    assert np.array_equal(v1, v2)
    assert np.array_equal(np.abs(v1), 1.0 / np.arange(1, 1001))
    q = make_potential("random_sign", c=1.0, seed=43)
    assert not np.array_equal(v1, q.values(1, 1000))
    # both signs should actually occur
    signs = random_signs(42, np.arange(1, 1001))
    assert (signs > 0).any() and (signs < 0).any()


@pytest.mark.parametrize("c", [1.0, -2.5, 0.0, 1e-300])
@pytest.mark.parametrize("seed", [0, 42, 2 ** 63 - 1, -2 ** 63])
@pytest.mark.parametrize("n0", [1, 17])
def test_random_sign_values_are_signs_times_c_over_n(c, seed, n0):
    # the sign bit flipped on c/n gives the bits of (+/-1) * c / n, the
    # signs from a SplitMix64 written apart from the program's
    p = make_potential("random_sign", c=c, seed=seed, n0=n0)
    for lo, hi in [(1, 3000), (10, 40)]:
        n = np.arange(lo, hi + 1, dtype=np.int64)
        want = np.where(n < n0, 0.0, random_signs(seed, n) * c / n)
        assert p.values(lo, hi).tobytes() == want.tobytes()


def test_table_family():
    p = make_potential("table", values=[0.5, -0.25, 0.1])
    assert np.allclose(p.values(1, 5), [0.5, -0.25, 0.1, 0.0, 0.0])
    with pytest.raises(errors.EmptyTable):
        make_potential("table", values=[])


def test_onset_zeroes_early_sites():
    p = make_potential("coulomb", c=1.0, n0=4)
    v = p.values(1, 6)
    assert np.all(v[:3] == 0.0)
    assert v[3] == pytest.approx(0.25)


def test_unknown_family():
    with pytest.raises(errors.UnknownFamily):
        make_potential("quartic", c=1.0)


def test_amplitude_must_be_finite():
    with pytest.raises(errors.ParamOutOfRange):
        make_potential("coulomb", c=float("inf"))


@pytest.mark.parametrize("kwargs", [
    {"omega": float("nan")},
    {"delta": float("inf")},
    {"values": [0.5, float("nan")]},
])
def test_nonfinite_parameters_rejected(kwargs):
    family = "table" if "values" in kwargs else "resonant"
    with pytest.raises(errors.ParamOutOfRange):
        make_potential(family, c=1.0, **kwargs)


def test_overflowing_resonant_phase_rejected():
    p = make_potential("resonant", c=1.0, omega=1.2e307)
    assert np.isfinite(p.values(1, 14)).all()
    with pytest.raises(errors.ParamOutOfRange):
        p.values(1, 16)  # omega * 15 overflows, sin(inf) is nan


def test_envelope_coulomb_is_one():
    p = make_potential("coulomb", c=1.0)
    assert envelope_constant(p, 1, 1000) == pytest.approx(1.0, abs=0)


def test_envelope_zero_potential():
    p = make_potential("coulomb", c=0.0)
    assert envelope_constant(p, 1, 100) == 0.0


def test_envelope_resonant_direct_scan_oracle():
    p = make_potential("resonant", c=2.5, omega=PI / 2, delta=0.0)
    got = envelope_constant(p, 1, 10 ** 4)
    # independent oracle: explicit scan of n*|V(n)|
    best = 0.0
    for n in range(1, 10 ** 4 + 1):
        best = max(best, n * abs(2.5 * math.sin(PI / 2 * n) / n))
    assert got == pytest.approx(best, rel=1e-15)
    assert 0.0 < got <= 2.5 * (1 + 1e-15)


def test_envelope_of_a_late_range_and_of_explicit_values():
    # n*|V(n)| is weighted by the site itself, not by its place in the range
    p = make_potential("coulomb", c=1.0, values=[3.0, 0.0, 0.5])
    assert envelope_constant(p, 1, 100) == 3.0
    assert envelope_constant(p, 2, 100) == 1.5
    assert envelope_constant(p, 40, 60) == pytest.approx(1.0, rel=1e-15)


def test_envelope_monotone_in_upper_end():
    p = make_potential("resonant", c=1.3, omega=1.7, delta=0.4)
    vals = [envelope_constant(p, 1, hi) for hi in (10, 100, 1000, 10 ** 4)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_envelope_empty_range():
    p = make_potential("coulomb", c=1.0)
    with pytest.raises(errors.EmptyRange):
        envelope_constant(p, 10, 5)
    with pytest.raises(errors.EmptyRange):
        envelope_constant(p, 0, 5)


@pytest.mark.parametrize("family,kwargs", [
    ("coulomb", {}),
    ("alternating", {}),
    ("resonant", {"omega": 2.3, "delta": 1.1}),
    ("random_sign", {"seed": 7}),
])
def test_decay_envelope_all_families(family, kwargs):
    c = 1.8
    p = make_potential(family, c=c, **kwargs)
    n = np.arange(1, 10 ** 6 + 1, dtype=float)
    assert np.max(n * np.abs(p.values(1, 10 ** 6))) <= c * (1 + 1e-15)


def test_build_jacobi_free_phase_half_pi():
    p = make_potential("coulomb", c=0.0)
    jac = build_jacobi(OperatorSpec(p, PI / 2, 3))
    assert np.allclose(jac.diagonal, 0.0, atol=1e-15)


def test_build_jacobi_quarter_pi():
    p = make_potential("coulomb", c=0.0)
    jac = build_jacobi(OperatorSpec(p, PI / 4, 2))
    assert np.allclose(jac.diagonal, [-1.0, 0.0], atol=1e-15)


def test_build_jacobi_coulomb_diagonal():
    p = make_potential("coulomb", c=1.0)
    jac = build_jacobi(OperatorSpec(p, PI / 2, 4))
    assert np.allclose(jac.diagonal, [1.0, 0.5, 1 / 3, 0.25], atol=1e-15)


def test_phase_out_of_range():
    p = make_potential("coulomb", c=1.0)
    for phi in (0.0, PI, -0.3, 3.5):
        with pytest.raises(errors.PhaseOutOfRange):
            OperatorSpec(p, phi, 10)


def test_truncation_too_short():
    p = make_potential("coulomb", c=1.0)
    with pytest.raises(errors.ParamOutOfRange):
        OperatorSpec(p, PI / 2, 1)


def test_apply_matches_direct_recurrence():
    # acting on (y(1)..y(N)) must reproduce y(n-1)+y(n+1)+V(n)y(n) with
    # y(0) = -y(1) cot(phi) and y(N+1) = 0 folded in
    rng = np.random.default_rng(3)
    for phi in (0.7, PI / 2, 2.4):
        p = make_potential("resonant", c=1.4, omega=1.3, delta=0.2)
        spec = OperatorSpec(p, phi, 50)
        jac = build_jacobi(spec)
        y = rng.standard_normal(50)
        v = p.values(1, 50)
        ext = np.concatenate([[-y[0] / math.tan(phi)], y, [0.0]])
        direct = ext[:-2] + ext[2:] + v * y
        got = dense(jac) @ y
        scale = np.abs(direct) + np.abs(y) + 1.0
        assert np.max(np.abs(got - direct) / scale) <= 1e-14


_B = _kernels._BLOCK  # value_array evaluates V in blocks of this many sites


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 3 * _B + 5])
@pytest.mark.parametrize("family,kwargs", [
    ("coulomb", {"c": 1.3}),
    ("alternating", {"c": -0.7}),
    ("resonant", {"c": 2.2, "omega": 2.1, "delta": 0.4}),
    ("random_sign", {"c": 1.0, "seed": 7}),
    ("table", {"values": [0.5, -0.25] * 3000}),  # shorter than the largest N
])
def test_value_array_is_values_block_by_block(family, kwargs, n):
    # onsets in the first block and in the second, past the first block end
    for n0 in (1, _B - 2, _B + 3):
        p = make_potential(family, n0=n0, **kwargs)
        want = np.concatenate(([0.0], p.values(1, n)))
        assert p.value_array(n).tobytes() == want.tobytes()


@pytest.mark.parametrize("family,kwargs", [
    ("coulomb", {"c": 1.3}),
    ("resonant", {"c": 2.2, "omega": 2.1, "delta": 0.4}),
    ("random_sign", {"c": 1.0, "seed": 7}),
    # explicit values with n*|V(n)| = 1 up to site _B + 1 and 4 at site
    # _B + 2, in the second block
    ("coulomb", {"c": 1.3, "values": [1.0 / n for n in range(1, _B + 2)]
                 + [4.0 / (_B + 2)]}),
])
def test_envelope_is_the_direct_max(family, kwargs):
    p = make_potential(family, **kwargs)
    # one site, ranges ending at and across block edges, a late start
    for lo, hi in ((1, 1), (1, _B), (1, _B + 1), (_B, _B + 2),
                   (_B - 5, 3 * _B + 7), (5 * _B + 3, 7 * _B - 2)):
        n = np.arange(lo, hi + 1, dtype=np.float64)
        want = float(np.max(n * np.abs(p.values(lo, hi))))
        assert envelope_constant(p, lo, hi) == want, (lo, hi)


def test_envelope_memory_does_not_grow_with_its_range():
    p = make_potential("random_sign", c=1.0, seed=7)
    peaks = []
    for hi in (2 ** 17, 2 ** 20):
        tracemalloc.start()
        try:
            envelope_constant(p, 1, hi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 ** 20, peaks


def test_value_array_rejects_a_non_finite_block():
    p = make_potential("resonant", c=1.0, omega=1.2e307)
    with pytest.raises(errors.ParamOutOfRange):
        p.value_array(3 * _B)


_FORMULAS = {  # each family's formula kwargs; table is coulomb's c/n
    "coulomb": {"amplitude": 1.3},
    "alternating": {"amplitude": -0.7},
    "resonant": {"amplitude": 2.2, "omega": 2.1, "delta": 0.4},
    "random_sign": {"amplitude": 1.0, "seed": 7},
    "table": {"amplitude": 0.6},
}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(family=st.sampled_from(sorted(_FORMULAS)),
       head=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40),
       n0=st.integers(1, 60), n_lo=st.integers(1, 80),
       length=st.integers(0, 60))
@example(family="resonant", head=[-1.1, -0.7, 0.478], n0=1, n_lo=1, length=1)
@example(family="coulomb", head=[0.5] * 10, n0=3, n_lo=11, length=5)
@example(family="random_sign", head=[0.5] * 10, n0=12, n_lo=8, length=9)
def test_explicit_values_replace_the_formula_then_onset_zeroes(
        family, head, n0, n_lo, length):
    # ranges before, across and past the k = len(head) explicit values
    n_hi = n_lo + length
    kwargs = _FORMULAS[family]
    formula = Potential("coulomb" if family == "table" else family, **kwargs)
    want = formula.values(n_lo, n_hi)
    for i, n in enumerate(range(n_lo, n_hi + 1)):
        if n <= len(head):
            want[i] = head[n - 1]
        if n < n0:
            want[i] = 0.0
    p = make_potential(family, values=head, n0=n0, c=kwargs["amplitude"],
                       omega=kwargs.get("omega", 0.0),
                       delta=kwargs.get("delta", 0.0),
                       seed=kwargs.get("seed", 0))
    assert p.values(n_lo, n_hi).tobytes() == want.tobytes()
    if family in ("coulomb", "table"):
        other = "table" if family == "coulomb" else "coulomb"
        q = Potential(other, table=tuple(head), onset=n0, **kwargs)
        assert q.values(n_lo, n_hi).tobytes() == want.tobytes()


def test_long_table_value_array_is_fast():
    # each block reads only its own slice of the table
    p = make_potential("table", values=np.linspace(-1.0, 1.0, 10 ** 6).tolist())
    t0 = time.perf_counter()
    v = p.value_array(10 ** 6)
    elapsed = time.perf_counter() - t0
    assert v[1:].tobytes() == np.asarray(p.table).tobytes()
    assert elapsed < 1.0, f"value_array of a 1e6-value table took {elapsed:.2f} s"
