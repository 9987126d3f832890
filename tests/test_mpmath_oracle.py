"""The recurrence and the lemma sums against a 40-digit mpmath reference
that shares no code with the program's recurrence, driver or angle lift.

The reference takes the program's inputs as exact binary values (the
float V(n), E and boundary pair) and runs u(n+1) = (E - V(n)) u(n) -
u(n-1) site by site in mpmath, so what it measures is the program's
rounding.  For the lemma sums it takes theta from that u with
``math.atan2``, lifts it with ``math.remainder`` and forms each prefix sum
with ``math.fsum``.
"""

import math

import pytest
from mpmath import mp

from efgp import (OperatorSpec, SpectralParam, lemma_sums, make_potential,
                  solve_recurrence)

# window-bound's resonant potential and phase, with E = 1 embedded
RESONANT = {"family": "resonant", "c": 2.2, "omega": 2.0 * math.pi / 3.0,
            "delta": 1.3575974530435633}
RESONANT_PHI = 2.4891024719091113


def _u_mp(spec, E):
    """u(0..N) of spec at E, in mpmath at 40 digits."""
    V = spec.potential.value_array(spec.n).tolist()
    e = mp.mpf(E)
    u = [mp.mpf(math.cos(spec.phi)), mp.mpf(-math.sin(spec.phi))]
    for v in V[1:spec.n]:
        u.append((e - mp.mpf(v)) * u[-1] - u[-2])
    return u


CASES = {
    "random_sign": (make_potential("random_sign", c=1.0, seed=7), 1.0, 2000, 1.1),
    "resonant": (make_potential(**RESONANT), RESONANT_PHI, 2000, math.pi / 3.0),
    "coulomb": (make_potential("coulomb", c=3.0), 1.0, 2000, 2.9),
    # grows past 1e100 twice: u is exp(scale) times the rescaled pairs
    "table-rescaled": (make_potential("table", values=[5.0] * 200), 1.0, 260, 1.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_recurrence_matches_mpmath(case):
    potential, phi, n, x = CASES[case]
    spec, param = OperatorSpec(potential, phi, n), SpectralParam.from_x(x)
    u = solve_recurrence(spec, param).u.tolist()
    with mp.workdps(40):
        ref = _u_mp(spec, param.E)
        err = max(abs(mp.mpf(a) - b) for a, b in zip(u, ref))
        assert err <= 1e-12 * max(abs(b) for b in ref)


def _sup_sums(spec, xs):
    """(n0, c1 sup, c2 sups) of the lemma sums of two parameters, from
    the mpmath solutions."""
    n = spec.n
    V = spec.potential.value_array(n).tolist()
    # the first site from which every |V(n)| / sin x stays below 1/2
    n0 = max([1] + [k + 1 for x in xs for k in range(1, n + 1)
                    if abs(V[k]) / math.sin(x) >= 0.5])
    sins = []
    for x in xs:
        with mp.workdps(40):
            u = _u_mp(spec, 2.0 * math.cos(x))
            c, s = mp.mpf(math.cos(x)), mp.mpf(math.sin(x))
            # the principal angle of (u(n) - u(n-1) cos x, u(n-1) sin x)
            principal = [math.atan2(float(u[k - 1] * s), float(u[k] - u[k - 1] * c))
                         for k in range(1, n + 1)]
        theta = [principal[0]]
        for p in principal[1:]:
            theta.append(theta[-1] + x + math.remainder(p - theta[-1] - x, 2.0 * math.pi))
        sins.append([math.sin(2.0 * (t + x)) for t in theta[n0 - 1:]])

    def sup(terms, shift):
        return max(abs(shift(k) - math.fsum(terms[:i + 1]))
                   for i, k in enumerate(range(n0, n + 1)))

    def sites(a, b):
        return [p * q / k for p, q, k in zip(a, b, range(n0, n + 1))]

    c1 = sup(sites(*sins), lambda k: 0.0)
    c2 = [sup(sites(r, r), lambda k: 0.5 * math.log(k)) for r in sins]
    return n0, c1, c2


def test_lemma_sums_match_mpmath():
    spec = OperatorSpec(make_potential("random_sign", c=1.0, seed=7), 1.0, 2000)
    xs = (0.4, 1.9)
    got = lemma_sums(spec, [SpectralParam.from_x(x) for x in xs])
    n0, c1, c2 = _sup_sums(spec, xs)
    assert got.n0 == n0
    assert abs(got.pair_sums[0].sup_abs - c1) <= 1e-12
    for d, want in zip(got.diag, c2):
        assert abs(d.sup_abs - want) <= 1e-12
