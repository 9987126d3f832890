"""Two true embedded eigenvalues, E = 1 and E = -1, from one resonant term.

V(n) = c sin(2xn + delta)/n resonates at x and at pi - x, because
2(pi - x)n = -2xn mod 2pi, so both E = +/-2 cos x carry a solution that
decays like n^(-c/(4 sin x)).  One boundary phase phi must meet both, which
takes tuned values at the head: V(1) is the formula's, V(3) = 0.478 is
fixed, and V(2) and phi solve the two boundary conditions.  Each energy's
decaying solution is launched backward from M = 16N on the locked angle, as
``resonance_construct`` launches it, down to rho = u(4)/u(3).  With
u(3) = 1 the recurrence gives u(2), u(1) and u(0), and "u(1)/u(0) is the
same at both energies" is a quadratic in V(2).
"""

import functools
import json
import math

import numpy as np
import pytest

from efgp import OperatorSpec, SpectralParam, _kernels, make_potential
from efgp.cli import parse_config, run
from efgp.spectral import classify_spectrum

X = math.pi / 3  # E = 2 cos x = 1, and E = -1 at pi - x
C = 2.2          # exponent c / (4 sin x) = 0.635 > 1/2
OMEGA = 2.0 * X
DELTA = math.pi + math.copysign(math.pi / 6.0, math.cos(X))  # construct's
V3 = 0.478
N = 4000


def _tail():
    return make_potential("resonant", c=C, omega=OMEGA, delta=DELTA)


@functools.lru_cache(maxsize=None)
def _head(n):
    """(V(2), the other root, phi at x, phi at pi - x) for launches at 16n."""
    v1 = float(_tail().values(1, 1)[0])
    u2 = {}
    for x in (X, math.pi - X):
        param = SpectralParam.from_x(x)
        launch = 16 * n
        theta = x * launch + 0.5 * DELTA
        u_launch = math.sin(theta) / param.sin_x
        u_next = math.cos(theta) + u_launch * param.cos_x
        un, um, _ = _kernels.backward_resonant(
            C, OMEGA, DELTA, param.E, u_next, u_launch, launch, n)
        u2[param.E] = (param.E - V3) - un[4] / um[4]  # u(3) = 1
    # u(1) = a u(2) - 1 with a = E - V(2); equal u(0)/u(1) at both energies
    # reads E+ - E- = u2+/u1+ - u2-/u1-, whose V(2)-linear terms cancel
    (ep, up), (em, um_) = u2.items()
    ap, am = ep * up - 1.0, em * um_ - 1.0
    d_e = ep - em
    roots = np.roots([d_e * up * um_, -d_e * (ap * um_ + am * up),
                      d_e * ap * am - (up * am - um_ * ap)]).real
    v2 = float(roots[2 * np.abs(roots) < C][0])
    other = float(roots[2 * np.abs(roots) >= C][0])
    phis = []
    for e, w2 in u2.items():
        w1 = (e - v2) * w2 - 1.0
        w0 = (e - v1) * w1 - w2
        phis.append(math.atan2(-w1, w0) % math.pi)
    return v1, v2, other, phis


def _potential_doc(n=N):
    v1, v2, _, phis = _head(n)
    return {"family": "resonant", "c": C, "omega": OMEGA, "delta": DELTA,
            "values": [v1, v2, V3]}, phis[0]


def test_head_solves_both_boundary_conditions():
    v1, v2, other, (phi_plus, phi_minus) = _head(N)
    assert abs(v1 + 1.1) < 1e-14  # c sin(2pi/3 + 7pi/6)
    assert abs(v2 + 0.7181041) < 1e-7
    assert abs(other + 4.85) < 0.01
    assert abs(phi_plus - 2.7424375) < 1e-7
    assert abs(phi_plus - phi_minus) < 1e-12
    # the head stays inside the tail's envelope
    assert 2 * abs(v2) < C and 3 * V3 < C
    # a farther launch moves V(2) by under 1e-5
    assert abs(_head(10 ** 4)[1] + 0.7180959) < 1e-7


def test_both_energies_certified_at_n():
    doc, phi = _potential_doc()
    pot = make_potential(doc["family"], c=C, omega=OMEGA, delta=DELTA,
                         values=doc["values"])
    records = classify_spectrum(OperatorSpec(pot, phi, N), [1.0, -1.0],
                                checkpoints=[N])
    law = C / (4.0 * math.sin(X))
    for rec, n_r_sq, exponent in zip(records, (0.18, 0.46), (0.635, 0.634)):
        assert rec.certificate.passed
        assert rec.certificate.n_star == N
        assert N * rec.certificate.rn_sq == pytest.approx(n_r_sq, abs=0.005)
        assert rec.decay_exponent == pytest.approx(exponent, abs=0.0005)
        assert abs(rec.decay_exponent - law) < 0.01


def _bound_check(tmp_path, name, potential, phi, n):
    out = tmp_path / name
    report = run(parse_config(json.dumps({
        "command": "bound-check", "potential": potential, "phi": phi,
        "N": n, "window": [-2.0, 2.0], "output_dir": str(out)})))
    return report, (out / "spectrum.csv").read_bytes()


def test_window_only_run_certifies_both(tmp_path):
    doc, phi = _potential_doc()
    report, _ = _bound_check(tmp_path, "o", doc, phi, N)
    certified = [r["E"] for r in report["payload"]["records"]
                 if r["certificate_passed"]]
    # false neighbours of +1 are certified too; the record count is not
    # asserted here
    for e in (1.0, -1.0):
        assert min(abs(v - e) for v in certified) < 1e-4


def test_three_values_equal_the_n_value_table(tmp_path):
    n = 1000
    doc, phi = _potential_doc()
    table = {"family": "table",
             "values": doc["values"] + _tail().values(4, n).tolist()}
    a, csv_a = _bound_check(tmp_path, "head", doc, phi, n)
    b, csv_b = _bound_check(tmp_path, "table", table, phi, n)
    # the first line is the stamp, which hashes the config
    assert csv_a.split(b"\n", 1)[1] == csv_b.split(b"\n", 1)[1]
    assert a["payload"] == b["payload"]
    assert len(a["payload"]["records"]) > 900
