"""Relations the whole bound-check pipeline must satisfy, with no oracle.

Both sides of each relation run through ``cli.run`` from a config text.

- Family <-> table: a potential given by its family formula and a ``table``
  of its values V(1..N) are one operator, so ``spectrum.csv`` is the same
  bytes after the stamp line (whose config hash differs).
- Chiral symmetry: u(n) -> (-1)^n u(n) maps H(V, phi) to -H(-V, pi - phi),
  so bound-check on (-V, pi - phi) with x -> pi - x lists -E for every E,
  with the same certificate verdicts and N*.  It holds to rounding, not bit
  for bit: fl(cot(pi - phi)) != -fl(cot(phi)).  The tolerances are 10x the
  largest deviation measured on window-bound's seed-7 config: |E + E'|
  4.7e-15 at N = 1000 and 1.2e-14 at N = 4000, R(N*)^2 1.1e-9 relative,
  the decay exponent 1.7e-10 and lhs 1 ulp (plus the weights' share of
  the |E + E'| bound).  A verdict may differ only where N* R(N*)^2 lies
  within 1e-6 of 1.

A defect that is symmetric under E -> -E, or that reads V only through its
values, cannot show here.
"""

import functools
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from efgp import cli, make_potential

# window-bound's config at seed 7 (perfbench/workloads.py): the resonant
# potential that carries E = 1, over the full band plus four x values
WINDOW_BOUND = {
    "command": "bound-check",
    "potential": {"family": "resonant", "c": 2.2,
                  "omega": 2.0943951023931953, "delta": 1.3575974530435633},
    "phi": 2.4891024719091113, "window": [-2.0, 2.0],
    "x_values": [1.0471975511965976, 1.7377195731907342, 2.3635917422300237,
                 2.084077087563945]}
# |E + E'| bounds by N, 10x the measured; N <= 1000 uses the first
E_TOL = {1000: 4.7e-14, 4000: 1.2e-13}
RN_SQ_RTOL = 1.1e-8
DECAY_TOL = 1.7e-9
LHS_ULPS = 10


@functools.lru_cache(maxsize=None)
def _run(text: str) -> tuple:
    """(report, spectrum.csv text) of one config text."""
    with tempfile.TemporaryDirectory() as out:
        cfg = cli.parse_config(json.dumps(dict(json.loads(text),
                                               output_dir=out)))
        report = cli.run(cfg)
        return report, (Path(out) / "spectrum.csv").read_text(encoding="utf-8")


def _sides(cfg: dict) -> tuple:
    """The outputs of cfg, of its V as a table, and of its chiral image."""
    values = make_potential(**cfg["potential"]).value_array(cfg["N"])[1:]
    table = dict(cfg, potential={"family": "table", "values": values.tolist()})
    lo, hi = cfg["window"]
    chiral = dict(cfg, potential={"family": "table",
                                  "values": (-values).tolist()},
                  phi=math.pi - cfg["phi"], window=[-hi, -lo],
                  x_values=[math.pi - x for x in cfg["x_values"]])
    return tuple(_run(json.dumps(c, sort_keys=True))
                 for c in (cfg, table, chiral))


def _body(csv_text: str) -> str:
    return csv_text.split("\n", 1)[1]


def _near_threshold(rec) -> bool:
    n_star, rn_sq = rec["certificate_N"], rec["certificate_RNsq"]
    return rn_sq is not None and abs(n_star * rn_sq - 1.0) < 1e-6


def _assert_chiral(base: dict, image: dict, n: int):
    records, mirrored = base["payload"]["records"], image["payload"]["records"]
    assert len(records) == len(mirrored)
    e_tol = E_TOL[1000] if n <= 1000 else E_TOL[4000]
    for rec, img in zip(records, reversed(mirrored)):
        assert abs(rec["E"] + img["E"]) <= e_tol, (rec, img)
        if rec["certificate_passed"] != img["certificate_passed"]:
            assert _near_threshold(rec) or _near_threshold(img), (rec, img)
        assert rec["certificate_N"] == img["certificate_N"], (rec, img)
        a, b = rec["certificate_RNsq"], img["certificate_RNsq"]
        assert (a is None) == (b is None), (rec, img)
        if a is not None:
            assert abs(a - b) <= RN_SQ_RTOL * abs(a), (rec, img)
        a, b = rec["decay_exponent"], img["decay_exponent"]
        assert (a is None) == (b is None), (rec, img)
        if a is not None:
            assert abs(a - b) <= DECAY_TOL, (rec, img)
    # each summed weight 1 - E^2/4 moves by at most |E + E'| (|E| < 2)
    lhs, lhs_img = base["payload"]["lhs"], image["payload"]["lhs"]
    assert abs(lhs - lhs_img) <= (base["payload"]["records_used"] * e_tol
                                  + LHS_ULPS * math.ulp(max(1.0, lhs)))


POTENTIALS = st.one_of(
    st.builds(lambda c: {"family": "coulomb", "c": c}, st.floats(0.1, 5.0)),
    st.builds(lambda c: {"family": "alternating", "c": c},
              st.floats(0.1, 5.0)),
    st.builds(lambda c, omega, delta: {"family": "resonant", "c": c,
                                       "omega": omega, "delta": delta},
              st.floats(0.1, 5.0), st.floats(0.1, 3.0), st.floats(0.0, 6.0)),
    st.builds(lambda c, seed: {"family": "random_sign", "c": c, "seed": seed},
              st.floats(0.1, 5.0), st.integers(0, 2 ** 62)))
WINDOWS = st.sampled_from([[-2.0, 2.0], [-2.5, 2.5], [-1.5, 0.5], [0.3, 1.9]])
CONFIGS = st.builds(
    lambda pot, phi, n, window, xs: {"command": "bound-check",
                                     "potential": pot, "phi": phi, "N": n,
                                     "window": window, "x_values": xs},
    POTENTIALS, st.floats(0.05, math.pi - 0.05), st.integers(10, 2000),
    WINDOWS, st.lists(st.floats(0.05, math.pi - 0.05), min_size=1,
                      max_size=3))


@settings(derandomize=True, deadline=None, max_examples=10)
@given(cfg=CONFIGS)
@example(cfg=dict(WINDOW_BOUND, N=1000))
@example(cfg=dict(WINDOW_BOUND, N=4000))
def test_family_and_table_give_the_same_spectrum_bytes(cfg):
    (base, base_csv), (table, table_csv), _ = _sides(cfg)
    assert base["exit_code"] == table["exit_code"]
    assert _body(base_csv) == _body(table_csv)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(cfg=CONFIGS)
@example(cfg=dict(WINDOW_BOUND, N=1000))
@example(cfg=dict(WINDOW_BOUND, N=4000))
def test_chiral_image_lists_minus_every_energy(cfg):
    (base, _), _, (image, _) = _sides(cfg)
    assert base["exit_code"] == image["exit_code"]
    _assert_chiral(base, image, cfg["N"])
