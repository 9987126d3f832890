"""Property tests of the error contract: only EfgpError leaves the public
API, and the CLI turns every config into exit code 0, 1 or 2."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgp import (
    JacobiMatrix,
    OperatorSpec,
    SpectralParam,
    classify_point_spectrum,
    eigenvalues_in_window,
    eigenvector,
    errors,
    evolve_trajectory,
    make_potential,
    oscillatory_partial_sums,
    prufer_sum_diagnostics,
    sturm_count,
)
from efgp.cli import main

ENTRIES = st.one_of(st.floats(-1e6, 1e6),
                    st.sampled_from([math.nan, math.inf, -math.inf]))
# floats are never valid checkpoints; small integers reach the evolution
CHECKPOINTS = st.one_of(st.none(),
                        st.lists(st.one_of(st.floats(), st.integers(-5, 30)),
                                 max_size=4))


@settings(derandomize=True, deadline=None)
@given(diag=st.lists(ENTRIES, max_size=20), E=st.floats(), lo=st.floats(),
       hi=st.floats(), checkpoints=CHECKPOINTS)
def test_only_efgp_errors_escape(diag, E, lo, hi, checkpoints):
    J = JacobiMatrix(np.array(diag, dtype=float))

    def classify():
        spec = OperatorSpec(make_potential("table", values=diag), 1.0, 20)
        return classify_point_spectrum(spec, E, checkpoints)

    calls = (lambda: sturm_count(J, E),
             lambda: eigenvalues_in_window(J, (lo, hi)),
             lambda: eigenvector(J, E),
             classify)
    for call in calls:
        try:
            call()
        except errors.EfgpError:
            pass


SUM_SIZES = st.one_of(st.integers(-3, 40), st.floats())
GAMMAS = st.one_of(st.none(), st.lists(ENTRIES, max_size=40))
_SUM_TRAJS = [evolve_trajectory(OperatorSpec(make_potential("coulomb", c=1.0),
                                             1.0, 40),
                                SpectralParam.from_x(x)) for x in (1.0, 2.0)]


@settings(derandomize=True, deadline=None)
@given(alpha=st.floats(), n_max=SUM_SIZES, data=st.data())
def test_sum_entry_points_reject_bad_input(alpha, n_max, data):
    # gamma matches n_max half the time, so the finiteness checks are reached
    if isinstance(n_max, int) and n_max >= 0 and data.draw(st.booleans()):
        gamma = data.draw(st.lists(ENTRIES, min_size=n_max, max_size=n_max))
    else:
        gamma = data.draw(GAMMAS)
    sups = []
    try:
        sups.append(oscillatory_partial_sums(alpha, gamma, n_max).sup_abs)
    except errors.EfgpError:
        pass
    try:
        diag = prufer_sum_diagnostics(_SUM_TRAJS, n_max)
        sups += [s.sup_abs for s in diag.pair_sums + diag.diag]
    except errors.EfgpError:
        pass
    assert all(math.isfinite(v) for v in sups)


# One valid, small config per CLI command.  The property below replaces one
# field (top level or inside "potential") with an arbitrary JSON value.
CLI_CONFIGS = {
    "spectrum": {"command": "spectrum",
                 "potential": {"family": "coulomb", "c": 1.0, "n0": 2},
                 "phi": 1.0, "N": 20, "window": [-2.0, 2.0],
                 "checkpoints": [10, 20], "tol": 1e-10, "distinct_tol": 1e-8},
    "prufer": {"command": "prufer",
               "potential": {"family": "resonant", "c": 1.0, "omega": 2.0,
                             "delta": 0.5},
               "phi": 1.0, "N": 16, "x_values": [1.0, 2.0]},
    "bound-check": {"command": "bound-check",
                    "potential": {"family": "random_sign", "c": 1.0,
                                  "seed": 3},
                    "phi": 1.0, "N": 24, "x_values": [1.0],
                    "window": [-1.0, 1.0], "checkpoints": [12, 24],
                    "tol": 1e-10, "distinct_tol": 1e-8,
                    "certified_only": False, "C": 1.0,
                    "envelope_range": [1, 24]},
    "lemma-sums": {"command": "lemma-sums",
                   "potential": {"family": "table", "values": [0.5, -0.25]},
                   "phi": 1.0, "N": 32, "x_values": [1.0, 2.0]},
    "construct": {"command": "construct", "x": 1.0, "c": 2.0, "N": 100,
                  "checkpoints": [50, 100]},
}
# integers drawn for these fields stay small or lie beyond int64, so no draw
# asks for a large array
SMALL_INT_FIELDS = {"N", "potential.n0", "checkpoints", "envelope_range"}


def _json_values(ints):
    # json.dumps writes nan and inf as the non-standard tokens NaN, Infinity
    floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
    leaves = st.none() | st.booleans() | st.text(max_size=8) | floats | ints
    return st.recursive(
        leaves, lambda kids: (st.lists(kids, max_size=4)
                              | st.dictionaries(st.text(max_size=8), kids,
                                                max_size=4)),
        max_leaves=8)


def _fields(doc):
    return sorted([k for k in doc if k != "output_dir"]
                  + [f"potential.{k}" for k in doc.get("potential", {})])


@st.composite
def _mutated_configs(draw, command):
    doc = json.loads(json.dumps(CLI_CONFIGS[command]))
    name = draw(st.sampled_from(_fields(doc)))
    ints = (st.integers(-10, 64) | st.integers(min_value=2 ** 63)
            | st.integers(max_value=-2 ** 63 - 1) if name in SMALL_INT_FIELDS
            else st.integers() | st.integers(min_value=2 ** 1024))
    value = draw(_json_values(ints))
    if name.startswith("potential."):
        doc["potential"][name.split(".", 1)[1]] = value
    else:
        doc[name] = value
    return doc


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


@pytest.mark.parametrize("command", sorted(CLI_CONFIGS))
def test_cli_exit_codes_and_strict_report(command):
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=_mutated_configs(command))
    def check(doc):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(dict(doc, output_dir=str(out))))
            assert main([str(path), "--quiet"]) in (0, 1, 2)
            report = out / "report.json"
            if report.exists():
                json.loads(report.read_text(), parse_constant=_reject_constant)

    check()
