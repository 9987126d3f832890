import json
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from efgp import (
    OperatorSpec,
    Potential,
    SpectralParam,
    _kernels,
    analysis,
    errors,
    evolve_trajectory,
    make_potential,
)
from efgp.cli import MAX_N, _write_csv, main, parse_config, run

PI = math.pi


def _cfg(**kw):
    return json.dumps(kw)


def test_parse_valid_bound_check():
    text = _cfg(command="bound-check",
                potential={"family": "coulomb", "c": 1.0},
                phi=1.5707963, N=100000,
                checkpoints=[1000, 10000, 100000],
                x_values=[1.0471976], output_dir="out")
    cfg = parse_config(text)
    assert cfg.command == "bound-check"
    assert cfg.n == 100000
    assert cfg.potential.family == "coulomb"
    assert cfg.x_values == (1.0471976,)


def test_parse_rejects_bad_phi():
    text = _cfg(command="spectrum",
                potential={"family": "coulomb", "c": 1.0},
                phi=3.5, N=100, window=[-2.0, 2.0])
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(text)
    assert exc.value.field == "phi"


def test_parse_rejects_unknown_fields_with_path():
    text = _cfg(command="spectrum",
                potential={"family": "coulomb", "c": 1.0, "frobnicate": 3},
                phi=1.0, N=100, window=[-2.0, 2.0])
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(text)
    assert exc.value.field == "potential.frobnicate"
    with pytest.raises(errors.ValidationError) as exc2:
        parse_config(_cfg(command="prufer", potential={"family": "coulomb"},
                          phi=1.0, N=10, x_values=[1.0], bogus=1))
    assert exc2.value.field == "bogus"


def test_parse_not_json():
    with pytest.raises(errors.ParseError):
        parse_config("{not json")


def test_parse_requires_fields():
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(_cfg(command="spectrum", phi=1.0, N=100,
                          window=[-2.0, 2.0]))
    assert exc.value.field == "potential"
    with pytest.raises(errors.ValidationError):
        parse_config(_cfg(command="bound-check",
                          potential={"family": "coulomb", "c": 1.0},
                          phi=1.0, N=100))  # neither x_values nor window


def test_parse_checkpoint_bounds():
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(_cfg(command="construct", x=1.0, c=3.0, N=1000,
                          checkpoints=[10, 2000]))
    assert exc.value.field == "checkpoints"


def test_subcritical_construct_parses_then_fails_downstream(tmp_path):
    # parse accepts it; the amplitude check fires inside the pipeline with
    # the stage name attached
    cfg = parse_config(_cfg(command="construct", x=1.5707963, c=1.9, N=1000,
                            output_dir=str(tmp_path / "o")))
    with pytest.raises(errors.PipelineError) as exc:
        run(cfg)
    assert exc.value.stage == "construct"
    assert isinstance(exc.value.original, errors.SubcriticalAmplitude)


def test_spectrum_free_n5(tmp_path):
    out = tmp_path / "spec"
    cfg = parse_config(_cfg(command="spectrum",
                            potential={"family": "coulomb", "c": 0.0},
                            phi=PI / 2, N=5, window=[-2.0, 2.0],
                            output_dir=str(out)))
    report = run(cfg)
    assert report["exit_code"] == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0].startswith("# efgp ")
    assert lines[1] == ("E,weight,x,certificate_N,certificate_RNsq,"
                        "certificate_passed,decay_exponent")
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 5
    got = sorted(float(r[0]) for r in rows)
    expect = sorted(2 * math.cos(k * PI / 6) for k in range(1, 6))
    assert np.max(np.abs(np.array(got) - np.array(expect))) <= 1e-10


def test_spectrum_with_no_records(tmp_path):
    # no eigenvalue of the truncation lies in [5, 6]: a stamp and a header
    out = tmp_path / "spec"
    cfg = parse_config(_cfg(command="spectrum",
                            potential={"family": "coulomb", "c": 0.1},
                            phi=1.0, N=1000, window=[5.0, 6.0],
                            output_dir=str(out)))
    report = run(cfg)
    assert report["exit_code"] == 0
    assert report["payload"] == {"count": 0, "records": []}
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("# efgp ")
    assert lines[1] == ("E,weight,x,certificate_N,certificate_RNsq,"
                        "certificate_passed,decay_exponent")


def test_lemma_sums_degenerate_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(_cfg(command="lemma-sums",
                         potential={"family": "coulomb", "c": 1.0},
                         phi=PI / 2, N=1000,
                         x_values=[PI / 3, PI / 3],
                         output_dir=str(tmp_path / "o")))
    assert main([str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "diagnostics" in err and str(path) in err


def test_lemma_sums_evaluates_the_potential_once(tmp_path, monkeypatch):
    calls = []
    values = Potential.values
    forward, radius = [], []

    def counting(self, n_lo, n_hi):
        calls.append((n_lo, n_hi))
        return values(self, n_lo, n_hi)

    def counted(log, fn):
        def wrapper(*args, **kwargs):
            log.append(1)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Potential, "values", counting)
    monkeypatch.setattr(_kernels, "_forward_windows",
                        counted(forward, _kernels._forward_windows))
    # ln R is formed only by _ln_r: count the calls at every binding
    bound = [m for name, m in sorted(sys.modules.items())
             if name.startswith("efgp.") and hasattr(m, "_ln_r")]
    assert {"efgp.prufer", "efgp.spectral"} <= {m.__name__ for m in bound}
    for m in bound:
        monkeypatch.setattr(m, "_ln_r", counted(radius, m._ln_r))
    path = tmp_path / "cfg.json"
    path.write_text(_cfg(command="lemma-sums",
                         potential={"family": "random_sign", "c": 1.0,
                                    "seed": 3},
                         phi=1.0, N=2000, x_values=[0.4, 1.1, 1.9, 2.5],
                         output_dir=str(tmp_path / "o")))
    assert main([str(path), "--quiet"]) == 0
    # V is read block by block, once for the onsets (with their one block
    # read again) and once by the driver, which evolves all four parameters
    # together as the blocks of one streamed call and lifts them to their
    # angles alone: no trajectory, so no radius, is formed
    assert all(hi - lo + 1 <= _kernels._BLOCK for lo, hi in calls)
    reads = np.zeros(2001, dtype=int)
    for lo, hi in calls:
        reads[lo:hi + 1] += 1
    thrice = np.flatnonzero(reads > 2)
    assert reads.max() <= 3
    assert thrice.size == 0 or (
        (thrice[0] - 1) // _kernels._BLOCK == (thrice[-1] - 1) // _kernels._BLOCK)
    assert len(forward) == 1
    assert radius == []
    # the counter sees a radius where one is formed
    evolve_trajectory(OperatorSpec(make_potential("coulomb"), 1.0, 10),
                      SpectralParam.from_x(1.0))
    assert radius


def test_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    # a stage that runs out of memory, simulated: nothing large is allocated
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(analysis, "lemma_sums", exhausted)
    path = tmp_path / "cfg.json"
    path.write_text(_cfg(command="lemma-sums",
                         potential={"family": "coulomb", "c": 1.0},
                         phi=1.0, N=1000, x_values=[0.4, 1.1],
                         output_dir=str(tmp_path / "o")))
    assert main([str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"error in {path}: out of memory" in err
    assert "Traceback" not in err


def test_bound_check_negative_control_exit_2(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(_cfg(command="bound-check",
                         potential={"family": "coulomb", "c": 0.0},
                         phi=PI / 2, N=100, window=[-2.0, 2.0],
                         certified_only=False, C=0.0,
                         output_dir=str(tmp_path / "o")))
    assert main([str(path), "--quiet"]) == 2
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["payload"]["lhs"] == pytest.approx(50.5, abs=1e-6)
    assert rep["payload"]["rhs"] == 1.0
    assert rep["payload"]["satisfied"] is False


@pytest.mark.parametrize("window", [[-2.0, 2.0], [-50.0, 50.0]])
def test_bound_sums_only_records_inside_the_band(tmp_path, window):
    # V(1) = 40 puts one eigenvalue near 40 and others outside (-2, 2); a
    # window that lists them must not lower the uncertified sum
    out = tmp_path / "o"
    report = run(parse_config(_cfg(
        command="bound-check",
        potential={"family": "table",
                   "values": [40.0] + [3 / n for n in range(2, 401)]},
        phi=1.0, N=400, C=3.0, certified_only=False, window=window,
        output_dir=str(out))))
    assert report["exit_code"] == 2
    assert report["payload"]["lhs"] == pytest.approx(200.22305272102625,
                                                     rel=1e-12)
    assert report["payload"]["records_used"] == 378
    # rows outside the band stay in spectrum.csv
    rows = (out / "spectrum.csv").read_text().splitlines()[2:]
    assert len(rows) == len(report["payload"]["records"])
    assert len(rows) == (378 if window[1] == 2.0 else 400)


def test_bound_check_certified_construct_pipeline(tmp_path):
    out = tmp_path / "o"
    cfg = parse_config(_cfg(command="construct", x=1.5707963267948966,
                            c=2.5, N=100000, output_dir=str(out)))
    report = run(cfg)
    assert report["exit_code"] == 0
    payload = report["payload"]
    assert payload["record"]["certificate_passed"] is True
    assert payload["bound"]["lhs"] == pytest.approx(1.0, abs=0.02)
    assert payload["bound"]["satisfied"] is True
    assert abs(payload["fitted_exponent"] - 0.625) <= 0.05 * 0.625


@pytest.mark.parametrize("family,key,value", [
    ("coulomb", "omega", 1.0), ("table", "delta", 0.5),
    ("random_sign", "omega", 1.0), ("resonant", "seed", 3),
    ("alternating", "seed", 3),
])
def test_fields_no_formula_reads_are_rejected(family, key, value):
    pot = {"family": family, "c": 1.0, "values": [0.5], key: value}
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(_cfg(command="prufer", potential=pot, phi=1.0, N=10,
                          x_values=[1.0]))
    assert exc.value.field == f"potential.{key}"
    # the family that reads the field accepts it, in any spelling
    owner = "Random-Sign" if key == "seed" else "RESONANT"
    cfg = parse_config(_cfg(command="prufer", potential=dict(pot, family=owner),
                            phi=1.0, N=10, x_values=[1.0]))
    assert cfg.potential.table == (0.5,)


def test_envelope_range_next_to_c_is_rejected():
    doc = dict(command="bound-check", potential={"family": "coulomb", "c": 1.0},
               phi=1.0, N=100, x_values=[1.0], envelope_range=[1, 50])
    assert parse_config(_cfg(**doc)).envelope_range == (1, 50)
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(_cfg(**doc, C=1.0))
    assert exc.value.field == "envelope_range"


def test_table_values_file(tmp_path):
    vf = tmp_path / "table.txt"
    vf.write_text("0.5\n-0.25\n\n# comment\n0.125\n")
    cfg = parse_config(_cfg(command="prufer",
                            potential={"family": "table",
                                       "values_file": str(vf)},
                            phi=1.0, N=10, x_values=[1.0],
                            output_dir=str(tmp_path / "o")))
    assert cfg.potential.table == (0.5, -0.25, 0.125)
    report = run(cfg)
    assert report["exit_code"] == 0
    csv = (tmp_path / "o" / "trajectory_1.csv").read_text().splitlines()
    assert csv[1] == "n,u,R,theta,theta_bar,ln_R"
    assert len(csv) == 12  # comment + header + 10 rows


def test_csv_outputs_deterministic(tmp_path):
    def run_once(outdir):
        cfg = parse_config(_cfg(command="prufer",
                                potential={"family": "random_sign", "c": 1.0,
                                           "seed": 9},
                                phi=1.2, N=5000,
                                x_values=[0.9, 2.0],
                                output_dir=str(outdir)))
        run(cfg)
        return [(outdir / f"trajectory_{j}.csv").read_bytes() for j in (1, 2)]

    a = run_once(tmp_path / "a")
    b = run_once(tmp_path / "b")
    assert a == b


def _fmt_row_wise(v) -> str:
    # the oracle: the formatter the writer applied value by value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# values of the types the writers meet, with nan, +-inf and -0.0
_CELLS = [True, False, 0, -7, 2 ** 70, -(2 ** 63),
          0.1, -0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("n_rows", [0, 1, 12])
def test_csv_columns_match_row_wise_formatting(tmp_path, n_rows):
    # a column of each type: every column the writers meet has one type
    by_type = {}
    for v in _CELLS:
        by_type.setdefault(type(v), []).append(v)
    columns = [[values[i % len(values)] for i in range(n_rows)]
               for values in by_type.values()]
    names = [f"c{i}" for i in range(len(columns))]
    want = "\n".join(["# stamp", ",".join(names)] + [
        ",".join(_fmt_row_wise(v) for v in row) for row in zip(*columns)]) + "\n"
    _write_csv(tmp_path / "t.csv", names, columns, "stamp")
    assert (tmp_path / "t.csv").read_bytes() == want.encode("utf-8")


def test_report_json_stable_and_versioned(tmp_path):
    out = tmp_path / "o"
    cfg = parse_config(_cfg(command="spectrum",
                            potential={"family": "coulomb", "c": 1.0},
                            phi=PI / 2, N=10, window=[-1.0, 1.0],
                            output_dir=str(out)))
    run(cfg)
    text = (out / "report.json").read_text()
    rep = json.loads(text)
    assert rep["version"] == "0.1.0"
    assert rep["backend"] == "numpy"
    assert rep["environment"] == {"python": platform.python_version(),
                                  "numpy": np.__version__,
                                  "scipy": scipy.__version__}
    assert rep["config_hash"]
    # stable key order: dumping again with sort_keys reproduces the file
    assert text == json.dumps(rep, sort_keys=True, indent=2) + "\n"


def test_nonfinite_potential_parameter_exit_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(_cfg(command="prufer",
                         potential={"family": "resonant", "c": 1.0,
                                    "omega": float("nan")},
                         phi=1.0, N=10, x_values=[1.0],
                         output_dir=str(tmp_path / "o")))
    assert '"omega": NaN' in path.read_text()
    assert main([str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "potential" in err and "Traceback" not in err


def test_report_json_strict_with_out_of_band_records(tmp_path):
    out = tmp_path / "o"
    cfg = parse_config(_cfg(command="spectrum",
                            potential={"family": "coulomb", "c": 5.0},
                            phi=PI / 2, N=50, window=[-4.0, 6.0],
                            output_dir=str(out)))
    run(cfg)

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    rep = json.loads((out / "report.json").read_text(), parse_constant=reject)
    out_of_band = [r for r in rep["payload"]["records"] if not -2 < r["E"] < 2]
    assert len(out_of_band) == 9
    assert all(r["certificate_RNsq"] is None and r["x"] is None
               for r in out_of_band)
    # the CSV keeps its nan cells for the same records (out of band, or
    # in band with no checkpoint past the hypothesis onset)
    rows = [ln.split(",") for ln in
            (out / "spectrum.csv").read_text().splitlines()[2:]]
    assert ([r[4] == "nan" for r in rows]
            == [r["certificate_RNsq"] is None for r in rep["payload"]["records"]])


def test_threads_give_same_results(tmp_path):
    base = _cfg(command="lemma-sums",
                potential={"family": "coulomb", "c": 1.0},
                phi=PI / 2, N=20000, x_values=[PI / 3, PI / 4, 2 * PI / 5],
                output_dir="PLACEHOLDER")
    cfg1 = parse_config(base.replace("PLACEHOLDER", str(tmp_path / "s")))
    cfg2 = parse_config(base.replace("PLACEHOLDER", str(tmp_path / "t")))
    run(cfg1, threads=1)
    run(cfg2)
    d1 = (tmp_path / "s" / "diagnostics.json").read_text()
    d2 = (tmp_path / "t" / "diagnostics.json").read_text()
    assert d1 == d2


def test_usage_errors_exit_1(tmp_path, capsys):
    # 2 is reserved for a violated bound, so argparse's own 2 is mapped to 1
    path = tmp_path / "cfg.json"
    path.write_text(_cfg(command="prufer", potential={"family": "coulomb"},
                         phi=1.0, N=10, x_values=[1.0],
                         output_dir=str(tmp_path / "o")))
    for argv in ([], ["--bogus", str(path)], ["--jobs", "2", str(path)],
                 ["--quiet=yes", str(path)]):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("key", ["C", "tol"])
@pytest.mark.parametrize("token, message", [
    ("NaN", "non-finite"), ("Infinity", "non-finite"),
    ("-Infinity", "non-finite"), ("1e999", "non-finite"),
    # json.loads raises a bare ValueError beyond int_max_str_digits (4300)
    pytest.param("1" + "0" * 5000, "digits", id="5000-digit-integer"),
])
def test_nonfinite_config_numbers_exit_1(tmp_path, capsys, key, token,
                                         message):
    doc = _cfg(command="bound-check", potential={"family": "coulomb", "c": 1.0},
               phi=1.0, N=50, x_values=[1.0], output_dir=str(tmp_path / "o"))
    doc = doc[:-1] + f', "{key}": {token}}}'
    with pytest.raises(errors.ParseError):
        parse_config(doc)
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    assert main([str(path), "--quiet"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, doc", [
    ("N", {"N": 2 ** 63}),
    ("potential.n0", {"potential": {"family": "coulomb", "n0": 2 ** 63}}),
    ("envelope_range", {"envelope_range": [1, 2 ** 64]}),
])
def test_integers_beyond_int64_rejected(field, doc):
    base = dict(command="bound-check", potential={"family": "coulomb"},
                phi=1.0, N=50, x_values=[1.0])
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(_cfg(**dict(base, **doc)))
    assert exc.value.field == field


@pytest.mark.parametrize("value", [10 ** 8 + 1, 2 ** 62])
@pytest.mark.parametrize("command, field", [
    ("prufer", "N"), ("bound-check", "envelope_range"),
])
def test_sizes_above_max_n_exit_1(tmp_path, capsys, command, field, value):
    # rejected while parsing, so nothing of that size is ever allocated
    doc = dict(command=command, potential={"family": "coulomb"}, phi=1.0,
               N=50, x_values=[1.0], output_dir=str(tmp_path / "o"))
    doc[field] = value if field == "N" else [1, value]
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(_cfg(**doc))
    assert exc.value.field == field
    path = tmp_path / "cfg.json"
    path.write_text(_cfg(**doc))
    assert main([str(path), "--quiet"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the bound itself is a valid size
    doc[field] = MAX_N if field == "N" else [1, MAX_N]
    parse_config(_cfg(**doc))


def test_stabilization_threshold_is_fixed(tmp_path):
    doc = dict(command="lemma-sums", potential={"family": "coulomb"},
               phi=1.0, N=64, x_values=[1.0, 2.0],
               output_dir=str(tmp_path / "o"))
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(_cfg(**doc, stabilization_threshold=0.1))
    assert exc.value.field == "stabilization_threshold"
    run(parse_config(_cfg(**doc)))
    diag = json.loads((tmp_path / "o" / "diagnostics.json").read_text())
    assert diag["stabilization_threshold"] == 0.05


@pytest.mark.parametrize("command", ["spectrum", "bound-check"])
def test_distinct_tol_is_not_a_field(command):
    # neither the merge tolerance nor the old bisection tolerance is a knob
    for key, value in (("distinct_tol", 1e-8), ("tol", 1e-10)):
        doc = dict(command=command, potential={"family": "coulomb"}, phi=1.0,
                   N=20, window=[-1.0, 1.0], **{key: value})
        with pytest.raises(errors.ValidationError) as exc:
            parse_config(_cfg(**doc))
        assert exc.value.field == key


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL)


def test_readme_examples_run(tmp_path):
    configs = _readme_blocks("json")
    assert configs
    for j, text in enumerate(configs):
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path / f"o{j}")
        rep = run(cfg)
        assert rep["exit_code"] == 0, text
        if cfg.command == "bound-check":
            # the engineered E = 1 is certified and counted once
            assert rep["payload"]["records_used"] == 1
            assert abs(rep["payload"]["lhs"] - 0.75) <= 1e-12
    namespace = {}
    for code in _readme_blocks("python"):
        exec(code, namespace)


def _prufer_cfg(tmp_path, c):
    path = tmp_path / "cfg.json"
    path.write_text(_cfg(command="prufer",
                         potential={"family": "coulomb", "c": c}, phi=1.0,
                         N=10 ** 4, x_values=[1.0],
                         output_dir=str(tmp_path / "o")))
    return path


def test_prufer_overflowing_trajectory_exit_1(tmp_path, capsys):
    # ln R passes ln(float max) ~ 709.8: R and u would be written as inf
    assert main([str(_prufer_cfg(tmp_path, 2000.0)), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "[trajectories]" in err and "exceeds the float range" in err
    assert not (tmp_path / "o" / "report.json").exists()


def test_prufer_in_range_csv_is_exp_of_ln_r(tmp_path):
    # the overflow check leaves in-range values as they were: R = exp(ln R)
    # and u from (R, theta), written with repr
    assert main([str(_prufer_cfg(tmp_path, 1.0)), "--quiet"]) == 0
    rows = (tmp_path / "o" / "trajectory_1.csv").read_text().splitlines()[2:]
    cols = np.array([[float(v) for v in row.split(",")] for row in rows])
    ln_r, theta = cols[:, 5], cols[:, 3]
    x = 1.0
    r = np.exp(ln_r)
    u = r * (np.cos(theta) + np.sin(theta) * math.cos(x) / math.sin(x))
    assert np.array_equal(cols[:, 2], r)
    assert np.array_equal(cols[:, 1], u)


def test_overflowing_bound_exit_1(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(_cfg(command="bound-check",
                         potential={"family": "coulomb", "c": 1.0}, phi=1.0,
                         N=50, x_values=[1.0], C=1e300,
                         output_dir=str(tmp_path / "o")))
    assert main([str(path), "--quiet"]) == 1
    # a failing stage leaves no output behind
    assert not (tmp_path / "o" / "report.json").exists()
    assert not (tmp_path / "o" / "spectrum.csv").exists()


@pytest.mark.parametrize("value", [5, None, ["t.txt"]])
def test_values_file_must_be_a_string(value):
    with pytest.raises(errors.ValidationError) as exc:
        parse_config(_cfg(command="prufer",
                          potential={"family": "table", "values_file": value},
                          phi=1.0, N=10, x_values=[1.0]))
    assert exc.value.field == "potential.values_file"
