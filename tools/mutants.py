"""Mutants the tests must catch: a table of one-edit mutations and a runner.

Each entry names a file, an exact old text that occurs exactly once in it,
the new text, and the test node ids that must fail once the edit is made.
The runner copies ``src/``, ``tests/``, ``tools/`` (``tests/test_golden.py``
imports ``tools/golden.py``) and ``pyproject.toml`` (whose
``pythonpath = ["src"]`` resolves against the copy), those of them that
exist, to a temporary directory and runs the named nodes there with
``python -m pytest -p no:cacheprovider`` in a fresh interpreter, first
unedited, where they must all pass, then after applying the one edit.  A
mutant is killed when every named node fails (for a parametrized node, at
least one of its cases).  It survives when a named node passes, and it is an
error when its old text does not occur exactly once, when a node fails or
is skipped in the unedited copy, or when pytest cannot run the nodes (an
unknown node id, a collection error).

A refactor that moves or rewrites a mutated line must update its entry in
the same change; an entry is never deleted to get a clean run.

Run every entry from the repository root:

    python tools/mutants.py

The exit status is 0 when every entry is killed, and 1 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str   # relative to the repository root
    old: str
    new: str
    tests: tuple  # node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "explicit-values-table-only", "src/efgp/operators.py",
        "head = self.table[n_lo - 1:n_hi]",
        "head = self.table[n_lo - 1:n_hi] if self.family == 'table' else ()",
        ("tests/test_operators.py::"
         "test_explicit_values_replace_the_formula_then_onset_zeroes",
         "tests/test_resonant_pair.py::test_both_energies_certified_at_n")),
    Mutant(
        "bound-sums-out-of-band", "src/efgp/analysis.py",
        "if -2.0 < r.E < 2.0\n",
        "if -50.0 < r.E < 50.0\n",
        ("tests/test_analysis.py::test_check_theorem_sums_only_inside_the_band",
         "tests/test_cli.py::test_bound_sums_only_records_inside_the_band")),
    Mutant(
        "accept-fields-no-formula-reads", "src/efgp/cli.py",
        "if key in obj and fam != owner:",
        "if key in obj and fam != owner and key == 'delta':",
        ("tests/test_cli.py::test_fields_no_formula_reads_are_rejected",)),
    Mutant(
        "accept-envelope-range-next-to-c", "src/efgp/cli.py",
        '        if "C" in obj:\n            raise ValidationError("envelope_range",',
        '        if "C" in obj and False:\n'
        '            raise ValidationError("envelope_range",',
        ("tests/test_cli.py::test_envelope_range_next_to_c_is_rejected",)),
    Mutant(
        "certificate-rule-loosened", "src/efgp/spectral.py",
        "return n_star > 0 and rn_sq <= 1.0 / n_star",
        "return n_star > 0 and rn_sq <= 4.0 / n_star",
        ("tests/test_spectral.py::test_classify_spectrum_matches_one_energy_route",
         "tests/test_spectral.py::test_certificate_waits_for_hypothesis_onset",
         "tests/test_spectral.py::test_certificate_threshold_is_one_over_n_star")),
    Mutant(
        "onset-gate-dropped", "src/efgp/spectral.py",
        "eligible = (onsets != 0) & (onsets <= cps)",
        "eligible = (onsets != 0) & np.full(len(cps), True)",
        ("tests/test_spectral.py::test_certificate_waits_for_hypothesis_onset",
         "tests/test_spectral.py::test_certificate_without_eligible_checkpoint")),
    Mutant(
        "lift-carry-dropped", "src/efgp/prufer.py",
        "self.carry[...] = d[:, -1]",
        "self.carry[...] = 0.0",
        ("tests/test_analysis.py::test_lemma_sums_match_trajectory_route",
         "tests/test_prufer.py::test_verify_recursions_coulomb_large")),
    Mutant(
        "lift-last-angle-not-carried", "src/efgp/prufer.py",
        "self.prev[...] = principal[:, -1]",
        "self.prev[...] = principal[:, 0]",
        ("tests/test_analysis.py::test_lemma_sums_match_trajectory_route",)),
    Mutant(
        "envelope-sites-from-one", "src/efgp/operators.py",
        "n = np.arange(lo, lo + v.shape[0], dtype=np.float64)",
        "n = np.arange(1, 1 + v.shape[0], dtype=np.float64)",
        ("tests/test_operators.py::"
         "test_envelope_of_a_late_range_and_of_explicit_values",)),
    Mutant(
        "random-sign-mixer-constant", "src/efgp/operators.py",
        "_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)",
        "_SM_M1 = np.uint64(0xBF58476D1CE4E5B7)",
        ("tests/test_operators.py::"
         "test_random_sign_values_are_signs_times_c_over_n",)),
    Mutant(
        "decay-fit-blas-dot", "src/efgp/spectral.py",
        "    dev *= t_c\n    return (np.add.reduce(dev, axis=1) / -tt).tolist()",
        "    return [-float(np.dot(t_c, d) / tt) for d in dev]",
        ("tests/test_spectral.py::"
         "test_spectrum_csv_does_not_depend_on_blas_threads",)),
    Mutant(
        "driver-pending-scale-dropped", "src/efgp/_kernels.py",
        "scale[:, 0], pending[...] = pending, 0.0",
        "scale[:, 0], pending[...] = 0.0, 0.0",
        ("tests/test_kernels.py::"
         "test_forward_windows_match_whole_row_driver[cut-at-window-end]",)),
    Mutant(
        "rescale-lower-edge-dropped", "src/efgp/_kernels.py",
        "np.minimum.reduce(ay, None) >= _RESCALE_LO)",
        "np.minimum.reduce(ay, None) >= 0.0)",
        ("tests/test_kernels.py::test_rescale_of_a_chunk_wholly_below_the_band",)),
    Mutant(
        "rescale-upper-edge-loosened", "src/efgp/_kernels.py",
        "np.maximum.reduce(ay, None) <= _RESCALE_HI",
        "np.maximum.reduce(ay, None) <= _RESCALE_HI * 1e100",
        ("tests/test_kernels.py::test_prufer_forward_matches_loop[table12-N200]",)),
    Mutant(
        # a workspace's band keeps the constant entries of its first shape
        "workspace-band-shape-unchecked", "src/efgp/_kernels.py",
        "work.band = _band(n_act, chunk + 2, work.band_buf)",
        "work.band = (work.band_buf[:3 * n_act * (chunk + 2)]"
        ".reshape(n_act, chunk + 2, 3) if work.band.size"
        " else _band(n_act, chunk + 2, work.band_buf))",
        ("tests/test_kernels.py::"
         "test_driver_workspace_reuse_matches_fresh_calls",)),
    Mutant(
        # blocks that end a window in the step with no cut keep the pairs
        # they started it from
        "driver-end-pairs-not-stored", "src/efgp/_kernels.py",
        "                    end_a, end_b = a, b\n",
        "",
        ("tests/test_kernels.py::"
         "test_driver_workspace_reuse_matches_fresh_calls",)),
    Mutant(
        "backward-kept-window-split", "src/efgp/_kernels.py",
        "ends = _ends(0, n_sites - n_record, _CHUNK) + [n_sites]",
        "ends = (_ends(0, n_sites - n_record, _CHUNK)\n"
        "            + _ends(n_sites - n_record, n_sites, _CHUNK))",
        ("tests/test_kernels.py::"
         "test_backward_windows_match_whole_row_driver[32000]",)),
    Mutant(
        # a step to an exact zero w(k+1) = 0 counts as a sign agreement
        "sturm-zero-step-counted", "src/efgp/_kernels.py",
        "(cur != 0.0) & (same | (prev == 0.0))",
        "same | (prev == 0.0)",
        ("tests/test_spectral.py::test_sturm_count_one_site",
         "tests/test_spectral.py::test_sturm_exact_on_small_integer_matrices",
         "tests/test_spectral.py::test_window_endpoint_rule_free_n3")),
    Mutant(
        "onset-threshold-side", "src/efgp/prufer.py",
        'side="right")',
        'side="left")',
        ("tests/test_prufer.py::test_onsets_match_division_scan",)),
    Mutant(
        "onset-last-site-rule", "src/efgp/prufer.py",
        "np.where(last < n, last + 1, 0)",
        "np.where(last <= n, last + 1, 0)",
        ("tests/test_prufer.py::test_onsets_match_division_scan",)),
    Mutant(
        "onset-bound-ignores-table", "src/efgp/prufer.py",
        "h = max(len(potential.table), m - 1)",
        "h = m - 1",
        ("tests/test_prufer.py::test_potential_onsets_match_the_full_pass",)),
    Mutant(
        "onset-past-bound-not-set", "src/efgp/prufer.py",
        "onsets[onsets == 0] = h + 1",
        "pass",
        ("tests/test_prufer.py::test_potential_onsets_match_the_full_pass",)),
    Mutant(
        "onset-block-skip", "src/efgp/prufer.py",
        "if v.max() < half[open_].min():",
        "if v.max() <= half[open_].min():",
        ("tests/test_prufer.py::test_onsets_match_division_scan",)),
    Mutant(
        "dyadic-first-edge-late", "src/efgp/analysis.py",
        "2 ** np.arange(b, ",
        "2 ** np.arange(b + 1, ",
        ("tests/test_analysis.py::test_dyadic_profile_matches_running_max",
         "tests/test_analysis.py::"
         "test_sums_match_one_sum_at_a_time[1-16385-3-cut-1-3-4100-5]")),
    Mutant(
        "onset-window-summed-whole", "src/efgp/analysis.py",
        "t = t[:, max(n0 - lo, 0):]",
        "t = t[:, 0:]",
        ("tests/test_analysis.py::test_lemma_sums_match_trajectory_route",)),
    Mutant(
        "ratio-identity-unscaled", "src/efgp/prufer.py",
        "q = np.maximum(1.0, np.abs(nu) * 2.0 ** -510)",
        "q = 1.0",
        ("tests/test_prufer.py::"
         "test_verify_recursions_near_the_float_limit[values3-1.0]",)),
    Mutant(
        "angle-step-zero-nu-bypass-dropped", "src/efgp/prufer.py",
        "return np.where(nu == 0.0, tb, tb + _wrap_pi(principal - tb))",
        "return tb + _wrap_pi(principal - tb)",
        ("tests/test_prufer.py::test_prufer_step_identity_at_zero_nu",)),
    Mutant(
        "trajectory-finiteness-unchecked", "src/efgp/prufer.py",
        "if not np.isfinite(getattr(self, name)[1:]).all():",
        "if False:",
        ("tests/test_error_contract.py::"
         "test_out_of_domain_arguments_rejected[trajectory-inf-theta]",
         "tests/test_error_contract.py::"
         "test_out_of_domain_arguments_rejected[trajectory-nan-ln_R]")),
    Mutant(
        "real-finiteness-unchecked", "src/efgp/operators.py",
        "if not math.isfinite(x):",
        "if False:",
        ("tests/test_error_contract.py::"
         "test_out_of_domain_arguments_rejected[theorem_weight-inf]",)),
    Mutant(
        "int64-bound-dropped", "src/efgp/operators.py",
        "if i is None or not -2 ** 63 <= i < 2 ** 63:",
        "if i is None:",
        ("tests/test_error_contract.py::"
         "test_out_of_domain_arguments_rejected[values-beyond-int64]",)),
    Mutant(
        "solution-finiteness-unchecked", "src/efgp/prufer.py",
        "if not np.isfinite(self.u).all():",
        "if False:",
        ("tests/test_error_contract.py::"
         "test_out_of_domain_arguments_rejected[solution-nan-u]",)),
    Mutant(
        "record-finiteness-unchecked", "src/efgp/spectral.py",
        "ok = ok and np.isfinite(",
        "ok = ok and np.isreal(",
        ("tests/test_error_contract.py::"
         "test_out_of_domain_arguments_rejected[make_eigenvalue_set-nan-E]",
         "tests/test_error_contract.py::"
         "test_out_of_domain_arguments_rejected[check_theorem-inf-E]")),
    Mutant(
        "derived-weight-constant", "src/efgp/spectral.py",
        "return theorem_weight(self.E)",
        "return 1.0",
        ("tests/test_analysis.py::test_check_theorem_sums_only_inside_the_band",)),
    Mutant(
        "certificate-fields-unchecked", "src/efgp/spectral.py",
        "          and _all_types(n_stars, numbers.Integral)\n"
        "          and _all_types(rn_sqs, numbers.Real)\n"
        "          and -2 ** 63 <= min(n_stars, default=0)\n"
        "          and max(n_stars, default=0) < 2 ** 63)",
        ")",
        ("tests/test_error_contract.py::"
         "test_wrong_library_types_rejected[make_eigenvalue_set-text-n_star]",
         "tests/test_error_contract.py::"
         "test_out_of_domain_arguments_rejected[check_theorem-n_star-beyond-int64]")),
    Mutant(
        "kernels-import-scipy-linalg", "src/efgp/_kernels.py",
        'dtbsv = _scipy_linalg_extension("_fblas").dtbsv',
        "from scipy.linalg.blas import dtbsv",
        ("tests/test_imports.py::test_cli_runs_without_scipy_linalg",)),
    Mutant(
        "window-one-site-shortcut-dropped", "src/efgp/spectral.py",
        "if d.size == 1:",
        "if False:",
        ("tests/test_spectral.py::"
         "test_window_matches_scipy_eigvalsh_tridiagonal",)),
    Mutant(
        "window-lapack-info-ignored", "src/efgp/spectral.py",
        "if info != 0:",
        "if False:",
        ("tests/test_spectral.py::"
         "test_window_lapack_failure_is_no_convergence",)),
    Mutant(
        "json-keys-unsorted", "src/efgp/cli.py",
        "for k in sorted(obj)]",
        "for k in obj]",
        ("tests/test_cli.py::test_json_writer_matches_json_dumps",
         "tests/test_cli.py::test_report_json_records_match_spectrum_csv")),
    Mutant(
        "json-float-subclass-rejected", "src/efgp/cli.py",
        "if isinstance(obj, float):",
        "if type(obj) is float:",
        ("tests/test_cli.py::test_json_writer_matches_json_dumps",)),
    Mutant(
        "record-nonfinite-not-null", "src/efgp/cli.py",
        "map(_NONFINITE.get, texts[i], texts[i])",
        "iter(texts[i])",
        ("tests/test_cli.py::test_report_json_records_match_spectrum_csv",
         "tests/test_cli.py::test_report_json_strict_with_out_of_band_records")),
    Mutant(
        "record-json-key-order", "src/efgp/cli.py",
        "_JSON_ORDER = sorted(range(len(_RECORD_KEYS)), key=_RECORD_KEYS.__getitem__)",
        "_JSON_ORDER = range(len(_RECORD_KEYS))",
        ("tests/test_cli.py::test_report_json_records_match_spectrum_csv",)),
    Mutant(
        "solve-recurrence-scale-dropped", "src/efgp/prufer.py",
        "np.multiply(cur[0], np.exp(scale[0]), out=u[lo + 1:hi + 1])",
        "np.multiply(cur[0], 1.0, out=u[lo + 1:hi + 1])",
        ("tests/test_mpmath_oracle.py::"
         "test_solve_recurrence_matches_mpmath[table-rescaled]",)),
    Mutant(
        "solve-recurrence-overflow-bound", "src/efgp/prufer.py",
        "bad = ~(np.abs(u[lo + 1:hi + 1]) <= 1e300)",
        "bad = ~(np.abs(u[lo + 1:hi + 1]) <= 1e308)",
        ("tests/test_kernels.py::test_solve_recurrence_overflow_site",)),
    Mutant(
        "golden-float-formatter", "src/efgp/cli.py",
        "_FORMATTERS = {float: float.__repr__,",
        '_FORMATTERS = {float: "%.16g".__mod__,',
        ("tests/test_golden.py::"
         "test_trajectory_csv_ends_at_the_payload_values",)),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Make the mutant's one edit in the tree at root; ValueError unless its
    old text occurs exactly once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.id}: old text occurs {count} times in "
                         f"{mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _pytest(work: Path, nodes: tuple) -> tuple:
    """(exit code, nodes reported failed, nodes reported skipped, output)
    of one pytest run of nodes in the tree at work."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfs", "-p", "no:cacheprovider",
         *nodes],
        cwd=work, capture_output=True, text=True)
    # "FAILED node[param] - message" and "SKIPPED [1] file:line: reason"
    # lines of the short summary
    lines = proc.stdout.splitlines()
    failed = [ln.split()[1] for ln in lines if ln.startswith("FAILED ")]
    skipped = [ln for ln in lines if ln.startswith("SKIPPED ")]
    return proc.returncode, failed, skipped, proc.stdout + proc.stderr


def run(mutant: Mutant, root: Path = ROOT) -> tuple:
    """(verdict, seconds, pytest output) of one mutant of the tree at root;
    the verdict is killed, survived or error."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="efgp-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = root / name
            if src.is_dir():
                shutil.copytree(src, work / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            elif src.exists():
                shutil.copy2(src, work / name)
        code, _, skipped, output = _pytest(work, mutant.tests)
        if code != 0 or skipped:
            return ("error", time.perf_counter() - t0,
                    "unedited copy: the named nodes must all pass\n" + output)
        try:
            apply(work, mutant)
        except ValueError as exc:
            return "error", time.perf_counter() - t0, str(exc)
        code, failed, _, output = _pytest(work, mutant.tests)
    if code not in (0, 1):
        return "error", time.perf_counter() - t0, output
    caught = all(any(f == node or f.startswith(node + "[") for f in failed)
                 for node in mutant.tests)
    return ("killed" if caught else "survived"), time.perf_counter() - t0, output


def main() -> int:
    bad = 0
    for m in MUTANTS:
        verdict, seconds, output = run(m, ROOT)
        print(f"{verdict:8s} {m.id} ({seconds:.1f} s)", flush=True)
        if verdict != "killed":
            bad += 1
            print(output.strip()[-2000:])
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
