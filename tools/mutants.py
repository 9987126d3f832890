"""Mutants the tests must catch: a table of one-edit mutations and a runner.

Each entry names a file, an exact old text that occurs exactly once in it,
the new text, and the test node ids that must fail once the edit is made.
The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` (whose
``pythonpath = ["src"]`` resolves against the copy) to a temporary
directory and runs the named nodes there with
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
COPIED = ("src", "tests", "pyproject.toml")


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
        "passed=n_star > 0 and rn_sq <= 1.0 / n_star",
        "passed=n_star > 0 and rn_sq <= 4.0 / n_star",
        ("tests/test_spectral.py::test_classify_spectrum_matches_one_energy_route",
         "tests/test_spectral.py::test_certificate_waits_for_hypothesis_onset")),
    Mutant(
        "onset-gate-dropped", "src/efgp/spectral.py",
        "if onset == 0 or c < onset:",
        "if onset == 0:",
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
        "n = np.arange(n_lo, n_lo + v.shape[0], dtype=np.float64)",
        "n = np.arange(1, 1 + v.shape[0], dtype=np.float64)",
        ("tests/test_operators.py::"
         "test_envelope_of_a_late_range_and_of_explicit_values",)),
    Mutant(
        "decay-fit-blas-dot", "src/efgp/spectral.py",
        "return [-float(v / tt) for v in np.sum(dev * t_c, axis=1)]",
        "return [-float(np.dot(t_c, d) / tt) for d in dev]",
        ("tests/test_spectral.py::"
         "test_spectrum_csv_does_not_depend_on_blas_threads",)),
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
            else:
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
