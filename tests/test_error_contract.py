"""Property tests of the error contract: only EfgpError leaves the public
API, and the CLI turns every config into exit code 0, 1 or 2."""

import contextlib
import json
import math
import signal
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efgp import (
    Certificate,
    EigenvalueRecord,
    EigenvalueSet,
    JacobiMatrix,
    OperatorSpec,
    Potential,
    PruferTrajectory,
    Solution,
    SpectralParam,
    WeightedVector,
    almost_orthogonality_check,
    angle_increment_check,
    build_jacobi,
    check_theorem,
    classify_point_spectrum,
    classify_spectrum,
    eigenvalues_in_window,
    envelope_constant,
    errors,
    evolve_trajectory,
    lemma_sums,
    log_bound_check,
    make_eigenvalue_set,
    make_potential,
    oscillatory_partial_sums,
    prufer_sum_diagnostics,
    resonance_construct,
    solve_recurrence,
    theorem_bound,
    theorem_weight,
    to_prufer,
    verify_recursions,
    weighted_dot,
)
from efgp.cli import main

ENTRIES = st.one_of(st.floats(-1e6, 1e6),
                    st.sampled_from([math.nan, math.inf, -math.inf]))
# floats are never valid checkpoints; small integers reach the evolution
CHECKPOINTS = st.one_of(st.none(),
                        st.lists(st.one_of(st.floats(), st.integers(-5, 30)),
                                 max_size=4))


# sizes and integer parameters: floats, nan and inf must not be truncated,
# and integers beyond int64 are rejected (only those: a large size inside
# int64 would be allocated)
SIZES = st.one_of(st.integers(-3, 120), st.floats(),
                  st.sampled_from([10.5, math.nan, math.inf, -math.inf]),
                  st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 5000]))
# real parameters (E, window ends, c, omega, delta, ...): real numbers,
# integers beyond the float range (10**5000 also beyond the digits str()
# allows) or not numbers at all
REALS = st.one_of(st.floats(), st.text(max_size=3), st.none(),
                  st.complex_numbers(),
                  st.sampled_from([10 ** 400, -10 ** 400, 10 ** 5000]))


@settings(derandomize=True, deadline=None)
@given(diag=st.lists(ENTRIES, max_size=20), E=REALS, lo=REALS, hi=REALS,
       checkpoints=CHECKPOINTS, size=SIZES, real=REALS)
# integers beyond the float range and beyond int64, and ones too long for str()
@example(diag=[0.0], E=10 ** 400, lo=-10 ** 400, hi=1.0, checkpoints=None,
         size=2 ** 63, real=10 ** 400)
@example(diag=[0.0], E=0.5, lo=0.0, hi=10 ** 5000, checkpoints=[10 ** 5000],
         size=-2 ** 63 - 1, real=-10 ** 400)
@example(diag=[0.0], E=10 ** 5000, lo=0.0, hi=1.0, checkpoints=[10],
         size=10 ** 5000, real=10 ** 5000)
def test_only_efgp_errors_escape(diag, E, lo, hi, checkpoints, size, real):
    coulomb = make_potential("coulomb", c=1.0)

    def jacobi():
        return JacobiMatrix(np.array(diag, dtype=float))

    def classify():
        spec = OperatorSpec(make_potential("table", values=diag), 1.0, 20)
        return classify_point_spectrum(spec, E, checkpoints)

    def classify_many():
        spec = OperatorSpec(make_potential("table", values=diag), 1.0, 20)
        return classify_spectrum(spec, [0.5, E], checkpoints)

    def evolve():
        spec = OperatorSpec(coulomb, 1.0, size)
        solve_recurrence(spec, SpectralParam.from_x(1.0))
        return evolve_trajectory(spec, SpectralParam.from_x(1.0))

    def sums():
        spec = OperatorSpec(coulomb, 1.0, size)
        return lemma_sums(spec, [SpectralParam.from_x(1.0),
                                 SpectralParam.from_x(real)])

    calls = (lambda: eigenvalues_in_window(jacobi(), (lo, hi)),
             lambda: eigenvalues_in_window(jacobi(), (lo,)),
             classify,
             classify_many,
             lambda: classify_spectrum(OperatorSpec(coulomb, 1.0, 20), E),
             evolve,
             sums,
             lambda: coulomb.values(1, size),
             lambda: coulomb.values(size, 130),
             lambda: coulomb.value_array(size),
             lambda: envelope_constant(coulomb, 1, size),
             lambda: make_potential("random_sign", c=1.0, seed=size),
             lambda: make_potential("coulomb", c=1.0, n0=size),
             lambda: resonance_construct(math.pi / 3, 2.2, size),
             lambda: make_potential("coulomb", c=real),
             lambda: make_potential("resonant", c=1.0, omega=real),
             lambda: make_potential("resonant", c=1.0, omega=1.0, delta=real),
             lambda: Potential("coulomb", amplitude=real).values(1, 3),
             lambda: Potential("coulomb", 1.0, onset=size).values(1, 3),
             lambda: resonance_construct(math.pi / 3, real, 100),
             lambda: SpectralParam.from_x(real),
             lambda: SpectralParam.from_energy(real),
             lambda: theorem_bound(real),
             lambda: check_theorem(make_eigenvalue_set([]), real),
             lambda: oscillatory_partial_sums(real, None, 10),
             lambda: log_bound_check(real, 0.5),
             lambda: log_bound_check(0.25, real))
    for call in calls:
        try:
            call()
        except errors.EfgpError:
            pass


_J4 = JacobiMatrix(np.zeros(4))
_SPEC = OperatorSpec(make_potential("coulomb", c=1.0), 1.0, 20)


NON_REAL_CALLS = {
    "window-text-end": lambda: eigenvalues_in_window(_J4, ("a", 1.0)),
    "window-complex-end": lambda: eigenvalues_in_window(_J4, (1j, 1.0)),
    "window-one-end": lambda: eigenvalues_in_window(_J4, (0.0,)),
    "window-none": lambda: eigenvalues_in_window(_J4, None),
    "classify-text": lambda: classify_point_spectrum(_SPEC, "a"),
    "classify_spectrum-scalar": lambda: classify_spectrum(_SPEC, 0.5),
    "classify_spectrum-text": lambda: classify_spectrum(_SPEC, [0.5, "a"]),
    "from_x-text": lambda: SpectralParam.from_x("a"),
    "from_energy-none": lambda: SpectralParam.from_energy(None),
    "theorem_bound-text": lambda: theorem_bound("a"),
    "check_theorem-none": lambda: check_theorem(make_eigenvalue_set([]), None),
    "partial_sums-text": lambda: oscillatory_partial_sums("a", None, 10),
    "log_bound-text": lambda: log_bound_check("a", 0.5),
    "theorem_weight-text": lambda: theorem_weight("a"),
    "table-scalar": lambda: make_potential("table", values=5),
    "table-text-entry": lambda: make_potential("table", values=[1, "a"]),
    "partial_sums-text-gamma": lambda: oscillatory_partial_sums(1.0, "abc", 3),
    "potential-text-amplitude": lambda: Potential("coulomb", amplitude="a"),
    "potential-text-onset": lambda: Potential("coulomb", 1.0, onset="a"),
    "potential-text-table-entry": lambda: Potential("table", table=(1.0, "a")),
}


@pytest.mark.parametrize("name", sorted(NON_REAL_CALLS))
def test_non_real_scalars_rejected(name):
    with pytest.raises(errors.ParamOutOfRange):
        NON_REAL_CALLS[name]()


_P = SpectralParam.from_x(1.0)
_TRAJ = evolve_trajectory(_SPEC, _P)
_SOL = solve_recurrence(_SPEC, _P)
_SPEC5 = OperatorSpec(make_potential("coulomb", c=1.0), 1.0, 5)
_CERT = Certificate(n_star=100, rn_sq=0.001)


def _record(E=0.5, certificate=_CERT):
    return EigenvalueRecord(E=E, certificate=certificate)

# library objects of the wrong type: a spec, parameters, trajectories or a
# Jacobi diagonal that is not a 1-D real array
WRONG_TYPE_CALLS = {
    "jacobi-2d-diagonal": lambda: JacobiMatrix(np.zeros((2, 2))),
    "window-list-diagonal":
        lambda: eigenvalues_in_window(JacobiMatrix([0.0, 1.0]), (-1.0, 1.0)),
    # a text diagonal is rejected when the matrix is built
    "eigenvector-text-diagonal": lambda: JacobiMatrix(np.array(["a"])),
    "jacobi-complex-diagonal": lambda: JacobiMatrix(np.ones(2, dtype=complex)),
    "evolve_trajectory-float-param": lambda: evolve_trajectory(_SPEC, 1.0),
    "evolve_trajectory-float-spec": lambda: evolve_trajectory(1.0, _P),
    "solve_recurrence-float-param": lambda: solve_recurrence(_SPEC, 1.0),
    "solve_recurrence-text-spec": lambda: solve_recurrence("spec", _P),
    "classify_spectrum-float-spec": lambda: classify_spectrum(1.0, [0.5]),
    "sum_diagnostics-floats": lambda: prufer_sum_diagnostics([1.0], 5),
    "sum_diagnostics-scalar": lambda: prufer_sum_diagnostics(5, 5),
    "sum_diagnostics-mixed": lambda: prufer_sum_diagnostics([_TRAJ, _P], 5),
    "lemma_sums-scalar": lambda: lemma_sums(_SPEC, 5),
    "lemma_sums-floats": lambda: lemma_sums(_SPEC, [1.0, 2.0]),
    "lemma_sums-trajectories": lambda: lemma_sums(_SPEC, [_TRAJ]),
    "lemma_sums-float-spec": lambda: lemma_sums(1.0, [_P]),
    "to_prufer-float": lambda: to_prufer(1.0),
    "verify_recursions-float-solution": lambda: verify_recursions(1.0, _TRAJ),
    "verify_recursions-float-trajectory": lambda: verify_recursions(_SOL, 1.0),
    "angle_increment_check-float": lambda: angle_increment_check(1.0),
    "make_eigenvalue_set-floats": lambda: make_eigenvalue_set([1.0]),
    "check_theorem-float-set": lambda: check_theorem(1.0, 1.0),
    "build_jacobi-float": lambda: build_jacobi(1.0),
    "envelope_constant-float": lambda: envelope_constant(1.0, 1, 2),
    "window-float-matrix": lambda: eigenvalues_in_window(1.0, (0, 1)),
    "weighted_dot-ints": lambda: weighted_dot(1, 2),
    "almost_orthogonality-ints": lambda: almost_orthogonality_check(1, [1]),
    "operator_spec-float-potential": lambda: OperatorSpec(1.0, 1.0, 10),
    "weighted_vector-list-entries": lambda: WeightedVector([1.0, 2.0], 0, 2),
    "weighted_vector-2d-entries":
        lambda: WeightedVector(np.ones((2, 1)), 0, 2),
    "weighted_vector-text-n0": lambda: WeightedVector(np.ones(2), "a", 2),
    "weighted_vector-float-n_end": lambda: WeightedVector(np.ones(2), 0, 2.0),
    "potential-list-table": lambda: Potential("table", table=[1.0]),
    # solutions and trajectories built from lists, or with a wrong parameter
    "solution-list-u":
        lambda: to_prufer(Solution([0.0, 1, 2, 3, 4, 5], _SPEC5, _P)),
    "solution-int-u": lambda: Solution(np.arange(6), _SPEC5, _P),
    "solution-float-param": lambda: Solution(np.zeros(6), _SPEC5, 1.0),
    "trajectory-lists": lambda: angle_increment_check(
        PruferTrajectory([0.0] * 6, [0.0] * 6, [0.0] * 6, _P)),
    "trajectory-2d-V":
        lambda: PruferTrajectory(np.zeros(6), np.zeros(6), np.zeros((6, 1)), _P),
    "trajectory-float-param":
        lambda: PruferTrajectory(np.zeros(6), np.zeros(6), np.zeros(6), 1.0),
    # records whose E is no real number, with no Certificate, or whose
    # certificate holds no integer n_star or no real rn_sq
    "make_eigenvalue_set-text-E":
        lambda: make_eigenvalue_set([_record(E="a"), _record()]),
    "make_eigenvalue_set-no-certificate":
        lambda: make_eigenvalue_set([_record(certificate=None)]),
    "make_eigenvalue_set-text-n_star":
        lambda: make_eigenvalue_set([_record(
            certificate=Certificate(n_star="a", rn_sq=0.001))]),
    "make_eigenvalue_set-float-n_star":
        lambda: make_eigenvalue_set([_record(
            certificate=Certificate(n_star=100.0, rn_sq=0.001))]),
    "make_eigenvalue_set-text-rn_sq":
        lambda: make_eigenvalue_set([_record(
            certificate=Certificate(n_star=100, rn_sq="a"))]),
    "check_theorem-text-n_star":
        lambda: check_theorem(EigenvalueSet((_record(
            certificate=Certificate(n_star="a", rn_sq=0.001)),)), 1.0),
    "check_theorem-float-n_star":
        lambda: check_theorem(EigenvalueSet((_record(
            certificate=Certificate(n_star=100.0, rn_sq=0.001)),)), 1.0),
    "check_theorem-text-rn_sq":
        lambda: check_theorem(EigenvalueSet((_record(
            certificate=Certificate(n_star=100, rn_sq="a")),)), 1.0),
    "check_theorem-no-certificate":
        lambda: check_theorem(EigenvalueSet((_record(certificate=None),)), 1.0),
    "check_theorem-float-record":
        lambda: check_theorem(EigenvalueSet((1.0,)), 1.0),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_CALLS))
def test_wrong_library_types_rejected(name):
    with pytest.raises(errors.ParamOutOfRange):
        WRONG_TYPE_CALLS[name]()


# arguments of the right type out of their domain
DOMAIN_CALLS = {
    "value_array-float": (lambda: _SPEC.potential.value_array(5.0),
                          errors.ParamOutOfRange),
    "value_array-negative": (lambda: _SPEC.potential.value_array(-5),
                             errors.EmptyRange),
    "jacobi-empty-diagonal": (lambda: JacobiMatrix(np.zeros(0)),
                              errors.ParamOutOfRange),
    "jacobi-nan-diagonal": (lambda: JacobiMatrix(np.array([0.0, math.nan])),
                            errors.ParamOutOfRange),
    "jacobi-inf-diagonal": (lambda: JacobiMatrix(np.array([-math.inf, 0.0])),
                            errors.ParamOutOfRange),
    "weighted_vector-nan-entry":
        (lambda: WeightedVector(np.array([1.0, math.nan]), 0, 2),
         errors.ParamOutOfRange),
    "potential-unknown-family": (lambda: Potential("quartic", 1.0),
                                 errors.UnknownFamily),
    "potential-nan-amplitude": (lambda: Potential("coulomb", math.nan),
                                errors.ParamOutOfRange),
    "potential-inf-omega": (lambda: Potential("resonant", 1.0, math.inf),
                            errors.ParamOutOfRange),
    "potential-zero-onset": (lambda: Potential("coulomb", 1.0, onset=0),
                             errors.ParamOutOfRange),
    "potential-float-seed": (lambda: Potential("random_sign", 1.0, seed=1.5),
                             errors.ParamOutOfRange),
    "potential-empty-table": (lambda: Potential("table"), errors.EmptyTable),
    "potential-nan-table": (lambda: Potential("table", table=(math.nan,)),
                            errors.ParamOutOfRange),
    "solution-short-u": (lambda: Solution(np.zeros(5), _SPEC5, _P),
                         errors.LengthMismatch),
    "trajectory-unequal-lengths":
        (lambda: PruferTrajectory(np.zeros(6), np.zeros(5), np.zeros(6), _P),
         errors.LengthMismatch),
    "trajectory-one-entry":
        (lambda: PruferTrajectory(np.zeros(1), np.zeros(1), np.zeros(1), _P),
         errors.LengthMismatch),
    "trajectory-r1-overflow":
        (lambda: PruferTrajectory(np.zeros(3), np.array([math.nan, 710.0, 0.0]),
                                  np.zeros(3), _P).r1,
         errors.Overflow),
    "weighted_dot-overflow":
        (lambda: weighted_dot(WeightedVector(np.array([1e200]), 1, 2),
                              WeightedVector(np.array([1e200]), 1, 2)),
         errors.Overflow),
    "almost_orthogonality-overflow":
        (lambda: almost_orthogonality_check(
            WeightedVector(np.array([1e200]), 1, 2),
            [WeightedVector(np.array([1.0]), 1, 2)]),
         errors.Overflow),
    "envelope-overflow":
        (lambda: envelope_constant(
            make_potential("table", values=[1e308, -1e308, 1e308]), 1, 3),
         errors.Overflow),
    "trajectory-nan-ln_R":
        (lambda: PruferTrajectory(np.zeros(3), np.full(3, math.nan),
                                  np.zeros(3), _P),
         errors.ParamOutOfRange),
    "trajectory-inf-theta":
        (lambda: PruferTrajectory(np.array([math.nan, 0.0, math.inf]),
                                  np.zeros(3), np.zeros(3), _P),
         errors.ParamOutOfRange),
    # R(1) = |u(1) - u(0) cos x| is about 2.6e308
    "to_prufer-radius-overflow":
        (lambda: to_prufer(Solution(np.array([1.7e308, -1.7e308, 1.0, 0.5]),
                                    OperatorSpec(make_potential("coulomb"), 1.0, 3),
                                    _P)),
         errors.Overflow),
    # real arguments: integers beyond the float range, nan and +-inf
    "make_potential-huge-int-c":
        (lambda: make_potential("coulomb", c=10 ** 400), errors.ParamOutOfRange),
    "make_potential-huge-int-value":
        (lambda: make_potential("table", values=[10 ** 400]),
         errors.ParamOutOfRange),
    "spectral_param-huge-int-x": (lambda: SpectralParam(10 ** 400),
                                  errors.ParamOutOfRange),
    "from_energy-huge-int": (lambda: SpectralParam.from_energy(-10 ** 400),
                             errors.ParamOutOfRange),
    "operator_spec-huge-int-phi":
        (lambda: OperatorSpec(_SPEC.potential, 10 ** 400, 10),
         errors.ParamOutOfRange),
    "theorem_bound-huge-int": (lambda: theorem_bound(10 ** 400),
                               errors.ParamOutOfRange),
    "check_theorem-huge-int-C":
        (lambda: check_theorem(make_eigenvalue_set([]), 10 ** 400),
         errors.ParamOutOfRange),
    "theorem_weight-huge-int": (lambda: theorem_weight(-10 ** 400),
                                errors.ParamOutOfRange),
    "partial_sums-huge-int-alpha":
        (lambda: oscillatory_partial_sums(10 ** 400, None, 10),
         errors.ParamOutOfRange),
    "resonance_construct-huge-int-x":
        (lambda: resonance_construct(10 ** 400, 2.2, 100),
         errors.ParamOutOfRange),
    "log_bound-huge-int": (lambda: log_bound_check(0.25, 10 ** 400),
                           errors.ParamOutOfRange),
    "classify_spectrum-huge-int-E":
        (lambda: classify_spectrum(_SPEC, [10 ** 400]), errors.ParamOutOfRange),
    "window-huge-int-end":
        (lambda: eigenvalues_in_window(_J4, (0.0, 10 ** 400)),
         errors.ParamOutOfRange),
    "theorem_weight-inf": (lambda: theorem_weight(math.inf),
                           errors.ParamOutOfRange),
    "theorem_weight-minus-inf": (lambda: theorem_weight(-math.inf),
                                 errors.ParamOutOfRange),
    "theorem_weight-nan": (lambda: theorem_weight(math.nan),
                           errors.ParamOutOfRange),
    # non-finite arguments that raised PhaseOutOfRange, DomainError and
    # NegativeConstant
    "operator_spec-nan-phi": (lambda: OperatorSpec(_SPEC.potential, math.nan, 10),
                              errors.ParamOutOfRange),
    "log_bound-nan-x": (lambda: log_bound_check(math.nan, 0.5),
                        errors.ParamOutOfRange),
    "log_bound-inf-eps": (lambda: log_bound_check(0.25, math.inf),
                          errors.ParamOutOfRange),
    "theorem_bound-minus-inf": (lambda: theorem_bound(-math.inf),
                                errors.ParamOutOfRange),
    # integers beyond int64
    "values-beyond-int64": (lambda: _SPEC.potential.values(1, 2 ** 70),
                            errors.ParamOutOfRange),
    "value_array-beyond-int64": (lambda: _SPEC.potential.value_array(2 ** 70),
                                 errors.ParamOutOfRange),
    "envelope-beyond-int64":
        (lambda: envelope_constant(_SPEC.potential, 2 ** 70, 2 ** 70),
         errors.ParamOutOfRange),
    "classify_spectrum-N-beyond-int64":
        (lambda: classify_spectrum(OperatorSpec(_SPEC.potential, 1.0, 2 ** 70),
                                   [0.5]),
         errors.ParamOutOfRange),
    "seed-beyond-int64":
        (lambda: make_potential("random_sign", c=1.0, seed=2 ** 64),
         errors.ParamOutOfRange),
    # arguments with more digits than str() shows: the message must not fail
    "to_prufer-long-int": (lambda: to_prufer(10 ** 5000), errors.ParamOutOfRange),
    "lemma_sums-long-int": (lambda: lemma_sums(_SPEC, 10 ** 5000),
                            errors.ParamOutOfRange),
    "classify_spectrum-long-int": (lambda: classify_spectrum(_SPEC, 10 ** 5000),
                                   errors.ParamOutOfRange),
    "classify_spectrum-long-int-checkpoint":
        (lambda: classify_spectrum(_SPEC, [0.5], [10 ** 5000]),
         errors.ParamOutOfRange),
    "window-long-int": (lambda: eigenvalues_in_window(_J4, 10 ** 5000),
                        errors.ParamOutOfRange),
    "jacobi-long-int": (lambda: JacobiMatrix(10 ** 5000), errors.ParamOutOfRange),
    "weighted_vector-long-int": (lambda: WeightedVector(10 ** 5000, 0, 1),
                                 errors.ParamOutOfRange),
    "make_eigenvalue_set-long-int":
        (lambda: make_eigenvalue_set([10 ** 5000]), errors.ParamOutOfRange),
    "potential-long-int-family": (lambda: Potential(10 ** 5000),
                                  errors.UnknownFamily),
    "make_potential-long-int-family": (lambda: make_potential(10 ** 5000),
                                       errors.UnknownFamily),
    # hand-built solutions and records with nan, +-inf or a huge integer
    "solution-nan-u":
        (lambda: Solution(np.array([1.0, 1.0, math.nan, 1.0, 1.0, 1.0]),
                          _SPEC5, _P),
         errors.ParamOutOfRange),
    "solution-inf-u":
        (lambda: Solution(np.array([1.0, 1.0, 1.0, 1.0, 1.0, -math.inf]),
                          _SPEC5, _P),
         errors.ParamOutOfRange),
    "make_eigenvalue_set-nan-E":
        (lambda: make_eigenvalue_set([_record(), _record(E=math.nan)]),
         errors.ParamOutOfRange),
    "make_eigenvalue_set-huge-int-E":
        (lambda: make_eigenvalue_set([_record(E=10 ** 400)]),
         errors.ParamOutOfRange),
    "check_theorem-inf-E":
        (lambda: check_theorem(EigenvalueSet((_record(E=math.inf),)), 1.0),
         errors.ParamOutOfRange),
    # n_star beyond int64: 1.0 / n_star would raise OverflowError
    "make_eigenvalue_set-huge-int-n_star":
        (lambda: make_eigenvalue_set([_record(
            certificate=Certificate(n_star=10 ** 400, rn_sq=0.0))]),
         errors.ParamOutOfRange),
    # a numpy n_star made np.int64 * 10**400 raise OverflowError
    "check_theorem-huge-int-rn_sq":
        (lambda: check_theorem(EigenvalueSet((_record(
            certificate=Certificate(n_star=np.int64(100), rn_sq=10 ** 400)),)),
            1.0),
         errors.ParamOutOfRange),
    "check_theorem-n_star-beyond-int64":
        (lambda: check_theorem(EigenvalueSet((_record(
            certificate=Certificate(n_star=2 ** 63, rn_sq=0.0)),)), 1.0),
         errors.ParamOutOfRange),
}


@pytest.mark.parametrize("name", sorted(DOMAIN_CALLS))
def test_out_of_domain_arguments_rejected(name):
    call, error = DOMAIN_CALLS[name]
    with pytest.raises(error):
        call()


# a record checks its fields when it is built, not when it is read or summed
RECORD_CONSTRUCTOR_CALLS = {
    "certificate-float-n_star": lambda: Certificate(n_star=1.5, rn_sq=0.0),
    "certificate-text-n_star": lambda: Certificate(n_star="a", rn_sq=0.0),
    "certificate-n_star-beyond-int64":
        lambda: Certificate(n_star=2 ** 63, rn_sq=0.0),
    "certificate-text-rn_sq": lambda: Certificate(n_star=100, rn_sq="a"),
    "certificate-huge-int-rn_sq":
        lambda: Certificate(n_star=100, rn_sq=10 ** 400),
    "record-nan-E": lambda: EigenvalueRecord(E=math.nan, certificate=_CERT),
    "record-huge-int-E": lambda: EigenvalueRecord(E=10 ** 400, certificate=_CERT),
    "record-no-certificate": lambda: EigenvalueRecord(E=0.5, certificate=None),
}


@pytest.mark.parametrize("name", sorted(RECORD_CONSTRUCTOR_CALLS))
def test_record_constructors_reject_bad_fields(name):
    with pytest.raises(errors.ParamOutOfRange):
        RECORD_CONSTRUCTOR_CALLS[name]()


@settings(derandomize=True, deadline=None)
@given(E=st.floats(allow_nan=False, allow_infinity=False),
       e_type=st.sampled_from([float, np.float64, Fraction]),
       n_star=st.integers(-2 ** 63, 2 ** 63 - 1),
       n_type=st.sampled_from([int, np.int64]),
       rn_sq=st.one_of(st.floats(), st.floats().map(np.float64),
                       st.integers(-10 ** 300, 10 ** 300)))
@example(E=1.0, e_type=np.float64, n_star=100, n_type=np.int64,
         rn_sq=np.float64(0.001))
@example(E=-1.5, e_type=Fraction, n_star=-2 ** 63, n_type=int, rn_sq=math.nan)
@example(E=0.0, e_type=float, n_star=2 ** 63 - 1, n_type=int, rn_sq=-math.inf)
def test_constructible_records_never_raise_when_read(E, e_type, n_star, n_type,
                                                     rn_sq):
    rec = EigenvalueRecord(E=e_type(E), certificate=Certificate(
        n_star=n_type(n_star), rn_sq=rn_sq))
    cert = rec.certificate
    assert type(rec.E) is float and rec.E == E
    assert type(cert.n_star) is int and cert.n_star == n_star
    assert type(cert.rn_sq) is float
    assert cert.rn_sq == float(rn_sq) or math.isnan(rn_sq)
    x, weight, passed = rec.x, rec.weight, cert.passed
    assert (x is None) == (not -2.0 < E < 2.0)
    assert weight == 1.0 - E * E / 4.0 and passed in (True, False)
    eset = make_eigenvalue_set([rec, rec])
    assert eset.records == (rec,)
    report = check_theorem(eset, 1.0, certified_only=False)
    assert report.records_used == (x is not None)
    assert check_theorem(eset, 1.0).records_used == (x is not None and passed)


@pytest.mark.parametrize("value", [[1.0] * 10 ** 6, "a" * 10 ** 6,
                                   [[[[1.0] * 10 ** 4] * 10] * 10] * 10],
                         ids=["list", "text", "nested-lists"])
def test_error_messages_show_a_long_argument_in_part(value):
    # the whole repr of a million-entry list made a 5,000,049-character
    # message
    with pytest.raises(errors.ParamOutOfRange) as exc:
        lemma_sums(_SPEC5, value)
    assert len(str(exc.value)) < 1000


# table values log-uniform in +-[1e-3, 1e300], zeros mixed in
_HUGE_VALUES = st.lists(
    st.one_of(st.just(0.0),
              st.builds(lambda e, sign: sign * 10.0 ** e,
                        st.floats(-3.0, 300.0), st.sampled_from([1.0, -1.0]))),
    min_size=1, max_size=8)


def _or_none(call):
    """call(), or None if it raises an EfgpError."""
    try:
        return call()
    except errors.EfgpError:
        return None


def _assert_finite_trajectory(traj):
    """Every float a trajectory returns is finite, but for slot 0 of its
    arrays, or its accessor raises an EfgpError."""
    for name in ("theta", "ln_R", "V"):
        assert np.isfinite(getattr(traj, name)[1:]).all(), name
    for name in ("nu", "R"):
        values = _or_none(lambda: getattr(traj, name))
        assert values is None or np.isfinite(values[1:]).all(), name
    r1 = _or_none(lambda: traj.r1)
    assert r1 is None or math.isfinite(r1)
    u = _or_none(traj.u_values)
    assert u is None or np.isfinite(u).all()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=_HUGE_VALUES,
       phi=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
       x=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
       n=st.integers(2, 40))
# one huge V(n): nu^2 and the squared amplitude ratio leave the float range
@example(values=[0.0, 1e160, 0.0, 0.0], phi=1.0, x=1.0, n=4)
@example(values=[0.0, 1e210, 0.0, 0.0], phi=1.0, x=1.0, n=4)
def test_finite_input_gives_finite_output_or_an_efgp_error(values, phi, x, n):
    spec = OperatorSpec(make_potential("table", values=values), phi, n)
    param = SpectralParam.from_x(x)
    sol = _or_none(lambda: solve_recurrence(spec, param))
    if sol is not None:
        assert np.isfinite(sol.u).all()
        traj = _or_none(lambda: to_prufer(sol))
        if traj is not None:
            _assert_finite_trajectory(traj)
            rep = _or_none(lambda: verify_recursions(sol, traj))
            assert rep is None or all(map(math.isfinite, (
                rep.max_res_efgp0, rep.max_res_efgp1, rep.max_res_efgp2)))
    traj = _or_none(lambda: evolve_trajectory(spec, param))
    if traj is not None:
        _assert_finite_trajectory(traj)


def test_empty_parameter_lists_give_empty_results():
    assert classify_spectrum(_SPEC, []) == []


@contextlib.contextmanager
def _time_limit(seconds):
    """TimeoutError if the block runs longer than seconds."""
    def expired(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda J: eigenvalues_in_window(J, (-1.0, 1.7e308)),
], ids=["window"])
def test_overflowing_shift_rejected(call):
    # -1e308 - 1.7e308 is -inf: the count must refuse it, not loop on it
    J = JacobiMatrix(np.array([0.0, -1e308, 0.0]))
    with _time_limit(5.0), pytest.raises(errors.ParamOutOfRange):
        call(J)


def test_envelope_beyond_int64_rejected_at_once():
    # a range end of 2**63 must be refused, not read in 2**50 blocks
    with _time_limit(5.0), pytest.raises(errors.ParamOutOfRange):
        envelope_constant(_SPEC.potential, 1, 2 ** 63)


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


# One valid, small config per CLI command, two for bound-check.  The property
# below replaces one field (top level or inside "potential") with an
# arbitrary JSON value.
CLI_CONFIGS = {
    "spectrum": {"command": "spectrum",
                 "potential": {"family": "coulomb", "c": 1.0, "n0": 2},
                 "phi": 1.0, "N": 20, "window": [-2.0, 2.0],
                 "checkpoints": [10, 20]},
    "prufer": {"command": "prufer",
               "potential": {"family": "resonant", "c": 1.0, "omega": 2.0,
                             "delta": 0.5},
               "phi": 1.0, "N": 16, "x_values": [1.0, 2.0]},
    "bound-check": {"command": "bound-check",
                    "potential": {"family": "random_sign", "c": 1.0,
                                  "seed": 3},
                    "phi": 1.0, "N": 24, "x_values": [1.0],
                    "window": [-1.0, 1.0], "checkpoints": [12, 24],
                    "certified_only": False, "C": 1.0},
    # envelope_range is rejected next to C, so it gets a config of its own
    "bound-check-envelope": {"command": "bound-check",
                             "potential": {"family": "alternating",
                                           "c": 1.0},
                             "phi": 1.0, "N": 24, "window": [-1.0, 1.0],
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
