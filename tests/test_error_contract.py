"""Property test of the error contract: only EfgpError leaves the public API."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from efgp import (
    JacobiMatrix,
    OperatorSpec,
    classify_point_spectrum,
    eigenvalues_in_window,
    eigenvector,
    errors,
    make_potential,
    sturm_count,
)

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
