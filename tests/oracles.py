"""Second routes to what the program computes, kept as test oracles.

None of these is part of the ``efgp`` API: each one recomputes a quantity
the program forms another way, so a test can compare the two.
"""

import numpy as np

from efgp import _kernels
from efgp.prufer import _angle_step

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, the golden ratio


def sturm_count(J, E):
    """Number of eigenvalues of J strictly below E: one Sturm node count
    of the program's kernel on J's diagonal."""
    return int(_kernels.sturm_counts(J.diagonal, np.array([float(E)]))[0])


def dense(J):
    """The Jacobi matrix J as a dense array: its diagonal, with 1 on the
    two neighbouring diagonals."""
    n = J.diagonal.shape[0]
    return np.diag(J.diagonal) + np.eye(n, k=1) + np.eye(n, k=-1)


def recur(w0, w1, sub):
    """w_b(0..L+1) of w_b(j+2) = -sub[b, j] w_b(j+1) - w_b(j), for the B
    rows b of sub, from (w_b(0), w_b(1)) = (w0[b], w1[b]), unscaled: one
    solve of the program's band system (``_kernels._band``,
    ``_kernels._solve``), the B blocks laid end to end and uncoupled by
    zero entries.  Returns a new (B, L+2) array.
    """
    nb, n = sub.shape[0], sub.shape[1] + 2
    band = _kernels._band(nb, n, np.empty(3 * nb * n))
    band[:, 1:-1, 1] = sub
    return _kernels._solve(band, w0, w1, np.empty((nb, n)))


def prufer_step(theta_n, nu_n, x):
    """One analytic Prufer step: (R(n+1)^2 / R(n)^2, theta(n+1)).

    The ratio is the one-step identity 1 - nu sin(2 tb) + nu^2 sin^2(tb),
    tb = theta + x, evaluated directly; the next angle is the program's
    pole-free step ``prufer._angle_step``.  Scalars give floats, arrays
    give arrays.
    """
    tb = np.asarray(theta_n) + x
    s = np.sin(tb)
    nu = np.asarray(nu_n)
    ratio_sq = 1.0 - nu * np.sin(2.0 * tb) + nu * nu * s * s
    theta_next = _angle_step(tb, s, nu)
    if np.ndim(theta_n) == 0 and np.ndim(nu_n) == 0:
        return float(ratio_sq), float(theta_next)
    return ratio_sq, theta_next


def _splitmix64(state):
    """One output of Vigna's SplitMix64 generator from state, over Python
    ints reduced mod 2^64."""
    z = (state + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def random_signs(seed, n):
    """The random_sign family's +/-1 at each site n: -1 where the top bit of
    SplitMix64's output from the state (n * gamma) xor seed, mod 2^64, is
    set."""
    key = int(seed) & _MASK64
    signs = []
    for k in np.asarray(n).ravel():
        state = ((int(k) * _GAMMA) & _MASK64) ^ key
        signs.append(-1.0 if _splitmix64(state) >> 63 else 1.0)
    return np.array(signs).reshape(np.shape(n))
