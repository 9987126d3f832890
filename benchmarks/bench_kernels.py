"""Micro-benchmark: numba-compiled kernels vs the plain Python/numpy path.

Run: python benchmarks/bench_kernels.py --n 1000000 --repeats 3

The same kernel sources run on both sides (see efgp._kernels), so this
measures the JIT speedup alone.  Setting EFGP_DISABLE_NUMBA=1 makes the
package itself use the slow path; this script always times both.
"""

import argparse
import math
import time

import numpy as np

from efgp import _kernels


def _time(fn, *args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=10 ** 6,
                        help="trajectory length / series length")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    n = args.n

    rng = np.random.default_rng(7)
    V = np.zeros(n + 1)
    V[1:] = rng.uniform(-1.0, 1.0, n) / np.arange(1, n + 1)
    x = 1.1
    E, cosx, sinx = 2.0 * math.cos(x), math.cos(x), math.sin(x)
    diag = rng.uniform(-0.5, 0.5, min(n, 20000))
    shifts = np.linspace(-1.9, 1.9, 64)
    terms = np.cos(1.7 * np.arange(1.0, n + 1)) / np.arange(1.0, n + 1)

    cases = {
        "solve_forward": (V, E, 1.0, 0.5),
        "prufer_forward": (V, E, cosx, sinx, x, 1.0, 0.5),
        "backward_resonant": (2.5, 2.0 * x, 0.3, E, cosx, sinx, 4 * n, n,
                              0.0, 1.0),
        "sturm_counts": (diag, shifts, _kernels.PIVMIN),
        "kahan_cumsum": (terms,),
    }

    py = _kernels.python_impls()
    nb = _kernels.compiled_impls()
    print(f"n = {n}, repeats = {args.repeats}, numba available: {bool(nb)}")
    header = f"{'kernel':<20} {'python [s]':>12} {'numba [s]':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, case_args in cases.items():
        t_py = _time(py[name], *case_args, repeats=args.repeats)
        if nb:
            nb[name](*case_args)  # warm the JIT outside the clock
            t_nb = _time(nb[name], *case_args, repeats=args.repeats)
            print(f"{name:<20} {t_py:>12.4f} {t_nb:>12.4f} {t_py / t_nb:>8.1f}x")
        else:
            print(f"{name:<20} {t_py:>12.4f} {'-':>12} {'-':>9}")


if __name__ == "__main__":
    main()
