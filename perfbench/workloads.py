"""Seeded workload inputs: one efgp CLI config per (workload, seed).

Every program input (x values, the random_sign seed, the construct x) is
drawn from ``numpy.random.default_rng(seed)``, so the same seed gives the
same config.  The program only ever receives the generated config.

``scale`` picks the problem sizes (see SIZES); the benchmark times
"full" only.
"""

import math

import numpy as np

# All four run.  BENCHMARK.json declares window-bound and lemma-sums only;
# perfbench/README.md says why construct and prufer-csv are not declared.
WORKLOADS = ("window-bound", "construct", "prufer-csv", "lemma-sums")

# Resonant potential engineered by `construct` at x = pi/3, c = 2.2, N = 1e4:
# it carries an embedded eigenvalue at E = 2 cos(pi/3) = 1.
ENGINEERED = {
    "family": "resonant",
    "c": 2.2,
    "omega": 2.0 * math.pi / 3.0,
    "delta": 1.3575974530435633,
}
ENGINEERED_PHI = 2.4891024719091113
ENGINEERED_X = math.pi / 3.0

# Problem lengths N per scale: "full" is the benchmark, "tiny" the
# self-tests (smallest sizes at which every output check still holds) and
# "warmup" the untimed set-up run of the same command.
SIZES = {
    "full": {"window-bound": 1000, "construct": 40000,
             "prufer-csv": 300000, "lemma-sums": 1000000},
    "tiny": {"window-bound": 200, "construct": 2000,
             "prufer-csv": 500, "lemma-sums": 2000},
    "warmup": {"window-bound": 50, "construct": 100,
               "prufer-csv": 50, "lemma-sums": 200},
}

# Generic x (2x != pi) at which construct at N = 4e4 fits c / (4 sin x)
# within 2%: 14 points evenly spaced over [0.6, 1.25].  Elsewhere the phase
# scan can pick a phase whose final pass does not decay: at
# x = 2.295428242706648 the fit is -0.308 and at x = 2.3416 it is 0.597,
# both outside the 5% law, so x > pi/2 is not drawn.
CONSTRUCT_XS = tuple(round(0.6 + 0.05 * k, 2) for k in range(14))

# Extra seeded candidates stay in [0.3, 2.6], away from the band edges
# E = +/-2 where short checkpoints certify false positives.
_EXTRA_CANDIDATES = 3

# Minimal distance of 2x_j and x_j +/- x_k from multiples of pi.
_FREQ_GAP = 0.1


def _away_from_pi_multiples(xs, gap):
    def dist(v):
        return abs(math.remainder(v, math.pi))
    for j, xj in enumerate(xs):
        if dist(2.0 * xj) < gap:
            return False
        for xk in xs[j + 1:]:
            if dist(xj + xk) < gap or dist(xj - xk) < gap:
                return False
    return True


def _spread_xs(rng, count):
    """count spectral parameters with non-degenerate sums and differences."""
    while True:
        xs = sorted(float(v) for v in rng.uniform(0.3, math.pi - 0.3, count))
        if _away_from_pi_multiples(xs, _FREQ_GAP):
            return xs


def _random_sign(rng):
    return {"family": "random_sign", "c": 1.0,
            "seed": int(rng.integers(0, 2 ** 62))}


def make_config(workload, seed, scale="full"):
    """The CLI config document of one workload for one seed (no output_dir)."""
    rng = np.random.default_rng([seed % 2 ** 64, WORKLOADS.index(workload)])
    n = SIZES[scale][workload]
    if workload == "window-bound":
        extras = rng.uniform(0.3, 2.6, _EXTRA_CANDIDATES)
        return {"command": "bound-check", "potential": dict(ENGINEERED),
                "phi": ENGINEERED_PHI, "N": n, "window": [-2.0, 2.0],
                "x_values": [ENGINEERED_X] + [float(v) for v in extras]}
    if workload == "construct":
        # c = 2.54 sin(x) keeps c / (4 sin x) = 0.635 for every seed
        x = float(rng.choice(CONSTRUCT_XS))
        return {"command": "construct", "x": x, "c": 2.54 * math.sin(x),
                "N": n}
    if workload == "prufer-csv":
        pot = _random_sign(rng)
        return {"command": "prufer", "potential": pot, "phi": 1.0, "N": n,
                "x_values": _spread_xs(rng, 2)}
    if workload == "lemma-sums":
        pot = _random_sign(rng)
        return {"command": "lemma-sums", "potential": pot, "phi": 1.0,
                "N": n, "x_values": _spread_xs(rng, 4)}
    raise ValueError(f"unknown workload {workload!r}")
