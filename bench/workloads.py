"""Workload definitions shared by run.py and its sample processes (child.py).

Each workload is fixed here: its run length, its inputs as a function of the
benchmark seed, and how its inputs are written to disk. run.py writes the
inputs once per run; every sample process then reads the same files, so the
program only ever sees generated inputs. This module needs numpy only.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# sweep_logistic runs like the others but is left out of BENCHMARK.json: its
# run-to-run spread on a shared 2-CPU machine is too wide for a gate at the
# run length three workloads allow (README, "Run length and spread").
WORKLOADS = ("reproduce_logistic", "sweep_logistic", "run_quadratic_n400")

# reproduce_logistic: both cases at this length. 500 is the shortest round
# length at which the accelerated method is no worse than pushdiging in the
# nonstrongly case (the crossover sits near k = 450 on the default data),
# and where both final gaps are tiny.
REPRODUCE_ITERS = 500
REPRODUCE_CASES = ("strongly", "nonstrongly")

# sweep_logistic: hook-free stepsize grid on the strongly convex problem.
# apdsc uses default_params_sc(c_prac=c); pushdiging uses eta = c / L. Every
# point lies inside the stable range on every seed that was tried.
SWEEP_ITERS = 1000
SWEEP_GRID = (
    ("apdsc", 0.1),
    ("apdsc", 0.2),
    ("apdsc", 0.3),
    ("pushdiging", 0.1),
    ("pushdiging", 0.2),
    ("pushdiging", 0.3),
)
SWEEP_MU = 0.05

# run_quadratic_n400: one config through `pushopt run`. The graph seed is
# fixed at the repository's default graph seed (7): with "auto" params some
# n = 400 graphs make every solver diverge (graph seed 0 does), and a
# workload must not fail. The benchmark seed drives the objective and x0.
N400_ITERS = 600
N400_GRAPH = {"n": 400, "extra_edges": 1200, "seed": 7}
N400_OBJECTIVE = {"kind": "quadratic", "dim": 5, "kappa": 100.0, "mu_base": 0.01}
N400_ALGORITHMS = ("apd", "apdsc", "pushdiging")

DATA_ROWS = 1000
DATA_DIM = 4


def logistic_rows(seed: int) -> tuple:
    """Seeded stand-in for a small real classification set.

    Gaussian features with margin noise and an 8% label flip rate, so the
    data is never separable and the unpenalized loss keeps a finite
    minimizer. Returns (features, classes) with classes in {0, 1}.
    """
    rng = np.random.default_rng([0x9E37, seed])
    z = 0.63 * rng.standard_normal((DATA_ROWS, DATA_DIM))
    w = np.array([1.5, -2.0, 1.0, 0.5])
    margin = z @ w + 0.6 * rng.standard_normal(DATA_ROWS)
    cls = (margin >= 0).astype(int)
    flip = rng.random(DATA_ROWS) < 0.08
    cls[flip] = 1 - cls[flip]
    return z, cls


def write_inputs(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's inputs for `seed` under `work`; return the input file."""
    work.mkdir(parents=True, exist_ok=True)
    if workload in ("reproduce_logistic", "sweep_logistic"):
        z, cls = logistic_rows(seed)
        lines = [",".join(f"{v:.17g}" for v in row) + f",{c}" for row, c in zip(z, cls)]
        path = work / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        return path
    if workload == "run_quadratic_n400":
        config = {
            "graph": N400_GRAPH,
            "objective": {**N400_OBJECTIVE, "seed": seed},
            "init": {"x0_seed": seed},
            "run": {"iterations": N400_ITERS},
            "algorithms": [{"name": a, "params": "auto"} for a in N400_ALGORITHMS],
        }
        path = work / "config.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return path
    raise ValueError(f"unknown workload {workload!r}")


def solver_iterations(workload: str) -> int:
    """Solver iterations one workload sample completes (excluding k = 0)."""
    if workload == "reproduce_logistic":
        return len(REPRODUCE_CASES) * 3 * REPRODUCE_ITERS
    if workload == "sweep_logistic":
        return len(SWEEP_GRID) * SWEEP_ITERS
    return len(N400_ALGORITHMS) * N400_ITERS
