#!/usr/bin/env python3
"""Full benchmark comparison on the logistic-regression problem.

Reproduces the 20-agent comparison (accelerated solver vs gradient tracking
vs diminishing-step push-sum descent) for both the unpenalized and the
l2-penalized model on the deterministic synthetic dataset, the run that the
committed outputs under demos/out/benchmark_* hold. Runs ITERS iterations,
their length; pass an iteration count (3000 for the paper's length) to run
another length, and after it the path of a labeled CSV (such as
data/banknote.csv) to run on that data instead. Either replaces the
committed outputs.

    python demos/logistic_benchmark.py [ITERS [CSV]]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pushopt import reproduce_paper_experiment

# The length of the committed outputs, which the golden test reproduces.
ITERS = 400
OUT = Path(__file__).parent / "out"


def main(iters: int, data: Path | None = None) -> None:
    for case in ("nonstrongly", "strongly"):
        out_dir = OUT / f"benchmark_{case}"
        summary, traces = reproduce_paper_experiment(data, case, out_dir, iters=iters)
        print(f"=== {case} (mu = {summary['experiment']['mu']}), K = {iters}")
        print(f"    data: {summary['experiment']['data']}, L = {summary['resolved']['L']:.2f}")
        for name, info in summary["algorithms"].items():
            reached = info["iterations_to"]["1e-10"]
            print(
                f"    {name:>12}: final gap {info['final_gap']:.3e}"
                + (f", reaches 1e-10 at k={reached}" if reached is not None else "")
            )
        print(f"    wrote traces + comparison.svg to {out_dir}")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(int(args[0]) if args else ITERS, Path(args[1]) if len(args) > 1 else None)
