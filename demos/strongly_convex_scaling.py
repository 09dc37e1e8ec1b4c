#!/usr/bin/env python3
"""Square-root scaling of the strongly convex solver in the condition number.

Runs the constant-coefficient accelerated solver on quadratics with
condition numbers 1e2 and 1e4 and compares iterations-to-threshold: a
sqrt(L/mu)-type method should need about 10x more iterations for the
100x harder problem, an unaccelerated one about 100x.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pushopt import (
    APDSCParams,
    TraceRecorder,
    build_cycle_plus_random,
    build_problem,
    emit_svg_plot,
    fit_linear_rate,
    iterations_to_threshold,
    make_quadratic_suite,
    run,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

graph = build_cycle_plus_random(n=10, extra_edges=20, seed=5)

traces = []
counts = {}
for kappa, mu_base, K in ((1e2, 1e-2, 3000), (1e4, 1e-4, 12000)):
    prob = build_problem(graph, make_quadratic_suite(10, 5, kappa, mu_base, 3), x0_seed=11)
    params = APDSCParams.auto(prob.suite, prob.nt, K)
    rec = TraceRecorder(prob.suite, prob.mixing, xstar=prob.xstar, label=f"kappa={kappa:g}")
    _, tr = run(prob.X0, prob.v0, prob.mixing, prob.suite, params, rec)
    traces.append(tr)
    counts[kappa] = iterations_to_threshold(tr, 1e-9)
    rho = fit_linear_rate(tr, 50, counts[kappa])
    print(
        f"kappa={kappa:7g}: beta={params.beta:.2e}  iterations to 1e-9: "
        f"{counts[kappa]:6d}  fitted per-iteration rate: {rho:.5f}"
    )

print(f"\niteration ratio: {counts[1e4] / counts[1e2]:.1f} (sqrt(1e4/1e2) = 10)")
svg = OUT / "strongly_convex_scaling.svg"
emit_svg_plot(traces, svg, axes="semilogy")
print(f"wrote {svg}")
