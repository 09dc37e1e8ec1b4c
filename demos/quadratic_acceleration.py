#!/usr/bin/env python3
"""Accelerated vs plain gradient tracking on an ill-conditioned quadratic.

Builds a 10-agent directed graph, runs the accelerated solver, plain
gradient tracking, and the diminishing-step baseline from one shared
Gaussian init, then fits log-log slopes and renders the comparison.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from pushopt import (
    APDParams,
    PushDIGingParams,
    SubgradPushParams,
    TraceRecorder,
    build_cycle_plus_random,
    build_problem,
    emit_svg_plot,
    fit_sublinear_rate,
    make_quadratic_suite,
    run,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

graph = build_cycle_plus_random(n=10, extra_edges=20, seed=5)
suite = make_quadratic_suite(n=10, dim=5, kappa=100.0, mu_base=0.01, seed=3)
prob = build_problem(graph, suite, x0_seed=11)
sigma = np.abs(np.linalg.eigvals(prob.mixing.error_map())).max()
print(f"graph: n={graph.n}, {len(graph.edges)} directed edges, sigma={sigma:.3f}")
print(f"objective: quadratic, condition number {suite.L / suite.mu:.0f}, f* = {prob.fstar:.6f}")

K = 2000
params = APDParams(eta=0.05 / suite.L, K=K)
traces = []
for label, alg in (
    ("accelerated", params),
    ("gradient tracking", PushDIGingParams(params.eta, K)),
    ("diminishing step", SubgradPushParams(0.18, K)),
):
    rec = TraceRecorder(suite, prob.mixing, xstar=prob.xstar, label=label)
    _, tr = run(prob.X0, prob.v0, prob.mixing, suite, alg, rec)
    slope = fit_sublinear_rate(tr, 100, K)
    print(f"{tr.label:>18}: final gap {tr.loss[-1]:.3e}, log-log slope {slope:+.2f}")
    traces.append(tr)

svg = OUT / "quadratic_acceleration.svg"
emit_svg_plot(traces, svg, axes="loglog")
print(f"wrote {svg}")
