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
    TraceRecorder,
    apd_run,
    build_cycle_plus_random,
    default_params_smooth,
    emit_svg_plot,
    fit_sublinear_rate,
    make_quadratic_suite,
    push_diging_run,
    subgradient_push_run,
    uniform_out_weights,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

graph = build_cycle_plus_random(n=10, extra_edges=20, seed=5)
mixing = uniform_out_weights(graph)
sigma = np.abs(np.linalg.eigvals(mixing.error_map())).max()
print(f"graph: n={graph.n}, {len(graph.edges)} directed edges, sigma={sigma:.3f}")

suite = make_quadratic_suite(n=10, dim=5, kappa=100.0, mu_base=0.01, seed=3)
xstar, fstar = suite.minimizer()
print(f"objective: quadratic, condition number {suite.L / suite.mu:.0f}, f* = {fstar:.6f}")

rng = np.random.default_rng(11)
X0 = rng.standard_normal((10, 5))
v0 = np.ones(10)
K = 2000

params = default_params_smooth(suite.L, c_prac=0.05, K=K)
rec = TraceRecorder(suite, mixing, xstar=xstar, label="accelerated")
_, tr_acc = apd_run(X0, v0, mixing, suite, params, rec)

rec = TraceRecorder(suite, mixing, xstar=xstar, label="gradient tracking")
_, tr_gt = push_diging_run(X0, v0, mixing, suite, params.eta, K, rec)

rec = TraceRecorder(suite, mixing, xstar=xstar, label="diminishing step")
_, tr_dim = subgradient_push_run(X0, v0, mixing, suite, 0.18, K, rec)

for tr in (tr_acc, tr_gt, tr_dim):
    slope = fit_sublinear_rate(tr, 100, K)
    print(f"{tr.label:>18}: final gap {tr.loss[-1]:.3e}, log-log slope {slope:+.2f}")

svg = OUT / "quadratic_acceleration.svg"
emit_svg_plot([tr_acc, tr_gt, tr_dim], svg, axes="loglog")
print(f"wrote {svg}")
