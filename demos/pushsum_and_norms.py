#!/usr/bin/env python3
"""Push-sum weights, Perron vectors, and the contraction norm.

Shows the spectral structure of a column-stochastic mixing matrix for a
random directed graph, builds the Perron-weighted norm in which its error
map contracts, and checks the certified geometric decay of the push-sum
weights against the measured curve.
"""
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from pushopt import build_contraction_norm, build_cycle_plus_random, uniform_out_weights

graph = build_cycle_plus_random(n=20, extra_edges=50, seed=7)
mixing = uniform_out_weights(graph)

print(f"n = {graph.n}, directed edges = {len(graph.edges)}")
print(f"column sums: max |1 - sum| = {np.abs(mixing.C.sum(axis=0) - 1).max():.2e}")
print(f"Perron vector range: [{mixing.p.min():.3f}, {mixing.p.max():.3f}], sum = {mixing.p.sum():.1f}")
sigma = np.abs(np.linalg.eigvals(mixing.error_map())).max()
print(f"spectral radius of the mixing error map: sigma = {sigma:.4f}")
default = build_contraction_norm(mixing.C, mixing.p)
# A smaller delta keeps the certified curve above double precision to k = 200.
long_horizon = replace(default, delta=1 - default.rho - 0.875 * (1 - default.rho))

for label, nt in (("default", default), ("long-horizon", long_horizon)):
    print(
        f"{label:>13} norm: delta = {nt.delta:.4f}, theta = {nt.theta:.2f}, "
        f"contraction factor = {nt.rho:.4f}"
    )

# decay of the push-sum weights toward the Perron vector, against the bound
nt = long_horizon
v = np.ones(20)
d0 = nt.vec_norm(v - mixing.p)
print("\n   k   measured      certified bound")
for k in range(1, 201):
    v = mixing.C @ v
    if k in (1, 5, 10, 25, 50, 100, 200):
        print(f"{k:4d}   {nt.vec_norm(v - mixing.p):.3e}     {(1 - nt.delta) ** k * d0:.3e}")
