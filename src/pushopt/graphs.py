"""Directed communication topologies for multi-agent optimization."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.random  # loaded at import, not by the first default_rng of a set-up

__all__ = [
    "DirectedGraph",
    "build_cycle_plus_random",
    "is_strongly_connected",
    "save_edge_list",
    "load_edge_list",
]


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on nodes 0..n-1; edge (i, j) means i sends to j.

    Self-communication is implicit in the mixing weights, so self-loops are
    rejected. Instances are immutable and safe to share between runs.
    """

    n: int
    edges: frozenset
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop {i}->{i} not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {i}->{j} out of range for n={self.n}")

    def out_neighbors(self) -> list:
        """Sorted out-neighbor lists, indexed by sending node."""
        nbrs = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
        return [sorted(v) for v in nbrs]

    def in_neighbors(self) -> list:
        nbrs = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[j].append(i)
        return [sorted(v) for v in nbrs]


def _ring_edges(n: int) -> set:
    """Both directions of every undirected cycle edge."""
    edges = set()
    for i in range(n):
        j = (i + 1) % n
        edges.add((i, j))
        edges.add((j, i))
    return edges


def build_cycle_plus_random(n: int, extra_edges: int, seed: int) -> DirectedGraph:
    """Bidirected ring on n nodes plus `extra_edges` random directed links.

    The extra links are sampled uniformly without replacement from the
    ordered non-ring, non-self pairs. Deterministic for a given seed.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes for a ring")
    if extra_edges < 0:
        raise ValueError("extra_edges must be nonnegative")
    ring = _ring_edges(n)
    # np.nonzero walks the mask in row-major order, which is the sorted
    # order of the (i, j) pairs that the sampled indices refer to.
    allowed = ~np.eye(n, dtype=bool)
    ring_i, ring_j = np.array(list(ring)).T
    allowed[ring_i, ring_j] = False
    rows, cols = np.nonzero(allowed)
    if extra_edges > len(rows):
        raise ValueError(
            f"extra_edges={extra_edges} exceeds the {len(rows)} "
            f"available non-ring pairs for n={n}"
        )
    # The bidirected ring already makes the graph strongly connected.
    idx = np.random.default_rng(seed).choice(len(rows), size=extra_edges, replace=False)
    edges = ring | set(zip(rows[idx].tolist(), cols[idx].tolist()))
    return DirectedGraph(n=n, edges=frozenset(edges), seed=seed)


def _reachable(n: int, adj: list, start: int) -> np.ndarray:
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every node reaches every other along directed edges."""
    if g.n == 1:
        return True
    fwd = g.out_neighbors()
    bwd = g.in_neighbors()
    return bool(_reachable(g.n, fwd, 0).all() and _reachable(g.n, bwd, 0).all())


def save_edge_list(g: DirectedGraph, path) -> None:
    """Write the plain-text edge-list format: "n <count>" then 1-based "i j" lines."""
    lines = [f"n {g.n}"]
    lines += [f"{i + 1} {j + 1}" for i, j in sorted(g.edges)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_edge_list(path) -> DirectedGraph:
    """Parse the edge-list format written by :func:`save_edge_list`."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"{path}: first line must be 'n <count>', got {lines[0]!r}")
    n = int(head[1])
    edges = set()
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {ln!r}")
        i, j = int(parts[0]) - 1, int(parts[1]) - 1
        edges.add((i, j))
    return DirectedGraph(n=n, edges=frozenset(edges), seed=0)
