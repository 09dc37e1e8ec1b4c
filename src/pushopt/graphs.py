"""Directed communication topologies for multi-agent optimization."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

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

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop {i}->{i} not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {i}->{j} out of range for n={self.n}")


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
    # Row i of the pair grid lacks (i, i) and the ring pairs (i, i +- 1), so
    # every row holds the same count of allowed pairs. Index f is the allowed
    # pair f % count of row f // count in row-major order.
    per_row = n - min(n, 3)
    total = n * per_row
    if extra_edges > total:
        raise ValueError(
            f"extra_edges={extra_edges} exceeds the {total} "
            f"available non-ring pairs for n={n}"
        )
    # The bidirected ring already makes the graph strongly connected.
    idx = np.random.default_rng(seed).choice(total, size=extra_edges, replace=False)
    rows, cols = np.divmod(idx, max(per_row, 1))  # idx is empty where per_row is 0
    # Step each column past the excluded columns of its row, in ascending order.
    for excluded in np.sort([(rows - 1) % n, rows, (rows + 1) % n], axis=0):
        cols += cols >= excluded
    edges = ring | set(zip(rows.tolist(), cols.tolist()))
    return DirectedGraph(n=n, edges=frozenset(edges))


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
    fwd = [[] for _ in range(g.n)]
    bwd = [[] for _ in range(g.n)]
    for i, j in g.edges:
        fwd[i].append(j)
        bwd[j].append(i)
    return bool(_reachable(g.n, fwd, 0).all() and _reachable(g.n, bwd, 0).all())


def save_edge_list(g: DirectedGraph, path) -> None:
    """Write the plain-text edge-list format: "n <count>" then 1-based "i j" lines."""
    lines = [f"n {g.n}"]
    lines += [f"{i + 1} {j + 1}" for i, j in sorted(g.edges)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _decimal(token: str) -> int | None:
    """The value of a plain ASCII decimal token, else None."""
    return int(token) if token.isascii() and token.isdigit() else None


def load_edge_list(path) -> DirectedGraph:
    """Parse the edge-list format written by :func:`save_edge_list`.

    A malformed line raises ValueError naming the file, the line number in
    it and the token as written: a node count that is not an integer >= 1,
    a node that is not an integer in 1..n, or a self-loop.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    lineno, first = lines[0]
    head = first.split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"{path}:{lineno}: first line must be 'n <count>', got {first!r}")
    n = _decimal(head[1])
    if n is None or n < 1:
        raise ValueError(f"{path}:{lineno}: node count {head[1]!r} is not an integer >= 1")
    edges = set()
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {ln!r}")
        ends = [_decimal(token) for token in parts]
        for token, node in zip(parts, ends):
            if node is None or not 1 <= node <= n:
                raise ValueError(f"{path}:{lineno}: node {token!r} is not an integer in 1..{n}")
        if ends[0] == ends[1]:
            raise ValueError(f"{path}:{lineno}: self-loop {ln!r} not allowed")
        edges.add((ends[0] - 1, ends[1] - 1))
    return DirectedGraph(n=n, edges=frozenset(edges))
