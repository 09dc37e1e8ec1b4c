import numpy as np
import pytest

from pushopt import (
    DirectedGraph,
    build_cycle_plus_random,
    is_strongly_connected,
    load_edge_list,
    save_edge_list,
)


def test_generated_graph_matches_requested_size():
    g = build_cycle_plus_random(20, 50, 7)
    assert g.n == 20
    assert len(g.edges) == 90  # 40 ring edges + 50 extras
    assert is_strongly_connected(g)


def test_ring_only_is_bidirected_triangle():
    g = build_cycle_plus_random(3, 0, 0)
    assert g.edges == frozenset(
        {(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)}
    )


def test_two_node_ring():
    g = build_cycle_plus_random(2, 0, 0)
    assert g.edges == frozenset({(0, 1), (1, 0)})


def test_generation_is_deterministic():
    a = build_cycle_plus_random(15, 30, 99)
    b = build_cycle_plus_random(15, 30, 99)
    assert a.edges == b.edges
    c = build_cycle_plus_random(15, 30, 100)
    assert c.edges != a.edges


def test_no_self_loops_and_extra_edges_disjoint_from_ring():
    g = build_cycle_plus_random(12, 40, 3)
    for i, j in g.edges:
        assert i != j
    ring = {((i, (i + 1) % 12)) for i in range(12)} | {
        (((i + 1) % 12, i)) for i in range(12)
    }
    assert len(g.edges - ring) == 40


def test_budget_exceeded_rejected():
    # n=4: 12 ordered pairs, 8 in the ring, so at most 4 extras.
    with pytest.raises(ValueError):
        build_cycle_plus_random(4, 5, 0)
    build_cycle_plus_random(4, 4, 0)


def test_self_loop_rejected_in_constructor():
    with pytest.raises(ValueError):
        DirectedGraph(3, frozenset({(1, 1)}))


def test_strong_connectivity_examples():
    triangle = DirectedGraph(3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}))
    assert is_strongly_connected(triangle)
    chain = DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
    assert not is_strongly_connected(chain)
    cycle = DirectedGraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    assert is_strongly_connected(cycle)


def test_edge_list_round_trip(tmp_path):
    g = build_cycle_plus_random(9, 15, 21)
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("n 9\n")
    assert "\r" not in text
    # 1-based indices on every edge line
    for line in text.splitlines()[1:]:
        i, j = map(int, line.split())
        assert 1 <= i <= 9 and 1 <= j <= 9
    g2 = load_edge_list(path)
    assert g2.n == g.n and g2.edges == g.edges


def test_edge_list_parse_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        load_edge_list(empty)
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\n1 2 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="2"):
        load_edge_list(bad)


def _reference_cycle_plus_random(n, extra_edges, seed):
    """The generator written with a plain loop over ordered pairs."""
    ring = {(i, (i + 1) % n) for i in range(n)} | {((i + 1) % n, i) for i in range(n)}
    candidates = sorted(
        (i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in ring
    )
    idx = np.random.default_rng(seed).choice(len(candidates), size=extra_edges, replace=False)
    return frozenset(ring | {candidates[i] for i in idx})


_RNG = np.random.default_rng(2024)
_RANDOM_CASES = [
    (int(n), int(_RNG.integers(0, n * (n - 3) + 1)), int(_RNG.integers(0, 1000)))
    for n in _RNG.integers(4, 60, size=5)
]


@pytest.mark.parametrize(
    "n,extra,seed",
    [(400, 1200, 7), (100, 300, 0), (20, 50, 3), (3, 0, 0), (2, 0, 1)] + _RANDOM_CASES,
)
def test_generator_matches_pairwise_reference(n, extra, seed):
    g = build_cycle_plus_random(n, extra, seed)
    assert g.edges == _reference_cycle_plus_random(n, extra, seed)
    assert all(type(i) is int and type(j) is int for i, j in g.edges)
