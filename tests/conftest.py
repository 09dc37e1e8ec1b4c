import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from pushopt import (
    DirectedGraph,
    build_contraction_norm,
    build_cycle_plus_random,
    make_quadratic_suite,
    uniform_out_weights,
)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=150)
settings.load_profile("tier1")


@st.composite
def strongly_connected(draw):
    """A random strongly connected digraph on 2-40 nodes: a one-way ring in
    random order plus random links. Test modules import it from here."""
    n = draw(st.integers(2, 40))
    order = draw(st.permutations(range(n)))
    ring = {(order[i], order[(i + 1) % n]) for i in range(n)}
    node = st.integers(0, n - 1)
    extra = draw(st.sets(st.tuples(node, node), max_size=3 * n))
    return DirectedGraph(n, frozenset(ring | {(i, j) for i, j in extra if i != j}))


@pytest.fixture(scope="session")
def small_mixing():
    """n=10 ring plus 20 random links, with its mixing data."""
    g = build_cycle_plus_random(10, 20, 5)
    return uniform_out_weights(g)


@pytest.fixture(scope="session")
def small_norm(small_mixing):
    return build_contraction_norm(small_mixing.C, small_mixing.p)


@pytest.fixture(scope="session")
def small_suite():
    return make_quadratic_suite(10, 5, 100.0, 0.01, 3)


@pytest.fixture()
def small_init(small_mixing):
    rng = np.random.default_rng(11)
    X0 = rng.standard_normal((small_mixing.n, 5))
    v0 = np.ones(small_mixing.n)
    return X0, v0
