import numpy as np
import pytest

from pushopt import (
    DirectedGraph,
    build_contraction_norm,
    build_cycle_plus_random,
    contraction_factor,
    perron_vector,
    uniform_out_weights,
)

TRIANGLE = DirectedGraph(
    3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)})
)
CYCLE3 = DirectedGraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))


def test_bidirected_triangle_is_uniform():
    mix = uniform_out_weights(TRIANGLE)
    assert np.allclose(mix.C, np.full((3, 3), 1.0 / 3.0))
    assert np.allclose(mix.p, np.ones(3), atol=1e-12)


def test_directed_cycle_columns():
    mix = uniform_out_weights(CYCLE3)
    expected = 0.5 * np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=float)
    assert np.allclose(mix.C, expected)


def test_column_sums_and_support(small_mixing):
    C = small_mixing.C
    assert np.abs(C.sum(axis=0) - 1.0).max() <= 1e-12
    # support condition: C[i, j] != 0 only when j -> i is an edge or i == j
    g = build_cycle_plus_random(10, 20, 5)
    for i in range(10):
        for j in range(10):
            if C[i, j] != 0:
                assert i == j or (j, i) in g.edges


def test_weights_require_strong_connectivity():
    chain = DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(ValueError):
        uniform_out_weights(chain)


def test_perron_doubly_stochastic_gives_ones():
    C = uniform_out_weights(TRIANGLE).C
    assert np.allclose(perron_vector(C), np.ones(3), atol=1e-11)


def test_perron_against_dense_eigensolver():
    # graph {1->2, 1->3, 2->3, 3->1} with uniform out-weights
    C = np.array([[1 / 3, 0, 1 / 2], [1 / 3, 1 / 2, 0], [1 / 3, 1 / 2, 1 / 2]])
    p = perron_vector(C, tol=1e-13)
    assert np.linalg.norm(C @ p - p) <= 1e-10 * np.linalg.norm(p)
    assert abs(p.sum() - 3.0) <= 1e-10
    # oracle: dominant eigenvector from the dense solver
    w, V = np.linalg.eig(C)
    lead = V[:, np.argmax(w.real)].real
    lead *= 3.0 / lead.sum()
    assert np.allclose(p, lead, atol=1e-9)


def test_perron_positive_and_normalized(small_mixing):
    p = small_mixing.p
    assert p.min() > 0
    assert abs(p.sum() - 10) <= 1e-10
    resid = np.linalg.norm(small_mixing.C @ p - p) / np.linalg.norm(p)
    assert resid <= 1e-10


def test_contraction_factor_examples():
    uniformC = np.full((3, 3), 1.0 / 3.0)
    assert contraction_factor(uniformC, np.ones(3)) <= 1e-12
    mix = uniform_out_weights(CYCLE3)
    assert abs(mix.sigma - 0.5) <= 1e-12
    ring = uniform_out_weights(build_cycle_plus_random(20, 0, 0))
    assert 0.0 < ring.sigma < 1.0
    # oracle: dense eigensolve of the error map
    M = ring.C - np.outer(ring.p, np.ones(20)) / 20
    assert abs(ring.sigma - np.abs(np.linalg.eigvals(M)).max()) <= 1e-12


def test_norm_transform_zero_error_map():
    # C = p 1^T / n: the error map vanishes, any epsilon works
    p = np.array([1.5, 0.5])
    C = np.outer(p, np.ones(2)) / 2
    nt = build_contraction_norm(C, p, epsilon=0.3)
    assert nt.contraction_norm <= 0.3


def test_norm_transform_cycle_contraction():
    mix = uniform_out_weights(CYCLE3)
    nt = build_contraction_norm(mix.C, mix.p, epsilon=0.1)
    assert nt.contraction_norm <= 0.6 + 1e-12
    assert abs(nt.delta - 0.4) <= 1e-12


def test_norm_transform_invariants(small_mixing):
    nt = build_contraction_norm(small_mixing.C, small_mixing.p)
    M = small_mixing.error_map()
    measured = np.linalg.norm(nt.Ctilde @ M @ np.linalg.inv(nt.Ctilde), 2)
    assert measured <= 1.0 - nt.delta + 1e-10
    assert nt.theta >= 1.0
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(small_mixing.n)
        a = np.linalg.norm(nt.Ctilde @ x)
        b = np.linalg.norm(x)
        assert a <= b * (1 + 1e-10)
        assert b <= nt.theta * a * (1 + 1e-10)


@pytest.mark.parametrize("n", [10, 160])
def test_norm_transform_same_with_given_sigma(n, small_mixing):
    """Passing the mixing's stored sigma skips one eigenvalue solve and
    changes no field of the transform."""
    mix = small_mixing if n == 10 else uniform_out_weights(build_cycle_plus_random(n, 3 * n, 7))
    a = build_contraction_norm(mix.C, mix.p)
    b = build_contraction_norm(mix.C, mix.p, sigma=mix.sigma)
    for name in ("Ctilde", "p"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("delta", "theta", "contraction_norm", "projector_norm"):
        assert getattr(a, name) == getattr(b, name), name


def test_norm_transform_epsilon_validation(small_mixing):
    sigma = small_mixing.sigma
    with pytest.raises(ValueError):
        build_contraction_norm(small_mixing.C, small_mixing.p, epsilon=1.0 - sigma)
    with pytest.raises(ValueError):
        build_contraction_norm(small_mixing.C, small_mixing.p, epsilon=0.0)


def test_projector_norm_recorded(small_norm):
    # the ideal transform would give exactly 1; the constructed one records
    # the actual value instead of assuming it
    assert small_norm.projector_norm >= 1.0 - 1e-12
    assert np.isfinite(small_norm.projector_norm)


@pytest.mark.parametrize(
    "n,extra,csr",
    [(20, 50, False), (160, 2000, False), (160, 480, True), (400, 1200, True)],
)
def test_solver_operator_is_csr_only_on_large_sparse_graphs(n, extra, csr):
    # (160, 2000) has 2480 nonzeros, above n^2 / 16 = 1600, so it stays dense.
    mix = uniform_out_weights(build_cycle_plus_random(n, extra, 7))
    op = mix.op
    assert op is mix.op
    if not csr:
        assert op is mix.C
        return
    assert op.format == "csr"
    assert op.nnz == np.count_nonzero(mix.C)
    assert np.array_equal(op.toarray(), mix.C)
    for a in (op.data, op.indices, op.indptr):
        assert not a.flags.writeable
