import numpy as np
import pytest
import scipy.linalg

import pushopt.mixing as mixing_module
from pushopt import (
    DirectedGraph,
    build_contraction_norm,
    build_cycle_plus_random,
    make_quadratic_suite,
    perron_vector,
    uniform_out_weights,
)
from pushopt.experiments import _problem

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
    """sigma, the spectral radius of C - p 1^T / n, as the transform reports it."""
    uniformC = np.full((3, 3), 1.0 / 3.0)
    assert build_contraction_norm(uniformC, np.ones(3)).sigma <= 1e-12
    mix = uniform_out_weights(CYCLE3)
    assert abs(build_contraction_norm(mix.C, mix.p).sigma - 0.5) <= 1e-12
    ring = uniform_out_weights(build_cycle_plus_random(20, 0, 0))
    sigma = build_contraction_norm(ring.C, ring.p).sigma
    assert 0.0 < sigma < 1.0
    # oracle: dense eigensolve of the error map
    M = ring.C - np.outer(ring.p, np.ones(20)) / 20
    assert abs(sigma - np.abs(np.linalg.eigvals(M)).max()) <= 1e-12


def _quasi_triangular(blocks):
    """Real Schur form with the given diagonal blocks: a float is a 1x1
    block, (a, b, c) the 2x2 block [[a, b], [c, a]]. Every entry above the
    blocks is 7, which the block reader must ignore."""
    sizes = [1 if isinstance(b, float) else 2 for b in blocks]
    n = sum(sizes)
    T = np.triu(np.full((n, n), 7.0), 1)
    r = 0
    for b, size in zip(blocks, sizes):
        if size == 1:
            T[r, r] = b
        else:
            a, up, low = b
            T[r : r + 2, r : r + 2] = [[a, up], [low, a]]
        r += size
    return T


# A = [[1/4, 1/2], [-1/8, 1/4]]: modulus sqrt(1/16 + 1/16) = sqrt(1/8), and
# scaling row 2 by sqrt(1/8 / 1/2) = 1/2 balances its corners.
# B = [[0, 2], [-1/8, 0]]: modulus sqrt(1/4) = 1/2, scale sqrt(1/16) = 1/4.
# G = [[1/4, 1/2], [1/8, 1/4]] has same-sign corners: no scaling, modulus 0.
A, B, G = (0.25, 0.5, -0.125), (0.0, 2.0, -0.125), (0.25, 0.5, 0.125)


@pytest.mark.parametrize(
    "blocks,sigma,s,block_id",
    [
        ([0.5, -0.75, 0.125], 0.75, [1, 1, 1], [0, 1, 2]),
        ([A, 0.25], np.sqrt(0.125), [1, 0.5, 1], [0, 0, 1]),
        ([A, B], 0.5, [1, 0.5, 1, 0.25], [0, 0, 1, 1]),
        ([A, -0.625, B], 0.625, [1, 0.5, 1, 1, 0.25], [0, 0, 1, 2, 2]),
        ([0.125, -0.25, B], 0.5, [1, 1, 1, 0.25], [0, 1, 2, 2]),
        ([G, 0.125], 0.25, [1, 1, 1], [0, 0, 1]),
    ],
    ids=["no-2x2", "leading", "adjacent", "1x1-between", "trailing", "unscaled"],
)
def test_schur_blocks_by_hand(blocks, sigma, s, block_id):
    got_sigma, got_s, got_id = mixing_module._schur_blocks(_quasi_triangular(blocks))
    assert got_sigma == sigma
    assert np.array_equal(got_s, s)
    assert np.array_equal(got_id, block_id)


@pytest.mark.parametrize("up", [1.5, 2.0])
def test_schur_blocks_reject_modulus_one(up):
    # [[1/2, up], [-1/2, 1/2]]: modulus sqrt(1/4 + up/2), exactly 1 for
    # up = 3/2 and above 1 for up = 2, while every |t_ii| is at most 1/2.
    with pytest.raises(ValueError, match="spectral radius"):
        mixing_module._schur_blocks(_quasi_triangular([0.25, (0.5, up, -0.5)]))


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


def _sparse_graph(n):
    return build_cycle_plus_random(n, 3 * n, 7)


@pytest.mark.parametrize("n", [10, 160])
def test_run_path_norm_transform_matches_bare_call(n):
    """`pushopt run`'s set-up and the public sequence uniform_out_weights ->
    build_contraction_norm(C, p) build bitwise the same transform, and the
    sigma the run reports is the transform's."""
    graph = _sparse_graph(n)
    prob = _problem(graph, make_quadratic_suite(n, 3, 10.0, 0.1, 2), x0_seed=0)
    mix = uniform_out_weights(graph)
    nt = build_contraction_norm(mix.C, mix.p)
    for name in ("Ctilde", "p"):
        assert np.array_equal(getattr(prob.nt, name), getattr(nt, name)), name
    for name in ("sigma", "delta", "theta", "contraction_norm", "projector_norm"):
        assert getattr(prob.nt, name) == getattr(nt, name), name
    assert prob.resolved["sigma"] == nt.sigma


def _forbid_dense_eigen_work(monkeypatch):
    """Count scipy.linalg.schur calls; make eigvals and SVDs raise."""
    calls = []
    schur = scipy.linalg.schur

    def counting_schur(*args, **kwargs):
        calls.append(1)
        return schur(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("nonsymmetric eigensolve or SVD")

    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    # np.linalg.norm(A, 2) reaches svd through numpy's private module.
    for mod in (np.linalg, getattr(np.linalg, "_linalg", None), scipy.linalg):
        for name in ("eigvals", "eig", "svd", "svdvals"):
            if mod is not None and hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    return calls


def test_setup_makes_one_schur_factorization(monkeypatch):
    graph = _sparse_graph(160)
    suite = make_quadratic_suite(160, 3, 10.0, 0.1, 2)
    calls = _forbid_dense_eigen_work(monkeypatch)
    _problem(graph, suite, x0_seed=0)
    assert len(calls) == 1
    calls.clear()
    mix = uniform_out_weights(graph)
    build_contraction_norm(mix.C, mix.p)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [10, 160, 400])
def test_norm_certificates_match_svd(n, monkeypatch):
    """Every spectral norm build_contraction_norm takes, the recorded
    contraction_norm and projector_norm included, is within 1e-12 relative
    of np.linalg.norm(., 2) of the same matrix."""
    mix = uniform_out_weights(_sparse_graph(n))
    seen = []
    spectral_norm = mixing_module._spectral_norm

    def recording(A):
        seen.append((A.copy(), spectral_norm(A)))
        return seen[-1][1]

    monkeypatch.setattr(mixing_module, "_spectral_norm", recording)
    nt = build_contraction_norm(mix.C, mix.p)
    assert len(seen) >= 3
    assert (nt.contraction_norm, nt.projector_norm) == (seen[-2][1], seen[-1][1])
    for A, value in seen:
        exact = np.linalg.norm(A, 2)
        assert abs(value - exact) <= 1e-12 * exact


def test_norm_transform_epsilon_validation(small_mixing, small_norm):
    sigma = small_norm.sigma
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
