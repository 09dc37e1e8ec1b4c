import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import pushopt.mixing as mixing_module
from pushopt import (
    DirectedGraph,
    build_contraction_norm,
    build_cycle_plus_random,
    make_quadratic_suite,
    perron_vector,
    uniform_out_weights,
)
from pushopt.experiments import _problem, _run_and_write

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
    """Every spectral norm build_contraction_norm takes, and the
    contraction_norm and projector_norm its transform measures when read,
    is within 1e-12 relative of np.linalg.norm(., 2) of the same matrix."""
    mix = uniform_out_weights(_sparse_graph(n))
    seen = []
    spectral_norm = mixing_module._spectral_norm

    def recording(A):
        seen.append((A.copy(), spectral_norm(A)))
        return seen[-1][1]

    monkeypatch.setattr(mixing_module, "_spectral_norm", recording)
    nt = build_contraction_norm(mix.C, mix.p)
    nt.contraction_norm, nt.projector_norm  # measured on first read
    assert len(seen) >= 3
    assert (nt.contraction_norm, nt.projector_norm) == (seen[-2][1], seen[-1][1])
    for A, value in seen:
        exact = np.linalg.norm(A, 2)
        assert abs(value - exact) <= 1e-12 * exact


def _eager_spectral_norm(A):
    """The spectral norm as the eager build took it: A is left alone."""
    scale = np.abs(A).max()
    if scale == 0.0:
        return 0.0
    B = A / scale
    n = B.shape[1]
    top = scipy.linalg.eigh(B.T @ B, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    return float(scale * np.sqrt(top[0]))


def _eager_build(C, p):
    """Reference: the contraction norm built eagerly, certificates included,
    with copies of every intermediate, as the library built it before the
    build went in place. Returns the transform's fields, and the number of
    graded-loop trials, as a dict."""
    M = C - (p / p.shape[0])[:, None]
    T, Q = scipy.linalg.schur(M, output="real")
    sigma, s, block_id = mixing_module._schur_blocks(T)
    epsilon = (1.0 - sigma) / 2.0
    target = sigma + epsilon
    t = 1.0
    for trials in range(1, 401):
        sd = s * t ** block_id
        A = T * (sd[None, :] / sd[:, None])
        if _eager_spectral_norm(A) <= target * (1.0 - 1e-9):
            break
        t *= 0.8
    Ctilde = (Q / sd[None, :]).T
    Ctilde_inv = Q * sd[None, :]
    smax = 1.0 / sd.min()
    Ctilde = Ctilde / smax
    Ctilde_inv = Ctilde_inv * smax
    eye = np.eye(p.shape[0]) - (p / p.shape[0])[:, None]
    return {
        "Ctilde": Ctilde,
        "sigma": sigma,
        "delta": 1.0 - sigma - epsilon,
        "theta": float(sd.max() / sd.min()),
        "contraction_norm": _eager_spectral_norm(Ctilde @ M @ Ctilde_inv),
        "projector_norm": _eager_spectral_norm(Ctilde @ eye @ Ctilde_inv),
        "trials": trials,
    }


def _eager_perron(C, tol=1e-12):
    """Reference: power iteration as it was, two products per iterate."""
    n = C.shape[0]
    p = np.ones(n)
    for _ in range(int(100 * n * max(np.log(n), 1.0)) + 10_000):
        q = C @ p
        q *= n / q.sum()
        if np.linalg.norm(C @ q - q) <= tol * np.linalg.norm(q):
            p = q
            break
        p = q
    p *= n / p.sum()
    return p


def _hub(n):
    """One-way ring plus a link from every node to node 0."""
    ring = {(i, (i + 1) % n) for i in range(n)}
    return DirectedGraph(n, frozenset(ring | {(i, 0) for i in range(1, n)}))


_REFERENCE_GRAPHS = {
    "ring10": lambda: _sparse_graph(10),
    "ring160": lambda: _sparse_graph(160),
    "ring400": lambda: _sparse_graph(400),
    "reproduce": lambda: build_cycle_plus_random(20, 50, 7),
    "hub10": lambda: _hub(10),
}


def _assert_matches_eager(C, p, monkeypatch):
    """build_contraction_norm gives the eager reference's fields bit for bit,
    measures each certificate once, on first read, and caches it."""
    ref = _eager_build(C, p)
    nt = build_contraction_norm(C, p)
    assert np.array_equal(nt.Ctilde, ref["Ctilde"])
    assert nt.Ctilde.flags.c_contiguous and ref["Ctilde"].flags.c_contiguous
    for name in ("sigma", "delta", "theta"):
        assert getattr(nt, name) == ref[name], name
    calls = []
    spectral_norm = mixing_module._spectral_norm
    monkeypatch.setattr(
        mixing_module, "_spectral_norm", lambda A: calls.append(1) or spectral_norm(A)
    )
    for read in range(2):
        for name in ("contraction_norm", "projector_norm"):
            assert getattr(nt, name) == ref[name], name
        assert len(calls) == 2, read


@pytest.mark.parametrize("graph", _REFERENCE_GRAPHS)
def test_norm_transform_bitwise_matches_eager_build(graph, monkeypatch):
    mix = uniform_out_weights(_REFERENCE_GRAPHS[graph]())
    _assert_matches_eager(mix.C, mix.p, monkeypatch)


@st.composite
def _strongly_connected(draw):
    """A random strongly connected digraph on 2-40 nodes: a one-way ring in
    random order plus random links."""
    n = draw(st.integers(2, 40))
    order = draw(st.permutations(range(n)))
    ring = {(order[i], order[(i + 1) % n]) for i in range(n)}
    node = st.integers(0, n - 1)
    extra = draw(st.sets(st.tuples(node, node), max_size=3 * n))
    return DirectedGraph(n, frozenset(ring | {(i, j) for i, j in extra if i != j}))


@given(_strongly_connected())
def test_norm_transform_and_perron_bitwise_on_random_digraphs(graph):
    mix = uniform_out_weights(graph)
    assert np.array_equal(mix.p, _eager_perron(mix.C))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_matches_eager(mix.C, mix.p, monkeypatch)


@pytest.mark.parametrize("graph", [*_REFERENCE_GRAPHS, "hub20"])
def test_perron_vector_bitwise_matches_two_product_loop(graph):
    g = _hub(20) if graph == "hub20" else _REFERENCE_GRAPHS[graph]()
    C = uniform_out_weights(g).C
    assert np.array_equal(perron_vector(C), _eager_perron(C))


def test_setup_peak_memory_at_n400():
    """The build holds at most T (in the error map's buffer), Q, one work
    array and one Gram matrix: 4 n^2 float64. On top of those come scipy's
    finiteness masks of each LAPACK input (n^2 bytes, one at a time) and
    O(n) vectors and LAPACK workspace, so the tracemalloc peak above its
    start stays under 5 n^2 float64. The eager build peaked at 10.1 n^2."""
    n = 400
    mix = uniform_out_weights(_sparse_graph(n))
    build_contraction_norm(mix.C, mix.p)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        build_contraction_norm(mix.C, mix.p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 5 * n * n * 8


def test_setup_and_recorded_run_leave_certificates_unmeasured(tmp_path, monkeypatch):
    """A run's set-up and one recorded apdsc run take spectral norms only in
    the build's graded loop, one per trial: neither certificate is measured."""
    graph = _sparse_graph(160)
    mix = uniform_out_weights(graph)
    trials = _eager_build(mix.C, mix.p)["trials"]
    callers = []
    spectral_norm = mixing_module._spectral_norm

    def spy(A):
        callers.append(sys._getframe(1).f_code.co_name)
        return spectral_norm(A)

    monkeypatch.setattr(mixing_module, "_spectral_norm", spy)
    prob = _problem(graph, make_quadratic_suite(160, 3, 10.0, 0.1, 2), x0_seed=0)
    _run_and_write(prob, [{"name": "apdsc", "params": "auto"}], 60, 1, tmp_path, {})
    assert callers == ["build_contraction_norm"] * trials
    assert "contraction_norm" not in vars(prob.nt)
    assert "projector_norm" not in vars(prob.nt)


@pytest.mark.parametrize(
    "C,p,shapes",
    [
        (lambda C: C, lambda p: np.array([10.0]), r"\(10, 10\).*\(1,\)"),
        (lambda C: C[:, :9], lambda p: p, r"\(10, 9\).*\(10,\)"),
        (lambda C: C.ravel(), lambda p: p, r"\(100,\).*\(10,\)"),
        (lambda C: C, lambda p: p[:, None], r"\(10, 10\).*\(10, 1\)"),
    ],
    ids=["short-p", "non-square", "1-d", "2-d-p"],
)
def test_build_names_malformed_shapes(small_mixing, C, p, shapes):
    with pytest.raises(ValueError, match=shapes):
        build_contraction_norm(C(small_mixing.C), p(small_mixing.p))


def test_build_rejects_non_finite_error_map(small_mixing):
    C = small_mixing.C.copy()
    C[3, 4] = np.nan
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        build_contraction_norm(C, small_mixing.p)


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
