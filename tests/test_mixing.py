import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


EPS = np.finfo(float).eps
GRID = 2.0**-32


def _weighted_error_map(C, p):
    """D^-1/2 (C - p 1^T / n) D^1/2, D = diag(p), written out plainly."""
    n = p.shape[0]
    return (C - np.outer(p, np.ones(n)) / n) * np.sqrt(p)[None, :] / np.sqrt(p)[:, None]


def _assert_rho_bounds(rho, M):
    """rho bounds ||M||_2 from above, and by no more than the build's stated
    raise: the Weyl term n (n + 1) eps F, twice over (the computed top
    eigenvalue may itself sit that far above the exact one), the forming
    term 4 eps (sqrt(F) + 2), and one step of the 2^-32 grid."""
    n = M.shape[0]
    exact = np.linalg.norm(M, 2)
    F = 2.0 * np.linalg.norm(M) ** 2
    top = np.sqrt(exact**2 + 2 * n * (n + 1) * EPS * F) + 4 * EPS * (np.sqrt(F) + 2)
    assert exact <= rho <= top * (1 + 4 * EPS) + GRID
    assert rho % GRID == 0.0


def test_contraction_factor_examples():
    """rho, the weighted-norm contraction factor of C - p 1^T / n, against
    np.linalg.norm(., 2) of the weighted error map: one-sided, within the
    grid step plus the stated bound."""
    # The error map vanishes: rho is one grid step.
    uniform = build_contraction_norm(np.full((3, 3), 1.0 / 3.0), np.ones(3))
    assert uniform.rho == GRID
    # A normal error map with norm and spectral radius exactly 1/2.
    mix = uniform_out_weights(CYCLE3)
    assert build_contraction_norm(mix.C, mix.p).rho == 0.5 + GRID
    for graph in (build_cycle_plus_random(20, 0, 0), _hub(10), _hub(20)):
        mix = uniform_out_weights(graph)
        rho = build_contraction_norm(mix.C, mix.p).rho
        assert 0.0 < rho < 1.0
        _assert_rho_bounds(rho, _weighted_error_map(mix.C, mix.p))


def test_build_rejects_rho_at_least_one():
    # A directed 3-cycle without self-loops is periodic: rho is 1.
    C = np.roll(np.eye(3), 1, axis=0)
    with pytest.raises(ValueError, match="contraction factor"):
        build_contraction_norm(C, np.ones(3))


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
    # rho = 1/2 exactly, rounded up by one grid step.
    assert nt.delta == 1.0 - (0.5 + GRID) - 0.1


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
    rho the run reports is the transform's."""
    graph = _sparse_graph(n)
    prob = _problem(graph, make_quadratic_suite(n, 3, 10.0, 0.1, 2), x0_seed=0)
    mix = uniform_out_weights(graph)
    nt = build_contraction_norm(mix.C, mix.p)
    for name in ("w", "p", "Ctilde"):
        assert np.array_equal(getattr(prob.nt, name), getattr(nt, name)), name
    for name in ("rho", "delta", "theta", "contraction_norm", "projector_norm"):
        assert getattr(prob.nt, name) == getattr(nt, name), name
    assert prob.resolved["rho"] == nt.rho


def _spy_on_eigen_work(monkeypatch):
    """Record the caller of every np.linalg.eigvalsh call, and make a Schur
    factorization, a nonsymmetric eigensolve or an SVD raise."""
    callers = []
    eigvalsh = np.linalg.eigvalsh

    def spy(A):
        callers.append(sys._getframe(1).f_code.co_name)
        return eigvalsh(A)

    def forbidden(*args, **kwargs):
        raise AssertionError("Schur factorization, nonsymmetric eigensolve or SVD")

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    # np.linalg.norm(A, 2) reaches svd through numpy's private module.
    for mod in (np.linalg, getattr(np.linalg, "_linalg", None), sys.modules.get("scipy.linalg")):
        for name in ("eigvals", "eig", "svd", "svdvals", "schur"):
            if mod is not None and hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    return callers


def test_setup_makes_one_symmetric_eigensolve(monkeypatch):
    """A run's set-up and the bare uniform_out_weights ->
    build_contraction_norm(C, p) sequence each make exactly one eigensolve,
    the build's symmetric one, and no Schur factorization, nonsymmetric
    eigensolve or SVD."""
    graph = _sparse_graph(160)
    suite = make_quadratic_suite(160, 3, 10.0, 0.1, 2)
    callers = _spy_on_eigen_work(monkeypatch)
    _problem(graph, suite, x0_seed=0)
    assert callers == ["build_contraction_norm"]
    callers.clear()
    mix = uniform_out_weights(graph)
    build_contraction_norm(mix.C, mix.p)
    assert callers == ["build_contraction_norm"]


def test_setup_and_recorded_run_leave_certificates_unmeasured(tmp_path, monkeypatch):
    """A run's set-up and one recorded apdsc run take no spectral norm but
    the build's one symmetric eigensolve, and reading either certificate
    measures nothing: contraction_norm is rho and projector_norm is 1."""
    graph = _sparse_graph(160)
    callers = _spy_on_eigen_work(monkeypatch)
    prob = _problem(graph, make_quadratic_suite(160, 3, 10.0, 0.1, 2), x0_seed=0)
    _run_and_write(prob, [{"name": "apdsc", "params": "auto"}], 60, 1, tmp_path, {})
    assert callers == ["build_contraction_norm"]
    assert prob.nt.contraction_norm == prob.nt.rho
    assert prob.nt.projector_norm == 1.0
    assert callers == ["build_contraction_norm"]


@pytest.mark.parametrize("n", [10, 160, 400])
def test_norm_certificates_match_svd(n):
    """contraction_norm and projector_norm against np.linalg.norm(., 2) of
    Ctilde A Ctilde^{-1} for the dense A = C - p 1^T / n and I - p 1^T / n:
    the first from above within the grid step and the stated bound, the
    second exactly 1, within 1e-12 of the measured norm."""
    mix = uniform_out_weights(_sparse_graph(n))
    nt = build_contraction_norm(mix.C, mix.p)
    Ct, Ct_inv = nt.Ctilde, np.diag(1.0 / nt.w)
    _assert_rho_bounds(nt.contraction_norm, Ct @ mix.error_map() @ Ct_inv)
    projector = np.eye(n) - np.outer(mix.p, np.ones(n)) / n
    assert nt.projector_norm == 1.0
    assert abs(np.linalg.norm(Ct @ projector @ Ct_inv, 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [20, 100, 400])
def test_norm_contracts_with_small_theta_at_scale(n):
    """On ring + 3n links (seed 7), measured on the dense matrices: theta is
    sqrt(p_max / p_min) to rounding, the weighted error map contracts by
    1 - delta, and the weighted projector's norm is 1."""
    mix = uniform_out_weights(_sparse_graph(n))
    nt = build_contraction_norm(mix.C, mix.p)
    p = mix.p
    assert abs(nt.theta - np.sqrt(p.max() / p.min())) <= 4 * EPS * nt.theta
    assert abs(1.0 / nt.w.min() - nt.theta) <= 4 * EPS * nt.theta
    W, W_inv = np.diag(nt.w), np.diag(1.0 / nt.w)
    assert np.linalg.norm(W @ mix.error_map() @ W_inv, 2) <= 1.0 - nt.delta
    projector = np.eye(n) - np.outer(p, np.ones(n)) / n
    assert np.linalg.norm(W @ projector @ W_inv, 2) <= 1.0 + 1e-12


def _eager_build(C, p, epsilon=0.0):
    """Reference: the diagonal norm built out of place, as the build's
    docstring states it. Returns the transform's fields as a dict."""
    n = p.shape[0]
    M = _weighted_error_map(C, p)
    G = M.T @ M
    F = 2.0 * float(np.trace(G))
    top = float(np.linalg.eigvalsh(G)[-1]) + n * (n + 1) * EPS * F
    rho = (np.sqrt(top) + 4.0 * EPS * (np.sqrt(F) + 2.0)) * (1.0 + 2.0 * EPS)
    rho = float(np.ceil(rho / GRID) * GRID)
    return {
        "w": np.sqrt(p.min() / p),
        "rho": rho,
        "delta": 1.0 - rho - epsilon,
        "theta": float(np.sqrt(p.max() / p.min())),
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


def _assert_matches_eager(C, p):
    """build_contraction_norm gives the eager reference's fields bit for bit;
    its certificates are rho and 1, and Ctilde is diag(w)."""
    ref = _eager_build(C, p)
    nt = build_contraction_norm(C, p)
    assert np.array_equal(nt.w, ref["w"])
    assert np.array_equal(nt.p, p) and nt.p is not p and nt.C is C
    for name in ("rho", "delta", "theta"):
        assert getattr(nt, name) == ref[name], name
    assert nt.contraction_norm == nt.rho and nt.projector_norm == 1.0
    assert np.array_equal(nt.Ctilde, np.diag(ref["w"]))


@pytest.mark.parametrize("graph", _REFERENCE_GRAPHS)
def test_norm_transform_bitwise_matches_eager_build(graph):
    mix = uniform_out_weights(_REFERENCE_GRAPHS[graph]())
    _assert_matches_eager(mix.C, mix.p)


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
    _assert_matches_eager(mix.C, mix.p)


@pytest.mark.parametrize("graph", [*_REFERENCE_GRAPHS, "hub20"])
def test_perron_vector_bitwise_matches_two_product_loop(graph):
    g = _hub(20) if graph == "hub20" else _REFERENCE_GRAPHS[graph]()
    C = uniform_out_weights(g).C
    assert np.array_equal(perron_vector(C), _eager_perron(C))


def test_setup_peak_memory_at_n400():
    """The build holds at most two n-by-n float64 arrays at once: the
    weighted error map M and its Gram matrix (M is freed before the
    eigensolver copies the Gram matrix). M's finiteness mask (n^2 bytes)
    lives only while M is alone, and the rest is O(n) vectors, so the
    tracemalloc peak above its start stays under 2 n^2 + 64 n float64.
    The Schur-built norm this replaced peaked at 4.1 n^2."""
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
    assert peak - start <= (2 * n + 64) * n * 8


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
    rho = small_norm.rho
    assert small_norm.delta == 1.0 - rho
    for epsilon in (1.0 - rho, -1e-3):
        with pytest.raises(ValueError, match="epsilon"):
            build_contraction_norm(small_mixing.C, small_mixing.p, epsilon=epsilon)


def test_build_rejects_nonpositive_perron_vector(small_mixing):
    p = small_mixing.p.copy()
    p[2] = 0.0
    with pytest.raises(ValueError, match="p must be positive"):
        build_contraction_norm(small_mixing.C, p)


def test_projector_norm_recorded(small_mixing, small_norm):
    # Ctilde (I - p 1^T / n) Ctilde^{-1} = I - u u^T with ||u||^2 = sum(p) / n:
    # an orthogonal projector, whose measured norm is 1 to rounding.
    assert small_norm.projector_norm == 1.0
    n, p, w = small_mixing.n, small_mixing.p, small_norm.w
    measured = np.linalg.norm((np.eye(n) - np.outer(p, np.ones(n)) / n) * w[:, None] / w, 2)
    assert abs(measured - 1.0) <= 1e-12


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
