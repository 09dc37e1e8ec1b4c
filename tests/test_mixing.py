import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pushopt import (
    DirectedGraph,
    MixingMatrix,
    build_contraction_norm,
    build_cycle_plus_random,
    build_problem,
    make_quadratic_suite,
    perron_vector,
    uniform_out_weights,
)
from pushopt.experiments import _run_and_write
from pushopt.mixing import _InNeighborGather, _uniform_out_op

from conftest import strongly_connected

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
    p = perron_vector(C)
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
    # C = p 1^T / n: the error map vanishes
    p = np.array([1.5, 0.5])
    C = np.outer(p, np.ones(2)) / 2
    nt = build_contraction_norm(C, p)
    assert nt.rho <= 0.3


def test_norm_transform_cycle_contraction():
    mix = uniform_out_weights(CYCLE3)
    nt = build_contraction_norm(mix.C, mix.p)
    assert nt.rho <= 0.6 + 1e-12
    # rho = 1/2 exactly, rounded up by one grid step.
    assert nt.delta == 1.0 - (0.5 + GRID)


def test_norm_transform_invariants(small_mixing):
    nt = build_contraction_norm(small_mixing.C, small_mixing.p)
    M = small_mixing.error_map()
    measured = np.linalg.norm(np.diag(nt.w) @ M @ np.diag(1 / nt.w), 2)
    assert measured <= 1.0 - nt.delta + 1e-10
    assert nt.theta >= 1.0
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(small_mixing.n)
        a = np.linalg.norm(np.diag(nt.w) @ x)
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
    prob = build_problem(graph, make_quadratic_suite(n, 3, 10.0, 0.1, 2), x0_seed=0)
    mix = uniform_out_weights(graph)
    nt = build_contraction_norm(mix.C, mix.p)
    for name in ("w", "p"):
        assert np.array_equal(getattr(prob.nt, name), getattr(nt, name)), name
    for name in ("rho", "delta", "theta"):
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
    build_problem(graph, suite, x0_seed=0)
    assert callers == ["build_contraction_norm"]
    callers.clear()
    mix = uniform_out_weights(graph)
    build_contraction_norm(mix.C, mix.p)
    assert callers == ["build_contraction_norm"]


def test_setup_and_recorded_run_leave_certificates_unmeasured(tmp_path, monkeypatch):
    """A run's set-up and one recorded apdsc run take no spectral norm but
    the build's one symmetric eigensolve."""
    graph = _sparse_graph(160)
    callers = _spy_on_eigen_work(monkeypatch)
    prob = build_problem(graph, make_quadratic_suite(160, 3, 10.0, 0.1, 2), x0_seed=0)
    _run_and_write(prob, [{"name": "apdsc", "params": "auto"}], 60, 1, tmp_path, {})
    assert callers == ["build_contraction_norm"]


@pytest.mark.parametrize("n", [10, 160, 400])
def test_norm_certificates_match_svd(n):
    """rho and the projector norm 1 against np.linalg.norm(., 2) of
    diag(w) A diag(w)^{-1} for the dense A = C - p 1^T / n and I - p 1^T / n:
    rho from above within the grid step and the stated bound, 1 within
    1e-12 of the measured norm."""
    mix = uniform_out_weights(_sparse_graph(n))
    nt = build_contraction_norm(mix.C, mix.p)
    Ct, Ct_inv = np.diag(nt.w), np.diag(1.0 / nt.w)
    _assert_rho_bounds(nt.rho, Ct @ mix.error_map() @ Ct_inv)
    projector = np.eye(n) - np.outer(mix.p, np.ones(n)) / n
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


def _eager_build(C, p):
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
        "delta": 1.0 - rho,
        "theta": float(np.sqrt(p.max() / p.min())),
    }


def _eager_perron(C, tol=1e-12, product=np.matmul):
    """Reference: power iteration as it was, two products per iterate, each
    `product(C, p)`."""
    n = C.shape[0]
    p = np.ones(n)
    for _ in range(int(100 * n * max(np.log(n), 1.0)) + 10_000):
        q = product(C, p)
        q *= n / q.sum()
        if np.linalg.norm(product(C, q) - q) <= tol * np.linalg.norm(q):
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
    """build_contraction_norm gives the eager reference's fields bit for bit."""
    ref = _eager_build(C, p)
    nt = build_contraction_norm(C, p)
    assert np.array_equal(nt.w, ref["w"])
    assert np.array_equal(nt.p, p) and nt.p is not p
    for name in ("rho", "delta", "theta"):
        assert getattr(nt, name) == ref[name], name


@pytest.mark.parametrize("graph", _REFERENCE_GRAPHS)
def test_norm_transform_bitwise_matches_eager_build(graph):
    mix = uniform_out_weights(_REFERENCE_GRAPHS[graph]())
    _assert_matches_eager(mix.C, mix.p)


@pytest.mark.parametrize("graph", _REFERENCE_GRAPHS)
def test_uniform_weights_match_sender_loop(graph):
    """The operator built from the edges gives, bit for bit, the C of a loop
    over senders that writes 1 / (outdeg + 1) at the sender and at each
    receiver, and p is Perron iteration on it: dense products on a dense
    op, CSR-order ones on the gather."""
    g = _REFERENCE_GRAPHS[graph]()
    ref = np.zeros((g.n, g.n))
    for j in range(g.n):
        receivers = [r for s, r in g.edges if s == j]
        ref[[j, *receivers], j] = 1.0 / (len(receivers) + 1)
    mix = uniform_out_weights(g)
    assert np.array_equal(mix.C, ref)
    if isinstance(mix.op, _InNeighborGather):
        assert np.array_equal(mix.p, _eager_perron(ref, product=_csr_order_product))
    else:
        assert np.array_equal(mix.p, perron_vector(ref))


@given(strongly_connected())
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
    weighted error map M and its Gram matrix (the Gram matrix is copied
    into M's buffer and freed before the eigensolver copies it). M's
    finiteness mask (n^2 bytes) lives only while M is alone, and the rest
    is O(n) vectors, so the tracemalloc peak above its start stays under
    2 n^2 + 64 n float64. The Schur-built norm this replaced peaked at
    4.1 n^2."""
    n = 400
    mix = uniform_out_weights(_sparse_graph(n))
    C = mix.C  # built from the gather before tracing, so it is not counted
    build_contraction_norm(C, mix.p)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        build_contraction_norm(C, mix.p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= (2 * n + 64) * n * 8


@pytest.mark.parametrize("n", [160, 400])
def test_run_setup_peak_memory_on_the_gather(n):
    """`build_problem` on a graph whose `op` is the gather holds at most
    about two n-by-n float64 arrays at once: no dense C is formed, and the
    norm forms M and its Gram matrix from the gather. Holding C through the
    build peaked at 3.05 and 3.01 x 8 n^2 bytes."""
    graph = _sparse_graph(n)
    suite = make_quadratic_suite(n, 3, 10.0, 0.1, 2)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        prob = build_problem(graph, suite, x0_seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(prob.mixing.op, _InNeighborGather)
    assert peak - start <= 2.5 * 8 * n * n


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
    with pytest.raises(TypeError, match="epsilon"):
        build_contraction_norm(small_mixing.C, small_mixing.p, epsilon=0.1)


def test_build_rejects_nonpositive_perron_vector(small_mixing):
    p = small_mixing.p.copy()
    p[2] = 0.0
    with pytest.raises(ValueError, match="p must be positive"):
        build_contraction_norm(small_mixing.C, p)


def test_projector_norm_recorded(small_mixing, small_norm):
    # diag(w) (I - p 1^T / n) diag(w)^{-1} = I - u u^T with ||u||^2 = sum(p) / n:
    # an orthogonal projector, whose measured norm is 1 to rounding.
    n, p, w = small_mixing.n, small_mixing.p, small_norm.w
    measured = np.linalg.norm((np.eye(n) - np.outer(p, np.ones(n)) / n) * w[:, None] / w, 2)
    assert abs(measured - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "n,extra,gather",
    [(20, 50, False), (160, 2000, False), (160, 480, True), (400, 1200, True)],
)
def test_solver_operator_is_gather_only_on_large_sparse_graphs(n, extra, gather):
    # (160, 2000) has 2480 nonzeros, above n^2 / 16 = 1600, so it stays dense.
    mix = uniform_out_weights(build_cycle_plus_random(n, extra, 7))
    op = mix.op
    assert op is mix.op
    if not gather:
        assert op is mix.C
        return
    assert isinstance(op, _InNeighborGather)
    # Row i gathers its nonzero columns, ascending, then pads with n.
    assert op.index.shape == (np.count_nonzero(mix.C, axis=1).max(), n)
    for i, row in enumerate(mix.C):
        nbrs = np.flatnonzero(row)
        assert np.array_equal(op.index[: len(nbrs), i], nbrs)
        assert (op.index[len(nbrs):, i] == n).all()
    assert np.array_equal(op @ np.eye(n), mix.C)
    for a in (op.index, op.c):
        assert not a.flags.writeable


def _csr_order_product(C, A):
    """Reference: C @ A as a CSR row loop. Each row starts at 0.0 and adds
    C[i, j] * A[j] for its nonzero columns j, ascending."""
    out = np.empty((C.shape[0],) + A.shape[1:])
    for i, row in enumerate(C):
        acc = np.zeros(A.shape[1:])
        for j in np.flatnonzero(row):
            acc = acc + row[j] * A[j]
        out[i] = acc
    return out


def _operand(n, d, seed):
    """A vector (d None) or an (n, d) stack over several decades, with one
    NaN and one inf entry."""
    rng = np.random.default_rng(seed)
    shape = (n,) if d is None else (n, d)
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    A.flat[rng.integers(A.size)] = np.nan
    A.flat[rng.integers(A.size)] = np.inf
    return A


def _assert_gather_matches_csr_order(op, C, seed, widths=(None, 1, 5, 16)):
    for d in widths:
        A = _operand(C.shape[0], d, seed)
        got = op @ A
        assert got.shape == A.shape
        assert np.array_equal(got, _csr_order_product(C, A), equal_nan=True), d
    # Padding adds +0.0 to a sum that started at +0.0: no -0.0 comes out.
    assert not np.signbit(op @ np.full((C.shape[0], 2), -0.0)).any()


@pytest.mark.parametrize("n", [160, 400])
def test_gather_bitwise_matches_csr_order_on_reference_graphs(n):
    mix = uniform_out_weights(_sparse_graph(n))
    assert isinstance(mix.op, _InNeighborGather)
    _assert_gather_matches_csr_order(mix.op, mix.C, seed=n)


@st.composite
def _large_sparse_weights(draw):
    """A random strongly connected digraph on 150-260 nodes, a one-way ring
    in random order plus up to 3n random links, with its uniform
    out-weights C filled densely from a 0/1 matrix. Its gather is built
    from the edges without `uniform_out_weights`, as the graph's mixing may
    be too slow for a Perron vector."""
    n = draw(st.integers(150, 260))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    extra = draw(st.integers(0, 3 * n))
    senders = np.concatenate([order, rng.integers(0, n, extra)])
    receivers = np.concatenate([np.roll(order, -1), rng.integers(0, n, extra)])
    A = np.eye(n)
    A[receivers, senders] = 1.0
    edges = frozenset((int(j), int(i)) for j, i in zip(senders, receivers) if i != j)
    return DirectedGraph(n, edges), A / A.sum(axis=0), draw(st.integers(0, 2**32 - 1))


@given(_large_sparse_weights())
def test_gather_bitwise_matches_csr_order_on_random_digraphs(case):
    graph, C, seed = case
    op = _uniform_out_op(graph)
    assert isinstance(op, _InNeighborGather)
    _assert_gather_matches_csr_order(op, C, seed, widths=(None, 5))


@given(_large_sparse_weights())
def test_gather_keeps_weights_and_norm_bitwise(case):
    """The gather built from the edges gives `C` bit for bit on each read,
    and the norm built from the gather is the dense build's."""
    graph, C, _ = case
    p = perron_vector(C)
    mix = MixingMatrix(_uniform_out_op(graph), p)
    assert isinstance(mix.op, _InNeighborGather)
    assert mix.C.tobytes() == C.tobytes() and mix.C is not mix.C
    n = C.shape[0]
    assert mix.error_map().tobytes() == (C - (p / n)[:, None]).tobytes()
    dense, gathered = build_contraction_norm(C, p), build_contraction_norm(mix.op, p)
    assert gathered.w.tobytes() == dense.w.tobytes()
    for name in ("rho", "delta", "theta"):
        assert getattr(gathered, name) == getattr(dense, name), name


@pytest.mark.parametrize(
    "make",
    [
        lambda: _sparse_graph(140),  # n < 150
        lambda: build_cycle_plus_random(160, 2000, 7),  # fill
        lambda: _hub(400),  # in-degree n: m n = 134 nnz
    ],
    ids=["small", "dense_fill", "hub"],
)
def test_operator_falls_back_to_dense(make):
    assert isinstance(uniform_out_weights(make()).op, np.ndarray)
