from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pushopt import (
    APDParams,
    APDSCParams,
    RunTrace,
    TraceRecorder,
    apd_run,
    apdsc_run,
    build_contraction_norm,
    build_cycle_plus_random,
    check_inexact_bounds,
    consensus_error,
    default_params_sc,
    default_params_smooth,
    fit_linear_rate,
    fit_sublinear_rate,
    init_state,
    iterations_to_threshold,
    lyapunov_sc,
    lyapunov_smooth,
    make_quadratic_suite,
    optimality_gap,
    push_diging_run,
    uniform_out_weights,
)
from pushopt.diagnostics import TRACE_COLUMNS, _off_perron
from pushopt.graphs import DirectedGraph
from pushopt.solvers import SolverState


def _state(X, Y, Z, G, v, k=0):
    return SolverState(
        X=X, Y=Y, Z=Z, G=G, v=v, k=k, vhat_seen=float(1 / v.min()), grad_U=G.copy()
    )


def synthetic_trace(losses, ks=None):
    m = len(losses)
    ks = np.arange(m) if ks is None else np.asarray(ks)
    z = np.zeros(m)
    return RunTrace(
        label="synthetic",
        k=ks,
        loss=np.asarray(losses, dtype=float),
        consensus_error=z,
        projection_error=z,
        grad_avg_norm=z,
        v_min=np.ones(m),
    )


def test_consensus_error_perron_aligned(small_mixing):
    p = small_mixing.p
    xbar = np.array([2.0, -1.0, 0.5])
    X = np.outer(p, xbar)
    st = _state(X, X, X, np.zeros_like(X), p.copy())
    u_err, proj_err = consensus_error(st, p)
    assert u_err <= 1e-12
    assert proj_err <= 1e-12


def test_consensus_error_doubly_stochastic_consensus():
    g = DirectedGraph(4, frozenset((i, j) for i in range(4) for j in range(4) if i != j))
    mix = uniform_out_weights(g)
    c = np.array([1.0, 2.0])
    X = np.tile(c, (4, 1))
    st = _state(X, X, X, np.zeros_like(X), np.ones(4))
    u_err, proj_err = consensus_error(st, mix.p)
    assert u_err <= 1e-12
    assert proj_err <= 1e-12


def test_consensus_error_bound_from_weighted_norm(small_mixing, small_suite, small_init):
    # u_err^2 <= 2 theta^2 vhat^2 (||Pi X||^2 + (1-d)^{2k} ||v0-p||^2 ||xbar||^2)
    # with norms taken through the constructed transform
    X0, v0 = small_init
    nt = build_contraction_norm(small_mixing.C, small_mixing.p)
    params = default_params_smooth(small_suite.L, c_prac=0.05, K=150)
    states = []
    apd_run(X0, v0, small_mixing, small_suite, params, states.append)
    d0 = nt.vec_norm(v0 - small_mixing.p)
    n = small_mixing.n
    Pi = np.eye(n) - np.outer(small_mixing.p, np.ones(n)) / n
    for s in states[:: 25]:
        u_err, _ = consensus_error(s, small_mixing.p)
        xbar = s.X.mean(0)
        rhs = (
            2.0
            * nt.theta**2
            * s.vhat_seen**2
            * (
                nt.mat_norm(Pi @ s.X) ** 2
                + (1 - nt.delta) ** (2 * s.k) * d0**2 * float(xbar @ xbar)
            )
        )
        assert u_err**2 <= rhs + 1e-8 * (1 + rhs)


def test_lyapunov_zero_cases(small_mixing, small_norm):
    n = small_mixing.n
    p = small_mixing.p
    params = APDParams(eta=0.1, K=10)
    zero = np.zeros((n, 3))
    # xbar = 0, zbar = 0 -> phi1 = 0
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, 3))
    X -= X.mean(axis=0)  # zero row-average
    st = _state(X, X, X.copy(), rng.standard_normal((n, 3)), np.ones(n))
    phi1, _ = lyapunov_smooth(st, 3, params, small_norm)
    assert phi1 <= 1e-24
    # X = Z = p c^T and G aligned with p -> phi2 = 0
    c = np.array([1.0, -2.0, 0.3])
    Xp = np.outer(p, c)
    Gp = np.outer(p, np.array([0.1, 0.2, -0.5]))
    st = _state(Xp, Xp, Xp.copy(), Gp, np.ones(n))
    _, phi2 = lyapunov_smooth(st, 0, params, small_norm)
    assert phi2 <= 1e-20
    params_sc = APDSCParams(eta=0.1, alpha=2.0, beta=0.05, tau=0.1, K=10)
    phi3, phi4 = lyapunov_sc(st, 0, params_sc, small_norm)
    assert phi4 <= 1e-20
    st0 = _state(zero, zero, zero, Gp, np.ones(n))
    assert lyapunov_sc(st0, 2, params_sc, small_norm)[0] == 0.0


def test_lyapunov_against_independent_formula(small_mixing, small_norm):
    n = small_mixing.n
    rng = np.random.default_rng(3)
    X, Y, Z, G = (rng.standard_normal((n, 4)) for _ in range(4))
    v = rng.uniform(0.5, 1.5, n)
    v *= n / v.sum()
    st = _state(X, Y, Z, G, v, k=7)
    params = APDParams(eta=0.05, pa=0.3, wa=0.2, wb=0.9, K=10)
    phi1, phi2 = lyapunov_smooth(st, 7, params, small_norm)

    # independent re-evaluation
    d = small_norm.delta
    Ct = small_norm.Ctilde
    Pi = np.eye(n) - np.outer(small_mixing.p, np.ones(n)) / n
    tau7 = 0.9 / (1 + 0.2 * 7)
    xbar, zbar = X.mean(0), Z.mean(0)
    ref1 = (1 - d) ** 14 * (xbar @ xbar + 8 / d**2 * tau7**2 * (zbar @ zbar))
    c3 = 3 * (d**2 + 2 * 0.3**2 * d + 4 * 0.3**2)
    nf = lambda A: np.linalg.norm(Ct @ A) ** 2
    ref2 = nf(Pi @ X) + 6 / d**2 * nf(Pi @ Z) + c3 * 0.05**2 / d**4 * nf(Pi @ G)
    assert phi1 == pytest.approx(ref1, rel=1e-10)
    assert phi2 == pytest.approx(ref2, rel=1e-10)

    params_sc = APDSCParams(eta=0.05, alpha=2.0, beta=0.05, tau=0.1, K=10)
    phi3, phi4 = lyapunov_sc(st, 7, params_sc, small_norm)
    ref3 = (1 - d) ** 14 * (xbar @ xbar + 8 / d**2 * 0.1**2 * (zbar @ zbar))
    at = 0.2
    c5 = 8 / 7 * (1.5 * d + 6 * at**2 * d + 48 * at**2 / 7)
    ref4 = nf(Pi @ X) + 24 / (7 * d**2) * nf(Pi @ Z) + c5 * 0.05**2 / d**4 * nf(Pi @ G)
    assert phi3 == pytest.approx(ref3, rel=1e-10)
    assert phi4 == pytest.approx(ref4, rel=1e-10)


def test_inexact_bounds_trivial_cases(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    st = init_state(X0, v0, small_suite)
    # a = b: the bound reduces to a nonnegative quadratic term
    gbar = st.G.mean(0)
    U = st.X / st.v[:, None]
    a = np.array([0.3, -0.2, 0.1, 0.0, 1.0])
    lhs = 0.0
    rhs = float(gbar @ (a - a)) + small_suite.L / (2 * small_suite.n) * float(
        np.linalg.norm(U - a) ** 2
    )
    assert rhs >= lhs
    # consensus state at a = xbar: exact convexity, slack >= 0
    xbar = np.array([0.5, 0.5, -1.0, 0.2, 0.0])
    Xc = np.tile(xbar, (small_mixing.n, 1))
    stc = _state(Xc, Xc, Xc.copy(), small_suite.batch_grad(Xc), np.ones(small_mixing.n))
    rep = check_inexact_bounds(small_suite, stc, trials=50, seed=0)
    assert rep.violations == 0
    assert rep.min_slack >= -1e-10


def test_inexact_bounds_along_runs(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    params = default_params_smooth(small_suite.L, c_prac=0.05, K=120)
    states = []
    apd_run(X0, v0, small_mixing, small_suite, params, states.append)
    xstar, _ = small_suite.minimizer()
    total_viol = 0
    for s in states[::30]:
        rep = check_inexact_bounds(small_suite, s, trials=25, seed=s.k, xstar=xstar)
        total_viol += rep.violations
        assert rep.sc_slack is not None
    assert total_viol == 0


def test_fit_synthetic_power_laws():
    k = np.arange(1, 400)
    assert fit_sublinear_rate(synthetic_trace(1.0 / k**2, k), 1, 399) == pytest.approx(-2.0, abs=1e-9)
    assert fit_sublinear_rate(synthetic_trace(1.0 / k, k), 1, 399) == pytest.approx(-1.0, abs=1e-9)


def test_fit_synthetic_geometric():
    k = np.arange(0, 300)
    assert fit_linear_rate(synthetic_trace(0.9**k, k), 1, 299) == pytest.approx(0.9, abs=1e-9)
    assert fit_linear_rate(synthetic_trace(np.ones_like(k, dtype=float), k), 1, 299) == pytest.approx(1.0, abs=1e-9)


def test_fit_rejects_bad_windows():
    k = np.arange(0, 50)
    tr = synthetic_trace(np.linspace(1, -0.5, 50), k)
    with pytest.raises(ValueError):
        fit_sublinear_rate(tr, 1, 49)
    with pytest.raises(ValueError):
        fit_sublinear_rate(synthetic_trace(1 / (k + 1.0), k), 10, 10)


def test_iterations_to_threshold():
    tr = synthetic_trace([1.0, 0.1, 0.01, 0.001], [0, 1, 2, 3])
    assert iterations_to_threshold(tr, 0.05) == 2
    assert iterations_to_threshold(tr, 1e-9) is None


def test_optimality_gap_examples(small_suite):
    xstar, fstar = small_suite.minimizer()
    rows = np.tile(xstar, (small_suite.n, 1))
    gap = optimality_gap(small_suite, rows, xstar, fstar)
    assert abs(gap) <= 1e-12 * (1 + abs(fstar))
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((small_suite.n, small_suite.dim))
    assert optimality_gap(small_suite, rows, xstar, fstar) >= -1e-12


def test_gap_consensus_consistency(small_mixing, small_suite):
    # consensus at v = p: the decentralized gap equals the centralized gap
    xstar, fstar = small_suite.minimizer()
    point = xstar + 0.01
    X = np.outer(small_mixing.p, point)
    st = _state(X, X, X.copy(), small_suite.batch_grad(X), small_mixing.p.copy())
    u_err, proj_err = consensus_error(st, small_mixing.p)
    assert u_err <= 1e-12
    gap = optimality_gap(small_suite, st.ratio("X"), xstar, fstar)
    central = float(small_suite.average_value(point) - fstar)
    assert gap == pytest.approx(central, rel=1e-10)


def test_trace_recorder_contents(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    xstar, fstar = small_suite.minimizer()
    nt = build_contraction_norm(small_mixing.C, small_mixing.p)
    params = default_params_sc(small_suite.L, small_suite.mu, K=40, delta=nt.delta)
    rec = TraceRecorder(
        small_suite, small_mixing, xstar=xstar, params=params,
        norm_transform=nt, estimate="Y", label="apdsc",
    )
    out, tr = apdsc_run(X0, v0, small_mixing, small_suite, params, rec)
    assert tr is rec.trace() or np.array_equal(tr.k, rec.trace().k)
    assert np.array_equal(tr.k, np.arange(41))
    assert (np.diff(tr.k) > 0).all()
    assert tr.loss.min() >= -1e-12
    assert tr.phi3 is not None and tr.phi4 is not None and tr.phi1 is None
    assert tr.v_min.min() > 0
    # final loss row agrees with an independent gap computation on the output
    assert tr.loss[-1] == pytest.approx(
        optimality_gap(small_suite, out, xstar, fstar), abs=1e-14
    )


def test_trace_recorder_auto_stride(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    rec = TraceRecorder(small_suite, small_mixing, stride="auto")
    apd_run(X0, v0, small_mixing, small_suite, APDParams(eta=0.01, K=30), rec)
    assert len(rec.trace()) == 31  # below the auto cutoff everything records
    rec2 = TraceRecorder(small_suite, small_mixing, stride=7)
    apd_run(X0, v0, small_mixing, small_suite, APDParams(eta=0.01, K=30), rec2)
    assert np.array_equal(rec2.trace().k, np.arange(0, 31, 7))


def test_trace_recorder_accepts_reference_value_only(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    _, fstar = small_suite.minimizer()
    rec = TraceRecorder(small_suite, small_mixing, fstar=fstar)
    apd_run(X0, v0, small_mixing, small_suite, APDParams(eta=0.01, K=5), rec)
    tr = rec.trace()
    assert np.isfinite(tr.loss).all()
    assert tr.loss.min() >= -1e-12


def _oracle_rows(states, suite, mixing, xstar, params, nt, estimate):
    """Recorder columns from the public per-call functions, one state at a
    time: `consensus_error` and `lyapunov_smooth`/`lyapunov_sc`."""
    rows = {name: [] for name in TRACE_COLUMNS}
    for s in states:
        rows["k"].append(s.k)
        rows["loss"].append(optimality_gap(suite, s.ratio(estimate), xstar, None))
        u_err, proj_err = consensus_error(s, mixing.p)
        rows["consensus_error"].append(u_err)
        rows["projection_error"].append(proj_err)
        rows["grad_avg_norm"].append(float(np.linalg.norm(s.G.mean(axis=0))))
        rows["v_min"].append(float(s.v.min()))
        if nt is None:
            continue
        if isinstance(params, APDParams):
            names, phis = ("phi1", "phi2"), lyapunov_smooth(s, s.k, params, nt)
        else:
            names, phis = ("phi3", "phi4"), lyapunov_sc(s, s.k, params, nt)
        rows[names[0]].append(phis[0])
        rows[names[1]].append(phis[1])
    return rows


@pytest.mark.parametrize("name", ["apd", "apdsc", "pushdiging"])
def test_trace_recorder_bit_exact_against_per_call_formulas(name):
    mixing = uniform_out_weights(build_cycle_plus_random(40, 120, 3))
    nt = build_contraction_norm(mixing.C, mixing.p)
    suite = make_quadratic_suite(40, 5, 100.0, 0.01, 4)
    xstar, _ = suite.minimizer()
    X0 = np.random.default_rng(8).standard_normal((40, 5))
    v0 = np.ones(40)
    K = 60
    if name == "apd":
        params = default_params_smooth(suite.L, K=K)
        def run(hook):
            return apd_run(X0, v0, mixing, suite, params, hook)
    elif name == "apdsc":
        params = default_params_sc(suite.L, suite.mu, K=K, delta=nt.delta)
        def run(hook):
            return apdsc_run(X0, v0, mixing, suite, params, hook)
    else:
        params = None
        def run(hook):
            return push_diging_run(X0, v0, mixing, suite, 0.3 / suite.L, K, hook)
    accel = params is not None
    estimate = "Y" if accel else "X"
    rec = TraceRecorder(
        suite, mixing, xstar=xstar, params=params,
        norm_transform=nt if accel else None, estimate=estimate,
    )
    states = []

    def hook(state):
        states.append(state)
        rec(state)

    run(hook)
    tr = rec.trace()
    expect = _oracle_rows(states, suite, mixing, xstar, params, nt if accel else None, estimate)
    assert len(tr) == K + 1
    for col in TRACE_COLUMNS:
        if expect[col]:
            assert np.array_equal(tr.column(col), np.array(expect[col])), col
        else:
            assert tr.column(col) is None, col


def test_trace_recorder_shared_kernel_at_n400():
    """At n = 400 a skinny Ctilde product rounds differently from the same
    columns of the block's wide one, so recorder rows equal the per-call
    functions only if both go through one kernel."""
    mixing = uniform_out_weights(build_cycle_plus_random(400, 1200, 7))
    nt = build_contraction_norm(mixing.C, mixing.p, sigma=mixing.sigma)
    suite = make_quadratic_suite(400, 5, 100.0, 0.01, 4)
    xstar, _ = suite.minimizer()
    X0 = np.random.default_rng(8).standard_normal((400, 5))
    params = default_params_sc(suite.L, suite.mu, K=40, delta=nt.delta)
    rec = TraceRecorder(suite, mixing, xstar=xstar, params=params, norm_transform=nt)
    states = []

    def hook(state):
        states.append(state)
        rec(state)

    apdsc_run(X0, np.ones(400), mixing, suite, params, hook)
    tr = rec.trace()
    expect = _oracle_rows(states, suite, mixing, xstar, params, nt, "Y")
    assert len(tr) == 41
    for col in TRACE_COLUMNS:
        if expect[col]:
            assert np.array_equal(tr.column(col), np.array(expect[col])), col
        else:
            assert tr.column(col) is None, col


def test_trace_record_depends_only_on_its_state():
    """Rows of one apdsc run are bitwise equal whatever block, slot or run
    length they were evaluated with: stride 1 against stride 2 (each state
    in another slot), and K against K + 1, both ending in a partial block."""
    mixing = uniform_out_weights(build_cycle_plus_random(40, 120, 3))
    nt = build_contraction_norm(mixing.C, mixing.p)
    suite = make_quadratic_suite(40, 5, 100.0, 0.01, 4)
    xstar, _ = suite.minimizer()
    X0 = np.random.default_rng(8).standard_normal((40, 5))
    K = 70  # 71 records: blocks of 32, 32 and 7
    params = default_params_sc(suite.L, suite.mu, K=K, delta=nt.delta)

    def record(stride, steps):
        rec = TraceRecorder(
            suite, mixing, xstar=xstar, params=params, norm_transform=nt, stride=stride
        )
        return apdsc_run(X0, np.ones(40), mixing, suite, replace(params, K=steps), rec)[1]

    base = record(1, K)
    assert np.array_equal(base.k, np.arange(K + 1))
    for other in (record(2, K), record(1, K + 1)):
        ks = other.k[other.k <= K]
        for col in TRACE_COLUMNS:
            if base.column(col) is None:
                assert other.column(col) is None, col
            else:
                got = other.column(col)[: len(ks)]
                assert np.array_equal(got, base.column(col)[ks]), col


def test_trace_recorder_copies_the_state(small_mixing, small_suite, small_norm, small_init):
    """Overwriting a state's arrays after the call changes nothing, also for
    records still waiting in a partial block."""
    X0, v0 = small_init
    xstar, _ = small_suite.minimizer()
    params = default_params_sc(small_suite.L, small_suite.mu, K=40, delta=small_norm.delta)
    states = []
    apdsc_run(X0, v0, small_mixing, small_suite, params, states.append)

    def copy(s):
        return replace(s, X=s.X.copy(), Z=s.Z.copy(), G=s.G.copy(), v=s.v.copy())

    fed, clean = (
        TraceRecorder(small_suite, small_mixing, xstar=xstar, params=params, norm_transform=small_norm)
        for _ in range(2)
    )
    for s in states:
        s = copy(s)
        fed(s)
        for a in (s.X, s.Z, s.G, s.v):
            a.fill(np.nan)
    for s in states:
        clean(s)
    got, expect = fed.trace(), clean.trace()
    for col in TRACE_COLUMNS:
        if expect.column(col) is None:
            assert got.column(col) is None, col
        else:
            assert np.array_equal(got.column(col), expect.column(col)), col


def test_error_map_exact_and_recorder_checks_perron_vector(small_mixing, small_suite):
    n, p = small_mixing.n, small_mixing.p
    assert np.array_equal(small_mixing.error_map(), small_mixing.C - np.outer(p, np.ones(n)) / n)
    other = build_contraction_norm(small_mixing.C, p * (1.0 + 1e-12))
    with pytest.raises(ValueError, match="Perron vector"):
        TraceRecorder(small_suite, small_mixing, norm_transform=other)


def _exact_off_perron(A, p):
    """(I - p 1^T / n) A in rationals, from the float64 entries of A and p."""
    n = A.shape[0]
    rows = [[Fraction(a) for a in row] for row in A.tolist()]
    means = [sum(col) / n for col in zip(*rows)]
    return [
        [a - Fraction(pi) * m for a, m in zip(row, means)]
        for row, pi in zip(rows, p.tolist())
    ]


@pytest.mark.parametrize("n", [40, 400])
def test_off_perron_projection_against_exact_rationals(n):
    """The rank-one projection, and the dense Pi @ A as a reference, stay
    within 8 n eps ||A||_F of (I - p 1^T / n) A evaluated exactly, on a
    random stack and on a near-consensus one (A = p c^T + 1e-7 noise)."""
    p = uniform_out_weights(build_cycle_plus_random(n, 3 * n, 7)).p
    rng = np.random.default_rng(n)
    Pi = np.eye(n) - np.outer(p, np.ones(n)) / n
    bound_unit = 8 * n * np.finfo(float).eps
    random = rng.standard_normal((n, 5))
    near = np.outer(p, rng.standard_normal(5)) + 1e-7 * rng.standard_normal((n, 5))
    for A in (random, near):
        exact = _exact_off_perron(A, p)
        for got in (_off_perron(A, p, A.mean(axis=0)), Pi @ A):
            err = np.array(
                [
                    [float(Fraction(g) - e) for g, e in zip(grow, erow)]
                    for grow, erow in zip(got.tolist(), exact)
                ]
            )
            assert np.linalg.norm(err) <= bound_unit * np.linalg.norm(A)
