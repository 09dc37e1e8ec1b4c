import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pushopt import (
    APDParams,
    APDSCParams,
    PushDIGingParams,
    RunTrace,
    TraceRecorder,
    build_contraction_norm,
    build_cycle_plus_random,
    consensus_error,
    default_params_sc,
    default_params_smooth,
    fit_linear_rate,
    fit_sublinear_rate,
    global_minimizer,
    init_state,
    iterations_to_threshold,
    lyapunov,
    make_logistic_suite,
    make_quadratic_suite,
    optimality_gap,
    run,
    synthetic_logistic_dataset,
    uniform_out_weights,
)
from pushopt.diagnostics import TRACE_COLUMNS, _one, _records
from pushopt.experiments import (
    EXAMPLES_PER_AGENT,
    REPRO_AGENTS,
    REPRO_DATA_SEED,
    REPRO_EXTRA_EDGES,
    REPRO_GRAPH_SEED,
    REPRO_PARTITION_SEED,
    REPRO_X0_SEED,
    REPRODUCTION_PARAMS,
)
from pushopt.graphs import DirectedGraph
from pushopt.solvers import SolverState

from reference import check_inexact_bounds


def _state(X, Y, Z, G, v, k=0):
    return SolverState(X=X, Y=Y, Z=Z, G=G, v=v, k=k, grad_U=G.copy())


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
    params = APDParams(eta=0.05 / small_suite.L, K=150)
    states = []
    run(X0, v0, small_mixing, small_suite, params, states.append)
    d0 = nt.vec_norm(v0 - small_mixing.p)
    n = small_mixing.n
    Pi = np.eye(n) - np.outer(small_mixing.p, np.ones(n)) / n
    vhat = np.maximum.accumulate([1.0 / s.v.min() for s in states])
    for s in states[:: 25]:
        u_err, _ = consensus_error(s, small_mixing.p)
        xbar = s.X.mean(0)
        rhs = (
            2.0
            * nt.theta**2
            * vhat[s.k] ** 2
            * (
                np.linalg.norm(nt.w[:, None] * (Pi @ s.X)) ** 2
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
    phi1, _ = lyapunov(st, 3, params, small_norm)
    assert phi1 <= 1e-24
    # X = Z = p c^T and G aligned with p -> phi2 = 0
    c = np.array([1.0, -2.0, 0.3])
    Xp = np.outer(p, c)
    Gp = np.outer(p, np.array([0.1, 0.2, -0.5]))
    st = _state(Xp, Xp, Xp.copy(), Gp, np.ones(n))
    _, phi2 = lyapunov(st, 0, params, small_norm)
    assert phi2 <= 1e-20
    params_sc = APDSCParams(eta=0.1, alpha=2.0, beta=0.05, tau=0.1, K=10)
    phi3, phi4 = lyapunov(st, 0, params_sc, small_norm)
    assert phi4 <= 1e-20
    st0 = _state(zero, zero, zero, Gp, np.ones(n))
    assert lyapunov(st0, 2, params_sc, small_norm)[0] == 0.0


def test_lyapunov_against_independent_formula(small_mixing, small_norm):
    n = small_mixing.n
    rng = np.random.default_rng(3)
    X, Y, Z, G = (rng.standard_normal((n, 4)) for _ in range(4))
    v = rng.uniform(0.5, 1.5, n)
    v *= n / v.sum()
    st = _state(X, Y, Z, G, v, k=7)
    params = APDParams(eta=0.05, pa=0.3, wa=0.2, wb=0.9, K=10)
    phi1, phi2 = lyapunov(st, 7, params, small_norm)

    # independent re-evaluation
    d = small_norm.delta
    Ct = np.diag(small_norm.w)
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
    phi3, phi4 = lyapunov(st, 7, params_sc, small_norm)
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
    xstar, _ = small_suite.minimizer()
    rep = check_inexact_bounds(small_suite, stc, trials=50, seed=0, xstar=xstar)
    assert rep.violations == 0
    assert rep.min_slack >= -1e-10


def test_inexact_bounds_along_runs(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    params = APDParams(eta=0.05 / small_suite.L, K=120)
    states = []
    run(X0, v0, small_mixing, small_suite, params, states.append)
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
    gap = optimality_gap(small_suite, st.X / st.v[:, None], xstar, fstar)
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
    out, tr = run(X0, v0, small_mixing, small_suite, params, rec)
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
    xstar, _ = small_suite.minimizer()
    rec = TraceRecorder(small_suite, small_mixing, xstar, stride="auto")
    run(X0, v0, small_mixing, small_suite, APDParams(eta=0.01, K=30), rec)
    assert len(rec.trace()) == 31  # below the auto cutoff everything records
    rec2 = TraceRecorder(small_suite, small_mixing, xstar, stride=7)
    run(X0, v0, small_mixing, small_suite, APDParams(eta=0.01, K=30), rec2)
    assert np.array_equal(rec2.trace().k, [0, 7, 14, 21, 28, 30])  # K = 30 always records


@pytest.mark.parametrize("stride", [0, 2.5, -2, True, "7", None])
def test_trace_recorder_rejects_invalid_stride(small_mixing, small_suite, stride):
    """A stride that is not "auto" or a positive int is refused when the
    recorder is made, not at its first record (0 divided by zero there,
    2.5 recorded every 2nd iteration)."""
    xstar, _ = small_suite.minimizer()
    with pytest.raises(ValueError, match=f"positive int, got {stride!r}"):
        TraceRecorder(small_suite, small_mixing, xstar, stride=stride)


def test_every_gap_needs_the_minimizer(small_mixing, small_suite):
    """The recorder takes x* as a required argument, and `optimality_gap`
    refuses a missing one: no loss is measured from f* alone."""
    xstar, fstar = small_suite.minimizer()
    with pytest.raises(TypeError, match="xstar"):
        TraceRecorder(small_suite, small_mixing)
    rows = np.tile(xstar, (small_suite.n, 1))
    with pytest.raises(ValueError, match=r"x\*"):
        optimality_gap(small_suite, rows, None, fstar)


def _ratio(state, field):
    """The push-sum ratio V^{-1} (field) of the recorder's `estimate`."""
    return getattr(state, field) / state.v[:, None]


def _oracle_rows(states, suite, mixing, xstar, params, nt, estimate):
    """Recorder columns from the public per-call functions, one state at a
    time: `consensus_error` and `lyapunov`."""
    rows = {name: [] for name in TRACE_COLUMNS}
    for s in states:
        rows["k"].append(s.k)
        rows["loss"].append(optimality_gap(suite, _ratio(s, estimate), xstar, None))
        u_err, proj_err = consensus_error(s, mixing.p)
        rows["consensus_error"].append(u_err)
        rows["projection_error"].append(proj_err)
        # The kernel's agent mean: a pairwise sum over n contiguous values.
        gbar = np.ascontiguousarray(s.G.T).mean(axis=-1)
        rows["grad_avg_norm"].append(float(np.linalg.norm(gbar)))
        rows["v_min"].append(float(s.v.min()))
        if nt is None:
            continue
        for name, phi in zip(params.lyapunov_pair, lyapunov(s, s.k, params, nt)):
            rows[name].append(phi)
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
        params = method = default_params_smooth(suite.L, K=K)
    elif name == "apdsc":
        params = method = default_params_sc(suite.L, suite.mu, K=K, delta=nt.delta)
    else:
        params, method = None, PushDIGingParams(0.3 / suite.L, K)
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

    run(X0, v0, mixing, suite, method, hook)
    tr = rec.trace()
    expect = _oracle_rows(states, suite, mixing, xstar, params, nt if accel else None, estimate)
    assert len(tr) == K + 1
    for col in TRACE_COLUMNS:
        if expect[col]:
            assert np.array_equal(tr.column(col), np.array(expect[col])), col
        else:
            assert tr.column(col) is None, col


def test_trace_recorder_shared_kernel_at_n400():
    """At n = 400, where the solver mixes through the in-neighbor gather,
    recorder rows built in blocks equal the per-call functions bit for bit,
    the weighted-norm Lyapunov columns included: both go through one
    kernel."""
    mixing = uniform_out_weights(build_cycle_plus_random(400, 1200, 7))
    nt = build_contraction_norm(mixing.C, mixing.p)
    suite = make_quadratic_suite(400, 5, 100.0, 0.01, 4)
    xstar, _ = suite.minimizer()
    X0 = np.random.default_rng(8).standard_normal((400, 5))
    params = default_params_sc(suite.L, suite.mu, K=40, delta=nt.delta)
    rec = TraceRecorder(suite, mixing, xstar=xstar, params=params, norm_transform=nt)
    states = []

    def hook(state):
        states.append(state)
        rec(state)

    run(X0, np.ones(400), mixing, suite, params, hook)
    tr = rec.trace()
    expect = _oracle_rows(states, suite, mixing, xstar, params, nt, "Y")
    assert len(tr) == 41
    for col in TRACE_COLUMNS:
        if expect[col]:
            assert np.array_equal(tr.column(col), np.array(expect[col])), col
        else:
            assert tr.column(col) is None, col


@pytest.mark.parametrize("case", ["nonstrongly", "strongly"])
def test_trace_recorder_logistic_loss_bit_exact(case):
    """On the n = 20 logistic problem of `pushopt reproduce`, the recorder's
    loss equals per-state `optimality_gap` bit for bit, for the accelerated
    method (estimate Y) and Push-DIGing (X).
    K = 70 gives blocks of 32, 32 and 7 records; the early records have
    entries |dt| >= 1, which take the far branch of `gap_values`."""
    block = REPRODUCTION_PARAMS[case]
    mixing = uniform_out_weights(
        build_cycle_plus_random(REPRO_AGENTS, REPRO_EXTRA_EDGES, REPRO_GRAPH_SEED)
    )
    data = synthetic_logistic_dataset(REPRO_AGENTS * EXAMPLES_PER_AGENT, 4, seed=REPRO_DATA_SEED)
    suite = make_logistic_suite(data, REPRO_AGENTS, block["mu"], REPRO_PARTITION_SEED)
    xstar, _ = global_minimizer(suite)
    LZ = np.vstack([lam[:, None] * Z for Z, lam in suite.shards])
    X0 = np.random.default_rng(REPRO_X0_SEED).standard_normal((REPRO_AGENTS, suite.dim))
    v0 = np.ones(REPRO_AGENTS)
    K = 70
    if case == "nonstrongly":
        accel = APDParams(**block["apd"], K=K)
    else:
        accel = APDSCParams(**block["apdsc"], K=K)
    methods = {"Y": accel, "X": PushDIGingParams(block["pushdiging"]["eta"], K)}
    for estimate, method in methods.items():
        rec = TraceRecorder(suite, mixing, xstar=xstar, estimate=estimate)
        states = []

        def hook(state):
            states.append(state)
            rec(state)

        run(X0, v0, mixing, suite, method, hook)
        assert len(states) == K + 1
        far = [np.abs((_ratio(s, estimate) - xstar) @ LZ.T).max() >= 1.0 for s in states]
        assert any(far), estimate
        gaps = [optimality_gap(suite, _ratio(s, estimate), xstar, None) for s in states]
        assert np.array_equal(rec.trace().loss, gaps), estimate


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
        return run(X0, np.ones(40), mixing, suite, replace(params, K=steps), rec)[1]

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
    records still waiting in a partial block and for the last state, which
    stride 3 skips (K = 40)."""
    X0, v0 = small_init
    xstar, _ = small_suite.minimizer()
    params = default_params_sc(small_suite.L, small_suite.mu, K=40, delta=small_norm.delta)
    states = []
    run(X0, v0, small_mixing, small_suite, params, states.append)

    def copy(s):
        return replace(s, X=s.X.copy(), Y=s.Y.copy(), Z=s.Z.copy(), G=s.G.copy(), v=s.v.copy())

    for stride in ("auto", 3):
        fed, clean = (
            TraceRecorder(
                small_suite, small_mixing, xstar=xstar, params=params,
                norm_transform=small_norm, stride=stride,
            )
            for _ in range(2)
        )
        for s in states:
            s = copy(s)
            fed(s)
            for a in (s.X, s.Y, s.Z, s.G, s.v):
                a.fill(np.nan)
        for s in states:
            clean(s)
        got, expect = fed.trace(), clean.trace()
        assert got.k[-1] == 40, stride
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
        TraceRecorder(small_suite, small_mixing, small_suite.minimizer()[0], norm_transform=other)


def _exact_columns(X, v, p):
    """(I - p 1^T / n) X, consensus_error and projection_error in rationals,
    from the float64 entries of X, v and p. Each squared term of a norm is
    rounded once to float64 and math.fsum adds them with one more rounding,
    so a returned norm is within eps of the exact one."""
    n = len(p)
    rows = [[Fraction(a) for a in row] for row in X.tolist()]
    means = [sum(col) / n for col in zip(*rows)]
    proj = [
        [a - Fraction(pi) * m for a, m in zip(row, means)] for row, pi in zip(rows, p.tolist())
    ]
    spread = [
        a / Fraction(vi) - m for row, vi in zip(rows, v.tolist()) for a, m in zip(row, means)
    ]

    def norm(terms):
        return math.sqrt(math.fsum(float(t * t) for t in terms))

    return proj, norm(spread), norm(t for row in proj for t in row)


def _sequential_columns(X, v, p):
    """(consensus_error, projection_error) from the sequential column mean
    of X (numpy's axis-0 mean), refined once by a BLAS sum for the
    projection."""
    xbar = X.mean(axis=0)
    m = xbar + np.ones_like(p) @ (X - p[:, None] * xbar) / len(p)
    return np.linalg.norm(X / v[:, None] - xbar), np.linalg.norm(X - p[:, None] * m)


def _check_kernel_accuracy(X, v, p):
    """Run the block kernel on one record and hold it to its error bounds;
    return its (consensus_error, projection_error) and the exact ones.

    Projection: A - p m with a once-refined mean stays within 8 n eps ||A||_F
    of the exact projected entries, and so does its norm.

    Consensus, with u = eps / 2 and D = V^-1 X - 1 xbar^T exactly:
    - fl(x_ij / v_i) errs by at most u |x_ij / v_i|;
    - a sum of n terms in any order errs by at most (n - 1) u sum_i |x_ij|,
      and dividing by n adds u |xbar_j|, so xbar_j errs by at most
      u sum_i |x_ij| <= u sqrt(n) ||x_.j||; over n rows that is n u ||X||_F;
    - the subtraction adds u |D_ij| (to first order);
    - a norm of n d squares summed in any order has relative error at most
      (n d / 2 + 1) u.
    To first order the error is u (n ||X||_F + ||V^-1 X||_F + (n d / 2 + 2)
    ||D||_F). The bound eps (n ||X||_F + ||V^-1 X||_F + n d ||D||_F) is at
    least twice that, which covers the second-order terms and the eps ||D||_F
    of the rational reference."""
    n, d = X.shape
    eps = np.finfo(float).eps
    S, vb = _one(_state(X, X, X, X, v))
    cols = _records(p, S, vb)
    proj, u_exact, pe_exact = _exact_columns(X, v, p)
    got = S[0, 0].T.tolist()  # the stack's X, projected in place
    err = [float(Fraction(g) - e) for gr, er in zip(got, proj) for g, e in zip(gr, er)]
    bound = 8 * n * eps * np.linalg.norm(X)
    assert np.linalg.norm(err) <= bound
    pe = float(cols["projection_error"][0])
    assert abs(pe - pe_exact) <= bound
    u_err = float(cols["consensus_error"][0])
    u_bound = eps * (n * np.linalg.norm(X) + np.linalg.norm(X / v[:, None]) + n * d * u_exact)
    assert abs(u_err - u_exact) <= u_bound
    return (u_err, pe), (u_exact, pe_exact)


@pytest.mark.parametrize("n", [40, 400])
def test_block_kernel_against_exact_rationals(n):
    """consensus_error and projection_error of the block kernel, and the
    stack it projects in place, against rationals, on a random record and a
    near-consensus one (A = p c^T + 1e-7 noise, v = p, so V^-1 X is near a
    common row).

    Near consensus at n = 400 both values are also no farther from exact
    than the sequential-mean formulas. At n = 40 the two differ only in the
    rounding of 40-term sums and either is the closer about as often (over
    40 seeded near-consensus draws the pairwise consensus error was the
    farther one 18 times), so the comparison is made at n = 400, where the
    sequential sum's longer error chain decides it."""
    p = uniform_out_weights(build_cycle_plus_random(n, 3 * n, 7)).p
    rng = np.random.default_rng(n)
    random = rng.standard_normal((n, 5))
    near = np.outer(p, rng.standard_normal(5)) + 1e-7 * rng.standard_normal((n, 5))
    _check_kernel_accuracy(random, p, p)
    got, exact = _check_kernel_accuracy(near, p, p)
    if n == 400:
        old = _sequential_columns(near, p, p)
        for g, o, e in zip(got, old, exact):
            assert abs(g - e) <= abs(o - e)


def test_block_kernel_accuracy_on_reproduce_records():
    """The last 10 records of the apdsc run of `pushopt reproduce --case
    strongly --iters 500` (default data) sit near consensus, with
    consensus_error about 1e-12 and projection_error about 3e-11; both stay
    within the kernel's error bounds there."""
    block = REPRODUCTION_PARAMS["strongly"]
    mixing = uniform_out_weights(
        build_cycle_plus_random(REPRO_AGENTS, REPRO_EXTRA_EDGES, REPRO_GRAPH_SEED)
    )
    data = synthetic_logistic_dataset(REPRO_AGENTS * EXAMPLES_PER_AGENT, 4, seed=REPRO_DATA_SEED)
    suite = make_logistic_suite(data, REPRO_AGENTS, block["mu"], REPRO_PARTITION_SEED)
    X0 = np.random.default_rng(REPRO_X0_SEED).standard_normal((REPRO_AGENTS, suite.dim))
    states = []
    params = APDSCParams(**block["apdsc"], K=500)
    run(X0, np.ones(REPRO_AGENTS), mixing, suite, params, states.append)
    for s in states[-10:]:
        (u_err, pe), _ = _check_kernel_accuracy(s.X, s.v, mixing.p)
        assert (u_err, pe) == consensus_error(s, mixing.p)
        assert 1e-13 < u_err < 1e-11 and 1e-11 < pe < 1e-10
