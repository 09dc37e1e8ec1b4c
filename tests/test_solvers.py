import numpy as np
import pytest

from pushopt import (
    APDParams,
    APDSCParams,
    DivergenceError,
    IdentityMonitor,
    MixingMatrix,
    PushDIGingParams,
    QuadraticSuite,
    SubgradPushParams,
    TheoryInputs,
    apd_run,
    apd_step,
    apdsc_run,
    apdsc_step,
    build_contraction_norm,
    build_cycle_plus_random,
    calibrate_theory_inputs,
    centralized_agm_run,
    default_params_sc,
    default_params_smooth,
    init_state,
    make_quadratic_suite,
    push_diging_run,
    subgradient_push_run,
    uniform_out_weights,
)
from pushopt.graphs import DirectedGraph
from pushopt.solvers import C4

SCALAR = QuadraticSuite(H=np.ones((1, 1, 1)), b=np.zeros((1, 1)), L=1.0, mu=1.0)
MIX1 = MixingMatrix(C=np.array([[1.0]]), p=np.array([1.0]), sigma=0.0)


class CountingSuite:
    """Delegating wrapper that counts gradient-batch evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.batch_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def batch_grad(self, U):
        self.batch_calls += 1
        return self.inner.batch_grad(U)


def test_scalar_step_hand_values():
    params = APDParams(eta=1.0, pa=0.25, wa=0.25, wb=1.0, K=1)
    state = init_state(np.array([[1.0]]), np.array([1.0]), SCALAR)
    s1 = apd_step(state, MIX1, SCALAR, params)
    assert s1.Y[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert s1.Z[0, 0] == pytest.approx(0.75, abs=1e-15)
    assert params.tau(1) == pytest.approx(0.8)
    assert s1.X[0, 0] == pytest.approx(0.6, abs=1e-15)
    assert s1.G[0, 0] == pytest.approx(0.6, abs=1e-15)


def test_scalar_sc_step_hand_values():
    params = APDSCParams(eta=1.0, alpha=1 / 6, beta=0.25, tau=0.5, K=1)
    state = init_state(np.array([[1.0]]), np.array([1.0]), SCALAR)
    s1 = apdsc_step(state, MIX1, SCALAR, params)
    assert s1.Y[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert s1.Z[0, 0] == pytest.approx(5 / 6, abs=1e-15)
    assert s1.X[0, 0] == pytest.approx(5 / 12, abs=1e-15)


def test_beta_zero_matches_constant_alpha_schedule_form(small_mixing, small_suite, small_init):
    # with beta = 0 the Z-update reduces to Z - alpha eta G before mixing
    X0, v0 = small_init
    eta, alpha, tau = 0.01, 2.0, 0.5
    params = APDSCParams.__new__(APDSCParams)  # bypass beta > 0 validation
    object.__setattr__(params, "eta", eta)
    object.__setattr__(params, "alpha", alpha)
    object.__setattr__(params, "beta", 0.0)
    object.__setattr__(params, "tau", tau)
    object.__setattr__(params, "K", 1)
    state = init_state(X0, v0, small_suite)
    s1 = apdsc_step(state, small_mixing, small_suite, params)
    expected_Z = small_mixing.C @ (state.Z - alpha * eta * state.G)
    assert np.allclose(s1.Z, expected_Z, atol=1e-14)


def test_reduction_to_centralized(small_suite):
    suite = QuadraticSuite(
        H=np.array([[[0.7]]]), b=np.array([[0.3]]), L=0.7, mu=0.7
    )
    params = APDParams(eta=1.0, pa=0.25, wa=0.25, wb=1.0, K=500)
    states = []
    apd_run(np.array([[1.0]]), np.array([1.0]), MIX1, suite, params, states.append)
    agm = centralized_agm_run(np.array([1.0]), suite, eta=1.0, K=500)
    dev = 0.0
    for s in states:
        dev = max(
            dev,
            abs(s.X[0, 0] - agm.x[s.k, 0]),
            abs(s.Y[0, 0] - agm.y[s.k, 0]),
            abs(s.Z[0, 0] - agm.z[s.k, 0]),
        )
    assert dev <= 1e-12


def test_consensus_start_stays_consensus():
    # doubly stochastic mixing, v0 = 1, identical rows: agents never separate
    g = DirectedGraph(4, frozenset((i, j) for i in range(4) for j in range(4) if i != j))
    mix = uniform_out_weights(g)
    assert np.allclose(mix.C, 0.25)
    suite = QuadraticSuite(
        H=np.repeat(np.eye(2)[None], 4, 0),
        b=np.arange(8.0).reshape(4, 2),
        L=1.0,
        mu=1.0,
    )
    X0 = np.tile(np.array([1.0, -2.0]), (4, 1))
    rows_equal, v_ones = [], []
    def mon(s):
        rows_equal.append(np.abs(s.X - s.X[0]).max())
        v_ones.append(np.abs(s.v - 1).max())
    apd_run(X0, np.ones(4), mix, suite, APDParams(eta=0.3, K=100), mon)
    sc = APDSCParams(eta=0.3, alpha=2.0, beta=0.05, tau=0.1, K=100)
    apdsc_run(X0, np.ones(4), mix, suite, sc, mon)
    assert max(rows_equal) <= 1e-12
    assert max(v_ones) <= 1e-12


def test_mass_conservation_single_step(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    params = APDParams(eta=0.01, K=1)
    state = init_state(X0, v0, small_suite)
    s1 = apd_step(state, small_mixing, small_suite, params)
    assert abs(s1.v.sum() - small_mixing.n) <= 1e-12


def test_coupling_identity_base_case(small_mixing, small_suite, small_init):
    # at k=0 with Y=Z=X the coupling identity is exactly 0 = 0
    X0, v0 = small_init
    state = init_state(X0, v0, small_suite)
    xbar, ybar, zbar = state.X.mean(0), state.Y.mean(0), state.Z.mean(0)
    assert np.linalg.norm(xbar - zbar) == 0.0
    assert np.linalg.norm(ybar - xbar) == 0.0


def test_push_diging_n1_is_gradient_descent():
    suite = QuadraticSuite(H=np.array([[[2.0]]]), b=np.array([[1.0]]), L=2.0, mu=2.0)
    xs = []
    push_diging_run(
        np.array([[5.0]]), np.array([1.0]), MIX1, suite, 0.1, 50,
        lambda s: xs.append(s.X.copy()),
    )
    x = 5.0
    for k in range(1, 51):
        x = x - 0.1 * (2.0 * x - 1.0)
        assert abs(xs[k][0, 0] - x) <= 1e-13


def test_tracking_identity_every_step(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    worst = []
    def mon(s):
        gbar = s.grad_U.mean(0)
        worst.append(np.linalg.norm(s.G.mean(0) - gbar) / (1 + np.linalg.norm(gbar)))
    push_diging_run(X0, v0, small_mixing, small_suite, 0.3 / small_suite.L, 300, mon)
    assert max(worst) <= 1e-10


def test_subgradient_push_constant_objective_reaches_consensus(small_mixing):
    n = small_mixing.n
    flat = QuadraticSuite(
        H=np.zeros((n, 3, 3)), b=np.zeros((n, 3)), L=0.0, mu=0.0
    )
    rng = np.random.default_rng(2)
    X0 = rng.standard_normal((n, 3))
    v0 = rng.uniform(0.5, 1.5, n)
    v0 *= n / v0.sum()
    out, _ = subgradient_push_run(X0, v0, small_mixing, flat, 0.18, 300)
    expected = X0.mean(axis=0)  # total mass of v0 is n, so the ratio limit
    assert np.abs(out - expected).max() <= 1e-10


def test_apdsc_tail_decays_geometrically(small_mixing, small_init):
    from pushopt import TraceRecorder, make_quadratic_suite

    X0, v0 = small_init
    suite = make_quadratic_suite(10, 5, 100.0, 0.01, 3)
    xstar, _ = suite.minimizer()
    params = default_params_sc(suite.L, suite.mu, K=900)
    rec = TraceRecorder(suite, small_mixing, xstar=xstar, label="apdsc")
    _, tr = apdsc_run(X0, v0, small_mixing, suite, params, rec)
    assert tr.loss.min() <= 1e-12
    # momentum makes single samples oscillate; the 100-iteration envelope
    # must decay at every sampled point
    blocks = [tr.loss[i : i + 100].max() for i in range(0, 900, 100)]
    assert all(b < a for a, b in zip(blocks, blocks[1:]))


def test_apdsc_scalar_monotone_tail_with_saturating_beta():
    # beta chosen as mu*alpha*eta/2, the strongly-convex saturation point
    suite = QuadraticSuite(H=np.ones((1, 1, 1)), b=np.array([[0.4]]), L=1.0, mu=1.0)
    eta = 0.3
    tau = np.sqrt(1.0 * eta / 24.0)
    alpha = 1.0 / (12.0 * tau)
    beta = 0.5 * 1.0 * alpha * eta
    params = APDSCParams(eta=eta, alpha=alpha, beta=min(beta, tau), tau=tau, K=400)
    losses = []
    fstar = -0.5 * 0.4**2
    mon = lambda s: losses.append(0.5 * s.Y[0, 0] ** 2 - 0.4 * s.Y[0, 0] - fstar)
    apdsc_run(np.array([[2.0]]), np.array([1.0]), MIX1, suite, params, mon)
    tail = losses[150:]
    assert all(b < a for a, b in zip(tail, tail[1:]) if a > 1e-15)


def test_push_diging_linear_decay_strongly_convex(small_mixing, small_init):
    from pushopt import TraceRecorder, make_quadratic_suite

    X0, v0 = small_init
    suite = make_quadratic_suite(10, 5, 10.0, 0.1, 3)
    xstar, _ = suite.minimizer()
    rec = TraceRecorder(suite, small_mixing, xstar=xstar, label="pd")
    _, tr = push_diging_run(X0, v0, small_mixing, suite, 0.5 / suite.L, 800, rec)
    assert tr.loss.min() <= 1e-10


def test_centralized_agm_hand_values():
    agm = centralized_agm_run(np.array([1.0]), SCALAR, eta=1.0, K=1)
    assert agm.y[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert agm.z[1, 0] == pytest.approx(0.75, abs=1e-15)
    assert agm.x[1, 0] == pytest.approx(0.6, abs=1e-15)


def test_divergence_raises_with_iteration():
    suite = QuadraticSuite(H=np.ones((1, 1, 1)) * 4.0, b=np.zeros((1, 1)), L=4.0, mu=4.0)
    params = APDParams(eta=200.0, K=2000)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            apd_run(np.array([[1.0]]), np.array([1.0]), MIX1, suite, params)
    assert err.value.iteration >= 1


def test_K_zero_returns_initial_ratio(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    params = APDParams(eta=0.1, K=0)
    out, _ = apd_run(X0, v0, small_mixing, small_suite, params)
    assert np.allclose(out, X0 / v0[:, None])


def test_v0_validation(small_mixing, small_suite):
    X0 = np.zeros((small_mixing.n, 5))
    bad_sign = -np.ones(small_mixing.n)
    with pytest.raises(ValueError):
        apd_run(X0, bad_sign, small_mixing, small_suite, APDParams(eta=0.1, K=1))
    bad_sum = np.full(small_mixing.n, 2.0)
    with pytest.raises(ValueError):
        apd_run(X0, bad_sum, small_mixing, small_suite, APDParams(eta=0.1, K=1))


def test_determinism_bitwise(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    params = default_params_sc(small_suite.L, small_suite.mu, K=50)
    loss = []
    for _ in range(2):
        states = []
        apdsc_run(X0, v0, small_mixing, small_suite, params, states.append)
        loss.append(np.array([s.X.sum() for s in states]))
    assert np.array_equal(loss[0], loss[1])


def test_one_gradient_batch_per_step(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    counting = CountingSuite(small_suite)
    params = APDParams(eta=0.01, K=25)
    apd_run(X0, v0, small_mixing, counting, params)
    assert counting.batch_calls == 26  # one at init, one per step


def test_vhat_tracks_weight_floor(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    final = []
    apd_run(X0, v0, small_mixing, small_suite, APDParams(eta=0.01, K=120), final.append)
    vhat = max(1.0 / s.v.min() for s in final)
    assert final[-1].vhat_seen == pytest.approx(vhat)


def test_default_params_smooth_practical():
    p = default_params_smooth(1.0)
    assert (p.eta, p.pa, p.wb, p.wa) == (0.3, 0.25, 1.0, 0.25)


def test_default_params_smooth_theoretical_formula():
    ti = TheoryInputs(n=4, delta=0.999, theta=1.0, vhat=1.0, v0_dist=0.0)
    p = default_params_smooth(2.0, mode="theoretical", theory=ti)
    # independent evaluation of the surviving ceilings
    pa, wb, wa, L, d = 0.25, 1.0, 0.25, 2.0, 0.999
    c3 = 3 * (d**2 + 2 * pa**2 * d + 4 * pa**2)
    expected = min(
        np.sqrt(pa) * d**4 / (np.sqrt(96 * (15 + 9 * pa) * c3 * C4) * L),
        1 / (8 * pa * L),
        d**4 / (12 * np.sqrt(c3 * C4 * (6 + pa)) * L),
        np.sqrt(wb) * d**4 / (12 * np.sqrt(3 * wa * c3 * C4) * L),
        d**4 / (12 * np.sqrt(c3 * C4) * L),
    )
    assert p.eta == pytest.approx(expected, rel=1e-12)
    assert p.eta > 0


def test_default_params_smooth_requires_theory_inputs():
    with pytest.raises(ValueError):
        default_params_smooth(1.0, mode="theoretical")


def test_hand_tuned_parameter_sets_accepted():
    APDParams(eta=0.012, pa=0.92, wa=0.006, wb=1.0, K=3000)
    APDSCParams(eta=0.0125, alpha=6.0, beta=0.1, tau=0.1, K=3000)


def test_default_params_sc_closed_form():
    p = default_params_sc(1.0, 1.0, c_prac=1 / 24, delta=0.99)
    assert p.tau == pytest.approx(1 / 24)
    assert p.alpha == pytest.approx(2.0)
    assert p.beta == pytest.approx(1 / 24)
    assert p.alpha * p.tau == pytest.approx(1 / 12, abs=1e-12)


def test_default_params_sc_caps_bind():
    p = default_params_sc(1.0, 1.0, c_prac=1 / 24, delta=0.1)
    assert p.beta == pytest.approx(0.1 / 16)


def test_theoretical_sc_runs_stably(small_mixing, small_suite, small_init):
    X0, v0 = small_init
    nt = build_contraction_norm(small_mixing.C, small_mixing.p)
    ti = calibrate_theory_inputs(small_mixing, nt, v0)
    assert ti.vhat >= 1.0
    params = default_params_sc(small_suite.L, small_suite.mu, mode="theoretical", theory=ti, K=50)
    assert params.eta > 0
    mon = IdentityMonitor(small_mixing, params)
    apdsc_run(X0, v0, small_mixing, small_suite, params, mon)
    assert mon.max_mass_err <= 1e-10
    params_s = default_params_smooth(small_suite.L, mode="theoretical", theory=ti, K=50)
    assert params_s.eta > 0
    apd_run(X0, v0, small_mixing, small_suite, params_s)


def test_param_validation():
    with pytest.raises(ValueError):
        APDParams(eta=-1.0)
    with pytest.raises(ValueError):
        APDParams(eta=0.1, pa=1.5)
    with pytest.raises(ValueError):
        APDSCParams(eta=0.1, alpha=1.0, beta=0.5, tau=0.2)
    with pytest.raises(ValueError):
        default_params_sc(1.0, 2.0)  # mu > L
    with pytest.raises(ValueError, match="eta"):
        PushDIGingParams(eta=0.0)
    with pytest.raises(ValueError, match="step_c"):
        SubgradPushParams(step_c=-1.0)
    with pytest.raises(ValueError, match="K"):
        PushDIGingParams(eta=0.1, K=-1)


@pytest.mark.parametrize("run", [push_diging_run, subgradient_push_run])
def test_baselines_report_x_as_their_y(small_mixing, small_suite, small_init, run):
    """A baseline's Y is its X from k = 1 on (an equal copy at k = 0), so the
    V^{-1} Y that every run returns is the baseline's V^{-1} X."""
    X0, v0 = small_init
    states = []
    out, _ = run(X0, v0, small_mixing, small_suite, 0.3 / small_suite.L, 20, states.append)
    assert np.array_equal(states[0].Y, states[0].X) and states[0].Y is not states[0].X
    assert all(s.Y is s.X for s in states[1:])
    assert np.array_equal(out, states[-1].X / states[-1].v[:, None])


@pytest.mark.parametrize("params", [SubgradPushParams(step_c=0.18), None])
def test_identity_monitor_rejects_params_without_identities(small_mixing, params):
    with pytest.raises(ValueError, match=type(params).__name__):
        IdentityMonitor(small_mixing, params)


@pytest.fixture(scope="module")
def sparse_problem():
    """n = 160 ring plus 480 links: large and sparse enough for the CSR form."""
    n = 160
    mixing = uniform_out_weights(build_cycle_plus_random(n, 480, 1))
    assert mixing.op.format == "csr"
    # The same matrix with the dense product, as the reference.
    dense = MixingMatrix(C=mixing.C, p=mixing.p, sigma=mixing.sigma)
    vars(dense)["op"] = dense.C
    suite = make_quadratic_suite(n, 5, 100.0, 0.01, 3)
    X0 = np.random.default_rng(11).standard_normal((n, 5))
    return mixing, dense, suite, X0, np.ones(n)


def _sparse_runs(suite, X0, v0, K=60):
    """name -> (run(mixing, hooks), IdentityMonitor params or None) on one problem."""
    pa = default_params_smooth(suite.L, K=K)
    ps = default_params_sc(suite.L, suite.mu, K=K)
    eta = 0.3 / suite.L
    return {
        "apd": (lambda m, h: apd_run(X0, v0, m, suite, pa, h), pa),
        "apdsc": (lambda m, h: apdsc_run(X0, v0, m, suite, ps, h), ps),
        "pushdiging": (
            lambda m, h: push_diging_run(X0, v0, m, suite, eta, K, h),
            PushDIGingParams(eta, K),
        ),
        "subgradpush": (
            lambda m, h: subgradient_push_run(X0, v0, m, suite, 0.18, K, h),
            None,
        ),
    }


@pytest.mark.parametrize("name", ["apd", "apdsc", "pushdiging", "subgradpush"])
def test_csr_mixing_matches_dense_and_keeps_identities(sparse_problem, name):
    mixing, dense, suite, X0, v0 = sparse_problem
    run, params = _sparse_runs(suite, X0, v0)[name]
    states, again, ref = [], [], []
    run(mixing, states.append)
    run(mixing, again.append)
    run(dense, ref.append)
    assert len(states) == len(ref) == 61
    for s, t, r in zip(states, again, ref):
        for field in "XYZGv":
            a, b, c = getattr(s, field), getattr(t, field), getattr(r, field)
            assert np.array_equal(a, b)
            assert np.abs(a - c).max() <= 1e-12 * np.abs(c).max()
    if params is None:
        return
    mon = IdentityMonitor(mixing, params)
    run(mixing, mon)
    worst = mon.worst()
    for key in ("mass", "tracking", "ybar", "zbar", "xbar", "coupling"):
        assert worst[key] <= 1e-10, (key, worst[key])
