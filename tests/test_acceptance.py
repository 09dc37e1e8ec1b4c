"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
All tolerances and runtime budgets are asserted, not just printed.
"""

import dataclasses
import time

import numpy as np
import pytest

from pushopt import (
    APDParams,
    IdentityMonitor,
    PushDIGingParams,
    QuadraticSuite,
    SubgradPushParams,
    TraceRecorder,
    build_contraction_norm,
    build_cycle_plus_random,
    default_params_sc,
    default_params_smooth,
    fit_sublinear_rate,
    iterations_to_threshold,
    lyapunov,
    make_logistic_suite,
    make_quadratic_suite,
    reproduce_paper_experiment,
    run,
    synthetic_logistic_dataset,
    uniform_out_weights,
)
from pushopt.mixing import MixingMatrix

from reference import centralized_agm_run, check_inexact_bounds


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num:2d}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_reduction():
    t0 = time.perf_counter()
    suite = QuadraticSuite(H=np.array([[[0.8]]]), b=np.array([[0.2]]), L=0.8, mu=0.8)
    mix1 = MixingMatrix(np.array([[1.0]]), np.array([1.0]))
    params = APDParams(eta=1.0 / suite.L, K=500)
    states = []
    run(np.array([[1.0]]), np.array([1.0]), mix1, suite, params, states.append)
    x, y, z = centralized_agm_run(np.array([1.0]), suite, params)
    dev = max(
        max(
            abs(s.X[0, 0] - x[s.k, 0]),
            abs(s.Y[0, 0] - y[s.k, 0]),
            abs(s.Z[0, 0] - z[s.k, 0]),
        )
        for s in states
    )
    elapsed = time.perf_counter() - t0
    report(
        1,
        dev <= 1e-12 and elapsed < 1.0,
        f"max per-iterate deviation {dev:.2e} (<= 1e-12), runtime {elapsed:.2f}s (< 1s)",
    )


@pytest.fixture(scope="module")
def identity_battery():
    """Ten random configurations driven by all three tracking solvers."""
    t0 = time.perf_counter()
    data = synthetic_logistic_dataset(600, 4, 77)
    worst = {}
    for i in range(10):
        n = 5 if i % 2 == 0 else 20
        seed = 1000 + i
        graph = build_cycle_plus_random(n, 2 * n, seed)
        mixing = uniform_out_weights(graph)
        if i < 5:
            suite = make_quadratic_suite(n, 5, 100.0, 0.01, seed)
        else:
            suite = make_logistic_suite(data, n, 0.05, seed)
        rng = np.random.default_rng(seed)
        X0 = rng.standard_normal((n, suite.dim))
        v0 = np.ones(n)
        params_apd = default_params_smooth(suite.L, K=500)
        mon = IdentityMonitor(mixing, params_apd)
        run(X0, v0, mixing, suite, params_apd, mon)
        monitors = [mon]
        nt = build_contraction_norm(mixing.C, mixing.p)
        params_sc = default_params_sc(suite.L, suite.mu, K=500, delta=nt.delta)
        mon = IdentityMonitor(mixing, params_sc)
        run(X0, v0, mixing, suite, params_sc, mon)
        monitors.append(mon)
        mon = IdentityMonitor(mixing, PushDIGingParams(0.3 / suite.L, K=500))
        run(X0, v0, mixing, suite, PushDIGingParams(0.3 / suite.L, 500), mon)
        monitors.append(mon)
        for m in monitors:
            for key, val in m.worst().items():
                worst[key] = max(worst.get(key, 0.0), val)
    worst["elapsed"] = time.perf_counter() - t0
    return worst


def test_criterion_02_conservation_and_tracking(identity_battery):
    w = identity_battery
    ok = w["mass"] <= 1e-10 and w["tracking"] <= 1e-10 and w["elapsed"] < 30.0
    report(
        2,
        ok,
        f"worst mass error {w['mass']:.2e}, worst tracking residual "
        f"{w['tracking']:.2e} (<= 1e-10), battery runtime {w['elapsed']:.1f}s (< 30s)",
    )


def test_criterion_03_average_dynamics_identities(identity_battery):
    w = identity_battery
    residuals = {k: w[k] for k in ("ybar", "zbar", "xbar", "coupling")}
    ok = all(v <= 1e-10 for v in residuals.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in residuals.items())
    report(3, ok, f"scaled identity residuals {detail} (<= 1e-10)")


def test_criterion_04_sublinear_acceleration():
    t0 = time.perf_counter()
    graph = build_cycle_plus_random(10, 20, 5)
    mixing = uniform_out_weights(graph)
    suite = make_quadratic_suite(10, 5, 100.0, 0.01, 3)
    xstar, fstar = suite.minimizer()
    rng = np.random.default_rng(11)
    X0 = rng.standard_normal((10, 5))
    v0 = np.ones(10)
    K = 2000
    params = APDParams(eta=0.05 / suite.L, K=K)

    rec = TraceRecorder(suite, mixing, xstar=xstar, label="apd")
    _, tr_apd = run(X0, v0, mixing, suite, params, rec)
    slope_apd = fit_sublinear_rate(tr_apd, 100, K)

    rec = TraceRecorder(suite, mixing, xstar=xstar, label="pushdiging")
    _, tr_pd = run(X0, v0, mixing, suite, PushDIGingParams(params.eta, K), rec)
    try:
        slope_pd = fit_sublinear_rate(tr_pd, 100, K)
        pd_not_accelerated = slope_pd >= -1.4
        pd_note = f"pushdiging slope {slope_pd:.2f} (>= -1.4: {pd_not_accelerated})"
    except ValueError:
        slope_pd = None
        pd_not_accelerated = False
        pd_note = "pushdiging trace floored"

    rec = TraceRecorder(suite, mixing, xstar=xstar, label="subgradpush")
    _, tr_sp = run(X0, v0, mixing, suite, SubgradPushParams(0.18, 400), rec)
    gap_apd_300 = tr_apd.loss[np.searchsorted(tr_apd.k, 300)]
    gap_sp_300 = tr_sp.loss[np.searchsorted(tr_sp.k, 300)]
    ratio_ok = gap_apd_300 * 1e3 <= gap_sp_300

    elapsed = time.perf_counter() - t0
    ok = slope_apd <= -1.8 and (pd_not_accelerated or ratio_ok) and elapsed < 60.0
    report(
        4,
        ok,
        f"apd log-log slope {slope_apd:.2f} (<= -1.8); {pd_note}; "
        f"gap ratio at k=300: {gap_sp_300 / max(gap_apd_300, 1e-300):.1e} "
        f"(>= 1e3: {ratio_ok}); runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_linear_acceleration():
    t0 = time.perf_counter()
    graph = build_cycle_plus_random(10, 20, 5)
    mixing = uniform_out_weights(graph)
    nt = build_contraction_norm(mixing.C, mixing.p)
    rng = np.random.default_rng(11)
    X0 = rng.standard_normal((10, 5))
    v0 = np.ones(10)

    def iterations(kappa, mu_base, K):
        suite = make_quadratic_suite(10, 5, kappa, mu_base, 3)
        xstar, _ = suite.minimizer()
        params = default_params_sc(suite.L, suite.mu, K=K, delta=nt.delta)
        rec = TraceRecorder(suite, mixing, xstar=xstar, stride="auto", label="apdsc")
        _, tr = run(X0, v0, mixing, suite, params, rec)
        return iterations_to_threshold(tr, 1e-9), iterations_to_threshold(tr, 1e-12)

    it9_easy, it12_easy = iterations(1e2, 1e-2, 3000)
    it9_hard, it12_hard = iterations(1e4, 1e-4, 12000)
    reached = None not in (it9_easy, it12_easy, it9_hard, it12_hard)
    ratio = it9_hard / it9_easy if reached else float("inf")
    elapsed = time.perf_counter() - t0
    ok = reached and 5.0 <= ratio <= 20.0 and elapsed < 120.0
    report(
        5,
        ok,
        f"gap<=1e-12 reached at k={it12_easy} (kappa=1e2) and k={it12_hard} (kappa=1e4); "
        f"iterations-to-1e-9 ratio {ratio:.1f} (in [5, 20]); runtime {elapsed:.1f}s (< 120s)",
    )


@pytest.fixture(scope="module")
def five_graphs():
    out = []
    for seed in (101, 202, 303, 404, 505):
        graph = build_cycle_plus_random(20, 50, seed)
        mixing = uniform_out_weights(graph)
        nt_default = build_contraction_norm(mixing.C, mixing.p)
        # Small-delta transform: keeps the certified decay curve well above
        # the double-precision floor of v_k over the k <= 200 horizon.
        rho = nt_default.rho
        nt_decay = dataclasses.replace(nt_default, delta=1.0 - rho - 0.875 * (1.0 - rho))
        out.append((mixing, nt_decay, nt_default))
    return out


def test_criterion_06_push_sum_decay(five_graphs):
    t0 = time.perf_counter()
    worst = -np.inf
    for mixing, nt, _ in five_graphs:
        v = np.ones(20)
        d0 = nt.vec_norm(v - mixing.p)
        for k in range(1, 201):
            v = mixing.C @ v
            lhs = nt.vec_norm(v - mixing.p)
            rhs = (1.0 - nt.delta) ** k * d0
            worst = max(worst, lhs - rhs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 10.0
    report(
        6,
        ok,
        f"worst (measured - bound) over 5 graphs, k<=200: {worst:.2e} (<= 0); "
        f"runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_07_contraction_norm_construction(five_graphs):
    t0 = time.perf_counter()
    worst_contraction = -np.inf
    worst_equiv = -np.inf
    rng = np.random.default_rng(7)
    for mixing, nt_decay, nt_default in five_graphs:
        M = mixing.error_map()
        for nt in (nt_decay, nt_default):
            measured = np.linalg.norm(np.diag(nt.w) @ M @ np.diag(1 / nt.w), 2)
            worst_contraction = max(worst_contraction, measured - (1.0 - nt.delta))
            for _ in range(100):
                x = rng.standard_normal(20)
                a = np.linalg.norm(np.diag(nt.w) @ x)
                b = np.linalg.norm(x)
                worst_equiv = max(worst_equiv, a - b * (1 + 1e-10))
                worst_equiv = max(worst_equiv, b - nt.theta * a * (1 + 1e-10))
    elapsed = time.perf_counter() - t0
    ok = worst_contraction <= 1e-10 and worst_equiv <= 0.0 and elapsed < 10.0
    report(
        7,
        ok,
        f"worst induced-norm excess {worst_contraction:.2e} (<= 1e-10), worst "
        f"two-sided-equivalence violation {worst_equiv:.2e} (<= 0) on 100 vectors "
        f"per transform; runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_08_inexact_bound_spot_checks():
    graph = build_cycle_plus_random(10, 20, 5)
    mixing = uniform_out_weights(graph)
    suite = make_quadratic_suite(10, 5, 100.0, 0.01, 3)
    xstar, _ = suite.minimizer()
    rng = np.random.default_rng(11)
    X0 = rng.standard_normal((10, 5))
    v0 = np.ones(10)

    states_apd = []
    params = APDParams(eta=0.05 / suite.L, K=300)
    run(X0, v0, mixing, suite, params, states_apd.append)
    violations = 0
    min_slack = np.inf
    for idx in (0, 30, 75, 150, 300):  # 5 states x 20 trials = 100 pairs
        rep = check_inexact_bounds(suite, states_apd[idx], trials=20, seed=idx, xstar=xstar)
        violations += rep.violations
        min_slack = min(min_slack, rep.min_slack)

    states_sc = []
    nt = build_contraction_norm(mixing.C, mixing.p)
    params_sc = default_params_sc(suite.L, suite.mu, K=300, delta=nt.delta)
    run(X0, v0, mixing, suite, params_sc, states_sc.append)
    sc_slack = np.inf
    for idx in (0, 30, 75, 150, 300):
        rep = check_inexact_bounds(suite, states_sc[idx], trials=1, seed=idx, xstar=xstar)
        violations += rep.violations
        sc_slack = min(sc_slack, rep.sc_slack)

    ok = violations == 0
    report(
        8,
        ok,
        f"0 violations required, got {violations}; min convexity slack {min_slack:.2e}, "
        f"min strong-convexity slack {sc_slack:.2e} (tolerance -1e-8*scale)",
    )


def test_criterion_09_lyapunov_recursion():
    graph = build_cycle_plus_random(10, 20, 5)
    mixing = uniform_out_weights(graph)
    nt = build_contraction_norm(mixing.C, mixing.p)
    suite = make_quadratic_suite(10, 5, 100.0, 0.01, 3)
    rng = np.random.default_rng(11)
    X0 = rng.standard_normal((10, 5))
    v0 = np.ones(10)
    K = 400
    params = default_params_sc(suite.L, suite.mu, K=K, delta=nt.delta)
    at = params.alpha * params.tau
    assert abs(at - 1.0 / 12.0) <= 1e-12
    assert params.beta**2 * params.tau**2 <= 7 * nt.delta**4 / 384

    states = []
    run(X0, v0, mixing, suite, params, states.append)
    d = nt.delta
    c5 = (8.0 / 7.0) * (1.5 * d + 6.0 * at**2 * d + 48.0 * at**2 / 7.0)
    worst = np.inf
    for k in range(K - 1):  # boundary iteration K-1 excluded
        phi4_k = lyapunov(states[k], k, params, nt)[1]
        phi4_k1 = lyapunov(states[k + 1], k + 1, params, nt)[1]
        force = float(np.linalg.norm(states[k + 1].grad_U - states[k].grad_U) ** 2)
        rhs = (1.0 - d / 8.0) * phi4_k + (c5 * params.eta**2 / d**5) * force
        worst = min(worst, (rhs - phi4_k1) / (1.0 + abs(rhs) + abs(phi4_k1)))
    ok = worst >= -1e-8
    report(
        9,
        ok,
        f"worst scaled one-step slack {worst:.2e} (>= -1e-8) over k < K-1",
    )


def test_criterion_10_qualitative_reproduction(tmp_path):
    t0 = time.perf_counter()
    results = {}
    for case in ("nonstrongly", "strongly"):
        summary, traces = reproduce_paper_experiment(
            None, case, tmp_path / case, iters=3000
        )
        results[case] = (summary, traces)

    checks = []
    for case, (summary, traces) in results.items():
        accel = "apd" if case == "nonstrongly" else "apdsc"
        fstar = summary["resolved"]["fstar"]
        tie = 1e-15 * (1.0 + abs(fstar))  # both methods sit at the fp floor
        acc_final = summary["algorithms"][accel]["final_gap"]
        pd_final = summary["algorithms"]["pushdiging"]["final_gap"]
        sp_final = summary["algorithms"]["subgradpush"]["final_gap"]
        checks.append((f"{case}: {accel} final <= pushdiging final", acc_final <= pd_final + tie))
        checks.append((f"{case}: subgradpush final > 1e-6", sp_final > 1e-6))
        if case == "strongly":
            k12 = iterations_to_threshold(traces[accel], 1e-12)
            checks.append(("strongly: apdsc reaches 1e-12 within 2000", k12 is not None and k12 <= 2000))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 300s", elapsed < 300.0))
    failed = [name for name, ok in checks if not ok]
    report(
        10,
        not failed,
        f"{len(checks) - len(failed)}/{len(checks)} sub-checks passed"
        + (f"; failed: {failed}" if failed else "")
        + f"; runtime {elapsed:.0f}s (< 300s)",
    )
