import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pushopt import (
    ConfigError,
    DivergenceError,
    ExperimentConfig,
    IdentityMonitor,
    RunTrace,
    TraceRecorder,
    build_contraction_norm,
    build_cycle_plus_random,
    calibrate_theory_inputs,
    emit_csv,
    emit_svg_plot,
    make_quadratic_suite,
    read_trace_csv,
    reproduce_paper_experiment,
    run_experiment,
    save_edge_list,
    synthetic_logistic_dataset,
    uniform_out_weights,
    write_labeled_csv,
)
from pushopt.cli import main
from pushopt.diagnostics import _LYAPUNOV, TRACE_COLUMNS
from pushopt.experiments import ALGORITHMS

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}


def base_config(out_dir, iterations=80):
    return {
        "graph": {"n": 8, "extra_edges": 10, "seed": 4},
        "objective": {
            "kind": "quadratic", "dim": 3, "kappa": 10.0, "mu_base": 0.1, "seed": 2,
        },
        "init": {"x0_seed": 11},
        "run": {"iterations": iterations, "out_dir": str(out_dir)},
        "algorithms": [
            {"name": "apd", "params": "auto"},
            {"name": "pushdiging", "params": "auto"},
            {"name": "subgradpush", "params": {"step_c": 0.18}},
        ],
    }


def test_config_validation(tmp_path):
    cfg = base_config(tmp_path)
    cfg["algorithms"] = []
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg, tmp_path)
    cfg = base_config(tmp_path)
    cfg["run"]["iterations"] = 0
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg, tmp_path)
    cfg = base_config(tmp_path)
    cfg["algorithms"][0]["name"] = "mystery"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg, tmp_path)
    cfg = base_config(tmp_path)
    cfg["objective"] = {"kind": "logistic", "data": "nope.csv", "mu": 0.1}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg, tmp_path)


@pytest.mark.parametrize(
    "key,value",
    [
        ("iterations", 2.7),
        ("iterations", True),
        ("iterations", "abc"),
        ("record_stride", True),
        ("graph.n", 8.9),
        ("graph.extra_edges", True),
        ("graph.seed", -1),
        ("objective.dim", 3.5),
        ("objective.seed", "2"),
        ("objective.partition_seed", 1.0),
        ("init.x0_seed", True),
        ("objective.kappa", True),
        ("objective.kappa", "100"),
        ("objective.mu_base", False),
        ("objective.mu_base", "0.1"),
        ("objective.kappa", float("nan")),
        pytest.param("objective.kappa", 10**400, id="objective.kappa-huge"),
    ],
)
def test_config_rejects_non_integer_counts(tmp_path, capsys, key, value):
    cfg = base_config(tmp_path / "o")
    section, _, field = key.rpartition(".")
    cfg[section or "run"][field] = value
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(cfg, tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


LOGISTIC = {"kind": "logistic", "data": "d.csv", "partition_seed": 3}


@pytest.mark.parametrize(
    "patch,words",
    [
        ({"algorithms": [{"name": "apd", "params": {"eta": 0.1, "pA": 0.5}}]}, ("apd", "pA")),
        ({"algorithms": [{"name": "apd", "params": {"pa": 0.5}}]}, ("apd", "eta")),
        ({"algorithms": [{"name": "apdsc", "params": {"eta": 0.01, "alpha": 6.0}}]},
         ("apdsc", "beta")),
        ({"algorithms": [{"name": "subgradpush", "params": {"eta": 0.1}}]},
         ("subgradpush", "eta")),
        ({"algorithms": [{"name": "pushdiging", "params": {}}]}, ("pushdiging", "eta")),
        ({"algorithms": [{"name": "apd", "params": {"eta": True}}]}, ("apd", "eta")),
        ({"algorithms": [{"name": "pushdiging", "params": {"eta": "0.01"}}]},
         ("pushdiging", "eta")),
        ({"algorithms": [{"name": "apd", "params": {"eta": float("inf")}}]}, ("apd", "eta")),
        ({"algorithms": [{"name": "apd", "params": "fast"}]}, ("apd", "fast")),
        ({"algorithms": [{"name": "subgradpush", "params": ["step_c", 0.1]}]},
         ("subgradpush", "step_c")),
        ({"algorithms": [{"name": "pushdiging", "params": {"eta": -0.5}}]},
         ("pushdiging", "eta")),
        ({"algorithms": [{"name": "pushdiging", "params": {"eta": 0}}]}, ("pushdiging", "eta")),
        ({"algorithms": [{"name": "subgradpush", "params": {"step_c": -1}}]},
         ("subgradpush", "step_c")),
        ({"objective": {**LOGISTIC, "mu": True}}, ("objective.mu",)),
        ({"objective": {**LOGISTIC, "mu": "0.05"}}, ("objective.mu",)),
    ],
    ids=[
        "unknown-key", "missing-key", "missing-apdsc-key", "other-algorithms-key",
        "empty-table", "bool-value", "string-value", "infinite-value", "string-params",
        "list-params", "negative-eta", "zero-eta", "negative-step_c", "bool-mu", "string-mu",
    ],
)
def test_config_rejects_malformed_params_and_mu(tmp_path, capsys, patch, words):
    write_labeled_csv(synthetic_logistic_dataset(120, 4, 5), tmp_path / "d.csv")
    cfg = {**base_config(tmp_path / "o"), **patch}
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig.from_dict(cfg, tmp_path)
    for word in words:
        assert word in str(excinfo.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert all(word in err for word in words)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_params_type_keys_the_diagnostics(name):
    """An algorithm's defaults are its params_type, and that type alone picks
    the recorder's Lyapunov columns and the identity monitor's identities."""
    spec = ALGORITHMS[name]
    mixing = uniform_out_weights(build_cycle_plus_random(8, 10, 4))
    nt = build_contraction_norm(mixing.C, mixing.p)
    suite = make_quadratic_suite(8, 3, 10.0, 0.1, 2)
    X0, v0 = np.random.default_rng(1).standard_normal((8, 3)), np.ones(8)
    params = spec.defaults(suite, nt, 20)
    assert type(params) is spec.params_type
    if spec.theoretical:
        theory = calibrate_theory_inputs(mixing, nt, v0)
        theoretical = spec.defaults(suite, nt, 20, mode="theoretical", theory=theory)
        assert type(theoretical) is spec.params_type
    rec = TraceRecorder(suite, mixing, params=params, norm_transform=nt)
    _, trace = spec.run(X0, v0, mixing, suite, params, rec)
    phis = {c for c in ("phi1", "phi2", "phi3", "phi4") if trace.column(c) is not None}
    pair = _LYAPUNOV.get(type(params))
    assert phis == (set(pair[:2]) if pair else set())
    if name == "subgradpush":
        with pytest.raises(ValueError, match="SubgradPushParams"):
            IdentityMonitor(mixing, params)
        return
    mon = IdentityMonitor(mixing, params)
    spec.run(X0, v0, mixing, suite, params, mon)
    assert max(mon.worst().values()) <= 1e-10


def test_run_experiment_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(tmp_path / "out"), tmp_path)
    summary, traces = run_experiment(cfg)
    out = tmp_path / "out"
    assert (out / "summary.json").exists()
    for name in ("apd", "pushdiging", "subgradpush"):
        assert (out / f"trace_{name}.csv").exists()
        assert name in summary["algorithms"]
    # thresholds recomputable from the emitted trace
    loaded = json.loads((out / "summary.json").read_text())
    tr = read_trace_csv(out / "trace_apd.csv")
    for label, expect in loaded["algorithms"]["apd"]["iterations_to"].items():
        thr = float(label)
        hits = np.nonzero(tr.loss <= thr)[0]
        got = int(tr.k[hits[0]]) if hits.size else None
        assert got == expect
    assert loaded["resolved"]["fstar"] == pytest.approx(summary["resolved"]["fstar"])


def test_run_experiment_k1_records_both_iterations(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(tmp_path / "o", iterations=1), tmp_path)
    _, traces = run_experiment(cfg)
    for tr in traces.values():
        assert list(tr.k) == [0, 1]


def test_run_experiment_deterministic(tmp_path):
    cfg1 = ExperimentConfig.from_dict(base_config(tmp_path / "a"), tmp_path)
    run_experiment(cfg1)
    cfg2 = ExperimentConfig.from_dict(base_config(tmp_path / "b"), tmp_path)
    run_experiment(cfg2)
    for name in ("summary.json", "trace_apd.csv", "trace_pushdiging.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_experiment_cleanup_on_failure(tmp_path):
    cfg_dict = base_config(tmp_path / "fail")
    # the tracking run diverges after the accelerated trace is already written
    cfg_dict["algorithms"] = [
        {"name": "apd", "params": "auto"},
        {"name": "pushdiging", "params": {"eta": 1e6}},
    ]
    cfg = ExperimentConfig.from_dict(cfg_dict, tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            run_experiment(cfg)
    leftovers = list((tmp_path / "fail").glob("*")) if (tmp_path / "fail").exists() else []
    assert leftovers == []


def test_config_rejects_duplicate_algorithms(tmp_path):
    cfg = base_config(tmp_path)
    cfg["algorithms"].append({"name": "apd", "params": "auto"})
    with pytest.raises(ConfigError, match="unique"):
        ExperimentConfig.from_dict(cfg, tmp_path)


def test_shared_initialization_fairness(tmp_path):
    # identical first recorded consensus error means identical X0 across algorithms
    cfg = ExperimentConfig.from_dict(base_config(tmp_path / "o2"), tmp_path)
    _, traces = run_experiment(cfg)
    first = {name: tr.consensus_error[0] for name, tr in traces.items()}
    assert len(set(first.values())) == 1


def test_edge_list_config_round_trip(tmp_path):
    g = build_cycle_plus_random(6, 6, 42)
    save_edge_list(g, tmp_path / "graph.txt")
    cfg_dict = base_config(tmp_path / "o3")
    cfg_dict["graph"] = {"edge_list": "graph.txt"}
    cfg_dict["objective"]["dim"] = 2
    cfg = ExperimentConfig.from_dict(cfg_dict, tmp_path)
    summary, _ = run_experiment(cfg)
    assert summary["resolved"]["n"] == 6
    assert summary["resolved"]["edge_count"] == len(g.edges)


def test_logistic_config(tmp_path):
    data = synthetic_logistic_dataset(120, 4, 5)
    write_labeled_csv(data, tmp_path / "d.csv")
    cfg_dict = base_config(tmp_path / "o4", iterations=40)
    cfg_dict["objective"] = {
        "kind": "logistic", "data": "d.csv", "mu": 0.05,
        "partition_seed": 3, "standardize": True,
    }
    cfg_dict["algorithms"] = [{"name": "apdsc", "params": "auto"}]
    cfg = ExperimentConfig.from_dict(cfg_dict, tmp_path)
    summary, _ = run_experiment(cfg)
    assert summary["experiment"]["standardize"] is True
    assert summary["algorithms"]["apdsc"]["params"]["tau"] > 0


def empty_trace():
    z = np.array([])
    return RunTrace(
        label="x", k=np.array([], dtype=int), loss=z, consensus_error=z,
        projection_error=z, grad_avg_norm=z, v_min=z,
    )


def test_emit_csv_header_only_for_empty_trace(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(empty_trace(), path)
    lines = path.read_text().splitlines()
    assert lines == [
        "k,loss,consensus_error,projection_error,grad_avg_norm,phi1,phi2,phi3,phi4,v_min"
    ]


def test_emit_csv_first_record_format(tmp_path):
    one = np.array([1.0])
    tr = RunTrace(
        label="x", k=np.array([0]), loss=one, consensus_error=one * 0.5,
        projection_error=one * 0.25, grad_avg_norm=one, v_min=one,
    )
    path = tmp_path / "t.csv"
    emit_csv(tr, path)
    second = path.read_text().splitlines()[1]
    assert second.startswith("0,1,")
    # absent Lyapunov columns are written as empty fields
    assert ",,,," in second


def test_csv_round_trip_bit_exact(tmp_path, small_mixing, small_norm, small_suite, small_init):
    from pushopt import TraceRecorder, apd_run, default_params_smooth

    X0, v0 = small_init
    xstar, fstar = small_suite.minimizer()
    params = default_params_smooth(small_suite.L, K=30)
    rec = TraceRecorder(
        small_suite, small_mixing, xstar=xstar, params=params,
        norm_transform=small_norm, label="apd",
    )
    _, tr = apd_run(X0, v0, small_mixing, small_suite, params, rec)
    path = tmp_path / "t.csv"
    emit_csv(tr, path)
    back = read_trace_csv(path)
    assert np.array_equal(back.k, tr.k)
    for col in ("loss", "consensus_error", "projection_error", "grad_avg_norm", "v_min"):
        assert np.array_equal(getattr(back, col), getattr(tr, col)), col
    assert tr.phi1 is not None and np.array_equal(back.phi1, tr.phi1)
    assert np.array_equal(back.phi2, tr.phi2)
    assert back.phi3 is None and back.phi4 is None


def test_svg_single_polyline(tmp_path):
    k = np.arange(1, 50)
    tr = RunTrace(
        label="only", k=k, loss=1.0 / k**2, consensus_error=k * 0.0,
        projection_error=k * 0.0, grad_avg_norm=k * 0.0, v_min=k * 0.0 + 1,
    )
    path = tmp_path / "p.svg"
    emit_svg_plot([tr], path, axes="loglog")
    tree = ET.parse(path)
    assert len(tree.findall(".//svg:polyline", SVG_NS)) == 1


def test_svg_decade_ticks_and_legend_order(tmp_path):
    k = np.arange(0, 200)
    losses = [np.maximum(1e-14, np.exp(-0.17 * k)), 1.0 / (k + 1.0), np.full_like(k, 0.5, dtype=float)]
    traces = []
    for i, loss in enumerate(losses):
        traces.append(
            RunTrace(
                label=f"alg{i}", k=k, loss=loss, consensus_error=k * 0.0,
                projection_error=k * 0.0, grad_avg_norm=k * 0.0, v_min=k * 0.0 + 1,
            )
        )
    path = tmp_path / "p.svg"
    emit_svg_plot(traces, path, axes="semilogy")
    tree = ET.parse(path)
    texts = [t.text for t in tree.findall(".//svg:text", SVG_NS)]
    for decade in range(-14, 1):
        assert f"1e{decade}" in texts
    labels = [t for t in texts if t and t.startswith("alg")]
    assert labels == ["alg0", "alg1", "alg2"]
    assert len(tree.findall(".//svg:polyline", SVG_NS)) == 3


def test_svg_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_svg_plot([empty_trace()], tmp_path / "p.svg")
    with pytest.raises(ValueError):
        emit_svg_plot([], tmp_path / "p.svg")


def test_reproduce_smoke(tmp_path):
    summary, traces = reproduce_paper_experiment(None, "strongly", tmp_path / "rep", iters=25)
    assert set(traces) == {"apdsc", "pushdiging", "subgradpush"}
    assert (tmp_path / "rep" / "comparison.svg").exists()
    assert (tmp_path / "rep" / "summary.json").exists()
    assert summary["experiment"]["data"] == "synthetic"
    assert summary["algorithms"]["apdsc"]["params"]["eta"] == pytest.approx(0.0125)
    with pytest.raises(ConfigError):
        reproduce_paper_experiment(None, "sideways", tmp_path / "rep2")


@pytest.mark.parametrize("case", ["nonstrongly", "strongly"])
def test_reproduce_matches_committed_demo_outputs(tmp_path, case):
    # demos/out/benchmark_<case> comes from `python demos/logistic_benchmark.py 400`
    # on the synthetic data (no data/banknote.csv).
    ref = Path(__file__).resolve().parents[1] / "demos" / "out" / f"benchmark_{case}"
    reproduce_paper_experiment(None, case, tmp_path, iters=400)
    want = json.loads((ref / "summary.json").read_text())
    got = json.loads((tmp_path / "summary.json").read_text())
    for flag in ("accelerated", "accelerated_no_worse"):
        assert got["comparison"][flag] == want["comparison"][flag]
    assert list(got["algorithms"]) == list(want["algorithms"])
    for name, expect in want["algorithms"].items():
        info = got["algorithms"][name]
        assert info["params"] == expect["params"]
        assert info["iterations_to"] == expect["iterations_to"]
        assert info["final_gap"] == pytest.approx(expect["final_gap"], rel=1e-9, abs=0)
        old = read_trace_csv(ref / f"trace_{name}.csv")
        new = read_trace_csv(tmp_path / f"trace_{name}.csv")
        assert np.array_equal(new.k, old.k)
        for col in TRACE_COLUMNS[1:]:
            if old.column(col) is None:
                assert new.column(col) is None, col
            else:
                np.testing.assert_allclose(
                    new.column(col), old.column(col), rtol=1e-9, atol=0, equal_nan=True,
                    err_msg=f"{name} {col}",
                )


def test_reproduce_subsamples_large_dataset(tmp_path):
    data = synthetic_logistic_dataset(1100, 4, 9)
    write_labeled_csv(data, tmp_path / "big.csv")
    summary, _ = reproduce_paper_experiment(tmp_path / "big.csv", "strongly", tmp_path / "rep3", iters=5)
    assert summary["experiment"]["examples_per_agent"] == 50
    small = synthetic_logistic_dataset(500, 4, 9)
    write_labeled_csv(small, tmp_path / "small.csv")
    with pytest.raises(ConfigError):
        reproduce_paper_experiment(tmp_path / "small.csv", "strongly", tmp_path / "rep4")


def test_cli_run_and_plot(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(tmp_path / "cli_out", iterations=40)))
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "final gap" in out
    svg = tmp_path / "cli.svg"
    rc = main([
        "plot", "--in", str(tmp_path / "cli_out" / "trace_apd.csv"),
        str(tmp_path / "cli_out" / "trace_pushdiging.csv"),
        "--out", str(svg), "--axes", "loglog",
    ])
    assert rc == 0 and svg.exists()


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(tmp_path / "s1", iterations=10)))
    assert main(["run", "--config", str(cfg_path), "--seed", "77", "--out", str(tmp_path / "s2")]) == 0
    a = json.loads((tmp_path / "s2" / "summary.json").read_text())
    assert a["experiment"]["x0_seed"] == 77


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    cfg = base_config(tmp_path / "x")
    cfg["algorithms"][0]["name"] = "mystery"
    bad.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(bad)]) == 1
    div = tmp_path / "div.json"
    cfg = base_config(tmp_path / "y", iterations=500)
    cfg["algorithms"] = [{"name": "pushdiging", "params": {"eta": 1e7}}]
    div.write_text(json.dumps(cfg))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(div)]) == 2
    capsys.readouterr()
