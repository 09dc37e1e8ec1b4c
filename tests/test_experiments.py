import json
import os
import re
import runpy
import signal
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pushopt import (
    ConfigError,
    DivergenceError,
    ExperimentConfig,
    IdentityMonitor,
    LabeledDataset,
    RunTrace,
    TraceRecorder,
    build_contraction_norm,
    build_cycle_plus_random,
    build_problem,
    calibrate_theory_inputs,
    emit_csv,
    emit_svg_plot,
    make_quadratic_suite,
    read_trace_csv,
    reproduce_paper_experiment,
    run,
    run_experiment,
    save_edge_list,
    synthetic_logistic_dataset,
    uniform_out_weights,
    write_labeled_csv,
)
from pushopt import experiments
from pushopt.cli import EXIT_CONFIG, main
from pushopt.diagnostics import TRACE_COLUMNS
from pushopt.experiments import ALGORITHMS
from pushopt.graphs import DirectedGraph

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}


LOGISTIC = {"kind": "logistic", "data": "d.csv", "partition_seed": 3}


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
        ("run.iterations", 2.7),
        ("run.iterations", True),
        ("run.iterations", "abc"),
        ("run.record_stride", True),
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
    if key == "objective.partition_seed":  # a key of the logistic objective only
        write_labeled_csv(synthetic_logistic_dataset(120, 4, 5), tmp_path / "d.csv")
        cfg["objective"] = {**LOGISTIC, "mu": 0.05}
    section, field = key.split(".")
    cfg[section][field] = value
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        ExperimentConfig.from_dict(cfg, tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def _drop(table, key):
    return {k: v for k, v in table.items() if k != key}


@pytest.mark.parametrize(
    "key,patch",
    [
        ("objective.dim", lambda c: {"objective": _drop(c["objective"], "dim")}),
        ("objective.seed", lambda c: {"objective": _drop(c["objective"], "seed")}),
        ("objective.kind", lambda c: {"objective": _drop(c["objective"], "kind")}),
        ("objective.data", lambda c: {"objective": {**_drop(LOGISTIC, "data"), "mu": 0.1}}),
        ("objective.partition_sed", lambda c: {"objective": {**LOGISTIC, "mu": 0.1,
                                                            "partition_sed": 3}}),
        ("objective.partition_seed", lambda c: {"objective": {**c["objective"],
                                                             "partition_seed": 3}}),
        ("graph.seed", lambda c: {"graph": _drop(c["graph"], "seed")}),
        ("graph.n", lambda c: {"graph": {"edge_list": "hub.txt", "n": 8}}),
        ("run.itrations", lambda c: {"run": {**c["run"], "itrations": 9}}),
        ("init.x0seed", lambda c: {"init": {"x0seed": 1}}),
        ("algorithms[1].prams", lambda c: {"algorithms": [
            {"name": "apd"}, {"name": "pushdiging", "prams": {"eta": 0.1}}]}),
        ("algorithms[0].name", lambda c: {"algorithms": [{"params": "auto"}]}),
        ("algoritms", lambda c: {"algoritms": c["algorithms"]}),
    ],
)
def test_config_rejects_missing_and_undefined_keys(tmp_path, capsys, key, patch):
    """A required key that is missing, or a key its table does not define,
    is a ConfigError naming the dotted key, and `pushopt run` exits 1 with
    the key in stderr and writes nothing."""
    write_labeled_csv(synthetic_logistic_dataset(120, 4, 5), tmp_path / "d.csv")
    save_edge_list(build_cycle_plus_random(8, 10, 4), tmp_path / "hub.txt")
    cfg = base_config(tmp_path / "o")
    cfg.update(patch(cfg))
    with pytest.raises(ConfigError, match=re.escape(key)):
        ExperimentConfig.from_dict(cfg, tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_theoretical_params(tmp_path, capsys):
    """apd and apdsc with params "theoretical" run through `pushopt run` at
    the params `auto` gives with the calibrated theory inputs."""
    cfg = base_config(tmp_path / "o", iterations=20)
    cfg["algorithms"] = [
        {"name": "apd", "params": "theoretical"},
        {"name": "apdsc", "params": "theoretical"},
    ]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    g, o = cfg["graph"], cfg["objective"]
    prob = build_problem(  # as `pushopt run` sets it up
        build_cycle_plus_random(g["n"], g["extra_edges"], g["seed"]),
        make_quadratic_suite(g["n"], o["dim"], o["kappa"], o["mu_base"], o["seed"]),
        cfg["init"]["x0_seed"],
    )
    theory = calibrate_theory_inputs(prob.mixing, prob.nt, prob.v0)
    for name in ("apd", "apdsc"):
        params = ALGORITHMS[name].auto(prob.suite, prob.nt, 20, theory=theory)
        expect = {f.name: getattr(params, f.name) for f in fields(params) if f.name != "K"}
        assert summary["algorithms"][name]["params"] == expect
        assert params.eta < ALGORITHMS[name].auto(prob.suite, prob.nt, 20).eta


@pytest.mark.parametrize(
    "patch,words",
    [
        ({"algorithms": [{"name": "pushdiging", "params": "theoretical"}]},
         "pushdiging has no theoretical stepsize mode"),
        ({"objective": {**LOGISTIC, "mu": 0.0},
          "algorithms": [{"name": "apdsc", "params": "auto"}]},
         "apdsc needs a strongly convex suite"),
    ],
    ids=["pushdiging-theoretical", "apdsc-mu-0"],
)
def test_run_rejects_unsupported_algorithm_setups(tmp_path, capsys, patch, words):
    """An algorithm without a theoretical mode asked for one, and apdsc on a
    suite with mu = 0: `pushopt run` exits 1 naming the cause and writes
    nothing."""
    write_labeled_csv(synthetic_logistic_dataset(120, 4, 5), tmp_path / "d.csv")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base_config(tmp_path / "o"), **patch}))
    assert main(["run", "--config", str(path)]) == 1
    assert words in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_params_type_keys_the_diagnostics(name):
    """The params type alone gives an algorithm's "auto" params, its
    theoretical mode if it has one, the recorder's Lyapunov columns and the
    identity monitor's identities."""
    method = ALGORITHMS[name]
    mixing = uniform_out_weights(build_cycle_plus_random(8, 10, 4))
    nt = build_contraction_norm(mixing.C, mixing.p)
    suite = make_quadratic_suite(8, 3, 10.0, 0.1, 2)
    X0, v0 = np.random.default_rng(1).standard_normal((8, 3)), np.ones(8)
    params = method.auto(suite, nt, 20)
    assert type(params) is method
    theory = calibrate_theory_inputs(mixing, nt, v0)
    if method.theoretical:
        theoretical = method.auto(suite, nt, 20, theory=theory)
        assert type(theoretical) is method
    else:
        with pytest.raises(TypeError):
            method.auto(suite, nt, 20, theory=theory)
    rec = TraceRecorder(suite, mixing, suite.minimizer()[0], params=params, norm_transform=nt)
    _, trace = run(X0, v0, mixing, suite, params, rec)
    phis = {c for c in ("phi1", "phi2", "phi3", "phi4") if trace.column(c) is not None}
    assert phis == set(method.lyapunov_pair or ())
    if not method.tracks_gradient:
        with pytest.raises(ValueError, match=method.__name__):
            IdentityMonitor(mixing, params)
        return
    mon = IdentityMonitor(mixing, params)
    run(X0, v0, mixing, suite, params, mon)
    worst = mon.worst()
    assert max(worst.values()) <= 1e-10
    # The zbar step and the coupling are checked only along an average step.
    checked = {key for key, value in worst.items() if value > 0.0}
    assert ({"zbar", "coupling"} <= checked) == (method.average_step is not None)


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_summary_params_replay_the_run(tmp_path, name):
    """The params block summary.json records for an "auto" run, given back
    as an explicit table, reproduces every trace CSV byte for byte."""
    cfg = base_config(tmp_path)
    cfg["graph"] = {"n": 12, "extra_edges": 20, "seed": 4}
    cfg["algorithms"] = [{"name": name, "params": "auto"}]
    cfg["run"]["out_dir"] = str(tmp_path / "auto")
    run_experiment(ExperimentConfig.from_dict(cfg, tmp_path))
    summary = json.loads((tmp_path / "auto" / "summary.json").read_text())
    cfg["algorithms"] = [{"name": name, "params": summary["algorithms"][name]["params"]}]
    cfg["run"]["out_dir"] = str(tmp_path / "table")
    run_experiment(ExperimentConfig.from_dict(cfg, tmp_path))
    csv = f"trace_{name}.csv"
    assert (tmp_path / "table" / csv).read_bytes() == (tmp_path / "auto" / csv).read_bytes()


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


def test_run_experiment_trace_ends_at_the_last_iteration(tmp_path):
    """A stride that misses K still records k = K, and the summary's final
    values are that row's, bit for bit, as in the same run at stride 1."""
    runs = {}
    for stride in (3, 1):
        cfg = base_config(tmp_path / f"s{stride}", iterations=10)
        cfg["run"]["record_stride"] = stride
        runs[stride] = run_experiment(ExperimentConfig.from_dict(cfg, tmp_path))
    (summary, traces), (_, full) = runs[3], runs[1]
    for name, tr in traces.items():
        assert list(tr.k) == [0, 3, 6, 9, 10]
        assert summary["algorithms"][name]["final_k"] == 10
        assert summary["algorithms"][name]["final_gap"] == full[name].loss[10]


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
    with pytest.raises(DivergenceError, match="^pushdiging: non-finite iterate"):
        run_experiment(cfg)
    leftovers = list((tmp_path / "fail").glob("*")) if (tmp_path / "fail").exists() else []
    assert leftovers == []


# Where `_run_and_write` may fork its workers at all.
FORKS = sys.platform == "linux" and hasattr(os, "fork")


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made in this process (a child's own list is its
    copy). A test still waiting for its workers after 60 s fails instead of
    hanging (a forked child has no pending alarm)."""

    def expired(signum, frame):
        raise TimeoutError("workers not done within 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield calls
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _cli(argv, cpus, monkeypatch, capsys):
    """main(argv) with `_usable_cpus` reading cpus: (exit code, stdout, stderr)."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    capsys.readouterr()
    code = main(argv)
    return (code, *capsys.readouterr())


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["run", "reproduce"])
def test_outputs_same_in_workers_and_in_one_process(tmp_path, monkeypatch, capsys, forks, command):
    """A three-algorithm `run` and a `reproduce` write byte-identical files
    and print the same lines with one usable CPU (every run in this process)
    and with two (the second and third runs in forked workers). The run's
    2000-iteration traces outgrow a pipe buffer."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(tmp_path / "unused", iterations=2000)))
    results = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        argv = (
            ["run", "--config", str(cfg_path)]
            if command == "run"
            else ["reproduce", "--case", "strongly", "--iters", "60"]
        )
        before = len(forks)
        code, stdout, err = _cli([*argv, "--out", str(out)], cpus, monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert len(forks) - before == (2 if FORKS and cpus == 2 else 0)
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        results[cpus] = (stdout.replace(str(out), "OUT"), files)
        _assert_no_child_left()
    assert len(results[1][1]) == (4 if command == "run" else 5)
    assert results[1] == results[2]


@pytest.mark.parametrize("diverging", [0, 1])
def test_divergence_with_workers_exits_as_in_one_process(
    tmp_path, monkeypatch, capsys, forks, diverging
):
    """One run of three diverges: the first (in this process, while both
    workers run) or the second (in a worker, while the third diverges too,
    and earlier, in another). With workers as without, the CLI exits 2 with
    the first failing run's line, leaves no file and no child process."""
    runs = [
        {"name": "apd", "params": {"eta": 1e4}},  # diverges at k = 76
        {"name": "pushdiging", "params": "auto"},
        {"name": "subgradpush", "params": {"step_c": 1e6}},  # diverges at k = 55
    ]
    runs.insert(1 - diverging, runs.pop(1))
    cfg = base_config(tmp_path / "unused")
    cfg["algorithms"] = runs
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    results = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        before = len(forks)
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        results[cpus] = _cli(argv, cpus, monkeypatch, capsys)
        assert len(forks) - before == (2 if FORKS and cpus == 2 else 0)
        assert list(out.iterdir()) == []
        _assert_no_child_left()
    assert results[1] == (2, "", "error: apd: non-finite iterate at iteration 76\n")
    assert results[2] == results[1]


def test_interrupted_parent_kills_and_reaps_its_workers(tmp_path, monkeypatch, forks):
    """A KeyboardInterrupt in this process while it writes the first trace
    reaches the caller after both workers are killed and reaped."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)

    def interrupted(trace, path):
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments, "emit_csv", interrupted)
    cfg = ExperimentConfig.from_dict(base_config(tmp_path / "out", iterations=3000), tmp_path)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg)
    assert len(forks) == (2 if FORKS else 0)
    _assert_no_child_left()


def test_single_algorithm_run_never_forks(tmp_path, monkeypatch, capsys):
    """With one algorithm the run stays in this process, CPUs or not."""

    def refused():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refused)
    cfg = base_config(tmp_path / "unused")
    cfg["algorithms"] = cfg["algorithms"][:1]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert _cli(argv, 2, monkeypatch, capsys)[0] == 0


@pytest.mark.parametrize(
    "make,words",
    [
        (lambda cfg: {**cfg, "graph": "abc"}, ("'graph'", "JSON object")),
        (lambda cfg: {**cfg, "init": "ab"}, ("'init'", "JSON object")),
        (lambda cfg: {**cfg, "algorithms": "apd"}, ("'algorithms'", "list of objects")),
        (lambda cfg: {**cfg, "algorithms": ["apd"]}, ("'algorithms'", "list of objects")),
        (
            lambda cfg: {**cfg, "graph": [["n", 20], ["extra_edges", 50], ["seed", 7]]},
            ("'graph'", "JSON object"),
        ),
        (lambda cfg: [1, 2], ("config must be a JSON object", "[1, 2]")),
    ],
    ids=["graph-string", "init-string", "algorithms-string", "algorithms-of-strings",
         "graph-pairs", "top-level-array"],
)
def test_config_sections_must_be_objects(tmp_path, capsys, make, words):
    """The config is a JSON object, each section an object and algorithms a
    non-empty list of objects; anything else is a ConfigError naming the
    section (dict() had turned a list of pairs into a graph section)."""
    cfg = make(base_config(tmp_path / "o"))
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig.from_dict(cfg, tmp_path)
    assert all(word in str(excinfo.value) for word in words)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(word in err for word in words)
    assert not (tmp_path / "o").exists()


SWEEP_COMMON = {
    "init": {"x0_seed": 11},
    "run": {"iterations": 3, "record_stride": 1, "out_dir": "out"},
    "algorithms": [{"name": "apd", "params": "auto"}],
}
SWEEP_CONFIGS = {
    "quadratic": {
        "graph": {"n": 8, "extra_edges": 10, "seed": 4},
        "objective": {
            "kind": "quadratic", "dim": 3, "kappa": 10.0, "mu_base": 0.1, "seed": 2,
        },
        **SWEEP_COMMON,
    },
    "logistic": {
        "graph": {"edge_list": "g.txt"},
        "objective": {**LOGISTIC, "mu": 0.05, "standardize": False},
        **SWEEP_COMMON,
    },
}


def _key_paths(table, prefix=()):
    """The path of every key in a config, nested ones included."""
    for key, value in table.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))
        elif isinstance(value, list):
            for i, entry in enumerate(value):
                yield from _key_paths(entry, prefix + (key, i))


@pytest.mark.parametrize(
    "kind,path",
    [(kind, path) for kind, cfg in SWEEP_CONFIGS.items() for path in _key_paths(cfg)],
    ids=lambda p: p if isinstance(p, str) else ".".join(map(str, p)),
)
def test_config_type_sweep(tmp_path, monkeypatch, capsys, kind, path):
    """Each of the JSON values 5, 2.5, true, "x", null, [1] and {"a": 1} at
    any key of a working config either runs, with the value as given, or is
    a ConfigError, and `pushopt run` exits 1 with one error line and writes
    nothing; no other exception escapes."""
    write_labeled_csv(synthetic_logistic_dataset(120, 4, 5), tmp_path / "d.csv")
    save_edge_list(build_cycle_plus_random(8, 10, 4), tmp_path / "g.txt")
    for i, value in enumerate([5, 2.5, True, "x", None, [1], {"a": 1}]):
        cfg = json.loads(json.dumps(SWEEP_CONFIGS[kind]))
        *parents, key = path
        table = cfg
        for step in parents:
            table = table[step]
        table[key] = value
        try:
            ExperimentConfig.from_dict(cfg, tmp_path)
            valid = True
        except ConfigError:
            valid = False
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        cwd = tmp_path / f"cwd{i}"  # where run.out_dir leads
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code = main(["run", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        if code != 0 or not valid:
            assert code == EXIT_CONFIG, value
            assert err.startswith("error: ") and err.count("\n") == 1, (value, err)
            assert list(cwd.iterdir()) == [], value
        else:
            out = cwd / cfg["run"]["out_dir"]
            experiment = json.loads((out / "summary.json").read_text())["experiment"]
            assert experiment["standardize"] is cfg["objective"].get("standardize", False)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["run", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (
            ["reproduce", "--case", "strongly", "--iters", "-5"],
            "--iters must be a non-negative integer, got -5",
        ),
    ],
    ids=["seed", "iters"],
)
def test_cli_rejects_negative_counts(tmp_path, capsys, argv, message):
    """A negative --seed or --iters ends the CLI with exit 1, one message
    naming the flag, and no output file."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(tmp_path / "cfg_out", iterations=10)))
    if argv[0] == "run":
        argv = argv + ["--config", str(cfg_path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


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


@pytest.mark.parametrize("edge, token", [("2 x", "x"), ("0 1", "0")])
def test_cli_run_names_bad_edge_list_line(tmp_path, capsys, edge, token):
    """A malformed edge list given as graph.edge_list ends `pushopt run`
    with the config exit code and one stderr line naming file and line."""
    (tmp_path / "graph.txt").write_text(f"n 3\n1 2\n{edge}\n", encoding="utf-8")
    cfg = base_config(tmp_path / "out")
    cfg["graph"] = {"edge_list": "graph.txt"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'graph.txt'}:3: node {token!r} is not an integer in 1..3\n"
    )


@pytest.mark.parametrize("make", [Path.mkdir, None], ids=["directory", "missing"])
@pytest.mark.parametrize("key", ["graph.edge_list", "objective.data", "--data"])
def test_cli_names_an_input_path_that_is_not_a_file(tmp_path, capsys, key, make):
    """A directory given as an input file, or a missing path, ends `run` or
    `reproduce` with the config exit code and one stderr line naming the
    key and the path."""
    path = tmp_path / "inputs"
    if make is not None:
        make(path)
    cfg = base_config(tmp_path / "out")
    if key == "graph.edge_list":
        cfg["graph"] = {"edge_list": "inputs"}
    else:
        cfg["objective"] = {"kind": "logistic", "data": "inputs", "mu": 0.05}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    if key == "--data":
        argv = ["reproduce", "--case", "strongly", "--data", str(path), "--out", str(tmp_path / "out")]
        key = "dataset"
    else:
        argv = ["run", "--config", str(tmp_path / "cfg.json")]
    assert main(argv) == EXIT_CONFIG
    problem = "is not a file" if make is not None else "does not exist"
    assert capsys.readouterr().err == f"error: {key}: {path} {problem}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["x0.5", "nan", "inf"])
def test_cli_reproduce_names_bad_dataset_field(tmp_path, capsys, field):
    """`pushopt reproduce --data` on a dataset with one non-numeric or
    non-finite feature exits with the config code and one stderr line naming
    file, line and column; it writes nothing."""
    path = tmp_path / "d.csv"
    write_labeled_csv(synthetic_logistic_dataset(1000, 4, 5), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[499] = field + lines[499][lines[499].index(","):]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["reproduce", "--case", "strongly", "--data", str(path), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {path}:500: column 1: {field!r} is not a finite number\n"
    )
    assert not out.exists()


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


def _per_value_csv(trace):
    """The trace CSV formatted one value at a time, as a reference."""
    def fmt(x):
        return "nan" if np.isnan(x) else f"{x:.17g}"

    lines = [",".join(TRACE_COLUMNS)]
    for i in range(len(trace)):
        row = [str(int(trace.k[i]))]
        for name in TRACE_COLUMNS[1:]:
            vals = trace.column(name)
            row.append("" if vals is None else fmt(vals[i]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_emit_csv_bytes_equal_per_value_format(tmp_path):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.0 / 3.0, 1e300, 2.0])
    rng = np.random.default_rng(5)
    m = len(special)
    tr = RunTrace(
        label="x", k=np.array([0, 1, 2, 3, 4, 10, 20, 30, 10**6]), loss=special,
        consensus_error=special[::-1].copy(), projection_error=rng.standard_normal(m),
        grad_avg_norm=np.exp(rng.uniform(-700, 700, m)), v_min=rng.random(m),
        phi3=np.roll(special, 3), phi4=rng.standard_normal(m) * 1e-20,
    )
    path = tmp_path / "t.csv"
    emit_csv(tr, path)
    assert path.read_bytes() == _per_value_csv(tr).encode()
    assert b",nan," in path.read_bytes() and b",-inf," in path.read_bytes()


def test_csv_round_trip_bit_exact(tmp_path, small_mixing, small_norm, small_suite, small_init):
    from pushopt import TraceRecorder, default_params_smooth

    X0, v0 = small_init
    xstar, fstar = small_suite.minimizer()
    params = default_params_smooth(small_suite.L, K=30)
    rec = TraceRecorder(
        small_suite, small_mixing, xstar=xstar, params=params,
        norm_transform=small_norm, label="apd",
    )
    _, tr = run(X0, v0, small_mixing, small_suite, params, rec)
    path = tmp_path / "t.csv"
    emit_csv(tr, path)
    back = read_trace_csv(path)
    assert np.array_equal(back.k, tr.k)
    for col in ("loss", "consensus_error", "projection_error", "grad_avg_norm", "v_min"):
        assert np.array_equal(getattr(back, col), getattr(tr, col)), col
    assert tr.phi1 is not None and np.array_equal(back.phi1, tr.phi1)
    assert np.array_equal(back.phi2, tr.phi2)
    assert back.phi3 is None and back.phi4 is None


@pytest.mark.parametrize(
    "stem, label",
    [
        ("trace_apdsc", "apdsc"),
        ("mytrace_apdsc", "mytrace_apdsc"),
        ("old_trace_apdsc", "old_trace_apdsc"),
    ],
)
def test_read_trace_csv_strips_only_a_leading_trace_prefix(tmp_path, stem, label):
    ones = np.ones(2)
    emit_csv(RunTrace("x", np.arange(2), ones, ones, ones, ones, ones), tmp_path / f"{stem}.csv")
    assert read_trace_csv(tmp_path / f"{stem}.csv").label == label


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


def test_svg_escapes_labels(tmp_path):
    """A label with XML's special characters is written escaped: the SVG
    parses and shows the label as given."""
    k = np.arange(1, 5)
    tr = RunTrace("a&b<1>", k, 1.0 / k, k * 0.0, k * 0.0, k * 0.0, k * 0.0 + 1)
    emit_svg_plot([tr], tmp_path / "p.svg", axes="semilogy")
    texts = [t.text for t in ET.parse(tmp_path / "p.svg").findall(".//svg:text", SVG_NS)]
    assert "a&b<1>" in texts


def test_svg_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_svg_plot([empty_trace()], tmp_path / "p.svg", axes="semilogy")
    with pytest.raises(ValueError):
        emit_svg_plot([], tmp_path / "p.svg", axes="semilogy")


def _loss_trace(label, loss):
    k = np.arange(len(loss))
    z = k * 0.0
    return RunTrace(label, k, np.asarray(loss, dtype=float), z, z, z, z + 1)


def test_svg_leaves_out_non_finite_losses(tmp_path, capsys):
    """Non-finite losses are left out of the axes and the polyline; `plot`
    draws such a trace read back from its CSV, where it raised
    OverflowError (inf) or printed a NaN conversion error before."""
    loss = [1.0, 1e-3, np.inf, 1e-6, np.nan, 1e-9]
    emit_csv(_loss_trace("broken", loss), tmp_path / "trace_broken.csv")
    path = tmp_path / "p.svg"
    argv = ["plot", "--in", str(tmp_path / "trace_broken.csv"), "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    tree = ET.parse(path)
    (line,) = tree.findall(".//svg:polyline", SVG_NS)
    points = line.get("points").split()
    assert len(points) == 4
    assert all(np.isfinite(float(v)) for pt in points for v in pt.split(","))
    texts = [t.text for t in tree.findall(".//svg:text", SVG_NS)]
    assert "1e-9" in texts and "1e0" in texts and "1e1" not in texts
    finite = _loss_trace("finite", [1.0, 1e-3, 1e-6, 1e-9])
    finite.k[2:] = [3, 5]
    emit_svg_plot([finite], tmp_path / "finite.svg", axes="semilogy")
    assert (tmp_path / "finite.svg").read_bytes().replace(b"finite", b"broken") == (
        path.read_bytes()
    )


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_svg_rejects_trace_without_finite_loss(tmp_path, capsys, bad):
    good = _loss_trace("good", [1.0, 0.1])
    with pytest.raises(ValueError, match="'lost' has no finite loss"):
        emit_svg_plot([good, _loss_trace("lost", [bad, bad])], tmp_path / "p.svg", axes="semilogy")
    emit_csv(_loss_trace("lost", [bad, bad]), tmp_path / "trace_lost.csv")
    argv = ["plot", "--in", str(tmp_path / "trace_lost.csv"), "--out", str(tmp_path / "q.svg")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: trace 'lost' has no finite loss to plot\n"
    assert not (tmp_path / "p.svg").exists() and not (tmp_path / "q.svg").exists()


def test_svg_loglog_rejects_trace_without_finite_loss_past_k0(tmp_path):
    with pytest.raises(ValueError, match="'first' has no finite loss to plot at k >= 1"):
        emit_svg_plot([_loss_trace("first", [1.0, np.nan])], tmp_path / "p.svg", axes="loglog")
    assert not (tmp_path / "p.svg").exists()


def test_reproduce_smoke(tmp_path):
    summary, traces = reproduce_paper_experiment(None, "strongly", tmp_path / "rep", iters=25)
    assert set(traces) == {"apdsc", "pushdiging", "subgradpush"}
    assert (tmp_path / "rep" / "comparison.svg").exists()
    assert (tmp_path / "rep" / "summary.json").exists()
    assert summary["experiment"]["data"] == "synthetic"
    assert summary["algorithms"]["apdsc"]["params"]["eta"] == pytest.approx(0.0125)
    with pytest.raises(ConfigError):
        reproduce_paper_experiment(None, "sideways", tmp_path / "rep2", iters=25)


@pytest.mark.parametrize("case", ["nonstrongly", "strongly"])
def test_reproduce_matches_committed_demo_outputs(tmp_path, case):
    # demos/out/benchmark_<case> comes from `python demos/logistic_benchmark.py`
    # without arguments: the synthetic data at the demo's default length.
    demos = Path(__file__).resolve().parents[1] / "demos"
    iters = runpy.run_path(str(demos / "logistic_benchmark.py"))["ITERS"]
    ref = demos / "out" / f"benchmark_{case}"
    reproduce_paper_experiment(None, case, tmp_path, iters=iters)
    want = json.loads((ref / "summary.json").read_text())
    got = json.loads((tmp_path / "summary.json").read_text())
    assert got["experiment"] == want["experiment"]
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
        reproduce_paper_experiment(tmp_path / "small.csv", "strongly", tmp_path / "rep4", iters=5)


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


@pytest.mark.parametrize(
    "text",
    ["", "k,loss\n0,1.0\n", None],
    ids=["empty", "missing-columns", "short-row"],
)
def test_cli_plot_rejects_malformed_trace(tmp_path, capsys, text):
    good = tmp_path / "good.csv"
    ones = np.ones(3)
    emit_csv(RunTrace("good", np.arange(3), ones, ones, ones, ones, ones), good)
    if text is None:
        text = good.read_text().rstrip("\n").rsplit(",", 1)[0] + "\n"
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["plot", "--in", str(good), str(bad), "--out", str(tmp_path / "p.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err
    assert not (tmp_path / "p.svg").exists()


def test_cli_plot_names_a_repeated_column(tmp_path, capsys):
    """A header that repeats a column ends `plot` with the config exit code
    and one stderr line naming the file and the column."""
    good = tmp_path / "good.csv"
    ones = np.ones(3)
    emit_csv(RunTrace("good", np.arange(3), ones, ones, ones, ones, ones), good)
    lines = []
    for ln in good.read_text().splitlines():
        fields = ln.split(",")
        lines.append(",".join(fields[:2] + fields[1:]))
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["plot", "--in", str(good), str(bad), "--out", str(tmp_path / "p.svg")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: header repeats column 'loss'\n"
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("k", [1, 3])
def test_cli_plot_skips_whitespace_only_lines(tmp_path, k):
    """A trace that ends in a line of spaces plots as the clean file does,
    also with the one row of a K = 0 run."""
    clean = tmp_path / "clean" / "trace_a.csv"
    clean.parent.mkdir()
    ones = np.ones(k)
    emit_csv(RunTrace("a", np.arange(k), ones, ones, ones, ones, ones), clean)
    padded = tmp_path / "padded" / "trace_a.csv"
    padded.parent.mkdir()
    padded.write_text(clean.read_text() + "   \n")
    for path in (clean, padded):
        assert main(["plot", "--in", str(path), "--out", str(path.with_suffix(".svg"))]) == 0
    assert padded.with_suffix(".svg").read_bytes() == clean.with_suffix(".svg").read_bytes()


@pytest.mark.parametrize("column", ["loss", "k"])
def test_cli_plot_names_malformed_field(tmp_path, capsys, column):
    good = tmp_path / "good.csv"
    ones = np.ones(3)
    emit_csv(RunTrace("good", np.arange(3), ones, ones, ones, ones, ones), good)
    lines = good.read_text().splitlines()
    at = lines[0].split(",").index(column)
    fields = lines[2].split(",")
    fields[at] = "abc"
    lines[2] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["plot", "--in", str(good), str(bad), "--out", str(tmp_path / "p.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{bad}: data row 2, column {column}: cannot parse 'abc'" in err
    assert not (tmp_path / "p.svg").exists()


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(tmp_path / "s1", iterations=10)))
    assert main(["run", "--config", str(cfg_path), "--seed", "77", "--out", str(tmp_path / "s2")]) == 0
    a = json.loads((tmp_path / "s2" / "summary.json").read_text())
    assert a["experiment"]["x0_seed"] == 77


@pytest.mark.parametrize("with_out", [True, False], ids=["out", "config-out_dir"])
def test_cli_reports_the_directory_it_wrote(tmp_path, capsys, with_out):
    """`pushopt run`'s last stdout line names the directory that holds
    summary.json: --out where given, else the config's run.out_dir."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(tmp_path / "cfg_out", iterations=10)))
    argv = ["run", "--config", str(cfg_path), "--seed", "77"]
    expected = tmp_path / ("cli_out" if with_out else "cfg_out")
    assert main(argv + ["--out", str(expected)] if with_out else argv) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"wrote traces and summary.json to {expected}"
    summary = json.loads((expected / "summary.json").read_text())
    assert summary["experiment"]["x0_seed"] == 77
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["config.json", expected.name])


def test_cli_rejects_separable_data_without_penalty(tmp_path, capsys):
    """Linearly separable data has no logistic minimizer with mu = 0: the CLI
    exits 1 naming the Hessian's smallest eigenvalue and L, and writes
    nothing. With mu = 0.05 the same data runs."""
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((200, 2))
    write_labeled_csv(LabeledDataset(Z, np.where(Z[:, 0] >= 0, 1.0, -1.0)), tmp_path / "d.csv")
    cfg = base_config(tmp_path / "out", iterations=10)
    cfg["graph"]["n"] = 10
    cfg_path = tmp_path / "config.json"
    for mu, code in ((0.0, EXIT_CONFIG), (0.05, 0)):
        cfg["objective"] = {"kind": "logistic", "data": "d.csv", "mu": mu}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == code
        assert (tmp_path / "out").exists() == (code == 0)
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: the average objective has no minimizer to report: .* smallest eigenvalue, "
        r"\S+, is below 1e-10 L with L = 13\.1 \(linearly separable data with mu = 0\?\)\n",
        err,
    ), err


def test_cli_rejects_dependent_features_without_penalty(tmp_path, capsys):
    """A feature column repeated makes the average Hessian singular with
    mu = 0, so the Newton solve for x* fails: the CLI exits 1 naming the
    singular Hessian and the likely cause, and writes nothing."""
    data = synthetic_logistic_dataset(200, 2, 5)
    features = np.column_stack([data.features, data.features[:, 0]])
    write_labeled_csv(LabeledDataset(features, data.labels), tmp_path / "d.csv")
    cfg = base_config(tmp_path / "out", iterations=10)
    cfg["graph"] = {"n": 10, "extra_edges": 20, "seed": 5}
    cfg["objective"] = {"kind": "logistic", "data": "d.csv", "mu": 0.0}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: the average objective has no unique minimizer to report: its average "
        "Hessian is singular (linearly dependent features with mu = 0?)\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "d.csv"]


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
    assert main(["run", "--config", str(div)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name, k", [("apd", 301), ("apdsc", 315), ("pushdiging", 324)])
def test_cli_divergence_names_the_algorithm(tmp_path, capsys, name, k):
    """On the hub graph (a one-way ring plus i -> 0 for every i) at n = 10,
    each "auto" solver run alone diverges. The CLI exits with code 2 and
    prints one line that names the algorithm; no numpy warning reaches
    stderr."""
    n = 10
    edges = {(i, (i + 1) % n) for i in range(n)} | {(i, 0) for i in range(1, n)}
    save_edge_list(DirectedGraph(n=n, edges=frozenset(edges)), tmp_path / "hub.txt")
    cfg = {
        "graph": {"edge_list": "hub.txt"},
        "objective": {"kind": "quadratic", "dim": 5, "kappa": 100.0, "mu_base": 0.01, "seed": 0},
        "run": {"iterations": 600, "out_dir": str(tmp_path / "out")},
        "algorithms": [{"name": name, "params": "auto"}],
    }
    (tmp_path / "hub.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "hub.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {name}: non-finite iterate at iteration {k}\n"


def _reject_constant(name):
    raise ValueError(f"summary.json holds the non-JSON constant {name}")


@pytest.mark.parametrize("K", [600, 900])
def test_cli_flags_finite_divergence(tmp_path, capsys, K):
    """On the n = 400 ring + 1200 links with graph seed 10, every "auto" run
    blows up without a non-finite iterate: at K = 600 the final gaps are
    finite (up to 9.3e215), at K = 900 apd's has overflowed to inf. The CLI
    exits 0, flags all three runs in summary.json and names them on one
    stderr line; summary.json stays strict JSON, with null for inf and NaN."""
    names = ["apd", "apdsc", "pushdiging"]
    cfg = {
        "graph": {"n": 400, "extra_edges": 1200, "seed": 10},
        "objective": {"kind": "quadratic", "dim": 5, "kappa": 100.0, "mu_base": 0.01, "seed": 11},
        "init": {"x0_seed": 11},
        "run": {"iterations": K, "out_dir": str(tmp_path / "out")},
        "algorithms": [{"name": name, "params": "auto"} for name in names],
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
    err = capsys.readouterr().err
    assert err == f"warning: final gap above the start gap or not finite: {', '.join(names)}\n"
    text = (tmp_path / "out" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    for name in names:
        info = summary["algorithms"][name]
        assert info["final_above_start"] is True
        assert 0 < info["start_gap"] < 10
        final = read_trace_csv(tmp_path / "out" / f"trace_{name}.csv").loss[-1]
        assert info["final_gap"] == (final if np.isfinite(final) else None)
    apd = summary["algorithms"]["apd"]
    if K == 900:
        assert apd["final_gap"] is None and apd["linear_rate"] is None
    else:
        assert apd["final_gap"] > 1e200


def test_cli_flags_no_converging_run(tmp_path, capsys):
    """Runs that end below their start gap are not flagged, and `run` and
    `reproduce` then print nothing to stderr."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(tmp_path / "run", iterations=200)))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path)]) == 0
    argv = ["reproduce", "--case", "strongly", "--iters", "60", "--out", str(tmp_path / "rep")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    for out in ("run", "rep"):
        summary = json.loads((tmp_path / out / "summary.json").read_text())
        for info in summary["algorithms"].values():
            assert info["final_above_start"] is False
            assert info["final_gap"] <= info["start_gap"]
