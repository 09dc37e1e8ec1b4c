"""Configuration-driven experiment runner: traces, summaries, and SVG plots."""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import sys
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .diagnostics import (
    TRACE_COLUMNS,
    RunTrace,
    TraceRecorder,
    fit_linear_rate,
    fit_sublinear_rate,
    iterations_to_threshold,
)
from .graphs import DirectedGraph, build_cycle_plus_random, load_edge_list
from .mixing import build_contraction_norm, uniform_out_weights
from .objectives import (
    LabeledDataset,
    global_minimizer,
    load_labeled_csv,
    make_logistic_suite,
    make_quadratic_suite,
    standardize_features,
    synthetic_logistic_dataset,
)
from .solvers import (
    APDParams,
    APDSCParams,
    DivergenceError,
    PushDIGingParams,
    SubgradPushParams,
    calibrate_theory_inputs,
    run,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "build_problem",
    "run_experiment",
    "reproduce_paper_experiment",
    "emit_csv",
    "read_trace_csv",
    "emit_svg_plot",
]

THRESHOLDS = (1e-6, 1e-10, 1e-14)


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


# Each algorithm by its config name: its params type describes it (solvers.py).
# An explicit params table holds the type's fields other than K.
ALGORITHMS = {
    "apd": APDParams,
    "apdsc": APDSCParams,
    "pushdiging": PushDIGingParams,
    "subgradpush": SubgradPushParams,
}


def _is(test, what: str, then=None):
    """A check: a ConfigError says that key must be what unless test(value);
    it returns then(key, value, base) if then is given, else value."""

    def check(key, value, base=None):
        if not test(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return value if then is None else then(key, value, base)

    return check


# A bool is not an integer, nor an integral float (int() would run 8.9 agents
# as 8); a bool or a numeric string is not a number. check_count also checks
# the CLI's --seed and --iters.
check_count = _is(lambda v: type(v) is int and v >= 0, "a non-negative integer")
_positive = _is(lambda v: type(v) is int and v >= 1, "a positive integer")
_stride = _is(lambda v: v == "auto" or type(v) is int and v >= 1, 'a positive integer or "auto"')
_number = _is(
    lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number",
    lambda key, value, base: float(value),
)
_bool = _is(lambda v: type(v) is bool, "true or false")
_path = _is(lambda v: type(v) is str, "a path string")
_KINDS, _NAMES = ("quadratic", "logistic"), tuple(ALGORITHMS)
_kind = _is(lambda v: v in _KINDS, f"one of {_KINDS}")
_algorithm = _is(lambda v: v in _NAMES, f"one of {_NAMES}")


def _file(key, value, base: Path) -> str:
    """A path string, relative to base (the config's directory, or the working
    directory for `reproduce --data`), to a file that exists."""
    path = str(base / _path(key, value))
    if not Path(path).is_file():
        problem = "is not a file" if Path(path).exists() else "does not exist"
        raise ConfigError(f"{key}: {path} {problem}")
    return path


def _subtable(where):
    """A check for a JSON object, walked as the table where(object) names."""

    def check(key, value, base):
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be a JSON object, got {value!r}")
        return _table(value, f"{key}.", where(value), base)

    return check


_graph = _subtable(lambda t: "an edge-list graph" if "edge_list" in t else "a ring graph")
_objective = _subtable(lambda t: f"a {_kind('objective.kind', t.get('kind'))} objective")


def _algorithms(key, value, base):
    if not (isinstance(value, list) and value and all(isinstance(a, dict) for a in value)):
        raise ConfigError(
            f"config section {key!r} must be a non-empty list of objects, got {value!r}"
        )
    entries = [_table(a, f"{key}[{i}].", "an algorithm entry", base) for i, a in enumerate(value)]
    names = [a["name"] for a in entries]
    if len(set(names)) != len(names):
        raise ConfigError("algorithm names must be unique within one experiment")
    return entries


# The config format: each table by the name its errors give it, each key of a
# table with its check and its default (_REQUIRED: none). A check takes the
# dotted key, the value and the config's directory, and returns the value to
# use; a key without a check is taken as given.
_REQUIRED = object()
_SCHEMA = {
    "the config": {
        "graph": (_graph, _REQUIRED),
        "objective": (_objective, _REQUIRED),
        "init": (_subtable(lambda t: "init"), {}),
        "run": (_subtable(lambda t: "run"), {}),
        "algorithms": (_algorithms, _REQUIRED),
    },
    "init": {"x0_seed": (check_count, 0)},
    "run": {
        "iterations": (_positive, 1000),
        "record_stride": (_stride, "auto"),  # "auto": every 10th beyond k = 10^4
        "out_dir": (_path, "results"),
    },
    "a ring graph": {
        "n": (_positive, _REQUIRED),
        "extra_edges": (check_count, _REQUIRED),
        "seed": (check_count, _REQUIRED),
    },
    "an edge-list graph": {"edge_list": (_file, _REQUIRED)},
    "a quadratic objective": {
        "kind": (_kind, _REQUIRED),
        "dim": (_positive, _REQUIRED),
        "kappa": (_number, _REQUIRED),
        "mu_base": (_number, _REQUIRED),
        "seed": (check_count, _REQUIRED),
    },
    "a logistic objective": {
        "kind": (_kind, _REQUIRED),
        "data": (_file, _REQUIRED),
        "mu": (_number, _REQUIRED),
        "partition_seed": (check_count, 0),
        "standardize": (_bool, False),
    },
    "an algorithm entry": {
        "name": (_algorithm, _REQUIRED),
        "params": (None, "auto"),  # from_dict checks it against its algorithm
    },
}


def _table(raw: dict, prefix: str, where: str, base: Path) -> dict:
    """raw checked against the table _SCHEMA[where], with its defaults
    filled in. A ConfigError names the dotted key (prefix + key) of the first
    key the table does not define, else of the first key, in the table's
    order, that raw lacks without a default or whose value fails its check."""
    keys = _SCHEMA[where]
    for key in raw:
        if key not in keys:
            raise ConfigError(
                f"config key {prefix}{key} is not defined; {where} takes {', '.join(keys)}"
            )
    out = {}
    for key, (check, default) in keys.items():
        if key not in raw and default is _REQUIRED:
            raise ConfigError(f"config lacks the key {prefix}{key}")
        value = raw.get(key, default)
        out[key] = value if check is None else check(prefix + key, value, base)
    return out


@dataclass
class ExperimentConfig:
    """An experiment config: each table checked against _SCHEMA, its defaults
    filled in and its paths resolved. given_objective is the objective as the
    config gave it, numbers as written, which the summary echoes."""

    graph: dict
    objective: dict
    init: dict
    run: dict
    algorithms: list
    given_objective: dict

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
        cfg = _table(raw, "", "the config", Path(base_dir))
        for alg in cfg["algorithms"]:
            name, params = alg["name"], alg["params"]
            if params == "theoretical" and not ALGORITHMS[name].theoretical:
                raise ConfigError(f"{name} has no theoretical stepsize mode")
            if params not in ("auto", "theoretical"):
                _explicit_params(name, params, cfg["run"]["iterations"])
        given = {k: cfg["objective"][k] if k == "data" else v for k, v in raw["objective"].items()}
        return cls(**cfg, given_objective=given)


def _explicit_params(name: str, table, K: int):
    """The params an explicit table gives; a ConfigError names a bad key."""
    if not isinstance(table, dict):
        raise ConfigError(
            f'{name} params must be "auto", "theoretical" or an object, got {table!r}'
        )
    values = {key: _number(f"{name} params.{key}", value) for key, value in table.items()}
    try:
        return ALGORITHMS[name](K=K, **values)
    except (TypeError, ValueError) as exc:  # unknown, missing or out-of-range keys
        raise ConfigError(f"{name} params: {exc}") from None


def _build_graph(cfg: dict) -> DirectedGraph:
    if "edge_list" in cfg:
        return load_edge_list(cfg["edge_list"])
    return build_cycle_plus_random(cfg["n"], cfg["extra_edges"], cfg["seed"])


def _build_suite(cfg: dict, n: int):
    if cfg["kind"] == "quadratic":
        return make_quadratic_suite(n, cfg["dim"], cfg["kappa"], cfg["mu_base"], cfg["seed"])
    data = load_labeled_csv(cfg["data"])
    if cfg["standardize"]:
        data = standardize_features(data)
    return make_logistic_suite(data, n, cfg["mu"], cfg["partition_seed"])


def _resolve_params(alg: dict, prob, K: int):
    """Turn an algorithm config entry into concrete runnable parameters."""
    name, params = alg["name"], alg["params"]
    method = ALGORITHMS[name]
    if method.strongly_convex and prob.suite.mu <= 0:
        raise ConfigError(f"{name} needs a strongly convex suite (mu > 0)")
    if params == "auto":
        return method.auto(prob.suite, prob.nt, K)
    if params == "theoretical":
        theory = calibrate_theory_inputs(prob.mixing, prob.nt, prob.v0)
        return method.auto(prob.suite, prob.nt, K, theory=theory)
    return _explicit_params(name, params, K)


def _trace_summary(trace: RunTrace, K: int) -> dict:
    start, final = float(trace.loss[0]), float(trace.loss[-1])
    out = {
        "final_k": int(trace.k[-1]),
        "final_gap": final,
        "start_gap": start,
        "final_above_start": not math.isfinite(final) or final > start,
        "iterations_to": {
            f"{t:.0e}": iterations_to_threshold(trace, t) for t in THRESHOLDS
        },
    }
    k_lo = max(10, K // 10)
    try:
        out["sublinear_slope"] = fit_sublinear_rate(trace, k_lo, K)
        out["linear_rate"] = fit_linear_rate(trace, k_lo, K)
    except ValueError:
        out["sublinear_slope"] = None
        out["linear_rate"] = None
    return out


def build_problem(graph: DirectedGraph, suite, x0_seed: int) -> SimpleNamespace:
    """The set-up every algorithm of one experiment shares, as `pushopt run`
    and `reproduce` build it. The namespace's fields:
    - mixing: `uniform_out_weights(graph)`, the solvers' operator `op`
      built from the edges (the in-neighbor gather on large sparse graphs,
      with no dense C formed, else the dense C) and its Perron vector p;
    - nt: `build_contraction_norm(mixing.op, mixing.p)`;
    - suite: the given objective suite;
    - xstar, fstar: `global_minimizer(suite)`;
    - X0: the (n, dim) start, standard normal from default_rng(x0_seed);
    - v0: the all-ones push-sum start weights;
    - resolved: the summary's facts about them (n, edge_count, rho, delta,
      theta, L, mu, fstar, xstar).

    Each algorithm then runs as `run(prob.X0, prob.v0, prob.mixing,
    prob.suite, params, hooks)`.
    """
    mixing = uniform_out_weights(graph)
    nt = build_contraction_norm(mixing.op, mixing.p)
    xstar, fstar = global_minimizer(suite)
    resolved = {
        "n": graph.n,
        "edge_count": len(graph.edges),
        "rho": nt.rho,
        "delta": nt.delta,
        "theta": nt.theta,
        "L": suite.L,
        "mu": suite.mu,
        "fstar": fstar,
        "xstar": [float(v) for v in xstar],
    }
    X0 = np.random.default_rng(x0_seed).standard_normal((graph.n, suite.dim))
    return SimpleNamespace(
        mixing=mixing, nt=nt, suite=suite, xstar=xstar, fstar=fstar, X0=X0,
        v0=np.ones(graph.n), resolved=resolved,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _forks() -> bool:
    """Whether runs go to forked workers: on Linux (macOS system libraries
    are not fork-safe, Windows has no fork) with two usable CPUs or more."""
    return sys.platform == "linux" and hasattr(os, "fork") and _usable_cpus() >= 2


def _trace(prob, name: str, params, stride) -> RunTrace:
    """One algorithm's recorded run from prob's start."""
    recorder = TraceRecorder(
        prob.suite,
        prob.mixing,
        xstar=prob.xstar,
        params=params,
        norm_transform=prob.nt,
        stride=stride,
        label=name,
    )
    return run(prob.X0, prob.v0, prob.mixing, prob.suite, params, recorder)[1]


class _Worker:
    """A forked process that computes job() and sends back its value, or the
    exception it raised, pickled over a pipe.

    The worker shares the parent's memory copy-on-write, so nothing is sent
    to it and nothing is imported again (multiprocessing's spawn and
    forkserver methods re-import numpy and pushopt, about 0.3 s per worker,
    more than a run takes), and it ends with os._exit on every
    path: it runs none of the parent's cleanup (which removes the outputs)
    and flushes none of its stdio buffers. From Python 3.12, os.fork warns
    with a DeprecationWarning when the process has other threads, as it has
    when OpenBLAS has started its thread pool; OpenBLAS's own fork handlers
    keep the fork safe for it, and the warning is left to the warning
    filters.
    """

    def __init__(self, job):
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(r)
                try:
                    reply = (True, job())
                except Exception as exc:
                    reply = (False, exc)
                with open(w, "wb") as pipe:
                    pipe.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self._pipe = open(r, "rb")

    def result(self):
        """job()'s value, or raise its exception; reaps the worker."""
        with self._pipe:
            data = self._pipe.read()  # to EOF first: a trace outgrows the pipe buffer
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if not data:
            raise RuntimeError(f"worker ended with wait status {status} and no result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def stop(self) -> None:
        """Kill and reap the worker unless result() has reaped it."""
        self._pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _finite_or_null(value):
    """value with every non-finite float in it replaced by None, so that
    summary.json is strict JSON."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _run_and_write(prob, algorithms, K, stride, out: Path, summary: dict, finish=None):
    """Run each algorithm entry from prob's start and write its trace, then
    summary.json (summary plus one block per algorithm) under out. finish(summary,
    traces) may add to the summary and returns the files it wrote. On any
    failure every file written is removed.

    The runs share nothing after set-up, so where `_forks` allows, every run
    after the first computes its trace in a forked worker (one per run)
    while this process runs the first; each worker builds its own recorder.
    A single run makes no worker.
    The traces are taken and written here in plan order either way, so the
    outputs, and the error raised (that of the first failing run in plan
    order), are those of running them one after another. Every worker is
    reaped on every path, and killed first if this process stops early.
    """
    plan = [(alg["name"], _resolve_params(alg, prob, K)) for alg in algorithms]
    written = []
    workers = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        if _forks():
            for i, (name, params) in enumerate(plan[1:], start=1):
                try:
                    workers[i] = _Worker(partial(_trace, prob, name, params, stride))
                except OSError:  # no process to be had: the rest run here
                    break
        summary["algorithms"] = {}
        traces = {}
        for i, (name, params) in enumerate(plan):
            try:
                trace = workers[i].result() if i in workers else _trace(
                    prob, name, params, stride
                )
            except DivergenceError as exc:
                exc.algorithm = name
                raise
            traces[name] = trace
            written.append(out / f"trace_{name}.csv")
            emit_csv(trace, written[-1])
            summary["algorithms"][name] = {
                "params": {
                    f.name: getattr(params, f.name) for f in fields(params) if f.name != "K"
                },
                **_trace_summary(trace, K),
            }
        if finish is not None:
            written += finish(summary, traces)
        written.append(out / "summary.json")
        text = json.dumps(_finite_or_null(summary), indent=2, sort_keys=True, allow_nan=False)
        written[-1].write_text(text + "\n", encoding="utf-8")
        return summary, traces
    except Exception:
        for path in written:
            with suppress(OSError):
                path.unlink()
        raise
    finally:
        for worker in workers.values():
            worker.stop()


def run_experiment(config: ExperimentConfig):
    """Build the shared graph/suite/minimizer, run every configured algorithm
    from identical initial conditions, and write traces plus a summary into
    config.run["out_dir"]. Every setting comes from the config.

    Returns (summary dict, {name: RunTrace}). On any failure the partial
    output files are removed and the error re-raised.
    """
    K, stride = config.run["iterations"], config.run["record_stride"]
    out = Path(config.run["out_dir"])
    graph = _build_graph(config.graph)
    prob = build_problem(graph, _build_suite(config.objective, graph.n), config.init["x0_seed"])
    summary = {
        "experiment": {
            "graph": config.graph,
            "objective": {
                k: v for k, v in config.given_objective.items() if k != "standardize"
            },
            # a quadratic objective has no features to standardize
            "standardize": config.objective.get("standardize", False),
            "iterations": K,
            "x0_seed": config.init["x0_seed"],
            "record_stride": stride,
        },
        "resolved": prob.resolved,
    }
    return _run_and_write(prob, config.algorithms, K, stride, out, summary)


# Hand-tuned parameter sets of the benchmark comparison.
REPRODUCTION_PARAMS = {
    "nonstrongly": {
        "mu": 0.0,
        "apd": {"eta": 0.012, "pa": 0.92, "wa": 0.006, "wb": 1.0},
        "pushdiging": {"eta": 0.025},
        "subgradpush": {"step_c": 0.18},
    },
    "strongly": {
        "mu": 0.05,
        "apdsc": {"eta": 0.0125, "alpha": 6.0, "beta": 0.1, "tau": 0.1},
        "pushdiging": {"eta": 0.025},
        "subgradpush": {"step_c": 0.18},
    },
}

EXAMPLES_PER_AGENT = 50
REPRO_AGENTS = 20
REPRO_EXTRA_EDGES = 50
REPRO_GRAPH_SEED = 7
REPRO_X0_SEED = 12345
REPRO_DATA_SEED = 2026
REPRO_PARTITION_SEED = 1
REPRO_ITERATIONS = 3000


def reproduce_paper_experiment(data_path, case: str, out_dir, iters: int):
    """Benchmark comparison on the banknote-style logistic problem.

    20 agents on a bidirected ring plus 50 random directed links, 50
    examples per agent, Gaussian init, all-ones weights. `case` selects the
    unpenalized ("nonstrongly") or l2-penalized ("strongly") model with the
    hand-tuned parameter sets. With data_path=None a deterministic synthetic
    1000-row dataset stands in for the real one.
    """
    if case not in REPRODUCTION_PARAMS:
        raise ConfigError(f"case must be 'nonstrongly' or 'strongly', got {case!r}")
    block = REPRODUCTION_PARAMS[case]
    rows_needed = REPRO_AGENTS * EXAMPLES_PER_AGENT
    if data_path is not None:
        data = load_labeled_csv(_file("dataset", str(data_path), Path()))
        data_source = str(data_path)
        if len(data) < rows_needed:
            raise ConfigError(
                f"dataset has {len(data)} rows; need at least {rows_needed}"
            )
        if len(data) > rows_needed:
            # Keep exactly 50 examples per agent, subsampled deterministically.
            rng = np.random.default_rng(REPRO_DATA_SEED)
            keep = rng.choice(len(data), size=rows_needed, replace=False)
            data = LabeledDataset(data.features[keep], data.labels[keep])
    else:
        data = synthetic_logistic_dataset(rows_needed, 4, REPRO_DATA_SEED)
        data_source = "synthetic"

    prob = build_problem(
        build_cycle_plus_random(REPRO_AGENTS, REPRO_EXTRA_EDGES, REPRO_GRAPH_SEED),
        make_logistic_suite(data, REPRO_AGENTS, block["mu"], REPRO_PARTITION_SEED),
        REPRO_X0_SEED,
    )
    summary = {
        "experiment": {
            "case": case,
            "data": data_source,
            "agents": REPRO_AGENTS,
            "examples_per_agent": EXAMPLES_PER_AGENT,
            "iterations": iters,
            "mu": block["mu"],
        },
        "resolved": {k: prob.resolved[k] for k in ("rho", "delta", "theta", "L", "fstar")},
    }
    out = Path(out_dir)

    def compare(summary, traces):
        gaps = {name: info["final_gap"] for name, info in summary["algorithms"].items()}
        accel = "apd" if case == "nonstrongly" else "apdsc"
        summary["comparison"] = {
            "accelerated": accel,
            "accelerated_final_gap": gaps[accel],
            "pushdiging_final_gap": gaps["pushdiging"],
            "accelerated_no_worse": bool(
                gaps[accel] <= gaps["pushdiging"] + 1e-15 * (1.0 + abs(prob.fstar))
            ),
            "subgradpush_final_gap": gaps["subgradpush"],
        }
        svg = out / "comparison.svg"
        emit_svg_plot(list(traces.values()), svg, axes="semilogy")
        return [svg]

    algorithms = [{"name": n, "params": block[n]} for n in ALGORITHMS if n in block]
    return _run_and_write(prob, algorithms, iters, "auto", out, summary, compare)


def emit_csv(trace: RunTrace, path) -> None:
    """Write one trace as CSV with 17-significant-digit decimals.

    Absent diagnostics columns (the Lyapunov values) are written as empty
    fields; the format round-trips floats bit-exactly. Each row is one
    %-format over the columns' Python values.
    """
    values = [trace.column(name) for name in TRACE_COLUMNS[1:]]
    row = ",".join(["%d"] + ["" if vals is None else "%.17g" for vals in values])
    cols = [trace.k.tolist()] + [vals.tolist() for vals in values if vals is not None]
    lines = [",".join(TRACE_COLUMNS)] + [row % r for r in zip(*cols)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_trace_csv(path) -> RunTrace:
    """Parse a trace CSV written by :func:`emit_csv`, skipping blank lines.

    Raises ValueError naming the file when it is empty, when its header
    lacks a trace column or repeats a column, when a row's field count
    differs from the header's, or, with the data row and column, when a
    field does not parse.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace CSV")
    cols = lines[0].split(",")
    missing = [c for c in TRACE_COLUMNS if c not in cols]
    if missing:
        raise ValueError(f"{path}: header lacks trace columns {', '.join(missing)}")
    for c in cols:
        if cols.count(c) > 1:
            raise ValueError(f"{path}: header repeats column {c!r}")
    raw = {c: [] for c in cols}
    for row, ln in enumerate(lines[1:], start=1):
        fields = ln.split(",")
        if len(fields) != len(cols):
            raise ValueError(
                f"{path}: data row {row} has {len(fields)} fields, the header {len(cols)}"
            )
        for c, fieldv in zip(cols, fields):
            raw[c].append(fieldv)

    def parse(name, convert):
        out = []
        for row, v in enumerate(raw[name], start=1):
            try:
                out.append(convert(v))
            except ValueError:
                raise ValueError(
                    f"{path}: data row {row}, column {name}: cannot parse {v!r}"
                ) from None
        return np.array(out)

    def fcol(name):
        if all(v == "" for v in raw[name]):
            return None
        return parse(name, lambda v: float(v) if v else np.nan)

    return RunTrace(
        label=Path(path).stem.removeprefix("trace_"),
        k=parse("k", int),
        **{name: fcol(name) for name in TRACE_COLUMNS[1:]},
    )


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
FLOOR = 1e-17


def emit_svg_plot(traces, path, axes: str) -> None:
    """Self-contained SVG comparing loss curves, one polyline per trace.

    axes is "semilogy" (linear iteration axis) or "loglog". Losses are
    floor-clipped at 1e-17 for display only; non-finite losses are left out
    of the axes and the polylines, and a trace with no finite loss to plot
    (none at k >= 1 on loglog axes) raises ValueError.
    """
    if axes not in ("semilogy", "loglog"):
        raise ValueError(f"axes must be 'semilogy' or 'loglog', got {axes!r}")
    if not traces:
        raise ValueError("need at least one trace")
    for tr in traces:
        if len(tr) == 0:
            raise ValueError("cannot plot an empty trace")

    W, H = 860, 540
    ml, mr, mt, mb = 70, 170, 20, 50
    pw, ph = W - ml - mr, H - mt - mb

    series = []
    at = " at k >= 1" if axes == "loglog" else ""
    for idx, tr in enumerate(traces):
        label = tr.label or f"trace{idx}"
        keep = np.isfinite(tr.loss)
        if axes == "loglog":
            keep &= tr.k >= 1
        if not keep.any():
            raise ValueError(f"trace {label!r} has no finite loss to plot{at}")
        k = tr.k[keep].astype(float)
        y = np.log10(np.maximum(tr.loss[keep], FLOOR))
        series.append((np.log10(k) if axes == "loglog" else k, y, label))

    xmin = min(s[0].min() for s in series)
    xmax = max(s[0].max() for s in series)
    ymin = min(s[1].min() for s in series)
    ymax = max(s[1].max() for s in series)
    if xmax == xmin:
        xmax = xmin + 1.0
    ylo, yhi = np.floor(ymin), np.ceil(ymax)
    if yhi == ylo:
        yhi = ylo + 1.0

    def px(x):
        return ml + (x - xmin) / (xmax - xmin) * pw

    def py(y):
        return mt + (yhi - y) / (yhi - ylo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="black" stroke-width="1"/>',
    ]

    # y ticks at every decade
    for yi in range(int(ylo), int(yhi) + 1):
        yy = py(yi)
        parts.append(
            f'<line x1="{ml - 4}" y1="{yy:.2f}" x2="{ml}" y2="{yy:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{yy + 4:.2f}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif">1e{yi}</text>'
        )

    # x ticks: decades on loglog, rounded steps otherwise
    if axes == "loglog":
        xticks = [
            (xi, f"1e{xi}") for xi in range(int(np.floor(xmin)), int(np.ceil(xmax)) + 1)
        ]
    else:
        step = max(1.0, round((xmax - xmin) / 6))
        mag = 10 ** np.floor(np.log10(step))
        step = np.ceil(step / mag) * mag
        ticks = np.arange(np.ceil(xmin / step) * step, xmax + step / 2, step)
        xticks = [(t, f"{t:g}") for t in ticks]
    for xv, label in xticks:
        if xv < xmin - 1e-9 or xv > xmax + 1e-9:
            continue
        xx = px(xv)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{mt + ph}" x2="{xx:.2f}" y2="{mt + ph + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{mt + ph + 18}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{label}</text>'
        )

    xaxis_label = "iteration k (log scale)" if axes == "loglog" else "iteration k"
    parts.append(
        f'<text x="{ml + pw / 2:.2f}" y="{H - 12}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif">{xaxis_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {mt + ph / 2:.2f})">'
        "optimality gap</text>"
    )

    for idx, (x, y, label) in enumerate(series):
        # xml.sax.saxutils.escape, whose import (urllib.request, http.client)
        # would add 2.2 MB of peak RSS to every CLI process.
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = mt + 16 + 20 * idx
        lx = ml + pw + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-size="12" font-family="sans-serif">'
            f"{label}</text>"
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
