"""Configuration-driven experiment runner: traces, summaries, and SVG plots."""

from __future__ import annotations

import json
import sys
from contextlib import suppress
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import numpy.random  # loaded at import, not by the first default_rng of a set-up

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
    apd_run,
    apdsc_run,
    calibrate_theory_inputs,
    default_params_sc,
    default_params_smooth,
    push_diging_run,
    subgradient_push_run,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_experiment",
    "reproduce_paper_experiment",
    "emit_csv",
    "read_trace_csv",
    "emit_svg_plot",
]

THRESHOLDS = (1e-6, 1e-10, 1e-14)


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


@dataclass(frozen=True)
class _Algorithm:
    """How the runner resolves, runs and records one algorithm.

    An explicit params table holds the fields of params_type other than K.
    defaults(suite, nt, K, mode=, theory=) gives the "auto" params, and the
    "theoretical" ones when theoretical is set; run(X0, v0, mixing, suite,
    params, hooks) returns (output, trace). What the recorder and the
    identity monitor compute for a run follows from params_type.
    """

    params_type: type
    defaults: Callable
    run: Callable
    theoretical: bool = False
    strongly_convex: bool = False


ALGORITHMS = {
    "apd": _Algorithm(
        APDParams,
        defaults=lambda suite, nt, K, **mode: default_params_smooth(suite.L, K=K, **mode),
        run=apd_run,
        theoretical=True,
    ),
    "apdsc": _Algorithm(
        APDSCParams,
        defaults=lambda suite, nt, K, **mode: default_params_sc(
            suite.L, suite.mu, K=K, delta=nt.delta, **mode
        ),
        run=apdsc_run,
        theoretical=True,
        strongly_convex=True,
    ),
    "pushdiging": _Algorithm(
        PushDIGingParams,
        defaults=lambda suite, nt, K: PushDIGingParams(eta=0.3 / suite.L, K=K),
        run=lambda X0, v0, m, s, p, h: push_diging_run(X0, v0, m, s, p.eta, p.K, h),
    ),
    "subgradpush": _Algorithm(
        SubgradPushParams,
        defaults=lambda suite, nt, K: SubgradPushParams(step_c=0.18, K=K),
        run=lambda X0, v0, m, s, p, h: subgradient_push_run(X0, v0, m, s, p.step_c, p.K, h),
    ),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    graph: {"n", "extra_edges", "seed"} or {"edge_list": path}
    objective: {"kind": "quadratic", dim, kappa, mu_base, seed} or
               {"kind": "logistic", data, mu, partition_seed, standardize}
    algorithms: list of {"name", "params"} where params is "auto",
               "theoretical", or an explicit parameter table
    """

    graph: dict
    objective: dict
    algorithms: list
    iterations: int
    x0_seed: int = 0
    record_stride: object = "auto"  # int stride, or every 10th beyond k=10^4
    out_dir: str = "results"

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
    def from_dict(cls, raw: dict, base_dir=".") -> "ExperimentConfig":
        base = Path(base_dir)
        try:
            graph = dict(raw["graph"])
            objective = dict(raw["objective"])
            algorithms = [dict(a) for a in raw["algorithms"]]
            run = dict(raw.get("run", {}))
            init = dict(raw.get("init", {}))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"missing or malformed config section: {exc}") from None
        if not algorithms:
            raise ConfigError("need at least one algorithm")
        iterations = run.get("iterations", 1000)
        if not _is_int(iterations):
            raise ConfigError(f"iterations must be a positive integer, got {iterations!r}")
        stride = run.get("record_stride", "auto")
        if stride != "auto" and not _is_int(stride):
            raise ConfigError(
                f'record_stride must be a positive integer or "auto", got {stride!r}'
            )
        for alg in algorithms:
            name = alg.get("name")
            if name not in ALGORITHMS:
                raise ConfigError(
                    f"unknown algorithm {name!r}; choose from {tuple(ALGORITHMS)}"
                )
            params = alg.setdefault("params", "auto")
            if params == "theoretical" and not ALGORITHMS[name].theoretical:
                raise ConfigError(f"{name} has no theoretical stepsize mode")
            if params not in ("auto", "theoretical"):
                _explicit_params(name, params, iterations)
        names = [a["name"] for a in algorithms]
        if len(set(names)) != len(names):
            raise ConfigError("algorithm names must be unique within one experiment")
        sections = {"graph": graph, "objective": objective, "init": init}
        for name, least in _INTEGER_FIELDS.items():
            section, key = name.split(".")
            value = sections[section].get(key, least)
            if not _is_int(value, least):
                kind = "positive" if least else "non-negative"
                raise ConfigError(f"{name} must be a {kind} integer, got {value!r}")
        if "edge_list" in graph:
            graph["edge_list"] = str(base / graph["edge_list"])
            if not Path(graph["edge_list"]).exists():
                raise ConfigError(f"edge list {graph['edge_list']} does not exist")
        elif not {"n", "extra_edges", "seed"} <= set(graph):
            raise ConfigError("graph needs n/extra_edges/seed or an edge_list path")
        kind = objective.get("kind")
        if kind == "logistic":
            if "data" not in objective:
                raise ConfigError("logistic objective needs a 'data' path")
            objective["data"] = str(base / objective["data"])
            if not Path(objective["data"]).exists():
                raise ConfigError(f"dataset {objective['data']} does not exist")
        elif kind != "quadratic":
            raise ConfigError(f"unknown objective kind {kind!r}")
        for key in _FLOAT_FIELDS[kind]:
            _check_number(f"objective.{key}", objective.get(key))
        return cls(
            graph=graph,
            objective=objective,
            algorithms=algorithms,
            iterations=iterations,
            x0_seed=int(init.get("x0_seed", 0)),
            record_stride=stride,
            out_dir=str(run.get("out_dir", "results")),
        )


# Config fields that must be JSON integers, with their least value; int()
# would otherwise truncate them (8.9 agents would run as 8).
_INTEGER_FIELDS = {
    "graph.n": 1,
    "graph.extra_edges": 0,
    "graph.seed": 0,
    "objective.dim": 1,
    "objective.seed": 0,
    "objective.partition_seed": 0,
    "init.x0_seed": 0,
}

# Objective fields that must be finite JSON numbers, by objective kind;
# float() would otherwise turn true into 1.0 and accept the string "100".
_FLOAT_FIELDS = {"quadratic": ("kappa", "mu_base"), "logistic": ("mu",)}


def _is_int(value, least: int = 1) -> bool:
    """True for a JSON integer >= least; bools and integral floats are not integers."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_number(name: str, value) -> None:
    """Raise unless value is a finite JSON number; bools and numeric strings are not."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if not finite or isinstance(value, bool):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _explicit_params(name: str, table, K: int):
    """The params an explicit table gives; a ConfigError names a bad key."""
    if not isinstance(table, dict):
        raise ConfigError(
            f'{name} params must be "auto", "theoretical" or an object, got {table!r}'
        )
    for key, value in table.items():
        _check_number(f"{name} params.{key}", value)
    try:
        return ALGORITHMS[name].params_type(K=K, **{k: float(v) for k, v in table.items()})
    except (TypeError, ValueError) as exc:  # unknown, missing or out-of-range keys
        raise ConfigError(f"{name} params: {exc}") from None


def _build_graph(cfg: dict) -> DirectedGraph:
    if "edge_list" in cfg:
        return load_edge_list(cfg["edge_list"])
    return build_cycle_plus_random(int(cfg["n"]), int(cfg["extra_edges"]), int(cfg["seed"]))


def _build_suite(cfg: dict, n: int):
    if cfg["kind"] == "quadratic":
        return make_quadratic_suite(
            n=n,
            dim=int(cfg["dim"]),
            kappa=float(cfg["kappa"]),
            mu_base=float(cfg["mu_base"]),
            seed=int(cfg["seed"]),
        )
    data = load_labeled_csv(cfg["data"])
    if cfg.get("standardize", False):
        data = standardize_features(data)
    return make_logistic_suite(
        data, n=n, mu=float(cfg["mu"]), partition_seed=int(cfg.get("partition_seed", 0))
    )


def _resolve_params(alg: dict, prob, K: int):
    """Turn an algorithm config entry into concrete runnable parameters."""
    name, params = alg["name"], alg["params"]
    spec = ALGORITHMS[name]
    if spec.strongly_convex and prob.suite.mu <= 0:
        raise ConfigError(f"{name} needs a strongly convex suite (mu > 0)")
    if params == "auto":
        return spec.defaults(prob.suite, prob.nt, K)
    if params == "theoretical":
        theory = calibrate_theory_inputs(prob.mixing, prob.nt, prob.v0)
        return spec.defaults(prob.suite, prob.nt, K, mode="theoretical", theory=theory)
    return _explicit_params(name, params, K)


def _trace_summary(trace: RunTrace, K: int) -> dict:
    out = {
        "final_k": int(trace.k[-1]),
        "final_gap": float(trace.loss[-1]),
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


def _problem(graph: DirectedGraph, suite, x0_seed: int) -> SimpleNamespace:
    """The set-up every algorithm of one experiment shares: mixing, norm,
    reference minimizer, the Gaussian start with all-ones weights, and the
    summary's facts about them."""
    mixing = uniform_out_weights(graph)
    nt = build_contraction_norm(mixing.C, mixing.p)
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


def _run_and_write(prob, algorithms, K, stride, out: Path, summary: dict, finish=None):
    """Run each algorithm entry from prob's start and write its trace, then
    summary.json (summary plus one block per algorithm) under out. finish(summary,
    traces) may add to the summary and returns the files it wrote. On any
    failure every file written is removed."""
    plan = [(alg["name"], _resolve_params(alg, prob, K)) for alg in algorithms]
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        summary["algorithms"] = {}
        traces = {}
        for name, params in plan:
            spec = ALGORITHMS[name]
            recorder = TraceRecorder(
                prob.suite,
                prob.mixing,
                xstar=prob.xstar,
                params=params,
                norm_transform=prob.nt,
                stride=stride,
                label=name,
            )
            try:
                _, trace = spec.run(prob.X0, prob.v0, prob.mixing, prob.suite, params, recorder)
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
        written[-1].write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return summary, traces
    except Exception:
        for path in written:
            with suppress(OSError):
                path.unlink()
        raise


def run_experiment(config: ExperimentConfig, out_dir=None, x0_seed=None):
    """Build the shared graph/suite/minimizer, run every configured algorithm
    from identical initial conditions, and write traces plus a summary.

    Returns (summary dict, {name: RunTrace}). On any failure the partial
    output files are removed and the error re-raised.
    """
    out = Path(out_dir if out_dir is not None else config.out_dir)
    seed0 = config.x0_seed if x0_seed is None else int(x0_seed)
    graph = _build_graph(config.graph)
    prob = _problem(graph, _build_suite(config.objective, graph.n), seed0)
    summary = {
        "experiment": {
            "graph": config.graph,
            "objective": {
                k: v for k, v in config.objective.items() if k != "standardize"
            },
            "standardize": bool(config.objective.get("standardize", False)),
            "iterations": config.iterations,
            "x0_seed": seed0,
            "record_stride": config.record_stride,
        },
        "resolved": prob.resolved,
    }
    return _run_and_write(
        prob, config.algorithms, config.iterations, config.record_stride, out, summary
    )


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


def reproduce_paper_experiment(data_path, case: str, out_dir, iters: int = 3000):
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
        if not Path(data_path).exists():
            raise ConfigError(f"dataset {data_path} does not exist")
        data = load_labeled_csv(data_path)
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
        data = synthetic_logistic_dataset(rows_needed, 4, seed=REPRO_DATA_SEED)
        data_source = "synthetic"

    prob = _problem(
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
    """Parse a trace CSV written by :func:`emit_csv`.

    Raises ValueError naming the file when it is empty, when its header
    lacks a trace column, when a row's field count differs from the
    header's, or, with the data row and column, when a field does not parse.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError(f"{path}: empty trace CSV")
    cols = lines[0].split(",")
    missing = [c for c in TRACE_COLUMNS if c not in cols]
    if missing:
        raise ValueError(f"{path}: header lacks trace columns {', '.join(missing)}")
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
        label=Path(path).stem.replace("trace_", ""),
        k=parse("k", int),
        **{name: fcol(name) for name in TRACE_COLUMNS[1:]},
    )


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
FLOOR = 1e-17


def emit_svg_plot(traces, path, axes: str = "semilogy") -> None:
    """Self-contained SVG comparing loss curves, one polyline per trace.

    axes is "semilogy" (linear iteration axis) or "loglog". Losses are
    floor-clipped at 1e-17 for display only.
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
    for tr in traces:
        k = tr.k.astype(float)
        y = np.log10(np.maximum(tr.loss, FLOOR))
        if axes == "loglog":
            keep = k >= 1
            k, y = k[keep], y[keep]
            x = np.log10(k)
        else:
            x = k
        series.append((x, y, tr.label))

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
            f"{label or f'trace{idx}'}</text>"
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
