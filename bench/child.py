"""One benchmark sample, run in a fresh interpreter so no cache carries over.

    python3 bench/child.py MODE WORKLOAD INPUT OUT

MODE is one of
  setup   time the workload's set-up sequence: graph, mixing weights,
          contraction norm, suite (with its data) and global_minimizer;
  run     the workload through its public entry points, untraced;
  traced  the same work rebuilt from the public functions, with a span
          around every call into a layer (see tracing.py).
INPUT is the file run.py generated (data.csv or config.json) and OUT the
sample's output directory. The last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import pushopt
from pushopt import (
    APDParams,
    APDSCParams,
    TraceRecorder,
    apd_run,
    apdsc_run,
    build_contraction_norm,
    build_cycle_plus_random,
    default_params_sc,
    default_params_smooth,
    emit_csv,
    emit_svg_plot,
    global_minimizer,
    load_labeled_csv,
    make_logistic_suite,
    make_quadratic_suite,
    optimality_gap,
    perron_vector,
    push_diging_run,
    subgradient_push_run,
    uniform_out_weights,
)
from pushopt import experiments as ex
from pushopt.cli import main as cli_main

import workloads as W
from tracing import NullTracer, TimedHook, TimedSuite, Tracer

# Products with C per solver step: (n, dim) stacks, plus one C @ v each step.
STACK_PRODUCTS = {"apd": 3, "apdsc": 3, "pushdiging": 2, "subgradpush": 1}


def _logistic_suite(data_path, mu):
    data = load_labeled_csv(data_path)
    return make_logistic_suite(data, ex.REPRO_AGENTS, mu, ex.REPRO_PARTITION_SEED)


def logistic_setup(data_path, mu, tr):
    """The n = 20 logistic problem, built as `pushopt reproduce` builds it."""
    graph = tr.call(
        "graphs.build",
        build_cycle_plus_random,
        ex.REPRO_AGENTS,
        ex.REPRO_EXTRA_EDGES,
        ex.REPRO_GRAPH_SEED,
    )
    return _finish_setup(graph, tr, _logistic_suite, data_path, mu)


def quadratic_setup(cfg, tr):
    """The config's quadratic problem, built as `pushopt run` builds it."""
    g, o = cfg["graph"], cfg["objective"]
    graph = tr.call(
        "graphs.build",
        build_cycle_plus_random,
        int(g["n"]),
        int(g["extra_edges"]),
        int(g["seed"]),
    )
    return _finish_setup(
        graph,
        tr,
        make_quadratic_suite,
        n=graph.n,
        dim=int(o["dim"]),
        kappa=float(o["kappa"]),
        mu_base=float(o["mu_base"]),
        seed=int(o["seed"]),
    )


def _finish_setup(graph, tr, make_suite, *args, **kwargs):
    mixing = tr.call("mixing.weights", uniform_out_weights, graph)
    nt = tr.call("mixing.norm", build_contraction_norm, mixing.C, mixing.p)
    suite = tr.call("objectives.suite", make_suite, *args, **kwargs)
    xstar, fstar = tr.call("objectives.minimizer", global_minimizer, suite)
    return SimpleNamespace(mixing=mixing, nt=nt, suite=suite, xstar=xstar, fstar=fstar)


def run_algorithm(name, params, X0, v0, mixing, suite, hooks, K):
    # pushopt's own dispatch is private; this one calls only the public runs.
    if name == "apd":
        return apd_run(X0, v0, mixing, suite, params, hooks)
    if name == "apdsc":
        return apdsc_run(X0, v0, mixing, suite, params, hooks)
    if name == "pushdiging":
        return push_diging_run(X0, v0, mixing, suite, params["eta"], K, hooks)
    return subgradient_push_run(X0, v0, mixing, suite, params["step_c"], K, hooks)


def recorded_runs(prob, plan, X0, K, stride, out, tr, log):
    """Run each (name, params) with a TraceRecorder and write its trace CSV."""
    suite = TimedSuite(prob.suite, tr)
    v0 = np.ones(X0.shape[0])
    traces = []
    for name, params in plan:
        accel = name in ("apd", "apdsc")
        recorder = TraceRecorder(
            suite,
            prob.mixing,
            xstar=prob.xstar,
            params=params if accel else None,
            norm_transform=prob.nt if accel else None,
            estimate="Y" if accel else "X",
            stride=stride,
            label=name,
        )
        hook = TimedHook(tr, recorder)
        _, trace = tr.call(
            "solvers.run", run_algorithm, name, params, X0, v0, prob.mixing, suite, hook, K
        )
        log.runs.append((name, prob.mixing.n, prob.suite.dim, hook))
        path = out / f"trace_{name}.csv"
        tr.call("experiments.csv", emit_csv, trace, path)
        log.files.append(path)
        traces.append(trace)
    return traces


class RunLog:
    """What a traced sample did: solver runs, mixing matrices built, files written."""

    def __init__(self):
        self.runs = []  # (algorithm, n, dim, TimedHook)
        self.mixings = []
        self.files = []


def reproduce_traced(inp, out, tr, log):
    for case in W.REPRODUCE_CASES:
        span = tr.begin(f"case.{case}")
        block = ex.REPRODUCTION_PARAMS[case]
        prob = logistic_setup(inp, block["mu"], tr)
        log.mixings.append(prob.mixing)
        X0 = np.random.default_rng(ex.REPRO_X0_SEED).standard_normal(
            (ex.REPRO_AGENTS, prob.suite.dim)
        )
        K = W.REPRODUCE_ITERS
        plan = []
        for name in (a for a in ex.ALGORITHMS if a in block):
            if name == "apd":
                plan.append((name, APDParams(K=K, **block[name])))
            elif name == "apdsc":
                plan.append((name, APDSCParams(K=K, **block[name])))
            else:
                plan.append((name, dict(block[name])))
        case_out = out / case
        case_out.mkdir(parents=True, exist_ok=True)
        traces = recorded_runs(prob, plan, X0, K, "auto", case_out, tr, log)
        svg = case_out / "comparison.svg"
        tr.call("experiments.svg", emit_svg_plot, traces, svg, axes="semilogy")
        log.files.append(svg)
        tr.end(span)


def n400_traced(inp, out, tr, log):
    cfg = json.loads(Path(inp).read_text(encoding="utf-8"))
    prob = quadratic_setup(cfg, tr)
    log.mixings.append(prob.mixing)
    suite, K = prob.suite, int(cfg["run"]["iterations"])
    X0 = np.random.default_rng(int(cfg["init"]["x0_seed"])).standard_normal(
        (prob.mixing.n, suite.dim)
    )
    plan = []
    for alg in cfg["algorithms"]:
        name = alg["name"]
        if name == "apd":
            plan.append((name, default_params_smooth(suite.L, K=K)))
        elif name == "apdsc":
            plan.append((name, default_params_sc(suite.L, suite.mu, K=K, delta=prob.nt.delta)))
        else:  # pushdiging "auto" is eta = 0.3 / L in `pushopt run`
            plan.append((name, {"eta": 0.3 / suite.L}))
    run_out = out / "run"
    run_out.mkdir(parents=True, exist_ok=True)
    stride = cfg["run"].get("record_stride", "auto")
    recorded_runs(prob, plan, X0, K, stride, run_out, tr, log)


def sweep(inp, tr, log):
    """The stepsize grid: hook-free runs, each followed by one optimality_gap.

    Traced, the suite is wrapped and a recorder-less TimedHook marks steps.
    Returns the gaps and a function giving the gap at X0, for the checks.
    """
    traced = log is not None
    prob = logistic_setup(inp, W.SWEEP_MU, tr)
    suite = TimedSuite(prob.suite, tr) if traced else prob.suite
    L, mu, n = prob.suite.L, prob.suite.mu, prob.mixing.n
    X0 = np.random.default_rng(ex.REPRO_X0_SEED).standard_normal((n, prob.suite.dim))
    v0 = np.ones(n)
    K = W.SWEEP_ITERS
    gaps = []
    for name, c in W.SWEEP_GRID:
        hook = TimedHook(tr) if traced else None
        if name == "apdsc":
            params = default_params_sc(L, mu, c_prac=c, K=K, delta=prob.nt.delta)
        else:
            params = {"eta": c / L}
        output, _ = tr.call(
            "solvers.run", run_algorithm, name, params, X0, v0, prob.mixing, suite, hook, K
        )
        gaps.append(
            tr.call("diagnostics.gap", optimality_gap, prob.suite, output, prob.xstar, prob.fstar)
        )
        if traced:
            log.runs.append((name, n, prob.suite.dim, hook))
    if traced:
        log.mixings.append(prob.mixing)
    return gaps, lambda: optimality_gap(prob.suite, X0, prob.xstar, prob.fstar)


def _sweep_result(gaps, start_gap) -> dict:
    return {"gaps": [float(g) for g in gaps], "start_gap": float(start_gap())}


def mode_setup(workload, inp, out):
    tr = NullTracer()
    if workload == "run_quadratic_n400":
        cfg = json.loads(Path(inp).read_text(encoding="utf-8"))
        t0 = perf_counter()
        quadratic_setup(cfg, tr)
    else:
        mus = (
            [ex.REPRODUCTION_PARAMS[c]["mu"] for c in W.REPRODUCE_CASES]
            if workload == "reproduce_logistic"
            else [W.SWEEP_MU]
        )
        t0 = perf_counter()
        for mu in mus:
            logistic_setup(inp, mu, tr)
    return {"setup_s": perf_counter() - t0}


def mode_run(workload, inp, out):
    if workload == "sweep_logistic":
        t0 = perf_counter()
        swept = sweep(inp, NullTracer(), None)
        return {"wall_s": perf_counter() - t0, **_sweep_result(*swept)}
    if workload == "reproduce_logistic":
        argvs = [
            ["reproduce", "--case", c, "--data", str(inp), "--out", str(out / c),
             "--iters", str(W.REPRODUCE_ITERS)]
            for c in W.REPRODUCE_CASES
        ]
    else:
        argvs = [["run", "--config", str(inp), "--out", str(out / "run")]]
    codes = []
    t0 = perf_counter()
    for argv in argvs:
        codes.append(cli_main(argv))
    return {"wall_s": perf_counter() - t0, "exit_codes": codes}


def mode_traced(workload, inp, out):
    tr = Tracer()
    log = RunLog()
    root = tr.begin("sample")
    t0 = perf_counter()
    swept = None
    if workload == "reproduce_logistic":
        reproduce_traced(inp, out, tr, log)
    elif workload == "sweep_logistic":
        swept = sweep(inp, tr, log)
    else:
        n400_traced(inp, out, tr, log)
    res = {"wall_s": perf_counter() - t0}
    tr.end(root)
    if swept is not None:
        res.update(_sweep_result(*swept))
    res["layers"] = layer_metrics(tr, log, probe(log))
    tr.write_csv(out / "spans.csv")
    return res


def probe(log):
    """Standalone timings taken after the workload: Perron vector and C @ X."""
    perron_s = 0.0
    for m in log.mixings:
        t0 = perf_counter()
        perron_vector(m.C)
        perron_s += perf_counter() - t0
    m = log.mixings[-1]
    X = np.random.default_rng(0).standard_normal((m.n, log.runs[0][2]))
    C = m.C
    per_call = []
    for _ in range(25):
        t0 = perf_counter()
        for _ in range(40):
            C @ X
        per_call.append((perf_counter() - t0) / 40)
    return {"mixing.perron_s": perron_s, "mixing.matmul_us": 1e6 * float(np.median(per_call))}


def layer_metrics(tr, log, probes):
    steps = sum(len(h.step_gaps) for *_, h in log.runs)
    gaps_us = 1e6 * np.concatenate([np.asarray(h.step_gaps) for *_, h in log.runs])
    flops = bytes_ = 0
    for name, n, dim, hook in log.runs:
        k = len(hook.step_gaps)
        stacks = STACK_PRODUCTS[name]
        flops += k * (stacks * 2 * n * n * dim + 2 * n * n)
        bytes_ += k * 8 * (stacks * (n * n + 2 * n * dim) + (n * n + 2 * n))
    bg_calls = tr.count("objectives.batch_grad")
    bg_s = tr.total("objectives.batch_grad")
    record_s = tr.total("diagnostics.record")
    loss_s = tr.total("objectives.average_values")
    run_s = tr.total("solvers.run") - record_s
    base = record_s + run_s
    return {
        "graphs.build_s": tr.total("graphs.build"),
        "mixing.weights_s": tr.total("mixing.weights"),
        "mixing.perron_s": probes["mixing.perron_s"],
        "mixing.norm_s": tr.total("mixing.norm"),
        "mixing.matmul_us": probes["mixing.matmul_us"],
        "mixing.flops_per_step": flops / steps,
        "mixing.bytes_per_step": bytes_ / steps,
        "objectives.suite_s": tr.total("objectives.suite"),
        "objectives.minimizer_s": tr.total("objectives.minimizer"),
        "objectives.batch_grad_calls": bg_calls,
        "objectives.batch_grad_s": bg_s,
        "objectives.batch_grad_us": 1e6 * bg_s / bg_calls,
        "solvers.steps": steps,
        "solvers.run_s": run_s,
        "solvers.self_s": run_s - bg_s,
        "solvers.step_us_p50": float(np.percentile(gaps_us, 50)),
        "solvers.step_us_p99": float(np.percentile(gaps_us, 99)),
        "diagnostics.record_calls": tr.count("diagnostics.record"),
        "diagnostics.record_s": record_s,
        "diagnostics.loss_s": loss_s,
        "diagnostics.self_s": record_s - loss_s,
        "diagnostics.share": record_s / base,
        "diagnostics.share_base_s": base,
        "experiments.csv_s": tr.total("experiments.csv"),
        "experiments.svg_s": tr.total("experiments.svg"),
        "experiments.bytes_written": sum(p.stat().st_size for p in log.files),
    }


MODES = {"setup": mode_setup, "run": mode_run, "traced": mode_traced}


def main(argv) -> int:
    mode, workload, inp, out = argv
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(pushopt.__file__).resolve().parent.parent != src.resolve():
        print(f"pushopt was imported from {pushopt.__file__}, not {src}", file=sys.stderr)
        return 3
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    result = MODES[mode](workload, Path(inp), out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
