"""pushopt benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Inputs are generated from the seed (workloads.py), then samples run
one at a time, each in a fresh interpreter (child.py) with one BLAS thread.

--trace 0 measures the end-to-end metrics: a few set-up samples, then
workload samples for as long as the next one fits in S seconds (at least two).
--trace 1 alternates untraced and traced samples (at least one and two) in the
same way and reports the per-layer metrics.

Every sample's outputs are checked; the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The line before it is
the environment record. Everything a run writes stays under `.bench_out/`.

    python3 bench/run.py --workload reproduce_logistic --seed N --record-reference

stores the seed's reference values in references.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"

BLAS_THREADS = 1
SETUP_SAMPLES = 3
MIN_RUN_SAMPLES = 2
MIN_TRACED_SAMPLES = 2
DEADLINE_S = 170.0  # a run must exit within 180 s

TINY_GAP = 1e-6  # |final gap| of the accelerated method and pushdiging
N400_DROP = 1e-3  # apd/apdsc final gap over starting gap
# Tolerances against stored references. They sit far above what a float64
# reassociation or a float64 gap evaluation changes, and far below what a
# wrong minimizer or solver would.
REFERENCE_RTOL = {"fstar": 1e-10, "subgradpush_final_gap": 1e-6}
# Per-layer metrics reported by a traced sample (child.layer_metrics).
LAYER_UNITS = {
    "graphs.build_s": "s",
    "mixing.weights_s": "s",
    "mixing.perron_s": "s",
    "mixing.norm_s": "s",
    "mixing.matmul_us": "us",
    "mixing.flops_per_step": "flop.computed",
    "mixing.bytes_per_step": "B.computed",
    "objectives.suite_s": "s",
    "objectives.minimizer_s": "s",
    "objectives.batch_grad_calls": "count",
    "objectives.batch_grad_s": "s",
    "objectives.batch_grad_us": "us",
    "solvers.steps": "count",
    "solvers.run_s": "s",
    "solvers.self_s": "s",
    "solvers.step_us_p50": "us",
    "solvers.step_us_p99": "us",
    "diagnostics.record_calls": "count",
    "diagnostics.record_s": "s",
    "diagnostics.loss_s": "s",
    "diagnostics.self_s": "s",
    "diagnostics.share": "share",
    "diagnostics.share_base_s": "s",
    "experiments.csv_s": "s",
    "experiments.svg_s": "s",
    "experiments.bytes_written": "B",
}
# Per-layer counts that must repeat exactly between traced samples.
COUNT_KEYS = (
    "solvers.steps",
    "objectives.batch_grad_calls",
    "diagnostics.record_calls",
    "mixing.flops_per_step",
    "experiments.bytes_written",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same object layout in every sample process
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict form
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "platform": platform.platform(),
    }


class Samples:
    """Runs child samples one at a time and keeps their records."""

    def __init__(self, workload: str, inp: Path, work: Path, started: float):
        self.workload = workload
        self.inp = inp
        self.work = work
        self.started = started
        self.records = []
        self.env = child_env()

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def longest(self, mode: str) -> float:
        return max((r["elapsed"] for r in self.records if r["mode"] == mode), default=0.0)

    def fits(self, mode: str, loop_start: float, seconds: int) -> bool:
        """Whether a typical `mode` sample still ends within `seconds` of loop_start."""
        typical = statistics.median(
            [r["elapsed"] for r in self.records if r["mode"] == mode] or [0.0]
        )
        return time.monotonic() - loop_start + typical <= seconds

    def run(self, mode: str) -> dict:
        out = self.work / f"{mode}{len(self.records)}"
        cmd = [sys.executable, str(BENCH / "child.py"), mode, self.workload, str(self.inp), str(out)]
        rec = {"mode": mode, "out": out, "problems": [], "result": None}
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.left()),
            )
        except subprocess.TimeoutExpired:
            rec["problems"].append("timed out")
        else:
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                tail = proc.stderr.strip().splitlines()[-3:]
                rec["problems"].append(f"exit {proc.returncode}: {' | '.join(tail)}")
            else:
                try:
                    rec["result"] = json.loads(lines[-1])
                except ValueError:
                    rec["problems"].append(f"no result line: {lines[-1][:200]!r}")
        rec["elapsed"] = time.monotonic() - t0
        self.records.append(rec)
        return rec


def _read_loss(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0].split(",")[1] != "loss":
        raise ValueError(f"{path.name}: unexpected header")
    return [(int(ln.split(",")[0]), float(ln.split(",")[1])) for ln in lines[1:]]


def _check_rows(path: Path, K: int, problems: list) -> list:
    rows = _read_loss(path)
    if len(rows) != K + 1 or rows[-1][0] != K:
        problems.append(f"{path.name}: {len(rows)} rows, expected k = 0..{K}")
    return rows


def check_reproduce(rec: dict, seed: int, refs: dict) -> str:
    """Checks of one `reproduce` sample; returns the digest of its outputs."""
    problems, out, res = rec["problems"], rec["out"], rec["result"]
    if res.get("exit_codes") != [0] * len(W.REPRODUCE_CASES):
        problems.append(f"exit codes {res.get('exit_codes')}")
        return ""
    digest = hashlib.sha256()
    seed_refs = refs.get("seeds", {}).get(str(seed))
    if seed_refs is not None and refs.get("iterations") != W.REPRODUCE_ITERS:
        problems.append("references were recorded at another length")
    for case in W.REPRODUCE_CASES:
        d = out / case
        raw = (d / "summary.json").read_bytes()
        digest.update(raw)
        summary = json.loads(raw)
        comp = summary["comparison"]
        if comp["accelerated_no_worse"] is not True:
            problems.append(f"{case}: accelerated method worse than pushdiging")
        for key in ("accelerated_final_gap", "pushdiging_final_gap"):
            if not abs(comp[key]) <= TINY_GAP:
                problems.append(f"{case}: |{key}| = {abs(comp[key]):.3e} > {TINY_GAP}")
        values = {
            "fstar": summary["resolved"]["fstar"],
            "subgradpush_final_gap": comp["subgradpush_final_gap"],
        }
        if not (math.isfinite(values["fstar"]) and 0.0 < values["subgradpush_final_gap"] < math.inf):
            problems.append(f"{case}: fstar or subgradpush gap not finite and positive")
        if seed_refs is not None:
            for key, rtol in REFERENCE_RTOL.items():
                ref = seed_refs[case][key]
                if not abs(values[key] - ref) <= rtol * abs(ref):
                    problems.append(f"{case}: {key} {values[key]!r} != reference {ref!r}")
        for name in summary["algorithms"]:
            path = d / f"trace_{name}.csv"
            _check_rows(path, W.REPRODUCE_ITERS, problems)
            digest.update(name.encode() + path.read_bytes())
        if not (d / "comparison.svg").is_file():
            problems.append(f"{case}: comparison.svg missing")
    rec["reference_checked"] = seed_refs is not None
    return digest.hexdigest()


def check_n400(rec: dict) -> str:
    problems, out, res = rec["problems"], rec["out"] / "run", rec["result"]
    if res.get("exit_codes") != [0]:
        problems.append(f"exit codes {res.get('exit_codes')}")
        return ""
    digest = hashlib.sha256((out / "summary.json").read_bytes())
    for name in W.N400_ALGORITHMS:
        path = out / f"trace_{name}.csv"
        rows = _check_rows(path, W.N400_ITERS, problems)
        first, last = rows[0][1], rows[-1][1]
        if not math.isfinite(last):
            problems.append(f"{name}: final gap {last}")
        elif name in ("apd", "apdsc") and not last <= N400_DROP * first:
            problems.append(f"{name}: final gap {last:.3e} not below {N400_DROP} x {first:.3e}")
        digest.update(name.encode() + path.read_bytes())
    return digest.hexdigest()


def check_sweep(rec: dict) -> str:
    problems, res = rec["problems"], rec["result"]
    gaps, start = res["gaps"], res["start_gap"]
    if len(gaps) != len(W.SWEEP_GRID):
        problems.append(f"{len(gaps)} grid points finished, expected {len(W.SWEEP_GRID)}")
    for (name, c), gap in zip(W.SWEEP_GRID, gaps):
        if not (math.isfinite(gap) and gap < start):
            problems.append(f"{name} c={c}: gap {gap} not finite and below the start {start}")
    return hashlib.sha256(json.dumps(gaps).encode()).hexdigest()


def check_outputs(workload: str, rec: dict, seed: int, refs: dict) -> None:
    """Output checks of a `run` sample; stores the digest of its outputs."""
    if rec["result"] is None:
        return
    try:
        if workload == "reproduce_logistic":
            rec["digest"] = check_reproduce(rec, seed, refs)
        elif workload == "sweep_logistic":
            rec["digest"] = check_sweep(rec)
        else:
            rec["digest"] = check_n400(rec)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rec["problems"].append(f"unreadable output: {exc!r}")


def check_traced(workload: str, rec: dict, untraced: dict, first_traced: dict) -> None:
    """Traced outputs equal the untraced ones; counts repeat across traced samples."""
    if rec["result"] is None:
        return
    if untraced is not None:
        if workload == "sweep_logistic":
            if rec["result"]["gaps"] != untraced["result"]["gaps"]:
                rec["problems"].append("traced gaps differ from untraced gaps")
        else:
            for ref in sorted(untraced["out"].rglob("trace_*.csv")):
                twin = rec["out"] / ref.relative_to(untraced["out"])
                if not twin.is_file() or twin.read_bytes() != ref.read_bytes():
                    rec["problems"].append(f"traced {twin.name} differs from untraced output")
    if first_traced is not None and first_traced is not rec:
        for key in COUNT_KEYS:
            a, b = rec["result"]["layers"][key], first_traced["result"]["layers"][key]
            if a != b:
                rec["problems"].append(f"{key} {a} != {b} in the first traced sample")


def check_deterministic(rec: dict, first: dict) -> dict:
    """Flag `rec` if its outputs differ from `first`; return the run's first checked sample."""
    if not rec.get("digest"):
        return first
    if first is None:
        return rec
    if rec["digest"] != first["digest"]:
        rec["problems"].append("outputs differ from the first sample of this run")
    return first


def _timed(records, mode):
    """Samples of `mode` that ran to the end; a failed check still leaves a valid timing."""
    return [r for r in records if r["mode"] == mode and r["result"] is not None]


def measure(s: Samples, workload: str, seed: int, seconds: int, refs: dict) -> tuple:
    for _ in range(SETUP_SAMPLES):
        s.run("setup")
    loop_start = time.monotonic()
    first = None
    while True:
        n = sum(r["mode"] == "run" for r in s.records)
        if n >= MIN_RUN_SAMPLES and not s.fits("run", loop_start, seconds):
            break
        if n and s.left() < 1.2 * s.longest("run"):
            break
        rec = s.run("run")
        check_outputs(workload, rec, seed, refs)
        first = check_deterministic(rec, first)
    runs, setups = _timed(s.records, "run"), _timed(s.records, "setup")
    enough = len(runs) >= MIN_RUN_SAMPLES and setups
    metrics = {}
    if runs and setups:
        wall = statistics.median(r["result"]["wall_s"] for r in runs)
        setup = statistics.median(r["result"]["setup_s"] for r in setups)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup, "s"),
            "iters_per_s": (W.solver_iterations(workload) / (wall - setup), "1/s"),
            "peak_rss_mb": (statistics.median(r["result"]["peak_rss_mb"] for r in runs), "MB"),
        }
    return metrics, bool(enough)


def measure_traced(s: Samples, workload: str, seed: int, seconds: int) -> tuple:
    untraced = first_traced = None
    loop_start = time.monotonic()
    plan = ["run", "traced", "traced"]
    while True:
        if plan:
            mode = plan.pop(0)
        else:
            mode = "run" if s.records[-1]["mode"] == "traced" else "traced"
            if not s.fits(mode, loop_start, seconds):
                break
        if s.records and s.left() < 1.2 * max(s.longest("run"), s.longest("traced")):
            break
        rec = s.run(mode)
        if mode == "run":
            check_outputs(workload, rec, seed, {})
            untraced = check_deterministic(rec, untraced)
        else:
            if first_traced is None and rec["result"] is not None:
                first_traced = rec
            check_traced(workload, rec, untraced, first_traced)
    runs, traced = _timed(s.records, "run"), _timed(s.records, "traced")
    enough = len(traced) >= MIN_TRACED_SAMPLES and untraced is not None
    metrics = {}
    if runs and traced:
        layers = [r["result"]["layers"] for r in traced]
        for key, unit in LAYER_UNITS.items():
            metrics[key] = (statistics.median(lay[key] for lay in layers), unit)
        overhead = statistics.median(r["result"]["wall_s"] for r in traced) - statistics.median(
            r["result"]["wall_s"] for r in runs
        )
        metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, bool(enough)


def record_reference(workload: str, seed: int) -> int:
    if workload != "reproduce_logistic":
        print("references are stored for reproduce_logistic only", file=sys.stderr)
        return 2
    work = prepare(workload, seed, "ref")
    s = Samples(workload, W.write_inputs(workload, seed, work), work, time.monotonic())
    rec = s.run("run")
    check_outputs(workload, rec, seed, {})
    if rec["problems"]:
        print("; ".join(rec["problems"]), file=sys.stderr)
        return 1
    refs = json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}
    if refs.get("iterations") != W.REPRODUCE_ITERS:
        refs = {"iterations": W.REPRODUCE_ITERS, "seeds": {}}
    entry = {}
    for case in W.REPRODUCE_CASES:
        summary = json.loads((rec["out"] / case / "summary.json").read_text(encoding="utf-8"))
        entry[case] = {
            "fstar": summary["resolved"]["fstar"],
            "subgradpush_final_gap": summary["comparison"]["subgradpush_final_gap"],
        }
    refs["seeds"][str(seed)] = entry
    refs["seeds"] = dict(sorted(refs["seeds"].items(), key=lambda kv: int(kv[0])))
    REFERENCES.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(entry))
    return 0


def prepare(workload: str, seed: int, tag: str) -> Path:
    work = OUT / f"{workload}-seed{seed}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "pushopt" / "__init__.py").is_file():
        print(f"no pushopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.workload, args.seed)

    started = time.monotonic()
    work = prepare(args.workload, args.seed, f"trace{args.trace}")
    inp = W.write_inputs(args.workload, args.seed, work)
    s = Samples(args.workload, inp, work, started)
    if args.trace:
        metrics, enough = measure_traced(s, args.workload, args.seed, args.seconds)
    else:
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
        metrics, enough = measure(s, args.workload, args.seed, args.seconds, refs)

    failed = sum(bool(r["problems"]) for r in s.records)
    attempted = len(s.records)
    if not args.trace:
        metrics["pass_frac"] = ((attempted - failed) / attempted, "share")
    env = environment()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "reference_checked": any(r.get("reference_checked") for r in s.records),
        "samples": [
            {
                "mode": r["mode"],
                "elapsed_s": r["elapsed"],
                "problems": r["problems"],
                "result": {k: v for k, v in (r["result"] or {}).items() if k != "layers"},
            }
            for r in s.records
        ],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for r in s.records:
        for problem in r["problems"]:
            print(f"{r['mode']} sample failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and enough,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
