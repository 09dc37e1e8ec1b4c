"""The benchmark's sample script runs against the library as it stands.

bench/child.py calls about 20 public pushopt names with fixed signatures;
if one breaks, every benchmark sample fails. These tests run the script's
`setup`, `run` and `traced` modes on both gated workloads and apply the
benchmark's own traced-output rule. They read bench/ and write only under
the test's temporary directory.

Budget: 8 s for the four `run` and `traced` sample processes (they took
4.3-5.0 s in all on a 2-CPU x86-64 host with one BLAS thread), plus about
0.5 s for each `setup` process.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SEED = 3


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child(mode, workload, inp, out):
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, workload, str(inp), str(out)],
        env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize("workload", ["run_quadratic_n400", "reproduce_logistic"])
def test_bench_child_run_and_traced_agree(tmp_path, monkeypatch, workload):
    """Both modes exit 0, and every traced trace_*.csv equals its untraced
    twin byte for byte (bench/run.py `check_traced`)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    inp = _workloads().write_inputs(workload, SEED, tmp_path / "inputs")
    outs = {}
    for mode in ("run", "traced"):
        outs[mode] = tmp_path / mode
        proc = _child(mode, workload, inp, outs[mode])
        assert proc.returncode == 0, f"child.py {mode} {workload}:\n{proc.stderr}"
    traces = sorted(outs["run"].rglob("trace_*.csv"))
    assert traces
    for ref in traces:
        twin = outs["traced"] / ref.relative_to(outs["run"])
        assert twin.read_bytes() == ref.read_bytes(), twin.relative_to(tmp_path)


@pytest.mark.parametrize("workload", ["run_quadratic_n400", "reproduce_logistic"])
def test_bench_child_setup(tmp_path, monkeypatch, workload):
    """The setup mode, which gives the gated setup_s, exits 0 and ends its
    output with a JSON line holding a finite, positive setup_s."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    inp = _workloads().write_inputs(workload, SEED, tmp_path / "inputs")
    proc = _child("setup", workload, inp, tmp_path / "setup")
    assert proc.returncode == 0, f"child.py setup {workload}:\n{proc.stderr}"
    setup_s = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
    assert math.isfinite(setup_s) and setup_s > 0
