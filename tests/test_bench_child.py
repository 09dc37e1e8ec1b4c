"""The benchmark's sample script runs against the library as it stands.

bench/child.py calls about 20 public pushopt names with fixed signatures;
if one breaks, every benchmark sample fails. This test runs the script's
`run` and `traced` modes on both gated workloads and applies the
benchmark's own traced-output rule. It reads bench/ and writes only under
the test's temporary directory.

Budget: 8 s for the four sample processes (they took 4.3-5.0 s in all on a
2-CPU x86-64 host with one BLAS thread).
"""

import importlib.util
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
