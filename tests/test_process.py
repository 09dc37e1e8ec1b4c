"""Properties only a fresh interpreter shows: what `pushopt` imports,
outputs that must not depend on the BLAS thread count, and the demos'
committed plots."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DEMOS = SRC.parent / "demos"


def _python(args, threads=1, **kwargs):
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
    }
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True,
        **kwargs,
    )


_IMPORTS_SCRIPT = """
import json, os, sys
from pathlib import Path

# One usable CPU keeps every run in this process, where sys.modules shows
# what it imports; with two, runs would go to forked workers.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

def loaded():
    return {
        "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
        "numpy.random": "numpy.random" in sys.modules,
    }
import pushopt.objectives
report = {"objectives": loaded()}
from pushopt.cli import main

out = Path(sys.argv[1])
report["import"] = loaded()
assert main(["reproduce", "--case", "strongly", "--iters", "20", "--out", str(out / "rep")]) == 0
report["reproduce"] = loaded()
config = {
    "graph": {"n": 160, "extra_edges": 480, "seed": 7},
    "objective": {"kind": "quadratic", "dim": 3, "kappa": 10.0, "mu_base": 0.1, "seed": 2},
    "init": {"x0_seed": 0},
    "run": {"iterations": 5, "out_dir": str(out / "run")},
    "algorithms": [{"name": "apdsc", "params": "auto"}],
}
(out / "config.json").write_text(json.dumps(config))
assert main(["run", "--config", str(out / "config.json")]) == 0
report["sparse_run"] = loaded()
print(json.dumps(report))
"""


def test_imports_load_no_scipy(tmp_path):
    """`import pushopt.objectives`, and so `import pushopt.cli`, loads
    numpy.random (every run draws from it) and no scipy module; neither an
    n = 20 `reproduce` nor an n = 160 run on the in-neighbor gather loads
    one. The script runs on one CPU, so the three-algorithm `reproduce`
    makes no worker whose imports it would miss."""
    out = _python(["-c", _IMPORTS_SCRIPT, str(tmp_path)]).stdout
    report = json.loads(out.splitlines()[-1])
    for stage in ("objectives", "import", "reproduce", "sparse_run"):
        assert report[stage]["scipy"] == [], stage
        assert report[stage]["numpy.random"], stage


def _assert_outputs_independent_of_blas_threads(tmp_path, config):
    """`pushopt run` on config writes byte-identical summary.json and trace
    CSVs with one BLAS thread and with two."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        _python(
            ["-m", "pushopt.cli", "run", "--config", str(path), "--out", str(out)],
            threads=threads,
        )
        outputs[threads] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    names = ["summary.json"] + [f"trace_{a['name']}.csv" for a in config["algorithms"]]
    assert sorted(outputs[1]) == sorted(names)
    for name in names:
        assert outputs[1][name] == outputs[2][name], name


def test_n400_outputs_independent_of_blas_threads(tmp_path):
    """Thread-count independence on the n = 400 bench config (ring + 1200
    links, graph seed 7, objective and x0 seed 11), shortened to 60
    iterations."""
    _assert_outputs_independent_of_blas_threads(tmp_path, {
        "graph": {"n": 400, "extra_edges": 1200, "seed": 7},
        "objective": {
            "kind": "quadratic", "dim": 5, "kappa": 100.0, "mu_base": 0.01, "seed": 11,
        },
        "init": {"x0_seed": 11},
        "run": {"iterations": 60},
        "algorithms": [{"name": a, "params": "auto"} for a in ("apd", "apdsc", "pushdiging")],
    })


def test_n160_outputs_independent_of_blas_threads(tmp_path):
    """Thread-count independence on the n = 160 ring + 480 links config the
    import test runs, with all three "auto" solvers and 60 iterations."""
    _assert_outputs_independent_of_blas_threads(tmp_path, {
        "graph": {"n": 160, "extra_edges": 480, "seed": 7},
        "objective": {"kind": "quadratic", "dim": 3, "kappa": 10.0, "mu_base": 0.1, "seed": 2},
        "init": {"x0_seed": 0},
        "run": {"iterations": 60},
        "algorithms": [{"name": a, "params": "auto"} for a in ("apd", "apdsc", "pushdiging")],
    })


_RSS_SCRIPT = """
import json, resource, sys
from pathlib import Path
from pushopt.cli import main

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux

start = peak()
out = Path(sys.argv[1])
n = 2000
config = {
    "graph": {"n": n, "extra_edges": 3 * n, "seed": 7},
    "objective": {"kind": "quadratic", "dim": 3, "kappa": 10.0, "mu_base": 0.1, "seed": 2},
    "init": {"x0_seed": 0},
    "run": {"iterations": 5, "out_dir": str(out / "run")},
    "algorithms": [{"name": "apd", "params": {"eta": 0.01}}],
}
(out / "config.json").write_text(json.dumps(config))
assert main(["run", "--config", str(out / "config.json")]) == 0
print(json.dumps({"n": n, "start": start, "peak": peak()}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_run_peak_rss_at_n2000(tmp_path):
    """`pushopt run` at n = 2000 (ring + 3n links, one run, so no worker)
    adds at most 2.6 x 8 n^2 bytes of peak RSS to an imported
    `pushopt.cli`. Its set-up holds two n-by-n arrays at a time: no dense C
    is formed, as `op` is the gather built from the edges, and eigvalsh's
    copy of the Gram matrix replaces the matrix it was formed from. It adds
    2.38 x 8 n^2; holding a dense C through set-up added 3.37 x 8 n^2."""
    report = json.loads(_python(["-c", _RSS_SCRIPT, str(tmp_path)]).stdout.splitlines()[-1])
    n = report["n"]
    assert report["peak"] - report["start"] <= 2.6 * 8 * n * n


@pytest.mark.parametrize("demo", ["quadratic_acceleration", "strongly_convex_scaling"])
def test_demo_rewrites_committed_svg(tmp_path, demo):
    """The demo, run from a copy with one BLAS thread, writes the SVG that
    demos/out/ holds, byte for byte."""
    copy = tmp_path / "demos" / f"{demo}.py"
    copy.parent.mkdir()
    shutil.copy(DEMOS / f"{demo}.py", copy)
    _python([str(copy)])
    svg = f"out/{demo}.svg"
    assert (copy.parent / svg).read_bytes() == (DEMOS / svg).read_bytes()
