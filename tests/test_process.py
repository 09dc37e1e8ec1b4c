"""Properties only a fresh interpreter shows: what `pushopt` imports, and
outputs that must not depend on the BLAS thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
import json, sys
from pathlib import Path
from pushopt.cli import main

out = Path(sys.argv[1])
def loaded():
    return {
        "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
        "numpy.random": "numpy.random" in sys.modules,
    }
report = {"import": loaded()}
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


def test_imports_load_no_scipy_linalg(tmp_path):
    """`import pushopt.cli` loads numpy.random (every run draws from it) and
    no scipy module; an n = 20 `reproduce` loads none either. An n = 160
    sparse run loads scipy.sparse for its CSR products, and still not
    scipy.linalg."""
    out = _python(["-c", _IMPORTS_SCRIPT, str(tmp_path)]).stdout
    report = json.loads(out.splitlines()[-1])
    for stage in ("import", "reproduce"):
        assert report[stage]["scipy"] == [], stage
        assert report[stage]["numpy.random"], stage
    sparse = report["sparse_run"]["scipy"]
    assert "scipy.sparse" in sparse
    assert not any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in sparse)


def test_n400_outputs_independent_of_blas_threads(tmp_path):
    """`pushopt run` on the n = 400 bench config (ring + 1200 links, graph
    seed 7, objective and x0 seed 11), shortened to 60 iterations, writes
    byte-identical summary.json and trace CSVs with one BLAS thread and with
    two."""
    config = {
        "graph": {"n": 400, "extra_edges": 1200, "seed": 7},
        "objective": {
            "kind": "quadratic", "dim": 5, "kappa": 100.0, "mu_base": 0.01, "seed": 11,
        },
        "init": {"x0_seed": 11},
        "run": {"iterations": 60},
        "algorithms": [{"name": a, "params": "auto"} for a in ("apd", "apdsc", "pushdiging")],
    }
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
    names = ["summary.json"] + [f"trace_{a}.csv" for a in ("apd", "apdsc", "pushdiging")]
    assert sorted(outputs[1]) == sorted(names)
    for name in names:
        assert outputs[1][name] == outputs[2][name], name
