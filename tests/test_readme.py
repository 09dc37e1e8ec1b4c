"""The README's examples run: the quick start's Python and the config
schema's JSON, each taken from the first fenced block under its heading;
the config schema's prose names every config key; and every call the
prose shows names something the package has."""

import json
import math
import re
from pathlib import Path

import pushopt
from pushopt import experiments
from pushopt.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The text of README.md from the line `## heading` to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {heading}\n")
    return text[start:text.index("\n## ", start + 1)]


def prose(text: str) -> str:
    """text without its fenced code blocks."""
    return re.sub(r"^```.*?^```$", "", text, flags=re.M | re.S)


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the line `## heading` in README.md."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {heading}\n")
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(text, start)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


def test_quick_start_runs(capsys):
    namespace = {}
    exec(compile(fenced_block("Quick start", "python"), "README quick start", "exec"), namespace)
    trace = namespace["trace"]
    assert math.isfinite(trace.loss[-1]) and trace.loss[-1] < trace.loss[0]
    assert float(capsys.readouterr().out) == trace.loss[-1]


def test_config_schema_example_runs(tmp_path, capsys):
    config = json.loads(fenced_block("Config schema (JSON, UTF-8)", "json"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    names = [alg["name"] for alg in config["algorithms"]]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"trace_{name}.csv" for name in names] + ["summary.json"]
    )


def test_config_schema_names_every_key():
    """Each key the config schema declares appears in a code span of the
    prose under "Config schema" (its example block does not count), so the
    README and the schema cannot drift apart."""
    spans = re.findall(r"`([^`]+)`", prose(section("Config schema (JSON, UTF-8)")))
    words = set(re.findall(r"\w+", " ".join(spans)))
    declared = {key for table in experiments._SCHEMA.values() for key in table}
    assert sorted(declared - words) == []


def test_called_names_exist():
    """Each code span of the form `name(...)`, which may wrap a line, names
    an attribute of pushopt or of a class that pushopt exports."""
    spans = re.findall(r"`([^`]+)`", prose(README.read_text(encoding="utf-8")))
    called = [m.group(1) for m in map(re.compile(r"(\w+)\(.*\)", re.S).fullmatch, spans) if m]
    assert "run" in called
    classes = [obj for obj in vars(pushopt).values() if isinstance(obj, type)]
    missing = [
        name for name in called
        if not hasattr(pushopt, name) and not any(hasattr(cls, name) for cls in classes)
    ]
    assert missing == []
