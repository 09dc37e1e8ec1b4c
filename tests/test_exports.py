"""The package's export lists name only what exists, and its imports only
its declared dependencies."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pushopt

MODULES = [m.name for m in pkgutil.iter_modules(pushopt.__path__)]


def test_every_all_entry_exists():
    for name in MODULES:
        module = importlib.import_module(f"pushopt.{name}")
        for entry in getattr(module, "__all__", ()):
            assert hasattr(module, entry), f"pushopt.{name}.__all__ lists missing {entry}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(pushopt.__file__).read_text(encoding="utf-8"))
    imports = [
        node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"pushopt.{node.module}")
        exported = set(module.__all__)
        for alias in node.names:
            if not alias.name.startswith("_"):
                assert alias.name in exported, f"{alias.name} not in pushopt.{node.module}.__all__"


# pushopt itself and pyproject.toml's [project] dependencies.
DECLARED = {"pushopt", "numpy"}


def test_imports_name_only_declared_dependencies():
    """Every import in src/pushopt, at module level or inside a function,
    names pushopt, a declared dependency or a standard-library module."""
    files = sorted(Path(pushopt.__file__).parent.glob("*.py"))
    assert files
    allowed = DECLARED | set(sys.stdlib_module_names)
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in allowed, f"{path.name}:{node.lineno} imports {name}"
