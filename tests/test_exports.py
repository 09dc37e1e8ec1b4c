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


def _absolute_imports():
    """(file name, line, module name) of every absolute import in
    src/pushopt, at module level or inside a function."""
    files = sorted(Path(pushopt.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_imports_name_only_declared_dependencies():
    """Every import names pushopt, a declared dependency or a standard-library
    module."""
    allowed = DECLARED | set(sys.stdlib_module_names)
    for file, line, name in _absolute_imports():
        assert name.partition(".")[0] in allowed, f"{file}:{line} imports {name}"


def test_one_module_imports_numpy_random():
    """numpy loads numpy.random on first use; one module of the package loads
    it at import, so that no set-up's timing pays for it."""
    importers = [
        f"{file}:{line}" for file, line, name in _absolute_imports() if name == "numpy.random"
    ]
    assert len(importers) == 1, importers
