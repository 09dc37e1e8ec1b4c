"""The package's export lists name only what exists."""

import ast
import importlib
import pkgutil
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
