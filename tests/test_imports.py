"""Every name a package module imports is used there or re-exported, and
every name in a module's __all__ resolves."""

import ast
import importlib
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "immlab"


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom math import pi, tau\n"
                   "__all__ = ['tau']\nprint(os.sep)\n")
    assert _unused_imports(mod) == ["pi (line 2)"]


def _unresolved_exports(module) -> list:
    return [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]


@pytest.mark.parametrize("name", [
    "immlab" if p.stem == "__init__" else f"immlab.{p.stem}"
    for p in sorted(SRC.glob("*.py"))])
def test_exports_resolve(name):
    assert _unresolved_exports(importlib.import_module(name)) == []


def test_export_check_finds_a_missing_name():
    mod = types.ModuleType("mod")
    mod.__all__ = ["a", "b"]
    mod.a = 1
    assert _unresolved_exports(mod) == ["b"]
