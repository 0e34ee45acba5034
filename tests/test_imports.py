"""Every name a package module imports is used there or re-exported,
every name in a module's __all__ resolves, and every private name the
package defines is used somewhere in the package."""

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


def _defined_names(scope) -> list:
    """(name, line) of each name a module or class body binds."""
    out = []
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            out.extend((t.id, node.lineno) for target in targets
                       for t in ast.walk(target) if isinstance(t, ast.Name))
    return out


def _unreferenced_private(paths) -> list:
    """Module- and class-level _private names that no loaded name,
    attribute or import in paths refers to."""
    defined = {}
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for name, line in _defined_names(scope):
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, f"{path.name}:{line}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in used)


def test_no_unreferenced_private_names():
    assert _unreferenced_private(sorted(SRC.glob("*.py"))) == []


def test_scan_finds_an_unreferenced_private_name(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("_USED = 1\n_DEAD = 2\n\n"
                 "def _helper():\n    return _USED\n\n"
                 "class C:\n    _slot: int = 0\n\n"
                 "    def _method(self):\n        self._slot = 1\n\n"
                 "    def run(self):\n        return self._method()\n")
    b = tmp_path / "b.py"
    b.write_text("from a import _helper\n")
    assert _unreferenced_private([a, b]) == ["_DEAD (a.py:2)",
                                             "_slot (a.py:8)"]
