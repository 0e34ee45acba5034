"""README's package-layout table and the package's modules agree: each row
names only what its module provides, and each module has a row naming its
whole public interface."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _layout_rows() -> list:
    """(module, contents) for each row of README's package-layout table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`immlab\.\w+`", cells[0]):
            rows.append((cells[0].strip("`"), cells[1]))
    return rows


@pytest.mark.parametrize("module,contents", _layout_rows(),
                         ids=[m for m, _ in _layout_rows()])
def test_layout_names_resolve(module, contents):
    names = re.findall(r"`([^`]+)`", contents)
    if module == "immlab.cli":
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
            "project"]["scripts"]
        assert names and all(scripts.get(n) == "immlab.cli:main"
                             for n in names)
        return
    mod = importlib.import_module(module)
    assert names, f"{module} row names nothing"
    missing = [n for n in names if not hasattr(mod, n)]
    assert not missing, f"{module} lacks {missing}"


@pytest.mark.parametrize(
    "path", sorted(p for p in (ROOT / "src" / "immlab").glob("*.py")
                   if p.stem != "__init__"),
    ids=lambda p: p.stem)
def test_layout_names_each_module_interface(path):
    module = f"immlab.{path.stem}"
    rows = dict(_layout_rows())
    assert module in rows, f"README's layout table has no row for {module}"
    if module == "immlab.cli":
        return  # an entry point, named by its console script
    public = importlib.import_module(module).__all__
    named = set(re.findall(r"`([^`]+)`", rows[module]))
    missing = [n for n in public if n not in named]
    assert not missing, f"README's {module} row omits {missing}"
