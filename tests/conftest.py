"""Session-wide checks for the test suite."""

import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# interpreter and pytest caches, and git's own store
IGNORED = {".git", ".pytest_cache", "__pycache__"}


def _repository_paths() -> set:
    paths = set()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in IGNORED]
        rel = Path(top).relative_to(ROOT)
        paths.update(rel / name for name in dirs + files)
    return paths


@pytest.fixture(scope="session", autouse=True)
def repository_left_clean():
    """Fail the run when a test leaves a new file or directory in the repo."""
    before = _repository_paths()
    yield
    added = sorted(str(p) for p in _repository_paths() - before)
    if added:
        pytest.fail(f"tests left new paths in the repository: {added}")
