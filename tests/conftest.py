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


@pytest.fixture
def fail_bdsdc(monkeypatch):
    """A switch that makes later divide-and-conquer bidiagonal SVDs report
    no convergence.

    fredholm._SVD factors the transposed bidiagonal when bdsdc fails, and
    redoes the SVD with gesvd when that fails too: the branches a gesdd
    failure on an L = 20 round-sphere linearization needed.  switch(uplo)
    fails the calls on an upper ("U") or lower ("L") bidiagonal, both by
    default, and returns the list of the (uplo, compq, n) of each forced
    failure, so a test can check that the branch ran.
    """
    from immlab import fredholm
    call = fredholm._call
    failures = []

    def switch(uplo="UL"):
        def failing(name, *args):
            if name == "dbdsdc" and args[0] in uplo:
                failures.append(args[:3])
                return 1
            return call(name, *args)

        monkeypatch.setattr(fredholm, "_call", failing)
        return failures

    return switch
