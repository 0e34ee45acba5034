"""Session-wide checks for the test suite."""

import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
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
def fail_gesdd(monkeypatch):
    """A switch that makes later calls of numpy.linalg.svd from
    immlab.fredholm raise LinAlgError, as gesdd does when its divide and
    conquer fails to converge.

    fredholm._SVD then redoes the SVD with gesvd: the branch a gesdd
    failure on an L = 20 round-sphere linearization needed.  Calls from
    anywhere else, the tests' own reference SVDs among them, run as usual.
    switch() returns the list of the (shape, compute_uv) of each forced
    failure, so a test can check that the branch ran.
    """
    svd = np.linalg.svd
    failures = []

    def failing(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") != "immlab.fredholm":
            return svd(a, *args, **kwargs)
        failures.append((a.shape, kwargs.get("compute_uv", True)))
        raise np.linalg.LinAlgError("SVD did not converge")

    def switch():
        monkeypatch.setattr(np.linalg, "svd", failing)
        return failures

    return switch


@pytest.fixture
def live_peak():
    """A function that runs fn() and returns (its result, the peak bytes
    that tracemalloc counted live during the call beyond those live
    before it): numpy's array allocations, not the heap that the
    allocator retains."""
    def measure(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
    return measure
