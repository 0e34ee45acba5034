"""Span recorder that wraps immlab's public layer functions from outside.

Nothing under src/ is edited: install() replaces every module binding of
each traced function (plus two methods, one classmethod and
numpy.linalg.svd) with a wrapper that records a span, and remove() puts
the originals back.  Spans are (id, name, start, end, parent, op, attrs);
they stay in memory and are written out by the caller when the run ends.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# Callers of numpy.linalg.svd whose calls count as the `linalg` layer.
SVD_CALLERS = ("immlab.fredholm", "immlab.continuation")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list with a parent stack (single-threaded callers)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: int | None = None
        self.active = True   # wrappers pass calls through while False

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent=parent,
                    op=self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def as_records(self) -> list:
        return [[s.id, s.name, s.start, s.end, s.parent, s.op, s.attrs]
                for s in self.spans]


def _history_attrs(attrs: dict, hist) -> None:
    hist = np.asarray(hist, dtype=float)
    attrs["iters"] = max(len(hist) - 1, 0)
    attrs["stalled"] = int(np.sum(hist[1:] > 0.5 * hist[:-1]))


def _newton_attrs(attrs, args, kwargs, result, exc):
    if exc is None:
        _history_attrs(attrs, result[1])
    else:
        attrs["failed"] = 1
        _history_attrs(attrs, getattr(exc, "history", []))


def _liouville_attrs(attrs, args, kwargs, result, exc):
    if exc is None:
        attrs["iters"] = int(result.iterations)


def _solve_batch_attrs(attrs, args, kwargs, result, exc):
    h = args[1] if len(args) > 1 else kwargs["h"]
    attrs["columns"] = int(h.shape[3])


def _svd_attrs(attrs, args, kwargs, result, exc):
    m, n = np.shape(args[0])[-2:]
    attrs["cells"] = int(m) * int(n)


def _path_attrs(attrs, args, kwargs, result, exc):
    if exc is None:
        attrs["accepted"] = sum(1 for s in result.steps if s.accepted)


def _wrap(rec: Recorder, fn, name: str, on_exit=None, callers=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active or (callers is not None and sys._getframe(1)
                              .f_globals.get("__name__") not in callers):
            return fn(*args, **kwargs)
        span = rec.open(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            if on_exit is not None:
                on_exit(span.attrs, args, kwargs, result, exc)
            rec.close(span)
    wrapper.span_name = name
    return wrapper


class Tracer:
    """Installs and removes the layer wrappers on a set of immlab modules."""

    def __init__(self, im, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []
        # (owner of the original, attribute, span name, attrs hook)
        self._functions = [
            (im.bases, "vector_basis", "bases.build", None),
            (im.bases, "tensor_basis", "bases.build", None),
            (im.uniformize, "solve_liouville", "uniformize.liouville",
             _liouville_attrs),
            (im.operators, "apply_phi", "operators.apply_phi", None),
            (im.operators, "assemble_linearization", "operators.assemble", None),
            (im.operators, "project_codomain", "operators.project", None),
            (im.fredholm, "svd_report", "fredholm.report", None),
            (im.fredholm, "based_report", "fredholm.report", None),
            (im.continuation, "newton_solve", "continuation.newton",
             _newton_attrs),
            (im.continuation, "epsilon_continuation", "continuation.path",
             _path_attrs),
        ]
        self._methods = [
            (im.uniformize.LinearizedLiouville, "__post_init__",
             "uniformize.linearized_init", None),
            (im.uniformize.LinearizedLiouville, "solve_batch",
             "uniformize.linearized_solve", _solve_batch_attrs),
        ]
        self._modules = [m for k, m in sorted(sys.modules.items())
                         if k == "immlab" or k.startswith("immlab.")]
        self._geometry_cls = im.geometry.SurfaceGeometry

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for home, attr, name, hook in self._functions:
            original = getattr(home, attr)
            wrapper = _wrap(self.rec, original, name, hook)
            # every module that imported the function by name calls it
            # through its own binding, so each binding gets the wrapper
            for mod in self._modules:
                if mod.__dict__.get(attr) is original:
                    self._replace(mod, attr, wrapper)
        for cls, attr, name, hook in self._methods:
            self._replace(cls, attr, _wrap(self.rec, cls.__dict__[attr], name,
                                           hook))
        compute = self._geometry_cls.__dict__["compute"].__func__
        self._replace(self._geometry_cls, "compute",
                      classmethod(_wrap(self.rec, compute, "geometry.surface")))
        self._replace(np.linalg, "svd",
                      _wrap(self.rec, np.linalg.svd, "linalg.svd", _svd_attrs,
                            callers=SVD_CALLERS))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed attrs."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: dict = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += s.duration - child_time[s.id]
        for k, v in s.attrs.items():
            row[k] = row.get(k, 0) + v
    return out


def residual_evaluations(spans: list[Span]) -> int:
    """apply_phi calls made directly by newton_solve (one per residual)."""
    newton = {s.id for s in spans if s.name == "continuation.newton"}
    return sum(1 for s in spans
               if s.name == "operators.apply_phi" and s.parent in newton)
