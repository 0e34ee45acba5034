"""Benchmark immlab end to end and per layer.

    python3 perfbench/run.py --workload index --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports immlab from ./src and
calls only its public API, as one process and one caller issuing
operations in sequence (a closed loop).  BLAS runs on BLAS_THREADS threads,
set here before numpy loads.

--trace 0 sets up SETUPS times (median reported as setup_s), then runs the
workload's operation on seed-drawn inputs until --seconds have passed and
prints the end-to-end metrics.  --trace 1 runs the workload's fixed
trace_ops operations untraced, then the same operations again with every
layer function wrapped (see tracing.py), checks that both passes give the
same results, and prints the per-layer metrics.  Either way the last line
of stdout is the JSON result, and a record with the machine, the drawn
inputs, every operation's outcome and (traced) the spans is written to
perfbench/out/.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401
import scipy.special  # noqa: E402,F401
from scipy.stats import qmc  # noqa: E402

from tracing import Recorder, Tracer, residual_evaluations, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUPS = 5
NODE_TABLES = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))
MODULES = ("spectral", "bases", "geometry", "shapes", "uniformize",
           "operators", "fredholm", "continuation")
# traced and untraced fingerprints must agree to this share of their scale
FINGERPRINT_RTOL = 1e-10


class SourceMissing(Exception):
    """immlab cannot be imported from this checkout's src/."""


# -- set-up -------------------------------------------------------------------

def import_immlab() -> SimpleNamespace:
    """Fresh import of the immlab modules from ./src (drops cached ones)."""
    for name in [k for k in sys.modules
                 if k == "immlab" or k.startswith("immlab.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    try:
        mods = {m: importlib.import_module("immlab." + m) for m in MODULES}
    except ImportError as exc:
        raise SourceMissing(f"cannot import immlab from {SRC}: {exc}") from exc
    origin = os.path.realpath(sys.modules["immlab"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SourceMissing(f"immlab resolved outside {SRC}: {origin}")
    return SimpleNamespace(**mods)


def setup(spec, seed: int):
    """Import immlab, build the grid, its node tables and the seeded inputs."""
    t0 = time.perf_counter()
    im = import_immlab()
    t1 = time.perf_counter()
    g = im.spectral.grid(spec.L)
    for dth, dph in NODE_TABLES:
        g.node_matrix(dth, dph)
    t2 = time.perf_counter()
    rng = np.random.default_rng(seed)
    points = qmc.Halton(d=spec.dims, scramble=True, seed=rng).random(spec.pool)
    params, inputs = zip(*(spec.draw(im, g, u, rng) for u in points))
    t3 = time.perf_counter()
    return im, list(params), list(inputs), t3 - t0, t2 - t1


# -- operations ---------------------------------------------------------------

def run_pass(spec, im, params, inputs, *, seconds=None, n_ops=None,
             rec=None):
    """Closed loop over the inputs in turn, gating each operation.

    Stops after n_ops operations, or once `seconds` have elapsed.  Only
    the operation itself is timed; its gate runs after the clock stops
    and outside any span.  Returns (per-op records, fingerprints).
    """
    records, prints = [], []
    t_start = time.perf_counter()
    while True:
        i = len(records)
        k = i % len(inputs)
        span = None
        if rec is not None:
            rec.op = i
            span = rec.open("op")
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, exc = spec.operation(im, inputs[k]), None
        except Exception as e:  # every failure is counted, none retried
            result, exc = None, e
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        if rec is not None:
            rec.close(span)
            rec.active = False
        record, fp = judge(spec, im, params[k], inputs[k], result, exc)
        if rec is not None:
            rec.active = True
        record.update(op=i, input=k, seconds=dt, cpu_seconds=cpu)
        records.append(record)
        prints.append(fp)
        if n_ops is not None:
            if len(records) >= n_ops:
                break
        elif time.perf_counter() - t_start >= seconds:
            break
    return records, prints


def judge(spec, im, params, inp, result, exc):
    """Gate one operation; returns (record, fingerprint or None)."""
    out = {"params": params}
    fp = None
    if exc is not None:
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["failure"] = type(exc).__name__
    else:
        try:
            checks, misses, fp = spec.gate(im, inp, result)
        except Exception as e:  # a gate that cannot evaluate is a miss
            checks, misses = {}, [f"gate raised {type(e).__name__}: {e}"]
        out["checks"] = checks
        if misses:
            out["misses"] = misses
            out["failure"] = "GateMiss"
    out["ok"] = "failure" not in out
    return out, fp


def fingerprints_match(a, b) -> bool:
    for x, y in zip(a, b, strict=True):
        if x is None or y is None:
            if x is not y:
                return False
            continue
        if x.shape != y.shape:
            return False
        scale = max(1.0, float(np.max(np.abs(x), initial=0.0)))
        if not np.allclose(x, y, rtol=0.0, atol=FINGERPRINT_RTOL * scale,
                           equal_nan=True):
            return False
    return True


# -- metrics ------------------------------------------------------------------

def _check_metrics(records) -> dict:
    def pick(key, fn):
        vals = [r["checks"][key] for r in records
                if key in r.get("checks", {})]
        return float(fn(vals)) if vals else 0.0
    return {
        "check.procrustes_err_max": (pick("procrustes_err", max), "1"),
        "check.final_defect": (pick("final_defect", max), "1"),
        "check.gap_ratio_min": (pick("gap_ratio", min), "1"),
    }


# (metric, span name, field of its summarize() row); `s` and `self_s` are
# seconds, every other field is a count
SPAN_METRICS = [
    ("bases.build_s", "bases.build", "s"),
    ("bases.build_calls", "bases.build", "calls"),
    ("geometry.surface_s", "geometry.surface", "s"),
    ("geometry.surface_calls", "geometry.surface", "calls"),
    ("uniformize.liouville_s", "uniformize.liouville", "s"),
    ("uniformize.liouville_calls", "uniformize.liouville", "calls"),
    ("uniformize.liouville_iters", "uniformize.liouville", "iters"),
    ("uniformize.linearized_init_s", "uniformize.linearized_init", "s"),
    ("uniformize.linearized_solve_s", "uniformize.linearized_solve", "s"),
    ("uniformize.linearized_columns", "uniformize.linearized_solve",
     "columns"),
    ("operators.apply_phi_s", "operators.apply_phi", "s"),
    ("operators.apply_phi_calls", "operators.apply_phi", "calls"),
    ("operators.assemble_s", "operators.assemble", "s"),
    ("operators.assemble_self_s", "operators.assemble", "self_s"),
    ("operators.assemble_calls", "operators.assemble", "calls"),
    ("operators.project_s", "operators.project", "s"),
    ("operators.project_calls", "operators.project", "calls"),
    ("fredholm.report_s", "fredholm.report", "s"),
    ("fredholm.report_self_s", "fredholm.report", "self_s"),
    ("fredholm.report_calls", "fredholm.report", "calls"),
    ("linalg.svd_s", "linalg.svd", "s"),
    ("linalg.svd_calls", "linalg.svd", "calls"),
    ("linalg.svd_cells", "linalg.svd", "cells"),
    ("continuation.newton_s", "continuation.newton", "s"),
    ("continuation.newton_self_s", "continuation.newton", "self_s"),
    ("continuation.newton_calls", "continuation.newton", "calls"),
    ("continuation.newton_iters", "continuation.newton", "iters"),
    ("continuation.newton_stalled_iters", "continuation.newton", "stalled"),
    ("continuation.newton_failures", "continuation.newton", "failed"),
    ("continuation.path_s", "continuation.path", "s"),
    ("continuation.steps_accepted", "continuation.path", "accepted"),
]


def layer_metrics(spans, grid_s: float, overhead_s: float, records) -> dict:
    table = summarize(spans)
    m = {"spectral.grid_s": (grid_s, "s")}
    for metric, span, fld in SPAN_METRICS:
        unit = "s" if fld in ("s", "self_s") else "count"
        m[metric] = (table.get(span, {}).get(fld, 0.0 if unit == "s" else 0),
                     unit)
    accepted = m["continuation.newton_iters"][0]
    trials = residual_evaluations(spans) - m["continuation.newton_calls"][0]
    m["continuation.trial_accept_ratio"] = (
        accepted / trials if trials > 0 else 0.0, "1")
    m["trace.overhead_s"] = (overhead_s, "s")
    m.update(_check_metrics(records))
    return m


# -- run record -----------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS that numpy and scipy bundle."""
    found = {}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "immlab")
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_set": BLAS_THREADS, "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- entry point --------------------------------------------------------------

def run_benchmark(spec, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and gate one workload; returns the full run record."""
    setup_s, grid_s = [], []
    for _ in range(SETUPS):
        im = params = inputs = None  # let the previous set-up be freed
        gc.collect()
        im, params, inputs, total, grid = setup(spec, seed)
        setup_s.append(total)
        grid_s.append(grid)

    record = {"workload": spec.name, "why": spec.why, "seed": seed,
              "seconds": seconds, "trace": int(trace), "L": spec.L,
              "eps": spec.eps, "pool": spec.pool,
              "loop": "closed, one caller, operations in sequence",
              "machine": machine_record(), "setup_s_samples": setup_s}

    if not trace:
        records, _ = run_pass(spec, im, params, inputs, seconds=seconds)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (sum(r["seconds"] for r in records) / len(records),
                       "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        matches = True
        spans = None
    else:
        base_records, base_prints = run_pass(spec, im, params, inputs,
                                             n_ops=spec.trace_ops)
        rec = Recorder()
        tracer = Tracer(im, rec)
        tracer.install()
        try:
            traced_records, traced_prints = run_pass(
                spec, im, params, inputs, n_ops=spec.trace_ops, rec=rec)
        finally:
            tracer.remove()
        for r in traced_records:
            r["traced"] = True
        records = base_records + traced_records
        matches = (fingerprints_match(base_prints, traced_prints)
                   and all(a.get("failure") == b.get("failure")
                           for a, b in zip(base_records, traced_records)))
        overhead = (sum(r["seconds"] for r in traced_records)
                    - sum(r["seconds"] for r in base_records))
        metrics = layer_metrics(rec.spans, statistics.median(grid_s),
                                overhead, records)
        record["layers"] = summarize(rec.spans)
        spans = rec.as_records()

    attempted = len(records)
    failures = Counter(r["failure"] for r in records if not r["ok"])
    failed = sum(failures.values())
    if not trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "1")
    op_seconds = [r["seconds"] for r in records]
    record.update({
        "operations": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures_by_type": dict(failures),
        "traced_matches_untraced": matches,
        "op_seconds_median": statistics.median(op_seconds),
        "ops": records,
        "result": {
            "correct": failed == 0 and matches,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v if isinstance(v, int) else float(v),
                            "unit": u}
                        for k, (v, u) in metrics.items()},
        },
    })
    if spans is not None:
        record["spans"] = {"fields": ["id", "name", "start", "end", "parent",
                                      "op", "attrs"], "rows": spans}
    return record


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj).__name__}")


def main(argv=None, workloads=WORKLOADS, out_dir: str = OUT) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    spec = workloads[args.workload]
    try:
        record = run_benchmark(spec, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{spec.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, default=_json_default)
    result = record["result"]
    print(f"{spec.name}: L={spec.L} eps={spec.eps} seed={args.seed} "
          f"ops={result['attempted']} failed={result['failed']} "
          f"record={os.path.relpath(path, ROOT)}")
    for r in record["ops"]:
        if not r["ok"]:
            print(f"  op {r['op']} failed ({r['failure']}): params "
                  f"{json.dumps(r['params'])}: "
                  f"{r.get('error') or '; '.join(r['misses'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
