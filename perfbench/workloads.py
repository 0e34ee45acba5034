"""Workload definitions: seeded inputs, the timed operation, and its gate.

Every input is drawn from the run's seed over the fixed ranges below; the
program only ever receives the generated immersions and targets.  Shape
parameters come from a scrambled Halton sequence (one point of `dims`
coordinates per input): uniform over the same ranges, but covering them
evenly within a run, so that runs with different seeds do similar work.  The gate
runs outside the timed operation and returns (checks, misses,
fingerprint): checks feed the `check.*` metrics, any miss fails the
operation, and the fingerprint is compared between the untraced and the
traced pass of a traced run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MODE_OVERLAP_MIN = 1.0 - 1e-6
GAP_MIN = 1e3
PROCRUSTES_MAX = 1e-6
LAST_RATIO_MAX = 0.1
FINAL_DEFECT_MAX = 1e-4
DEFECT_FLOOR = 1e-10
EPS_MIN = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    L: int
    eps: str
    pool: int            # distinct seeded inputs built at set-up, used in turn
    trace_ops: int       # operations per pass in a traced run
    dims: int            # Halton coordinates per input
    draw: Callable       # (im, grid, u in [0,1)^dims, rng) -> (params, input)
    operation: Callable  # (im, input) -> result
    gate: Callable       # (im, input, result) -> (checks, misses, fingerprint)
    why: str


def _axes(u, half_width: float) -> list:
    return [float(1.0 + half_width * (2.0 * x - 1.0)) for x in u]


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# -- index: assemble at eps = 1, SVD and based reports on a round sphere ----

def _draw_index(im, g, u, rng):
    radius = float(0.8 + 0.45 * u[0])
    R = _rotation(rng)
    F = im.shapes.sphere_immersion(g, radius).rotated(R)
    F.geometry
    return {"radius": radius, "rotation": R.round(12).tolist()}, F


def _index_op(im, F):
    M = im.operators.assemble_linearization(F, 1.0, liouville_tol=None)
    return im.fredholm.svd_report(M), im.fredholm.based_report(M)


def _index_gate(im, F, result):
    r, b = result
    right = [lab["overlap_degree1"] for lab in r.mode_labels["right"]]
    left = [lab["scalar_degree1_fraction"] for lab in r.mode_labels["left"]]
    misses = []
    if (r.kernel_dim, r.cokernel_dim, r.index) != (9, 3, 6):
        misses.append(f"unbased {r.kernel_dim}/{r.cokernel_dim}/{r.index} "
                      "!= 9/3/6")
    if not (r.reliable and r.gap_ratio >= GAP_MIN):
        misses.append(f"gap {r.gap_ratio:.3e} reliable {r.reliable}")
    if (b.kernel_dim, b.cokernel_dim, b.index) != (3, 3, 0):
        misses.append(f"based {b.kernel_dim}/{b.cokernel_dim}/{b.index} "
                      "!= 3/3/0")
    if len(right) != 9 or min(right, default=0.0) < MODE_OVERLAP_MIN:
        misses.append(f"right-mode overlap {min(right, default=0.0):.12f}")
    if len(left) != 3 or min(left, default=0.0) < MODE_OVERLAP_MIN:
        misses.append(f"left-mode overlap {min(left, default=0.0):.12f}")
    checks = {"gap_ratio": float(r.gap_ratio)}
    return checks, misses, np.concatenate([r.singular_values,
                                           b.singular_values])


# -- solve: Newton from the round sphere to an ellipsoid's data -------------

def _solve_draw(half_width: float, epsilon: float):
    def draw(im, g, u, rng):
        axes = _axes(u, half_width)
        E = im.shapes.ellipsoid_immersion(g, *axes)
        target = im.continuation.TargetData.from_immersion(
            E, epsilon, liouville_tol=None)
        F0 = im.shapes.sphere_immersion(g)
        return {"axes": axes}, (E, target, F0)
    return draw


def _solve_op(im, inp):
    _, target, F0 = inp
    return im.continuation.newton_solve(F0, target)


def _solve_gate(im, inp, result):
    sol, hist = result
    _, err = im.continuation.procrustes_align(sol, inp[0])
    ratio = hist[-1] / hist[-2] if len(hist) >= 2 else math.nan
    misses = []
    if not err <= PROCRUSTES_MAX:
        misses.append(f"procrustes error {err:.3e} > {PROCRUSTES_MAX:.0e}")
    if not ratio <= LAST_RATIO_MAX:
        misses.append(f"last residual ratio {ratio:.3e} > {LAST_RATIO_MAX}")
    checks = {"procrustes_err": float(err), "iterations": len(hist) - 1}
    return checks, misses, np.concatenate([sol.coeffs.ravel(), hist])


# -- continue: epsilon continuation of an ellipsoid's metric ----------------

def _draw_continue(im, g, u, rng):
    axes = _axes(u, 0.03)
    E = im.shapes.ellipsoid_immersion(g, *axes)
    return {"axes": axes}, im.uniformize.MetricData.from_immersion(E)


def _continue_op(im, metric):
    # the 1e-9 Liouville certificate cannot be met at L = 8
    return im.continuation.epsilon_continuation(metric, liouville_tol=None)


def _continue_gate(im, metric, trace):
    acc = [s for s in trace.steps if s.accepted]
    defects = [s.defect for s in acc]
    misses = []
    if trace.status != "reached eps_min":
        misses.append(f"status {trace.status!r}")
    if not acc or acc[-1].epsilon != EPS_MIN:
        last = acc[-1].epsilon if acc else None
        misses.append(f"last accepted eps {last}")
    rises = [(a, b) for a, b in zip(defects[:-1], defects[1:])
             if not b <= max(a, DEFECT_FLOOR)]
    if rises:
        misses.append(f"defect rose {rises[0][0]:.3e} -> {rises[0][1]:.3e}")
    final = defects[-1] if defects else math.inf
    if not final <= FINAL_DEFECT_MAX:
        misses.append(f"final defect {final:.3e}")
    checks = {"final_defect": float(final)}
    parts = [trace.epsilons, trace.defects]
    if trace.F is not None:
        parts.append(trace.F.coeffs.ravel())
    return checks, misses, np.concatenate(parts)


WORKLOADS = {w.name: w for w in [
    Workload(
        "index", L=20, eps="1", pool=12, trace_ops=2, dims=1,
        draw=_draw_index, operation=_index_op, gate=_index_gate,
        why="eps=1 round-sphere index certificate at L=20: matrix, SVD and "
            "fredholm path at the largest working set; no Liouville work, so "
            "the bypass case for uniformize changes"),
    Workload(
        "solve", L=16, eps="1", pool=32, trace_ops=4, dims=3,
        draw=_solve_draw(0.05, 1.0), operation=_solve_op, gate=_solve_gate,
        why="eps=1 Newton inverse solve at L=16, the CLI default: per-call "
            "overheads, basis rebuilds and projection, no Liouville work"),
    Workload(
        "solve_small_eps", L=8, eps="0.2", pool=64, trace_ops=8, dims=3,
        draw=_solve_draw(0.03, 0.2), operation=_solve_op, gate=_solve_gate,
        why="eps=0.2 Newton solve at L=8, one continuation step's work: "
            "many small calls dominated by the linearized Liouville loop; "
            "stands in for continue, whose paths fail today"),
    Workload(
        "continue", L=8, eps="1 -> 0.05", pool=4, trace_ops=1, dims=3,
        draw=_draw_continue, operation=_continue_op, gate=_continue_gate,
        why="eps path 1 -> 0.05 at L=8; not in BENCHMARK.json because about "
            "half its paths stall at the L=8 defect floor today"),
]}
