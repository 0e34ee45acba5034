"""Newton solver for the blended data map and epsilon path-following.

newton_solve inverts F -> ([gamma], blend) at fixed epsilon by Gauss-Newton
over the variation basis, with the structurally rank-deficient systems
(ambient isometries are always in the kernel) handled by truncated-SVD
least squares tied to the same spectral-gap detector used for the Fredholm
reports.

epsilon_continuation follows solutions of Phi_eps(F) = ([gamma*], target)
down a decreasing epsilon schedule.  The isometric problem prescribes no
mean curvature, so the blended target is assembled quasi-statically: the
lambda^2 part comes from uniformizing gamma* once, the H part is frozen
from the previous step's solution and refreshed by a few inner sweeps.  At
the quasi-static fixed point gamma(F) = gamma* exactly (matching class and
conformal factor pin the metric), and the H-term's weight vanishes as
epsilon -> 0, so the reported isometry defect shrinks along the schedule.

The quasi-static construction is singular at epsilon = 1/2: along the
uniform-scaling mode the blend responds to a radius change by
2(1 - 2 eps) to leading order, so the frozen-H solve amplifies any error
in the frozen field by eps / (2|1 - 2 eps|) and the refresh iteration has
multiplier -eps / (1 - 2 eps).  Its magnitude is below 1 only for
eps < 1/3, so the default path starts there, from the round sphere's own
mean curvature; a step above 1/3 cannot shrink the defect, whatever its
size, because the amplification depends on eps itself.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, DegreeMismatchError,
                     ImmersionRegularityError)
from .fredholm import _OFF_CLASS_MAX, GAP_MIN, _SVD, _detect_rank
from .geometry import ImmersionMap
from .operators import (EpsilonData, _blend, _mode_cut, _scalar_labels,
                        _sign_classes, apply_phi,
                        assemble_linearization, project_codomain,
                        push_forward)
from .shapes import sphere_immersion
from .uniformize import MetricData, conformal_class, solve_liouville

__all__ = [
    "TargetData",
    "StepRecord",
    "ContinuationTrace",
    "newton_solve",
    "epsilon_continuation",
    "procrustes_align",
    "default_schedule",
]


@dataclass(frozen=True)
class TargetData:
    """Right-hand side for the inverse problem at one epsilon."""

    class_rep: np.ndarray      # (n, 2, 2), det = 1 per node
    blended: np.ndarray        # (n,)
    variant: str = "additive"
    epsilon: float = 1.0

    def __post_init__(self):
        det = (self.class_rep[:, 0, 0] * self.class_rep[:, 1, 1]
               - self.class_rep[:, 0, 1] * self.class_rep[:, 1, 0])
        if np.abs(det - 1.0).max() > 1e-8:
            raise ValueError("class target must have unit determinant per node")

    @classmethod
    def from_data(cls, data: EpsilonData) -> "TargetData":
        return cls(data.class_rep, data.blended, data.variant, data.epsilon)

    @classmethod
    def from_immersion(cls, F: ImmersionMap, epsilon: float,
                       variant: str = "additive", **kw) -> "TargetData":
        return cls.from_data(apply_phi(F, epsilon, variant, **kw))


@dataclass(frozen=True)
class StepRecord:
    """One schedule point of epsilon_continuation.

    iterations sums the Newton iterations of the step's converged solves,
    residual is the last entry of the kept solve's history, and defect is
    max |gamma(F) - gamma*| at the kept solution, whose 12 smallest
    singular values an accepted step records (NaN otherwise).  A step
    whose Newton solve fails leaves that solve out of iterations, records
    its last residual (NaN when a lower layer failed before Newton kept a
    history) and the defect of the step's start.  A refused step records
    its candidate's residual and defect.  So on the multiplicative L = 8
    ellipsoid 1, 1.02, 0.98 the eps 0.16807 record reads iterations 4,
    those of the converged first solve (the refresh that diverged after
    13 iterations is not counted), residual 2.415e-3, that refresh's last
    entry, and defect 4.735e-3, the eps 0.2401 solution's.
    """

    epsilon: float
    iterations: int
    residual: float
    singular_values: np.ndarray   # smallest 12, ascending
    accepted: bool
    defect: float                 # max |gamma(F) - gamma*| over nodes


@dataclass
class ContinuationTrace:
    steps: list = field(default_factory=list)
    status: str = "reached eps_min"
    F: ImmersionMap | None = None

    @property
    def epsilons(self) -> np.ndarray:
        return np.array([s.epsilon for s in self.steps])

    @property
    def defects(self) -> np.ndarray:
        return np.array([s.defect for s in self.steps])


def _residual(F: ImmersionMap, target: TargetData, sign_class: str | None
              ) -> tuple[np.ndarray, EpsilonData]:
    """Codomain residual at F, and the blended data it was taken from,
    uniformized over the scalar harmonics of sign_class (apply_phi)."""
    data = apply_phi(F, target.epsilon, target.variant, liouville_tol=None,
                     sign_class=sign_class)
    return project_codomain(F.grid, data.class_rep - target.class_rep,
                            data.blended - target.blended), data


# Newton solves on the modes of degree <= L - _DEALIAS (see newton_solve)
_DEALIAS = 2
# Newton iterations per solve, and step halvings per candidate step
_MAX_ITER = 25
_MAX_BACKTRACKS = 8


def _step_candidates(matrix: np.ndarray, r: np.ndarray,
                     classes: tuple | None) -> list:
    """Truncated-SVD least-squares steps, best truncation first.

    For eps > 0 the operator is elliptic, so the only modes a step must
    drop are its structural Fredholm kernel (the ambient isometries, and
    whatever the discretization adds to them), which sits below a
    certified gap (GAP_MIN).  The primary step cuts there, and the
    fallback keeps every mode above a conditioning floor: once the
    residual has shrunk to the level the gap-truncated step cannot
    correct, inverting the near-null modes is harmless and mops up the
    remaining components.  A spectrum without a certified gap takes the
    floor-rank step first and falls back to the cut at its largest gap,
    uncertified, for an iterate where inverting a lone near-null mode
    finds no descent.  classes, when given, are the rows' and columns'
    block keys (operators._block_keys), by which the SVD splits the matrix
    where it is block diagonal over them.
    """
    f = _SVD(matrix, classes=classes)
    s = f.s
    floor_rank = int(np.sum(s > s[0] * 1e-8))
    rank, _, reliable = _detect_rank(s, GAP_MIN)
    ranks = (rank, floor_rank) if reliable else (floor_rank, rank)
    return [f.solve(-r, k) for k in dict.fromkeys(ranks)]


def _fully_symmetric(F0: ImmersionMap, target: TargetData) -> bool:
    """Whether F0 and the target have the three coordinate reflection
    symmetries, read from their sign classes (operators._sign_classes).

    Coordinate mu of such an immersion is odd under its own reflection and
    even under the other two, so its coefficients lie in the scalar class
    1 << mu; the target's codomain coordinates lie in the class "+++".
    Each part outside its class must be at most _OFF_CLASS_MAX of the
    whole, in the Frobenius norm: the round-off of a symmetric shape.  A
    rigid motion of a symmetric shape, whose coordinates mix the classes,
    does not pass.
    """
    g = F0.grid

    def off_class(values, classes, own):
        off = np.where(classes == own, 0.0, values)
        return np.linalg.norm(off) <= _OFF_CLASS_MAX * np.linalg.norm(values)

    rows = project_codomain(g, target.class_rep, target.blended)
    return (off_class(F0.coeffs, _sign_classes(_scalar_labels(g)),
                      (1 << np.arange(3))[:, None])
            and off_class(rows, _mode_cut(g).classes[0] % 8, 0))


def newton_solve(F0: ImmersionMap, target: TargetData, tol: float = 1e-10
                 ) -> tuple[ImmersionMap, np.ndarray]:
    """Gauss-Newton solve of Phi_eps(F) = target from the initial guess F0.

    The update solves the assembled linearization by truncated-SVD least
    squares (rank from the spectral-gap detector), so the ambient-isometry
    kernel never pollutes the step.  Both sides are dealiased to degree
    <= L - 2: only that block of the linearization is assembled
    (assemble_linearization with degree=L - 2), and the solve, the
    residual norm, and the convergence test all live on that consistent
    discrete system, while the top two degrees follow along as the
    iterate approaches the solution.  The push-forward V^i d_iF + nu N of
    a top-degree basis field has an order-one fraction of its energy
    above the band limit, so resampling truncates it and the analytic
    Jacobian column stops describing the discrete update.  Dually,
    codomain rows at the top two degrees are fed only through
    aliasing-corrupted channels while the iterate is far from the
    solution.  The full-spectrum mismatch is what the continuation
    defect reports.  The degree cut's masks select the residual rows
    and scatter the step back into the full domain.

    When F0 and the target have the three coordinate reflection
    symmetries (_fully_symmetric: an axis-aligned ellipsoid's data from
    the round sphere, say), the linearization is block diagonal over the
    sign classes and the iterates keep the symmetries, so the residual
    and every step lie in the fully symmetric class "+++".  Then only
    that block, about an eighth of the columns and rows, is assembled
    (sign_class="+++") and solved, by one dense SVD.  At eps < 1 each
    residual's conformal factor is solved over the class's scalar
    harmonics too (apply_phi with sign_class="+++"), and the assembly
    linearizes it there.  The residual norm and the convergence test
    still run over all the dealiased rows.  Any other input, including a
    rotated copy of a symmetric start, takes the full dealiased system,
    whose SVD runs by sign class and |m| where the matrix is block
    diagonal over them (at the round sphere, say).  Both systems
    truncate by the same rule (_step_candidates).
    Steps are damped by backtracking on the residual norm and rejected
    outright if min det gamma falls below 1e-4 of its initial value.
    Returns (F, residual norm history); raises ConvergenceError with the
    history so far on failure: status "diverged" when no candidate step
    descends (every candidate has halved its step _MAX_BACKTRACKS + 1
    times by then), "stalled" when _MAX_ITER iterations end above tol.
    Raises ValueError unless epsilon > 0 and 0 < tol < inf, and
    DegreeMismatchError unless the target's node arrays are on F0's grid.
    """
    F, history, status = _newton(F0, target, tol)
    if status == "diverged":
        raise ConvergenceError(
            f"newton diverged at residual {history[-1]:.3e} "
            f"(eps={target.epsilon}): no candidate step descends",
            "diverged", history)
    if status == "stalled":
        raise ConvergenceError(
            f"newton stalled at residual {history[-1]:.3e} > tol {tol:.1e} "
            f"(eps={target.epsilon}): iteration limit {_MAX_ITER} reached",
            "stalled", history)
    return F, history


def _newton(F0: ImmersionMap, target: TargetData, tol: float
            ) -> tuple[ImmersionMap, np.ndarray, str]:
    """newton_solve's iteration: (F, residual norm history, status).

    status is "converged", "diverged" or "stalled" (see newton_solve); on
    failure F is the last accepted iterate.
    """
    if target.epsilon <= 0.0:
        raise ValueError("newton_solve needs epsilon > 0 (elliptic regime)")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"newton_solve needs 0 < tol < inf, got {tol}")
    g = F0.grid
    if (target.class_rep.shape, target.blended.shape) != (
            (g.n_nodes, 2, 2), (g.n_nodes,)):
        raise DegreeMismatchError(
            f"target arrays of shapes {target.class_rep.shape} and "
            f"{target.blended.shape}; F0's grid (L = {g.L}) has "
            f"{g.n_nodes} nodes")
    det_floor = 1e-4 * F0.geometry.det_gamma.min()
    degree = g.L - _DEALIAS
    rows = _mode_cut(g, degree).codomain_mask
    sign_class = "+++" if _fully_symmetric(F0, target) else None
    block = _mode_cut(g, degree, sign_class)
    keep = block.domain_mask
    # a one-class block gains nothing from the SVD's class scan
    classes = None if sign_class else block.classes

    F = F0
    r, data = _residual(F, target, sign_class)
    history = [float(np.linalg.norm(r[rows]))]
    while history[-1] > tol:
        if len(history) > _MAX_ITER:
            return F, np.array(history), "stalled"
        M = assemble_linearization(F, target.epsilon, target.variant,
                                   liouville_tol=None, data=data,
                                   degree=degree, sign_class=sign_class)

        accepted = None
        for v_kept in _step_candidates(M.matrix, r[block.codomain_mask],
                                       classes):
            v = np.zeros(keep.size)
            v[keep] = v_kept
            X = push_forward(F, v)
            step = 1.0
            for _ in range(_MAX_BACKTRACKS + 1):
                try:
                    trial = ImmersionMap.from_samples(g,
                                                      F.positions + step * X)
                    if trial.geometry.det_gamma.min() >= det_floor:
                        r_trial, data_trial = _residual(trial, target,
                                                          sign_class)
                        if np.linalg.norm(r_trial[rows]) < history[-1]:
                            accepted = (trial, r_trial, data_trial)
                            break
                except (ImmersionRegularityError, FloatingPointError):
                    pass
                step *= 0.5
            if accepted is not None:
                break
        if accepted is None:
            return F, np.array(history), "diverged"
        F, r, data = accepted
        history.append(float(np.linalg.norm(r[rows])))
    return F, np.array(history), "converged"


def procrustes_align(F: ImmersionMap, G: ImmersionMap
                     ) -> tuple[np.ndarray, float]:
    """Best rigid motion of F's nodes onto G's, and the max node distance.

    Minimizes the quadrature-weighted square distance over rotations
    (including reflections) and translations; returns (aligned positions,
    max per-node Euclidean error).
    """
    w = F.grid.weights[:, None]
    P, Q = F.positions, G.positions
    pbar = (w * P).sum(axis=0) / w.sum()
    qbar = (w * Q).sum(axis=0) / w.sum()
    C = (w * (Q - qbar)).T @ (P - pbar)
    U, _, Vt = np.linalg.svd(C)
    R = U @ Vt
    aligned = (P - pbar) @ R.T + qbar
    return aligned, float(np.linalg.norm(aligned - Q, axis=1).max())


# Defects this small are discretization noise; the monotone-defect guard
# does not distinguish below it.
_DEFECT_FLOOR = 1e-10

# H refreshes after each step's first solve
_SWEEPS = 3

# The default schedule's ratio and last point
_RATIO = 0.7
_EPS_MIN = 0.05


def default_schedule() -> list:
    """Geometric epsilon schedule: the points 0.7^k below 1/3, then 0.05.

    The H refresh contracts only below 1/3 (see module docstring), so the
    default path starts at the first such point, 0.7^4 = 0.2401.
    """
    out = []
    eps = 1.0
    while eps * _RATIO > _EPS_MIN:
        eps *= _RATIO
        if eps < 1.0 / 3.0:
            out.append(eps)
    return out + [_EPS_MIN]


def epsilon_continuation(target_metric: MetricData, eps_schedule=None,
                         tol: float = 1e-9, *, variant: str = "additive",
                         liouville_tol: float | None = 1e-9
                         ) -> ContinuationTrace:
    """Follow Phi_eps(F) = ([gamma*], quasi-static blend) down in epsilon.

    The schedule defaults to the geometric one from default_schedule.  The
    path starts from the round sphere matching gamma*'s total area, with
    H frozen at that sphere's mean curvature; each later step freezes H
    from the previous accepted solution.  Each step solves, then
    refreshes the frozen H for up to _SWEEPS further solves, keeping
    refreshes only while the isometry defect max |gamma(F) - gamma*|
    keeps dropping (the refresh map contracts for eps < 1/3 but repels
    around eps = 1/2, so it is never iterated blindly).  A step whose
    defect would exceed the previous accepted one is refused, unless both
    sit at the resolution floor.  A failed or refused step ends the trace
    at its schedule point, with the failure's status.
    """
    schedule = list(default_schedule() if eps_schedule is None else eps_schedule)
    eps_arr = np.array(schedule, dtype=float)
    # every comparison with NaN is false, so a NaN point fails the check
    if len(eps_arr) == 0 or not (np.all(np.diff(eps_arr) < 0.0)
                                 and eps_arr[0] <= 1.0 and eps_arr[-1] > 0.0):
        raise ValueError("eps_schedule must decrease strictly within (0, 1]")

    lam2_star = solve_liouville(target_metric, tol=liouville_tol).lambda2
    class_star = conformal_class(target_metric.gamma)
    area = target_metric.vol_weights.sum()
    F = sphere_immersion(target_metric.grid,
                         radius=float(np.sqrt(area / (4.0 * np.pi))))

    def defect(G):
        return float(np.abs(G.geometry.gamma - target_metric.gamma).max())

    def step(F, eps, defect_prev):
        """One schedule point from the solution F, solved and refreshed as
        above: (the accepted solution or None, the step's StepRecord,
        status), where status is "converged" for an accepted step, a
        failed solve's status, or "stalled" for a refused one."""
        iters, best, base = 0, None, F
        for _ in range(1 + _SWEEPS):
            blended = _blend(lam2_star, base.geometry.H, eps, variant)
            try:
                base, hist, status = _newton(
                    base, TargetData(class_star, blended, variant, eps), tol)
            except ConvergenceError as exc:
                # a lower layer's failure: solve_liouville's degenerate
                # reduced Jacobian ends the solve without a history
                hist, status = exc.history, exc.status
            if status != "converged":
                # the record keeps the defect of the step's start
                best = (F, hist, defect(F))
                break
            iters += len(hist) - 1
            d = defect(base)
            if best is not None and d >= best[2]:
                break
            best = (base, hist, d)
            if d <= _DEFECT_FLOOR:
                break
        F, hist, d = best
        if status == "converged" and d > max(defect_prev, _DEFECT_FLOOR):
            status = "stalled"  # refused: the defect would rise
        if status != "converged":
            residual = float(hist[-1]) if hist.size else np.nan
            return None, StepRecord(eps, iters, residual, np.full(12, np.nan),
                                    False, d), status
        M = assemble_linearization(F, eps, variant, liouville_tol=None)
        sv = _SVD(M.matrix, compute_uv=False,
                  classes=_mode_cut(F.grid).classes).s[::-1][:12]
        return F, StepRecord(eps, iters, float(hist[-1]), sv, True, d), status

    trace = ContinuationTrace()
    defect_prev = np.inf
    for eps in schedule:
        F_next, record, status = step(F, eps, defect_prev)
        trace.steps.append(record)
        if F_next is None:
            trace.status = status
            break
        F, defect_prev = F_next, record.defect
    trace.F = F
    return trace
