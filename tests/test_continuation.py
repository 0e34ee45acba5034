"""Newton target solves and the epsilon-continuation driver."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from immlab import continuation
from immlab.continuation import (ContinuationTrace, TargetData,
                                 default_schedule, epsilon_continuation,
                                 newton_solve, procrustes_align)
from immlab.errors import ConvergenceError, DegreeMismatchError
from immlab.operators import _mode_cut, apply_phi, assemble_linearization
from immlab.shapes import (ellipsoid_immersion, perturbed_sphere_immersion,
                           sphere_immersion)
from immlab.spectral import grid
from immlab.uniformize import MetricData


def test_newton_fixed_point():
    g = grid(8)
    F = sphere_immersion(g)
    target = TargetData.from_immersion(F, 1.0)
    sol, hist = newton_solve(F, target)
    assert len(hist) == 1
    assert hist[-1] <= 1e-12
    npt.assert_allclose(sol.coeffs, F.coeffs, atol=0)


def test_newton_recovers_ellipsoid():
    g = grid(12)
    E = ellipsoid_immersion(g, 1.0, 1.05, 0.95)
    target = TargetData.from_immersion(E, 1.0)
    F0 = perturbed_sphere_immersion(g, 1.0, [(2, 0, 0.03)])
    sol, hist = newton_solve(F0, target)
    _, err = procrustes_align(sol, E)
    assert err <= 1e-6
    # quadratic tail
    assert hist[-1] / hist[-2] <= 0.1


def test_newton_survives_gesdd_failure(fail_gesdd):
    # the Newton step redoes an SVD whose divide and conquer fails to
    # converge with gesvd (see fredholm._SVD) and takes the same steps
    g = grid(8)
    E = ellipsoid_immersion(g, 1.02, 0.98, 1.01)
    target = TargetData.from_immersion(E, 0.2, liouville_tol=None)
    ref, ref_hist = newton_solve(sphere_immersion(g), target)
    failures = fail_gesdd()
    sol, hist = newton_solve(sphere_immersion(g), target)
    # one SVD per iteration, of the fully symmetric block that Newton
    # solves at the axis-aligned ellipsoid (one sign class)
    assert len(failures) == len(hist) - 1
    assert len(hist) == len(ref_hist)
    npt.assert_allclose(hist, ref_hist, rtol=0, atol=1e-12 * ref_hist[0])
    npt.assert_allclose(sol.coeffs, ref.coeffs, rtol=0,
                        atol=1e-12 * np.abs(ref.coeffs).max())


def _newton_columns(F0, target, monkeypatch, full=False):
    """newton_solve, with the column count of each assembly it makes; full
    forces the full dealiased system whatever the symmetry."""
    columns = []

    def counted(*args, **kwargs):
        M = assemble_linearization(*args, **kwargs)
        columns.append(M.matrix.shape[1])
        return M

    with monkeypatch.context() as m:
        m.setattr(continuation, "assemble_linearization", counted)
        if full:
            m.setattr(continuation, "_fully_symmetric", lambda F0, t: False)
        F, hist = newton_solve(F0, target)
    return F, hist, set(columns)


@pytest.mark.parametrize("L,eps,variant", [(12, 1.0, "additive"),
                                           (8, 0.2, "additive"),
                                           (8, 0.2, "multiplicative")])
def test_newton_solves_the_symmetric_block(L, eps, variant, monkeypatch):
    # an axis-aligned target from the round sphere: Newton assembles only
    # the "+++" block, and its steps are the full system's up to rounding
    # (measured: histories within 5.3e-15 of hist[0] before the last
    # entry, the round-off tail, and solutions within 3.4e-15 of the
    # largest coefficient)
    g = grid(L)
    E = ellipsoid_immersion(g, 1.02, 0.97, 1.01)
    target = TargetData.from_immersion(E, eps, variant, liouville_tol=None)
    F, hist, cols = _newton_columns(sphere_immersion(g), target, monkeypatch)
    ref, ref_hist, ref_cols = _newton_columns(sphere_immersion(g), target,
                                              monkeypatch, full=True)
    assert cols == {len(_mode_cut(g, L - 2, "+++").domain)}
    assert ref_cols == {len(_mode_cut(g, L - 2).domain)}
    assert len(hist) == len(ref_hist) >= 3
    assert hist[-1] <= 1e-10
    npt.assert_allclose(hist[:-1], ref_hist[:-1], rtol=0,
                        atol=1e-12 * ref_hist[0])
    npt.assert_allclose(F.coeffs, ref.coeffs, rtol=0,
                        atol=1e-13 * np.abs(ref.coeffs).max())


@pytest.mark.parametrize("case", ["rotated", "perturbed"])
def test_newton_without_symmetry_solves_the_full_system(case, monkeypatch):
    # a start that is a rotated sphere, or a target without the
    # reflection symmetries, takes the full dealiased system, bit for bit
    g = grid(12 if case == "rotated" else 8)
    if case == "rotated":
        R = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
        E = ellipsoid_immersion(g, 1.0, 1.05, 0.95).rotated(R)
        target = TargetData.from_immersion(E, 1.0)
        F0 = sphere_immersion(g).rotated(R)
    else:
        E = perturbed_sphere_immersion(g, 1.0, [(3, 2, 0.05), (2, -1, 0.04),
                                                (3, -3, 0.03)])
        target = TargetData.from_immersion(E, 0.2, liouville_tol=None)
        F0 = sphere_immersion(g)
    F, hist, cols = _newton_columns(F0, target, monkeypatch)
    ref, ref_hist, _ = _newton_columns(F0, target, monkeypatch, full=True)
    assert cols == {len(_mode_cut(g, g.L - 2).domain)}
    npt.assert_array_equal(hist, ref_hist)
    npt.assert_array_equal(F.coeffs, ref.coeffs)
    assert hist[-1] <= 1e-10


@pytest.mark.parametrize("L,shape,eps,variant", [
    (8, [(2, -1, 0.017), (3, 2, 0.014), (3, -3, 0.017), (4, 1, 0.013)],
     0.2, "additive"),
    (8, [(2, -1, 0.019), (3, -3, 0.016), (4, 1, 0.016)], 0.2,
     "multiplicative"),
    (8, [(2, -1, 0.031), (3, -3, 0.033), (4, 1, 0.036)], 0.45, "additive"),
    (8, (0.987, 0.995, 1.019), 0.45, "additive"),
    # at the second iterate a lone mode sits at 1.3e-5, a gap of 192 below
    # its neighbour: the floor-rank step finds no descent, and the cut at
    # that gap, tried next, carries the solve on in 10 iterations
    (12, [(2, -1, -0.0428), (3, 2, -0.0329), (3, -3, 0.0371),
          (4, 1, -0.0438)], 0.2, "multiplicative"),
])
def test_newton_full_system_converges_quickly(L, shape, eps, variant,
                                              monkeypatch):
    # the full dealiased system truncates only at a certified gap, as the
    # symmetric block does: a cut at a merely mild gap stalled the L = 8
    # inputs for 20-25 iterations at residuals 1.6e-8 to 6.1e-6
    g = grid(L)
    if isinstance(shape, tuple):
        E = ellipsoid_immersion(g, *shape)
    else:
        E = perturbed_sphere_immersion(g, 1.0, shape)
    target = TargetData.from_immersion(E, eps, variant, liouville_tol=None)
    _, hist, cols = _newton_columns(sphere_immersion(g), target, monkeypatch,
                                    full=True)
    assert cols == {len(_mode_cut(g, g.L - 2).domain)}
    assert len(hist) - 1 <= 10
    assert hist[-1] <= 1e-10


@pytest.mark.parametrize("values,ranks", [
    ([1.0, 0.5, 1e-6], [2, 3]),            # certified gap, then the floor
    ([1.0, 0.9, 0.8, 2e-3, 1e-5], [5, 3]),  # the floor, then the largest gap
    ([1.0, 0.5, 0.2], [3]),                 # certified full rank
])
def test_step_candidates_order(values, ranks):
    rng = np.random.default_rng(2)
    U = np.linalg.qr(rng.standard_normal((len(values) + 1, len(values))))[0]
    V = np.linalg.qr(rng.standard_normal((len(values), len(values))))[0]
    A = U @ np.diag(values) @ V.T
    r = rng.standard_normal(len(values) + 1)
    steps = continuation._step_candidates(A, r, None)
    expected = [-V[:, :k] @ ((U[:, :k].T @ r) / np.array(values[:k]))
                for k in ranks]
    assert len(steps) == len(expected)
    for step, ref in zip(steps, expected):
        npt.assert_allclose(step, ref, rtol=0, atol=1e-8 * np.abs(ref).max())


def test_newton_solves_scaled_blend():
    g = grid(8)
    F = sphere_immersion(g)
    t = TargetData.from_immersion(F, 1.0)
    # ([gamma], 2H) is solved by F/2: class_rep is scale invariant
    t2 = dataclasses.replace(t, blended=2.0 * t.blended)
    sol, _ = newton_solve(F, t2)
    _, err = procrustes_align(sol, sphere_immersion(g, 0.5))
    assert err <= 1e-6


def test_newton_reports_infeasible_blend():
    g = grid(8)
    F = sphere_immersion(g)
    t = TargetData.from_immersion(F, 1.0)
    tneg = dataclasses.replace(t, blended=-t.blended)
    with pytest.raises(ConvergenceError) as exc:
        newton_solve(F, tneg)
    assert exc.value.status in ("diverged", "stalled")
    assert exc.value.history[0] > 0.0
    _assert_message_names_status(exc.value)
    _assert_core_returns_failure(F, tneg, exc.value)


def _assert_message_names_status(exc):
    # a failure record carries both, so they must name the same condition
    other = {"diverged": "stalled", "stalled": "diverged"}[exc.status]
    assert exc.status in str(exc) and other not in str(exc), (exc.status,
                                                              str(exc))


def _assert_core_returns_failure(F0, target, exc):
    # the core returns the failure that newton_solve raises, with the last
    # accepted iterate
    F, hist, status = continuation._newton(F0, target, 1e-10)
    assert status == exc.status
    npt.assert_array_equal(hist, exc.history)
    assert np.isfinite(F.coeffs).all()


def test_newton_iteration_limit_reports_stalled(monkeypatch):
    g = grid(8)
    target = TargetData.from_immersion(ellipsoid_immersion(g, 1.0, 1.05, 0.95),
                                       1.0)
    monkeypatch.setattr(continuation, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as exc:
        newton_solve(sphere_immersion(g), target)
    assert exc.value.status == "stalled"
    assert len(exc.value.history) == 2
    _assert_message_names_status(exc.value)
    _assert_core_returns_failure(sphere_immersion(g), target, exc.value)


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_solvers_reject_bad_tol(tol):
    # a tol that is not positive and finite is a usage error, not a
    # numerical failure
    g = grid(8)
    target = TargetData.from_immersion(ellipsoid_immersion(g, 1.0, 1.05, 0.95),
                                       1.0)
    with pytest.raises(ValueError, match="tol"):
        newton_solve(sphere_immersion(g), target, tol)
    with pytest.raises(ValueError, match="tol"):
        epsilon_continuation(MetricData.round(g, 1.0), [1.0, 0.5], tol,
                             liouville_tol=None)


@pytest.mark.parametrize("exc,status,residual", [
    (ConvergenceError("no history"), "diverged", np.nan),
    (ConvergenceError("stuck", "stalled", [3.0, 2.0]), "stalled", 2.0),
])
def test_continuation_records_failure(exc, status, residual, monkeypatch):
    # a failed first step ends the trace there, with the failure's status
    # and last residual: Newton returns its own failure with the history,
    # and a lower layer's error (one without a history) escapes it
    def fail(F0, target, tol):
        if not exc.history.size:
            raise exc
        return F0, exc.history, exc.status

    monkeypatch.setattr(continuation, "_newton", fail)
    g = grid(8)
    trace = epsilon_continuation(MetricData.round(g, 1.0), [1.0, 0.5])
    assert trace.status == status
    [step] = trace.steps
    assert step.epsilon == 1.0 and not step.accepted
    npt.assert_array_equal(step.residual, residual)
    assert np.isnan(step.singular_values).all()
    # the path starts from the area-matched round sphere
    npt.assert_allclose(trace.F.coeffs, sphere_immersion(g).coeffs,
                        rtol=0, atol=1e-12)


def test_continuation_ends_at_a_failed_step(monkeypatch):
    # a step whose Newton solve fails ends the path at that schedule point;
    # no epsilon between it and the last accepted one is tried
    solves = []
    newton = continuation._newton

    def second_fails(F0, target, tol):
        solves.append(target.epsilon)
        if len(solves) > 1:
            return F0, np.array([3.0, 2.0]), "stalled"
        return newton(F0, target, tol)

    monkeypatch.setattr(continuation, "_newton", second_fails)
    trace = epsilon_continuation(MetricData.round(grid(8), 1.0), [1.0, 0.5],
                                 liouville_tol=1e-8)
    assert trace.status == "stalled"
    assert solves == [1.0, 0.5]
    npt.assert_array_equal(trace.epsilons, [1.0, 0.5])
    assert [s.accepted for s in trace.steps] == [True, False]
    assert trace.steps[-1].residual == 2.0


def test_continuation_refuses_a_rising_defect(monkeypatch):
    # a candidate whose defect would exceed the previous accepted one's is
    # refused: the trace ends "stalled" at it with the candidate's record,
    # and the path keeps the last accepted solution
    g = grid(8)
    metric = MetricData.round(g, 1.0)
    ref = epsilon_continuation(metric, [1.0], liouville_tol=1e-8)
    newton = continuation._newton
    candidate = np.array([3e-2, 4e-13])

    def off_target(F0, target, tol):
        if target.epsilon == 0.5:
            return sphere_immersion(g, 1.01), candidate, "converged"
        return newton(F0, target, tol)

    monkeypatch.setattr(continuation, "_newton", off_target)
    trace = epsilon_continuation(metric, [1.0, 0.5], liouville_tol=1e-8)
    assert trace.status == "stalled"
    first, second = trace.steps
    assert first.accepted and not second.accepted
    # gamma of the radius-1.01 sphere is 1.01^2 times the round metric
    npt.assert_allclose(second.defect, 1.01**2 - 1.0, rtol=1e-9)
    assert second.residual == candidate[-1]
    assert np.isnan(second.singular_values).all()
    npt.assert_array_equal(trace.F.coeffs, ref.F.coeffs)


def test_newton_rejects_degenerate_epsilon():
    g = grid(8)
    F = sphere_immersion(g)
    t0 = TargetData.from_immersion(F, 0.0, liouville_tol=None)
    with pytest.raises(ValueError):
        newton_solve(F, t0)


def test_newton_rejects_target_on_another_grid():
    target = TargetData.from_immersion(sphere_immersion(grid(12)), 1.0)
    with pytest.raises(DegreeMismatchError, match="L = 8"):
        newton_solve(sphere_immersion(grid(8)), target)


def test_target_data_validates_class_rep():
    g = grid(8)
    t = TargetData.from_immersion(sphere_immersion(g), 1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(t, class_rep=2.0 * t.class_rep)


@pytest.mark.parametrize("schedule", [
    [0.5, 0.5],
    [1.2, 0.5],
    [0.5, -0.1],
    [],
    [0.3, np.nan],
    [np.nan, 0.2],
])
def test_continuation_rejects_bad_schedule(schedule):
    gamma = MetricData.round(grid(8), 1.0)
    with pytest.raises(ValueError, match="eps_schedule"):
        epsilon_continuation(gamma, schedule)


def test_continuation_round_target():
    g = grid(8)
    gamma = MetricData.round(g, 1.0)
    trace = epsilon_continuation(gamma, [1.0, 0.5, 0.25, 0.1, 0.05],
                                 liouville_tol=1e-8)
    assert trace.status == "reached eps_min"
    acc = [s for s in trace.steps if s.accepted]
    assert [s.epsilon for s in acc] == [1.0, 0.5, 0.25, 0.1, 0.05]
    assert np.all(np.diff([s.epsilon for s in acc]) < 0.0)
    for s in acc:
        assert s.residual <= 1e-9
        assert s.iterations >= 0
    _, err = procrustes_align(trace.F, sphere_immersion(g))
    assert err <= 1e-9


def test_continuation_records_fresh_singular_values():
    g = grid(8)
    gamma = MetricData.round(g, 1.0)
    trace = epsilon_continuation(gamma, [1.0, 0.5, 0.25, 0.1, 0.05],
                                 liouville_tol=1e-8)
    last = [s for s in trace.steps if s.accepted][-1]
    assert len(last.singular_values) == 12
    M = assemble_linearization(trace.F, last.epsilon, liouville_tol=1e-8)
    fresh = np.linalg.svd(M.matrix, compute_uv=False)[::-1][:12]
    npt.assert_allclose(np.asarray(last.singular_values), fresh, atol=1e-9)


def test_continuation_survives_gesdd_failure(fail_gesdd):
    # the Newton steps and the recorded singular values come from
    # fredholm._SVD, which redoes an SVD whose divide and conquer fails to
    # converge with gesvd, so the path runs as it would without the failure
    g = grid(8)
    metric = MetricData.from_immersion(ellipsoid_immersion(g, 1.0, 1.02, 0.98))
    ref = epsilon_continuation(metric, [1.0, 0.7], liouville_tol=None)
    failures = fail_gesdd()
    trace = epsilon_continuation(metric, [1.0, 0.7], liouville_tol=None)
    # a values-only SVD of each of the eight sign classes records each
    # accepted step
    assert sum(not uv for _, uv in failures) == 8 * len(trace.steps)
    assert trace.status == ref.status == "reached eps_min"
    npt.assert_array_equal(trace.epsilons, ref.epsilons)
    for step, ref_step in zip(trace.steps, ref.steps):
        npt.assert_allclose(step.singular_values, ref_step.singular_values,
                            rtol=0, atol=1e-12)


def test_continuation_scaled_round_target():
    g = grid(8)
    gamma = MetricData.round(g, 2.0)
    trace = epsilon_continuation(gamma, [1.0, 0.5, 0.25, 0.1, 0.05],
                                 liouville_tol=1e-8)
    assert trace.status == "reached eps_min"
    _, err = procrustes_align(trace.F, sphere_immersion(g, 2.0))
    assert err <= 1e-6
    data = apply_phi(trace.F, 0.05, liouville_tol=1e-8)
    npt.assert_allclose(data.lambda2, 4.0, atol=1e-9)
    npt.assert_allclose(trace.F.geometry.H, 1.0, atol=1e-9)


def test_continuation_ellipsoid_defect_decreases():
    g = grid(8)
    E = ellipsoid_immersion(g, 1.0, 1.02, 0.98)
    trace = epsilon_continuation(MetricData.from_immersion(E),
                                 liouville_tol=1e-7)
    assert trace.status == "reached eps_min"
    acc = [s for s in trace.steps if s.accepted]
    assert acc[-1].epsilon == 0.05
    d = trace.defects
    assert d[-1] <= 1e-4
    for a, b in zip(d[:-1], d[1:]):
        assert b <= max(a, 1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the multiplicative path on a non-round target fails: at L = 8 it "
    "accepts eps 0.2401 at defect 4.74e-3, then Newton diverges at "
    "eps 0.16807"))
def test_continuation_multiplicative_ellipsoid():
    g = grid(8)
    E = ellipsoid_immersion(g, 1.0, 1.02, 0.98)
    trace = epsilon_continuation(MetricData.from_immersion(E),
                                 variant="multiplicative", liouville_tol=None)
    assert trace.status == "reached eps_min", (
        f"{trace.status} at eps {trace.epsilons}, defects {trace.defects}")
    d = trace.defects
    assert d[-1] <= 1e-4
    for a, b in zip(d[:-1], d[1:]):
        assert b <= max(a, 1e-10)


def test_trace_properties():
    g = grid(8)
    gamma = MetricData.round(g, 1.0)
    trace = epsilon_continuation(gamma, [1.0, 0.5], liouville_tol=1e-8)
    assert isinstance(trace, ContinuationTrace)
    npt.assert_allclose(trace.epsilons, [1.0, 0.5], atol=0)
    assert trace.defects.shape == (2,)
    assert trace.F.grid is g


def test_default_schedule_shape():
    s = default_schedule()
    # the H refresh contracts only below 1/3, so the path starts there
    assert s[0] < 1.0 / 3.0 and s[-1] == 0.05
    assert np.all(np.diff(s) < 0.0)
