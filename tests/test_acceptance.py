"""Acceptance suite: one test per numbered criterion, at desk scale.

Each test prints a single summary line so `pytest -v -s` shows the
measured quantity next to the stated tolerance.
"""

import numpy as np
import pytest

from immlab.continuation import (TargetData, epsilon_continuation,
                                 newton_solve, procrustes_align)
from immlab.fredholm import based_report, kernel_vs_epsilon, svd_report
from immlab.geometry import ImmersionMap, darboux_residual, gauss_check
from immlab.operators import (apply_phi, assemble_linearization,
                              principal_symbol, project_codomain,
                              push_forward)
from immlab.shapes import ellipsoid_immersion, sphere_immersion
from immlab.spectral import HarmonicField, coeff_index, grid
from immlab.uniformize import MetricData, solve_liouville


def test_criterion_1_theorema_egregium():
    disc = {L: gauss_check(ellipsoid_immersion(grid(L), 1.0, 1.2, 0.8)
                           ).max_discrepancy for L in (16, 32)}
    print(f"criterion 1: L=32 discrepancy {disc[32]:.3e} (<= 1e-6), "
          f"L=16 -> L=32 factor {disc[16] / disc[32]:.1f} (>= 4)")
    assert disc[32] <= 1e-6
    assert disc[16] / disc[32] >= 4.0


def test_criterion_2_darboux_identity():
    rng = np.random.default_rng(7)
    dirs = [np.array([0.0, 0.0, 1.0])]
    for _ in range(2):
        e = rng.standard_normal(3)
        dirs.append(e / np.linalg.norm(e))
    res = {}
    for L in (16, 32):
        E = ellipsoid_immersion(grid(L), 1.0, 1.2, 0.8)
        res[L] = [darboux_residual(E, e).max_residual for e in dirs]
    worst = max(res[32])
    print(f"criterion 2: L=32 max residual {worst:.3e} (<= 1e-6), "
          f"decrease factors "
          f"{[f'{a / b:.0f}' for a, b in zip(res[16], res[32])]}")
    assert worst <= 1e-6
    for a, b in zip(res[16], res[32]):
        assert b <= a / 4.0


def test_criterion_3_ellipticity_switch():
    g = grid(12)
    E = ellipsoid_immersion(g, 1.0, 1.2, 0.8)
    angles = 2.0 * np.pi * np.arange(36) / 36.0
    xis = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mins = {}
    for eps in (0.1, 0.25, 0.5, 1.0):
        data = apply_phi(E, eps, liouville_tol=None)
        mins[eps] = min(principal_symbol(E, n, xi, eps, data=data)[1]
                        for n in range(g.n_nodes) for xi in xis)
        assert mins[eps] > 0.0
    data = apply_phi(E, 0.0, liouville_tol=None)
    smax = max(principal_symbol(E, n, xi, 0.0, data=data)[1]
               for n in range(g.n_nodes) for xi in xis)
    print(f"criterion 3: min singular value per eps "
          f"{ {e: f'{v:.3e}' for e, v in mins.items()} } (> 0), "
          f"eps=0 max {smax:.3e} (<= 1e-12)")
    assert smax <= 1e-12


@pytest.mark.parametrize("L", [8, 12, 16])
def test_criterion_4_round_sphere_index(L):
    M = assemble_linearization(sphere_immersion(grid(L)), 1.0,
                               liouville_tol=None)
    r = svd_report(M)
    b = based_report(M)
    print(f"criterion 4: L={L} unbased {r.kernel_dim}/{r.cokernel_dim}/"
          f"{r.index} gap {r.gap_ratio:.2e} (>= 1e3), "
          f"based {b.kernel_dim}/{b.cokernel_dim}/{b.index}")
    assert (r.kernel_dim, r.cokernel_dim, r.index) == (9, 3, 6)
    assert r.gap_ratio >= 1e3 and r.reliable
    assert (b.kernel_dim, b.cokernel_dim, b.index) == (3, 3, 0)


def test_criterion_5_kernel_persistence():
    rows = kernel_vs_epsilon(sphere_immersion(grid(12)),
                             [1.0, 0.5, 0.25, 0.1])
    print("criterion 5: " + ", ".join(
        f"eps={r.epsilon}: kernel {r.kernel_dim} index {r.index}"
        for r in rows))
    for r in rows:
        assert r.kernel_dim >= 6
        assert r.index == 6
        assert r.reliable


def test_criterion_6_kernel_mode_identification():
    M = assemble_linearization(sphere_immersion(grid(12)), 1.0,
                               liouville_tol=None)
    r = svd_report(M)
    right = min(lab["overlap_degree1"] for lab in r.mode_labels["right"])
    left = min(lab["scalar_degree1_fraction"]
               for lab in r.mode_labels["left"])
    print(f"criterion 6: right-mode analytic overlap >= {right:.12f}, "
          f"left-mode degree-1 scalar fraction >= {left:.12f} "
          f"(both >= 1 - 1e-6)")
    assert len(r.mode_labels["right"]) == 9
    assert len(r.mode_labels["left"]) == 3
    assert right >= 1.0 - 1e-6
    assert left >= 1.0 - 1e-6


@pytest.mark.parametrize("eps,variant", [
    (0.3, "additive"),
    (1.0, "additive"),
    (0.3, "multiplicative"),
    (1.0, "multiplicative"),
])
def test_criterion_7_linearization_fd(eps, variant):
    g = grid(12)
    F = sphere_immersion(g)
    M = assemble_linearization(F, eps, variant, liouville_tol=None)
    low = [i for i, (kind, l, m) in enumerate(M.domain_basis) if l <= 3]

    def fd(Xc, s):
        def at(sv):
            d = apply_phi(ImmersionMap(g, F.coeffs + sv * Xc), eps, variant,
                          liouville_tol=None)
            return project_codomain(g, d.class_rep, d.blended)

        return (at(s) - at(-s)) / (2.0 * s)

    ratios = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        v = np.zeros(len(M.domain_basis))
        v[low] = rng.standard_normal(len(low))
        X = push_forward(F, v)
        Xc = np.stack([g.analyze(X[:, mu]) for mu in range(3)])
        col = M.matrix @ v
        err = {s: np.linalg.norm(fd(Xc, s) - col) / np.linalg.norm(col)
               for s in (1e-3, 5e-4)}
        ratios.append(err[1e-3] / err[5e-4])
    print(f"criterion 7: eps={eps} {variant} FD error ratios "
          f"{[f'{r:.4f}' for r in ratios]} (in [3, 5])")
    for r in ratios:
        assert 3.0 <= r <= 5.0


def test_criterion_8_uniformization_roundtrip():
    g = grid(16)
    c = np.zeros(g.n_coeffs)
    c[coeff_index(2, 0)] = 0.1
    c[coeff_index(3, 1)] = 0.05
    u0 = HarmonicField(g, c)
    metric = MetricData.conformal_round(u0)
    conf = solve_liouville(metric)
    # lambda2 * round_rep = gamma fixes the exponent sign: lambda2 = e^{2 u0}
    err = np.abs(conf.lambda2 - np.exp(2.0 * u0.samples)).max()
    cold = solve_liouville(metric, initial=np.zeros(g.n_coeffs))
    hist = np.asarray(cold.residual_history)
    ratio = hist[-1] / hist[-2]
    print(f"criterion 8: lambda2 error {err:.3e} (<= 1e-8), cold-start "
          f"Newton residuals {[f'{h:.1e}' for h in hist]}, "
          f"final ratio {ratio:.1e} (<= 0.1)")
    assert err <= 1e-8
    assert len(hist) >= 3
    assert ratio <= 0.1
    assert np.abs(cold.lambda2 - np.exp(2.0 * u0.samples)).max() <= 1e-8


def test_criterion_9_inverse_problem_recovery():
    g = grid(16)
    E = ellipsoid_immersion(g, 1.0, 1.05, 0.95)
    target = TargetData.from_immersion(E, 1.0)
    sol, hist = newton_solve(sphere_immersion(g), target)
    _, err = procrustes_align(sol, E)
    assert err <= 1e-6
    assert hist[-1] / hist[-2] <= 0.1

    trace = epsilon_continuation(MetricData.from_immersion(E))
    acc = [s for s in trace.steps if s.accepted]
    defects = [s.defect for s in acc]
    # rigidity: the endpoint is the ellipsoid up to a rigid motion
    _, rigid = procrustes_align(trace.F, E)
    print(f"criterion 9: newton procrustes error {err:.3e} (<= 1e-6); "
          f"continuation {trace.status}, defects "
          f"{[f'{d:.2e}' for d in defects]}, final {defects[-1]:.3e} "
          f"(<= 1e-4), endpoint procrustes error {rigid:.3e} (<= 1e-8)")
    assert trace.status == "reached eps_min"
    assert acc[-1].epsilon == 0.05
    for a, b in zip(defects[:-1], defects[1:]):
        assert b <= max(a, 1e-10)
    assert defects[-1] <= 1e-4
    assert rigid <= 1e-8
