"""Uniformization: conformal class, Liouville solve, linearized factor."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from immlab import uniformize
from immlab.errors import (ConvergenceError, DegreeMismatchError,
                           ImmersionRegularityError)
from immlab.geometry import ImmersionMap
from immlab.continuation import epsilon_continuation
from immlab.operators import (VariationField, _class_harmonics, apply_phi,
                              assemble_linearization, delta_star)
from immlab.shapes import (ellipsoid_immersion, parse_shape_spec,
                           sphere_immersion)
from immlab.spectral import HarmonicField, coeff_index, grid
from immlab.uniformize import (LinearizedLiouville, MetricData,
                               conformal_class, solve_liouville)


def test_conformal_class_round():
    g = grid(8)
    m = MetricData.round(g)
    rep = conformal_class(m.gamma)
    s = np.sin(g.theta)
    npt.assert_allclose(rep[:, 0, 0], 1.0 / s, atol=1e-13)
    npt.assert_allclose(rep[:, 1, 1], s, atol=1e-13)
    npt.assert_allclose(rep[:, 0, 1], 0.0, atol=1e-14)


def test_conformal_class_scale_invariance_and_det():
    g = grid(12)
    gamma = ellipsoid_immersion(g, 1.0, 1.2, 0.8).geometry.gamma
    rep = conformal_class(gamma)
    npt.assert_allclose(conformal_class(7.0 * gamma), rep, atol=1e-13)
    det = rep[:, 0, 0] * rep[:, 1, 1] - rep[:, 0, 1] * rep[:, 1, 0]
    npt.assert_allclose(det, 1.0, atol=1e-12)
    # projection is idempotent
    npt.assert_allclose(conformal_class(rep), rep, atol=1e-13)


def test_conformal_class_rejects_non_spd():
    g = grid(8)
    gamma = MetricData.round(g).gamma.copy()
    gamma[0] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(ImmersionRegularityError):
        conformal_class(gamma)
    with pytest.raises(ImmersionRegularityError):
        conformal_class(-MetricData.round(g).gamma)


def _with_inverse(metric, gamma):
    det = gamma[:, 0, 0] * gamma[:, 1, 1] - gamma[:, 0, 1] * gamma[:, 1, 0]
    inv = np.stack([np.stack([gamma[:, 1, 1], -gamma[:, 0, 1]], axis=-1),
                    np.stack([-gamma[:, 1, 0], gamma[:, 0, 0]], axis=-1)],
                   axis=1) / det[:, None, None]
    return dataclasses.replace(metric, gamma=gamma, inv_gamma=inv,
                               det_gamma=det)


@pytest.mark.parametrize("L", [8, 12])
def test_stiffness_matches_quadrature(L):
    # the stiffness form is built by longitude frequency, the analyses of
    # q gamma^{ij} d_j Y paired with d_i Y, and symmetrized; against the
    # quadrature sum of q gamma^{ij} d_i Y d_j Y it measured 2.5e-15
    # (L = 8) and 4.8e-15 (L = 12) of the largest entry
    g = grid(L)
    metric = MetricData.from_immersion(ellipsoid_immersion(g, 1.0, 1.2, 0.8))
    forms = uniformize._WeakForms(metric)
    dY = np.stack([g.node_matrix(1, 0), g.node_matrix(0, 1)], axis=1)
    ref = np.einsum("nic,nij,njk->kc", dY,
                    metric.vol_weights[:, None, None] * metric.inv_gamma, dY)
    npt.assert_allclose(forms.S, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    assert np.array_equal(forms.S, forms.S.T)


def _dense_forms(metric, modes):
    """The forms' stiffness and the Galerkin Laplacian of every basis
    function as dense node-table products: S = A^T A, A stacking the
    per-node Cholesky factors of q gamma^{ij} times the chart gradients,
    and Y M^{-1} (-S) with the mass M = Y^T diag(q) Y."""
    g = metric.grid
    Y = g.node_matrix(0, 0)[:, modes]
    dth, dph = g.node_matrix(1, 0)[:, modes], g.node_matrix(0, 1)[:, modes]
    Q = metric.vol_weights[:, None, None] * metric.inv_gamma
    a = np.sqrt(Q[:, 0, 0])
    b = Q[:, 0, 1] / a
    c = np.sqrt(Q[:, 1, 1] - b * b)
    A = np.concatenate([a[:, None] * dth + b[:, None] * dph,
                        c[:, None] * dph])
    S = A.T @ A
    M = Y.T @ (metric.vol_weights[:, None] * Y)
    return S, Y @ np.linalg.solve(M, -S)


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("sign_class", [None, "+++"])
def test_weak_forms_match_dense_products(L, sign_class):
    # the stiffness by longitude frequency and the synthesized Laplacian
    # against the dense node-table products they replace, over every
    # harmonic and over the fully symmetric class's
    g = grid(L)
    metric = MetricData.from_immersion(ellipsoid_immersion(g, 1.0, 1.2, 0.8))
    modes = _class_harmonics(g, sign_class)
    forms = uniformize._WeakForms(metric, modes)
    S, lap = _dense_forms(metric, modes)
    for got, ref in ((forms.S, S), (forms.laplacian(forms.S), lap),
                     (forms.laplacian(forms.S[:, 3]), lap[:, 3]),
                     (forms.laplacian(forms.S[:, 2:9]), lap[:, 2:9])):
        assert got.shape == ref.shape
        npt.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    assert np.array_equal(forms.S, forms.S.T)


def test_weak_forms_reject_non_spd():
    # the Cholesky factors of the stiffness form exist only for a positive
    # definite metric: anything else is a typed failure, never a NaN
    g = grid(8)
    base = MetricData.round(g)
    indefinite = base.gamma.copy()
    indefinite[0] = [[1.0, 2.0], [2.0, 1.0]]
    for gamma in (indefinite, -base.gamma):
        metric = _with_inverse(base, gamma)
        with pytest.raises(ImmersionRegularityError):
            uniformize._WeakForms(metric)
        with pytest.raises(ImmersionRegularityError):
            solve_liouville(metric)


def test_liouville_round_metric():
    g = grid(8)
    conf = solve_liouville(MetricData.round(g))
    npt.assert_allclose(conf.phi.samples, 0.0, atol=1e-12)
    npt.assert_allclose(conf.lambda2, 1.0, atol=1e-12)


def test_liouville_scaled_round():
    g = grid(8)
    conf = solve_liouville(MetricData.round(g, 1.7))
    npt.assert_allclose(conf.phi.samples, -np.log(1.7), atol=1e-12)
    npt.assert_allclose(conf.lambda2, 1.7**2, atol=1e-11)


def _bumped_metric(g, modes):
    c = np.zeros(g.n_coeffs)
    for l, m, amp in modes:
        c[coeff_index(l, m)] = amp
    u0 = HarmonicField(g, c)
    return u0, MetricData.conformal_round(u0)


def test_liouville_recovers_known_factor():
    g = grid(16)
    u0, metric = _bumped_metric(g, [(2, 0, 0.1)])
    conf = solve_liouville(metric)
    # gamma = e^{2 u0} round, so phi = -u0 (u0 has no degree-1 content)
    npt.assert_array_less(np.abs(conf.phi.samples + u0.samples).max(), 1e-8)
    npt.assert_array_less(
        np.abs(conf.lambda2 - np.exp(2.0 * u0.samples)).max(), 1e-8)


def test_liouville_quadratic_convergence_from_zero():
    g = grid(16)
    u0, metric = _bumped_metric(g, [(2, 0, 0.1), (3, 1, 0.05)])
    conf = solve_liouville(metric, initial=np.zeros(g.n_coeffs))
    hist = conf.residual_history
    assert len(hist) >= 3
    assert hist[-1] / hist[-2] <= 0.1
    npt.assert_array_less(np.abs(conf.phi.samples + u0.samples).max(), 1e-8)


def test_liouville_gauge_pins_degree_one():
    g = grid(12)
    _, metric = _bumped_metric(g, [(2, 2, 0.15)])
    conf = solve_liouville(metric)
    npt.assert_allclose(conf.phi.coeffs[1:4], 0.0, atol=1e-9)


def test_liouville_conformal_covariance_constant_scale():
    g = grid(12)
    _, metric = _bumped_metric(g, [(2, 1, 0.1)])
    base = solve_liouville(metric)
    mu = 2.3
    scaled = MetricData(g, mu * metric.gamma, metric.inv_gamma / mu,
                        mu**2 * metric.det_gamma, metric.christoffel,
                        metric.K / mu)
    conf = solve_liouville(scaled)
    npt.assert_array_less(
        np.abs(conf.phi.samples - (base.phi.samples - 0.5 * np.log(mu))).max(),
        1e-9)


def test_liouville_reconstruction_invariant():
    g = grid(24)
    F = ellipsoid_immersion(g, 1.0, 1.2, 0.8)
    metric = MetricData.from_immersion(F)
    conf = solve_liouville(metric, tol=1e-7)
    recon = conf.lambda2[:, None, None] * conf.round_rep
    npt.assert_array_less(np.abs(recon - metric.gamma).max(), 1e-8)


def test_liouville_strong_certificate_raises_on_coarse_grid():
    g = grid(12)
    F = ellipsoid_immersion(g, 1.0, 1.05, 0.95)
    with pytest.raises(ConvergenceError):
        solve_liouville(MetricData.from_immersion(F), tol=1e-12)
    # tol=None skips the certificate but records the residual
    conf = solve_liouville(MetricData.from_immersion(F), tol=None)
    assert conf.strong_residual > 0.0


def _lstsq_liouville(metric, initial):
    """The Liouville Newton loop with SVD least-squares steps (reference)."""
    g = metric.grid
    forms = uniformize._WeakForms(metric)
    keep = uniformize._degree_one_mask(g)
    coeffs = np.array(initial, dtype=float)
    coeffs[~keep] = 0.0
    r = forms.residual(coeffs)
    history = [np.linalg.norm(r)]
    floor = 1e-13 * max(1.0, np.linalg.norm(forms.Y.T @ (forms.q * metric.K)))
    for _ in range(40):
        if history[-1] <= floor:
            break
        J = forms.jacobian(coeffs)[:, keep]
        step, _, rank, _ = np.linalg.lstsq(J, -r, rcond=1e-12)
        assert rank == J.shape[1]
        t = 1.0
        for _ in range(30):
            trial = coeffs.copy()
            trial[keep] += t * step
            r_trial = forms.residual(trial)
            if np.linalg.norm(r_trial) < history[-1]:
                break
            t *= 0.5
        else:
            break
        coeffs, r = trial, r_trial
        history.append(np.linalg.norm(r))
    return coeffs, np.array(history)


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("start", ["default", "zeros"])
def test_liouville_qr_step_matches_lstsq(L, start):
    g = grid(L)
    m = MetricData.from_immersion(ellipsoid_immersion(g, 1.0, 1.2, 0.85))
    if start == "default":
        initial = g.analyze(-0.25 * np.log(m.det_gamma / np.sin(g.theta) ** 2))
    else:
        initial = np.zeros(g.n_coeffs)
    conf = solve_liouville(m, tol=None, initial=initial.copy())
    coeffs, history = _lstsq_liouville(m, initial)
    npt.assert_allclose(conf.phi.coeffs, coeffs, rtol=0,
                        atol=1e-12 * np.abs(coeffs).max())
    assert len(conf.residual_history) == len(history)
    npt.assert_allclose(conf.residual_history, history, rtol=0,
                        atol=1e-12 * history[0])


def test_liouville_rank_guard(monkeypatch):
    # the Jacobian -S + 2 e^{2 phi} M ignores K: at phi = 0 on the round
    # metric it annihilates the degree-one modes, while K = 2 keeps the
    # residual away from zero
    g = grid(8)
    m = dataclasses.replace(MetricData.round(g), K=np.full(g.n_nodes, 2.0))
    conf = solve_liouville(m, initial=np.zeros(g.n_coeffs))
    npt.assert_allclose(conf.lambda2, 0.5, atol=1e-12)
    monkeypatch.setattr(uniformize, "_degree_one_mask",
                        lambda g: np.ones(g.n_coeffs, dtype=bool))
    with pytest.raises(ConvergenceError, match="rank-deficient"):
        solve_liouville(m, initial=np.zeros(g.n_coeffs))


@pytest.mark.parametrize("call", [
    lambda F, tol: solve_liouville(MetricData.from_immersion(F), tol=tol),
    lambda F, tol: apply_phi(F, 0.5, liouville_tol=tol),
    lambda F, tol: assemble_linearization(F, 0.5, liouville_tol=tol),
    lambda F, tol: epsilon_continuation(MetricData.from_immersion(F),
                                        liouville_tol=tol),
], ids=["solve_liouville", "apply_phi", "assemble_linearization",
        "epsilon_continuation"])
@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_liouville_tol_must_be_none_or_positive_finite(call, tol):
    # NaN and inf would skip the certificate, and 0 or -1 would fail it
    # with advice to raise the band limit: a usage error, raised first
    F = ellipsoid_immersion(grid(8), 1.0, 1.05, 0.95)
    with pytest.raises(ValueError, match="0 < tol < inf"):
        call(F, tol)


def test_linearized_factor_pure_scaling():
    g = grid(12)
    m = MetricData.round(g)
    conf = solve_liouville(m)
    lin = LinearizedLiouville(conf)
    _, l2p = lin.solve(0.37 * m.gamma)
    npt.assert_allclose(l2p, 0.37, atol=1e-10)


@pytest.mark.parametrize("shape", [(1, 2, 2, 3), (None, 2, 2),
                                   (None, 2, 3, 3)])
def test_linearized_batch_rejects_a_batch_of_another_shape(shape):
    g = grid(8)
    lin = LinearizedLiouville(solve_liouville(MetricData.round(g)))
    h = np.zeros(tuple(g.n_nodes if n is None else n for n in shape))
    with pytest.raises(DegreeMismatchError, match="batch shape"):
        lin.solve_batch(h)


def test_linearized_batch_matches_single_solves():
    g = grid(8)
    F = ellipsoid_immersion(g, 1.0, 1.1, 0.9)
    m = MetricData.from_immersion(F)
    lin = LinearizedLiouville(solve_liouville(m, tol=None))
    rng = np.random.default_rng(5)
    h = rng.standard_normal((g.n_nodes, 2, 2, 7))
    h = 0.5 * (h + h.transpose(0, 2, 1, 3))
    phi_b, l2p_b = lin.solve_batch(h)
    for b in range(7):
        phi, l2p = lin.solve(h[..., b])
        npt.assert_allclose(phi.coeffs, phi_b[:, b],
                            rtol=0, atol=1e-13 * np.abs(phi.coeffs).max())
        npt.assert_allclose(l2p, l2p_b[:, b],
                            rtol=0, atol=1e-13 * np.abs(l2p).max())


def _einsum_dresidual(conf, h):
    """The h-derivative (nc, B) of the weak residual, index by index.

    An oracle for the per-node map of LinearizedLiouville (its derivation
    is on uniformize._residual_map): tr h, h^{##}, the flux
    tr h gamma^{-1} d phi / 2 - h^{##} d phi and
    T = (tr h gamma^{-1} - h^{##}) / 2 are contracted as einsums over the
    batch, and each test-function derivative takes its weight's GEMM.
    """
    m = conf.metric
    g = m.grid
    inv = m.inv_gamma
    dphi = g.gradient(conf.phi.coeffs)
    trh = np.einsum("nij,nijb->nb", inv, h)
    hup = np.einsum("nik,nklb,njl->nijb", inv, h, inv)
    flux = (0.5 * np.einsum("nij,nj->ni", inv, dphi)[..., None] * trh[:, None]
            - np.einsum("nijb,nj->nib", hup, dphi))
    T = 0.5 * (trh[:, None, None] * inv[..., None] - hup)
    grad_w = -(flux + np.einsum("nkij,nijb->nkb", m.christoffel, T))
    weights = {(0, 0): 0.5 * trh * np.exp(2.0 * conf.phi.samples)[:, None],
               (1, 0): grad_w[:, 0], (0, 1): grad_w[:, 1],
               (2, 0): T[:, 0, 0], (1, 1): 2.0 * T[:, 0, 1],
               (0, 2): T[:, 1, 1]}
    q = conf.forms.q[:, None]
    return sum(g.node_matrix(*d).T @ (q * w) for d, w in weights.items())


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("shape", ["ellipsoid:1,1.05,0.95",
                                   "perturbed:1;3,2,0.05;2,-1,0.04;3,-3,0.03"])
def test_linearized_batch_matches_einsum_oracle(L, shape):
    g = grid(L)
    F = parse_shape_spec(shape, g)
    conf = solve_liouville(MetricData.from_immersion(F), tol=None)
    rng = np.random.default_rng(L)
    h = rng.standard_normal((g.n_nodes, 2, 2, 7))
    h = 0.5 * (h + h.transpose(0, 2, 1, 3))
    keep = uniformize._degree_one_mask(g)
    J = conf.forms.jacobian(conf.phi.coeffs)[:, keep]
    ref = np.zeros((g.n_coeffs, 7))
    ref[keep] = np.linalg.lstsq(J, -_einsum_dresidual(conf, h),
                                rcond=None)[0]
    phi_prime, l2p = LinearizedLiouville(conf).solve_batch(h)
    npt.assert_allclose(phi_prime, ref, rtol=0,
                        atol=1e-13 * np.abs(ref).max())
    l2p_ref = -2.0 * conf.lambda2[:, None] * (g.node_matrix(0, 0) @ ref)
    npt.assert_allclose(l2p, l2p_ref, rtol=0,
                        atol=1e-13 * np.abs(l2p_ref).max())


def _strain_variation(g, seed, scale=0.3, n_modes=16):
    rng = np.random.default_rng(seed)
    Xc = np.zeros((3, g.n_coeffs))
    Xc[:, :n_modes] = scale * rng.standard_normal((3, n_modes))
    return Xc


def _metric_variation(F, X):
    """The induced-metric variation 2 delta*(X^T) + 2 nu A of a nodal field."""
    return 2.0 * delta_star(F, VariationField.from_ambient(F, X))[0]


def test_linearized_factor_area_identity_tracefree():
    g = grid(16)
    F = sphere_immersion(g)
    m = MetricData.from_immersion(F)
    conf = solve_liouville(m)
    Xc = _strain_variation(g, 3)
    X = np.stack([g.synthesize(Xc[mu]) for mu in range(3)], axis=-1)
    h = _metric_variation(F, X)
    trh = np.einsum("nij,nij->n", m.inv_gamma, h)
    h_tf = h - 0.5 * trh[:, None, None] * m.gamma
    lin = LinearizedLiouville(conf)
    _, l2p = lin.solve(h_tf)
    # int (lambda^2)' dv_0 = (1/2) int tr_gamma h dv_gamma = 0 for trace-free h
    assert abs((g.weights * l2p).sum()) <= 1e-8


def test_linearized_factor_finite_difference():
    g = grid(16)
    F = sphere_immersion(g)
    conf = solve_liouville(MetricData.from_immersion(F), tol=None)
    Xc = _strain_variation(g, 3)
    X = np.stack([g.synthesize(Xc[mu]) for mu in range(3)], axis=-1)
    _, l2p = LinearizedLiouville(conf).solve(_metric_variation(F, X))

    def l2_at(s):
        Fs = ImmersionMap(g, F.coeffs + s * Xc)
        return solve_liouville(MetricData.from_immersion(Fs), tol=None).lambda2

    errs = {}
    for s in (1e-3, 1e-4):
        fd = (l2_at(s) - l2_at(-s)) / (2.0 * s)
        errs[s] = np.abs(fd - l2p).max()
    assert errs[1e-3] <= 1e-4
    # O(s^2): a decade in s is two decades in error
    assert errs[1e-4] <= errs[1e-3] / 50.0



def _symmetric_metric(L):
    """An axis-aligned ellipsoid's metric and the "+++" scalar harmonics."""
    g = grid(L)
    F = ellipsoid_immersion(g, 1.03, 0.97, 1.02)
    return F, MetricData.from_immersion(F), _class_harmonics(g, "+++")


@pytest.mark.parametrize("L", [8, 16])
def test_class_liouville_is_the_full_solve(L):
    # at a reflection-symmetric metric phi lies in "+++": the solve over
    # those harmonics alone is the full one, with the forms' block
    F, m, modes = _symmetric_metric(L)
    full = solve_liouville(m, tol=None)
    cls = solve_liouville(m, tol=None, modes=modes)
    assert cls.forms.modes is modes and cls.forms.S.shape == (modes.size,) * 2
    off = np.ones(m.grid.n_coeffs, dtype=bool)
    off[modes] = False
    assert not np.any(cls.phi.coeffs[off])
    npt.assert_allclose(cls.phi.coeffs, full.phi.coeffs, rtol=0,
                        atol=1e-13 * np.abs(full.phi.coeffs).max())
    npt.assert_allclose(cls.lambda2, full.lambda2, rtol=0,
                        atol=1e-13 * np.abs(full.lambda2).max())
    assert cls.iterations == full.iterations


def _class_variations(F, modes, n_fields=5, seed=0):
    """Metric variations (n, 2, 2, B) of "+++" ambient fields: X_mu =
    x_mu f with f in "+++" keeps all three reflection symmetries."""
    g = F.grid
    rng = np.random.default_rng(seed)
    h = []
    for _ in range(n_fields):
        c = np.zeros(g.n_coeffs)
        c[modes] = 0.1 * rng.standard_normal(modes.size)
        X = F.positions * g.synthesize(c)[:, None] * rng.standard_normal(3)
        h.append(_metric_variation(F, X))
    return np.stack(h, axis=-1)


@pytest.mark.parametrize("L", [8, 16])
def test_class_linearized_liouville_is_the_full_map(L):
    F, m, modes = _symmetric_metric(L)
    h = _class_variations(F, modes)
    full = LinearizedLiouville(solve_liouville(m, tol=None)).solve_batch(h)
    cls = LinearizedLiouville(
        solve_liouville(m, tol=None, modes=modes)).solve_batch(h)
    for got, ref in zip(cls, full):
        npt.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("modes", [None, "+++"])
def test_strong_residual_is_computed_on_read(modes):
    F, m, harmonics = _symmetric_metric(8)
    conf = solve_liouville(m, tol=None,
                           modes=slice(None) if modes is None else harmonics)
    assert "strong_residual" not in vars(conf)
    strong = (m.laplacian(conf.phi.coeffs) - m.K
              + np.exp(2.0 * conf.phi.samples))
    assert conf.strong_residual == float(np.max(np.abs(strong)))
    assert "strong_residual" in vars(conf)


def test_initial_of_wrong_shape_raises():
    g = grid(8)
    metric = MetricData.from_immersion(sphere_immersion(g))
    n = g.n_coeffs
    for initial in (np.zeros(n - 1), np.zeros(n + 3), np.zeros((n, 2))):
        with pytest.raises(DegreeMismatchError, match="initial coefficients"):
            solve_liouville(metric, initial=initial)
