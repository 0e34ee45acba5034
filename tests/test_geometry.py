"""Geometry of immersions against closed-form and symbolic oracles."""

import numpy as np
import numpy.testing as npt
import pytest
import sympy as sp

from immlab.errors import ImmersionRegularityError
from immlab.geometry import ImmersionMap, darboux_residual, gauss_check
from immlab.shapes import (ellipsoid_immersion, perturbed_sphere_immersion,
                           sphere_immersion)
from immlab.spectral import grid


def ellipsoid_oracle(a, b, c):
    """Symbolic first/second fundamental data of the ellipsoid chart."""
    t, p = sp.symbols("t p", positive=True)
    F = sp.Matrix([a * sp.sin(t) * sp.cos(p),
                   b * sp.sin(t) * sp.sin(p),
                   c * sp.cos(t)])
    Ft, Fp = F.diff(t), F.diff(p)
    gamma = sp.Matrix([[Ft.dot(Ft), Ft.dot(Fp)], [Ft.dot(Fp), Fp.dot(Fp)]])
    N = Ft.cross(Fp)
    N = N / sp.sqrt(N.dot(N))
    # Weingarten sign: A = -<d^2 F, N> so the unit sphere gets A = gamma
    A = -sp.Matrix([[F.diff(t, 2).dot(N), F.diff(t, p).dot(N)],
                    [F.diff(t, p).dot(N), F.diff(p, 2).dot(N)]])
    shape = gamma.inv() * A
    H = sp.trace(shape)
    K = shape.det()
    fns = {}
    for name, expr in [("gamma", gamma), ("A", A), ("H", H), ("K", K)]:
        fns[name] = sp.lambdify((t, p), expr, "numpy")
    return fns


def test_unit_sphere_metric_and_curvatures():
    g = grid(10)
    F = sphere_immersion(g)
    geo = F.geometry
    npt.assert_allclose(geo.gamma[:, 0, 0], 1.0, atol=1e-11)
    npt.assert_allclose(geo.gamma[:, 0, 1], 0.0, atol=1e-11)
    npt.assert_allclose(geo.gamma[:, 1, 1], np.sin(g.theta) ** 2, atol=1e-11)
    npt.assert_allclose(geo.H, 2.0, atol=1e-10)
    npt.assert_allclose(geo.K, 1.0, atol=1e-10)
    npt.assert_allclose(geo.norm_A_sq, 2.0, atol=1e-10)
    # outward normal: N = F on the unit sphere
    npt.assert_allclose(geo.normal, F.positions, atol=1e-11)


def test_radius_r_sphere_scaling():
    g = grid(8)
    r = 2.0
    geo = sphere_immersion(g, radius=r).geometry
    npt.assert_allclose(geo.gamma[:, 0, 0], r ** 2, atol=1e-10)
    npt.assert_allclose(geo.H, 2.0 / r, atol=1e-10)
    npt.assert_allclose(geo.K, 1.0 / r ** 2, atol=1e-10)


def test_ellipsoid_against_symbolic_oracle():
    g = grid(24)
    a, b, c = 1.0, 1.2, 0.8
    geo = ellipsoid_immersion(g, a, b, c).geometry
    oracle = ellipsoid_oracle(a, b, c)
    rng = np.random.default_rng(11)
    nodes = rng.choice(g.n_nodes, size=10, replace=False)
    for n in nodes:
        t, p = g.theta[n], g.phi[n]
        npt.assert_allclose(geo.gamma[n], oracle["gamma"](t, p), atol=1e-8)
        npt.assert_allclose(geo.second[n], oracle["A"](t, p), atol=1e-7)
        npt.assert_allclose(geo.H[n], oracle["H"](t, p), atol=1e-7)
        npt.assert_allclose(geo.K[n], oracle["K"](t, p), atol=1e-7)


def test_rigid_motion_equivariance():
    g = grid(10)
    F = ellipsoid_immersion(g, 1.0, 1.1, 0.9)
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1
    t = rng.standard_normal(3)
    G = ImmersionMap.from_samples(g, F.positions @ Q.T + t)
    npt.assert_allclose(G.geometry.gamma, F.geometry.gamma, atol=1e-11)
    npt.assert_allclose(G.geometry.H, F.geometry.H, atol=1e-11)
    npt.assert_allclose(G.geometry.K, F.geometry.K, atol=1e-11)
    npt.assert_allclose(G.geometry.norm_A_sq, F.geometry.norm_A_sq,
                        atol=1e-11)
    npt.assert_allclose(G.geometry.normal, F.geometry.normal @ Q.T,
                        atol=1e-10)


def test_scaling_law():
    g = grid(10)
    F = ellipsoid_immersion(g, 1.0, 1.1, 0.9)
    r = 3.0
    G = ImmersionMap.from_samples(g, r * F.positions)
    geo, geo_r = F.geometry, G.geometry
    npt.assert_allclose(geo_r.gamma, r ** 2 * geo.gamma, atol=1e-10)
    npt.assert_allclose(geo_r.second, r * geo.second, atol=1e-10)
    npt.assert_allclose(geo_r.H, geo.H / r, atol=1e-10)
    npt.assert_allclose(geo_r.K, geo.K / r ** 2, atol=1e-10)


def test_pointwise_identities():
    g = grid(12)
    geo = perturbed_sphere_immersion(g, 1.0, [(2, 2, 0.05), (3, 1, 0.02)]).geometry
    # principal curvatures are real: H^2 >= 4K
    assert np.all(geo.H ** 2 - 4.0 * geo.K >= -1e-9)
    # the trace of the shape operator gamma^-1 A is H
    tr_A = np.einsum("nij,nij->n", geo.inv_gamma, geo.second)
    npt.assert_allclose(tr_A, geo.H, atol=1e-10)
    nrm = np.linalg.norm(geo.normal, axis=1)
    npt.assert_allclose(nrm, 1.0, atol=1e-12)
    dots = np.einsum("nia,na->ni", geo.dF, geo.normal)
    npt.assert_allclose(dots, 0.0, atol=1e-10)


def test_gauss_check_sphere_and_decay():
    npt.assert_array_less(gauss_check(sphere_immersion(grid(32))).max_discrepancy,
                          1e-9)
    d16 = gauss_check(ellipsoid_immersion(grid(16), 1.0, 1.2, 0.8)).max_discrepancy
    d32 = gauss_check(ellipsoid_immersion(grid(32), 1.0, 1.2, 0.8)).max_discrepancy
    assert d32 <= 1e-6
    assert d32 <= d16 / 4.0


def test_gauss_check_perturbed_sphere():
    F = perturbed_sphere_immersion(grid(32), 1.0, [(2, 2, 0.05)])
    assert gauss_check(F).max_discrepancy <= 1e-5


def test_darboux_identity_sphere_exact():
    res = darboux_residual(sphere_immersion(grid(32)), np.array([0.0, 0.0, 1.0]))
    assert res.max_residual <= 1e-9


def test_darboux_identity_ellipsoid_decay():
    e = np.array([0.0, 0.0, 1.0])
    r16 = darboux_residual(ellipsoid_immersion(grid(16), 1.0, 1.2, 0.8), e)
    r32 = darboux_residual(ellipsoid_immersion(grid(32), 1.0, 1.2, 0.8), e)
    assert r32.max_residual <= 1e-6
    assert r32.max_residual <= r16.max_residual / 2.0


def test_darboux_identity_random_direction():
    rng = np.random.default_rng(19)
    e = rng.standard_normal(3)
    e /= np.linalg.norm(e)
    F = perturbed_sphere_immersion(grid(32), 1.0, [(2, 1, 0.04)])
    assert darboux_residual(F, e).max_residual <= 1e-5


def test_degenerate_immersion_rejected():
    g = grid(6)
    flat = np.zeros((g.n_nodes, 3))
    flat[:, 0] = np.cos(g.theta)
    with pytest.raises(ImmersionRegularityError):
        ImmersionMap.from_samples(g, flat)


@pytest.mark.parametrize("L", [8, 16])
@pytest.mark.parametrize("shape", ["ellipsoid", "perturbed"])
def test_christoffels_and_metric_gradient_against_einsum(L, shape):
    # both come from the products <d_ij F, d_l F>; the references are the
    # Gauss formula and the product rule written out as einsums
    g = grid(L)
    if shape == "ellipsoid":
        F = ellipsoid_immersion(g, 1.0, 1.05, 0.95)
    else:
        F = perturbed_sphere_immersion(
            g, 1.0, [(3, 2, 0.05), (2, -1, 0.04), (3, -3, 0.03)])
    geo = F.geometry
    gamma_k = np.einsum("nkl,nija,nla->nkij", geo.inv_gamma, geo.d2F, geo.dF)
    dgamma = (np.einsum("nkia,nja->nkij", geo.d2F, geo.dF)
              + np.einsum("nia,nkja->nkij", geo.dF, geo.d2F))
    npt.assert_allclose(geo.christoffel, gamma_k, rtol=0,
                        atol=1e-13 * np.abs(gamma_k).max())
    npt.assert_allclose(geo.metric_gradient, dgamma, rtol=0,
                        atol=1e-13 * np.abs(dgamma).max())
