"""Transform, quadrature and differentiation checks for the sphere grid."""

import numpy as np
import numpy.testing as npt
import pytest

from scipy.special import sph_harm_y

from immlab.errors import DegreeMismatchError
from immlab.shapes import ellipsoid_immersion
from immlab.spectral import (HarmonicField, SphereGrid, coeff_degrees,
                             coeff_index, grid)


def harmonic(g, l, m):
    c = np.zeros(g.n_coeffs)
    c[coeff_index(l, m)] = 1.0
    return g.synthesize(c)


def test_grid_shape_and_weights():
    g = grid(8)
    assert g.n_nodes == 9 * 18
    npt.assert_allclose(g.weights.sum(), 4.0 * np.pi, rtol=0, atol=1e-12)
    assert g.theta.shape == (g.n_nodes,)


def test_coeff_index_layout():
    assert coeff_index(0, 0) == 0
    assert coeff_index(1, -1) == 1
    assert coeff_index(1, 0) == 2
    assert coeff_index(1, 1) == 3
    assert coeff_index(2, -2) == 4
    ls, ms = coeff_degrees(3)
    assert ls.tolist() == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3]
    assert ms[ls == 2].tolist() == [-2, -1, 0, 1, 2]


def test_analysis_synthesis_roundtrip():
    g = grid(12)
    rng = np.random.default_rng(7)
    c = rng.standard_normal(g.n_coeffs)
    c2 = g.analyze(g.synthesize(c))
    npt.assert_allclose(c2, c, atol=1e-12)


def test_orthonormality_through_quadrature():
    g = grid(6)
    Y = g.node_matrix(0, 0)
    gram = Y.T @ (g.weights[:, None] * Y)
    npt.assert_allclose(gram, np.eye(g.n_coeffs), atol=1e-12)


def test_quadrature_exactness_high_degree():
    # theta rule is Gauss-Legendre: exact products up to degree 2L+1
    g = grid(8)
    f = harmonic(g, 8, 3)
    npt.assert_allclose((g.weights * f * f).sum(), 1.0, atol=1e-12)


def test_known_harmonic_values():
    g = grid(4)
    npt.assert_allclose(harmonic(g, 0, 0),
                        np.full(g.n_nodes, 0.5 / np.sqrt(np.pi)), atol=1e-14)
    # Y_10 = sqrt(3/4pi) cos(theta), no Condon-Shortley anywhere
    npt.assert_allclose(harmonic(g, 1, 0),
                        np.sqrt(3.0 / (4.0 * np.pi)) * np.cos(g.theta),
                        atol=1e-13)
    npt.assert_allclose(harmonic(g, 1, 1),
                        np.sqrt(3.0 / (4.0 * np.pi)) * np.sin(g.theta)
                        * np.cos(g.phi), atol=1e-13)


def test_derivative_matrices_against_analytic():
    g = grid(10)
    c = np.zeros(g.n_coeffs)
    c[coeff_index(2, 1)] = 1.0
    # Y_21 = sqrt(15/4pi) sin t cos t cos p
    amp = np.sqrt(15.0 / (4.0 * np.pi))
    dt = g.node_matrix(1, 0) @ c
    dp = g.node_matrix(0, 1) @ c
    npt.assert_allclose(dt, amp * np.cos(2 * g.theta) * np.cos(g.phi),
                        atol=1e-11)
    npt.assert_allclose(dp, -amp * np.sin(g.theta) * np.cos(g.theta)
                        * np.sin(g.phi), atol=1e-11)


@pytest.mark.parametrize("L", [8, 12])
def test_node_tables_match_scipy_harmonics(L):
    # scipy's complex Y_l^m carries the Condon-Shortley phase (-1)^m; the
    # real basis is sqrt(2) (-1)^m times its real (m > 0) or imaginary
    # (m < 0) part of Y_l^|m|, and Y_l^0 itself for m = 0
    g = grid(L)
    ls, ms = coeff_degrees(L)
    am = np.abs(ms)
    Y, dY, d2Y = sph_harm_y(ls, am, g.theta[:, None], g.phi[:, None],
                            diff_n=2)
    sign = np.where(ms == 0, 1.0, np.sqrt(2.0) * (-1.0) ** am)
    reference = {(0, 0): Y, (1, 0): dY[..., 0], (0, 1): dY[..., 1],
                 (2, 0): d2Y[..., 0, 0], (1, 1): d2Y[..., 0, 1],
                 (0, 2): d2Y[..., 1, 1]}
    for (dth, dph), z in reference.items():
        ref = sign * np.where(ms >= 0, z.real, z.imag)
        npt.assert_allclose(g.node_matrix(dth, dph), ref, rtol=0,
                            atol=1e-13 * np.abs(ref).max(),
                            err_msg=f"table ({dth}, {dph})")


def test_second_derivatives_solve_eigenproblem():
    # spherical Laplacian of Y_lm is -l(l+1) Y_lm; assemble from chart parts
    g = grid(9)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(g.n_coeffs)
    lap = (g.synthesize(c, 2, 0)
           + np.cos(g.theta) / np.sin(g.theta) * g.synthesize(c, 1, 0)
           + g.synthesize(c, 0, 2) / np.sin(g.theta) ** 2)
    ls, _ = coeff_degrees(g.L)
    expect = g.synthesize(-ls * (ls + 1.0) * c)
    npt.assert_allclose(lap, expect, atol=1e-9)


def test_harmonic_field_samples_cached():
    g = grid(5)
    f = HarmonicField(g, np.ones(g.n_coeffs))
    assert f.samples is f.samples


def test_degree_mismatch_raises():
    g = grid(5)
    with pytest.raises(DegreeMismatchError):
        g.synthesize(np.ones(10))


DERIVATIVES = [(dth, dph) for dth in range(3) for dph in range(3 - dth)]


@pytest.mark.parametrize("L", [4, 5, 8, 12, 16, 20])
def test_transforms_match_dense_node_tables(L):
    # the frequency-wise transforms regroup the dense products' quadrature
    # sums, so they agree with them to rounding, one field or a batch
    g = grid(L)
    rng = np.random.default_rng(L)
    for shape in [(), (1,), (3,)]:
        c = rng.standard_normal((g.n_coeffs,) + shape)
        for dth, dph in DERIVATIVES:
            ref = g.node_matrix(dth, dph) @ c
            got = g.synthesize(c, dth, dph)
            assert got.shape == (g.n_nodes,) + shape
            npt.assert_allclose(got, ref, rtol=0,
                                atol=1e-13 * np.abs(ref).max(),
                                err_msg=f"synthesize ({dth}, {dph})")
        f = rng.standard_normal((g.n_nodes,) + shape)
        ref = g.node_matrix().T @ (g.weights.reshape((-1,) + (1,) * len(shape))
                                   * f)
        got = g.analyze(f)
        assert got.shape == (g.n_coeffs,) + shape
        npt.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("dth,dph", DERIVATIVES)
def test_analysis_is_the_adjoint_of_synthesis(L, dth, dph):
    # analyze(f, dth, dph) pairs the samples with the (dth, dph) chart
    # derivative of every basis function by quadrature, the dense
    # node_matrix(dth, dph).T @ (weights * f), one field or a batch
    g = grid(L)
    rng = np.random.default_rng(10 * L + 3 * dth + dph)
    f = rng.standard_normal((g.n_nodes, 5))
    ref = g.node_matrix(dth, dph).T @ (g.weights[:, None] * f)
    atol = 1e-13 * np.abs(ref).max()
    got = g.analyze(f, dth, dph)
    assert got.shape == (g.n_coeffs, 5)
    npt.assert_allclose(got, ref, rtol=0, atol=atol)
    one = g.analyze(f[:, 1], dth, dph)
    assert one.shape == (g.n_coeffs,)
    npt.assert_allclose(one, ref[:, 1], rtol=0, atol=atol)
    # the adjoint identity <synthesize(c), f>_w = <c, analyze(f)>
    c = rng.standard_normal(g.n_coeffs)
    lhs = g.synthesize(c, dth, dph) @ (g.weights * f[:, 0])
    npt.assert_allclose(lhs, c @ got[:, 0], rtol=0,
                        atol=1e-13 * (np.abs(c) @ np.abs(got[:, 0])))


@pytest.mark.parametrize("bad", [lambda g: (g.n_coeffs + 1,),
                                 lambda g: (g.n_coeffs, 3, 1),
                                 lambda g: (g.n_nodes,)])
def test_synthesize_rejects_wrong_shapes(bad):
    g = grid(6)
    with pytest.raises(DegreeMismatchError):
        g.synthesize(np.ones(bad(g)))


@pytest.mark.parametrize("bad", [lambda g: (g.n_nodes + 1,),
                                 lambda g: (g.n_nodes, 3, 1),
                                 lambda g: (g.n_coeffs,)])
def test_analyze_rejects_wrong_shapes(bad):
    g = grid(6)
    with pytest.raises(DegreeMismatchError):
        g.analyze(np.ones(bad(g)))


def test_single_field_transforms_build_no_node_table():
    # an immersion, its geometry and the gradient of its mean curvature
    # run by longitude frequency: no dense (n, nc) node table is built or
    # read on the way
    g = SphereGrid.build(16)

    def refuse(*args):
        raise AssertionError(f"node_matrix{args} called")

    g.node_matrix = refuse
    F = ellipsoid_immersion(g, 1.0, 1.05, 0.95)
    geo = F.geometry
    dH = g.gradient(g.analyze(geo.H))
    assert dH.shape == (g.n_nodes, 2)
    tables = [key for key in g._tables
              if isinstance(key, tuple) and len(key) == 2
              and all(isinstance(k, int) for k in key)]
    assert tables == []
