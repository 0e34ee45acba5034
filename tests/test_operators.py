"""The blended data map, its linearization, and the ADN principal symbol."""

import numpy as np
import numpy.testing as npt
import pytest

from immlab import operators
from immlab.bases import _weighted_tensor_fields, vector_basis
from immlab.continuation import TargetData, newton_solve
from immlab.errors import ImmersionRegularityError
from immlab.fredholm import killing_modes
from immlab.geometry import ImmersionMap
from immlab.operators import (VariationField, apply_phi,
                              assemble_linearization, delta_star,
                              mean_curvature_prime, principal_symbol,
                              project_codomain, push_forward)
from immlab.shapes import (ellipsoid_immersion, parse_shape_spec,
                           perturbed_sphere_immersion, sphere_immersion)
from immlab.spectral import coeff_index, grid
from immlab.uniformize import LinearizedLiouville, MetricData, _WeakForms


def normal_field(g, l, m, amp=1.0):
    c = np.zeros(g.n_coeffs)
    c[coeff_index(l, m)] = amp
    return VariationField(np.zeros((g.n_nodes, 2)),
                          np.zeros((g.n_nodes, 2, 2)), g.synthesize(c))


def test_apply_phi_sphere_values():
    g = grid(8)
    F = sphere_immersion(g)
    data = apply_phi(F, 0.5)
    s = np.sin(g.theta)
    npt.assert_allclose(data.class_rep[:, 0, 0], 1.0 / s, atol=1e-11)
    npt.assert_allclose(data.class_rep[:, 1, 1], s, atol=1e-11)
    npt.assert_allclose(data.blended, 1.5, atol=1e-11)
    npt.assert_allclose(apply_phi(F, 1.0).blended, 2.0, atol=1e-11)
    npt.assert_allclose(apply_phi(sphere_immersion(g, 1.7), 0.0).blended,
                        1.7**2, atol=1e-10)


def test_apply_phi_multiplicative_values():
    g = grid(8)
    F = sphere_immersion(g)
    npt.assert_allclose(apply_phi(F, 0.5, "multiplicative").blended,
                        2.0**-0.5, atol=1e-11)
    npt.assert_allclose(apply_phi(F, 1.0, "multiplicative").blended, 0.5,
                        atol=1e-11)


def test_apply_phi_endpoint_identities():
    g = grid(12)
    F = perturbed_sphere_immersion(g, 1.0, [(2, 1, 0.05)])
    d0 = apply_phi(F, 0.0, liouville_tol=None)
    npt.assert_allclose(d0.blended, d0.lambda2, atol=0)
    d1 = apply_phi(F, 1.0)
    npt.assert_allclose(d1.blended, F.geometry.H, atol=0)
    d0m = apply_phi(F, 0.0, "multiplicative", liouville_tol=None)
    npt.assert_allclose(d0m.blended, d0m.lambda2, atol=1e-13)


def test_apply_phi_input_validation():
    g = grid(8)
    F = sphere_immersion(g)
    with pytest.raises(ValueError):
        apply_phi(F, 1.5)
    with pytest.raises(ValueError):
        apply_phi(F, -0.1)
    with pytest.raises(ValueError):
        apply_phi(F, 0.5, "geometric")


def test_apply_phi_multiplicative_needs_positive_H():
    g = grid(12)
    F = perturbed_sphere_immersion(g, 1.0, [(3, 0, 0.3)])
    assert F.geometry.H.min() < 0.0
    with pytest.raises(ImmersionRegularityError):
        apply_phi(F, 1.0, "multiplicative")


def test_apply_phi_rigid_motion_invariance():
    g = grid(12)
    F = ellipsoid_immersion(g, 1.0, 1.1, 0.9)
    rng = np.random.default_rng(0)
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    G = F.rotated(R).translated(np.array([0.4, -1.0, 0.2]))
    dF = apply_phi(F, 0.3, liouville_tol=None)
    dG = apply_phi(G, 0.3, liouville_tol=None)
    npt.assert_array_less(np.abs(dF.blended - dG.blended).max(), 1e-9)
    npt.assert_array_less(np.abs(dF.class_rep - dG.class_rep).max(), 1e-9)


def test_variation_field_roundtrip():
    g = grid(12)
    F = sphere_immersion(g)
    rng = np.random.default_rng(2)
    Xc = np.zeros((3, g.n_coeffs))
    Xc[:, :16] = rng.standard_normal((3, 16))
    X = np.stack([g.synthesize(Xc[mu]) for mu in range(3)], axis=-1)
    V = VariationField.from_ambient(F, X)
    npt.assert_array_less(np.abs(V.to_ambient(F) - X).max(), 1e-12)


def test_delta_star_killing_fields():
    g = grid(12)
    F = sphere_immersion(g)
    rot = VariationField.from_ambient(
        F, np.cross(np.array([0.0, 0.0, 1.0]), F.positions))
    strain, _ = delta_star(F, rot)
    npt.assert_array_less(np.abs(strain).max(), 1e-10)
    assert np.abs(rot.nu).max() <= 1e-10

    trans = VariationField.from_ambient(
        F, np.tile(np.array([0.3, -0.2, 0.9]), (g.n_nodes, 1)))
    strain, _ = delta_star(F, trans)
    npt.assert_array_less(np.abs(strain).max(), 1e-10)


def _ambient_strain(F, X):
    """Reference: half the metric variation, sym(d_i X . d_j F), of X.

    This is (1/2) d/ds [(F + sX)^* g_Eucl] at s = 0, with X analyzed so
    that its chart derivatives are exact for band-limited fields.
    """
    g = F.grid
    Xc = np.stack([g.analyze(X[:, mu]) for mu in range(3)])
    dX = np.stack([g.node_matrix(1, 0) @ Xc.T, g.node_matrix(0, 1) @ Xc.T],
                  axis=1)
    gp = (np.einsum("nim,njm->nij", dX, F.geometry.dF)
          + np.einsum("nim,njm->nij", F.geometry.dF, dX))
    return 0.5 * gp


@pytest.mark.parametrize("L", [12, 16])
@pytest.mark.parametrize("shape", ["ellipsoid:1,1.1,0.9",
                                   "perturbed:1;3,1,0.05"])
def test_delta_star_matches_ambient_strain(L, shape):
    # the kernels' Lie-derivative strain equals the ambient one: measured
    # 5e-16 of the largest entry for band-limited X
    g = grid(L)
    F = parse_shape_spec(shape, g)
    Xc = np.zeros((3, g.n_coeffs))
    Xc[:, :16] = 0.3 * np.random.default_rng(L).standard_normal((3, 16))
    X = np.stack([g.synthesize(Xc[mu]) for mu in range(3)], axis=-1)
    ref = _ambient_strain(F, X)
    strain, _ = delta_star(F, VariationField.from_ambient(F, X))
    npt.assert_allclose(strain, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_delta_star_normal_on_sphere():
    g = grid(12)
    F = sphere_immersion(g)
    V = normal_field(g, 2, 0)
    strain, dnu = delta_star(F, V)
    # A = gamma on the unit sphere, so the strain is nu * gamma
    ref = V.nu[:, None, None] * F.geometry.gamma
    npt.assert_array_less(np.abs(strain - ref).max(), 1e-10)
    npt.assert_allclose(dnu[:, 0], g.node_matrix(1, 0)[:, coeff_index(2, 0)],
                        atol=1e-13)


def test_mean_curvature_prime_sphere():
    g = grid(12)
    F = sphere_immersion(g)
    for m in (-1, 0, 1):
        Hp = mean_curvature_prime(F, normal_field(g, 1, m))
        npt.assert_array_less(np.abs(Hp).max(), 1e-10)
    const = normal_field(g, 0, 0, amp=0.35 * np.sqrt(4.0 * np.pi))
    Hp = mean_curvature_prime(F, const)
    npt.assert_allclose(Hp, -2.0 * 0.35, atol=1e-11)


def _low_degree_direction(g, seed, max_idx=9, scale=0.4):
    rng = np.random.default_rng(seed)
    Xc = np.zeros((3, g.n_coeffs))
    Xc[:, :max_idx] = scale * rng.standard_normal((3, max_idx))
    return Xc


def test_mean_curvature_prime_finite_difference():
    g = grid(16)
    F = sphere_immersion(g)
    Xc = _low_degree_direction(g, 5)
    X = np.stack([g.synthesize(Xc[mu]) for mu in range(3)], axis=-1)
    Hp = mean_curvature_prime(F, VariationField.from_ambient(F, X))
    errs = {}
    for s in (1e-3, 1e-4):
        Hpl = ImmersionMap(g, F.coeffs + s * Xc).geometry.H
        Hmi = ImmersionMap(g, F.coeffs - s * Xc).geometry.H
        errs[s] = np.abs((Hpl - Hmi) / (2.0 * s) - Hp).max()
    assert errs[1e-3] <= 1e-4
    assert errs[1e-4] <= errs[1e-3] / 50.0

    # non-band-limited shape: the formula carries the truncation of H,
    # so finite differences only agree to that floor
    E = ellipsoid_immersion(g, 1.0, 1.1, 0.9)
    Hp = mean_curvature_prime(E, VariationField.from_ambient(E, X))
    Hpl = ImmersionMap(g, E.coeffs + 1e-4 * Xc).geometry.H
    Hmi = ImmersionMap(g, E.coeffs - 1e-4 * Xc).geometry.H
    assert np.abs((Hpl - Hmi) / 2e-4 - Hp).max() <= 1e-4


def test_linearization_kills_ambient_isometries():
    g = grid(12)
    M = assemble_linearization(sphere_immersion(g), 1.0)
    cols = M.matrix @ killing_modes(M.domain_basis)
    npt.assert_array_less(np.linalg.norm(cols, axis=0), 1e-9)


def test_linearization_nine_dim_kernel_span():
    g = grid(12)
    M = assemble_linearization(sphere_immersion(g), 1.0)
    norms = []
    for i, (kind, l, m) in enumerate(M.domain_basis):
        if l == 1 and kind in ("grad", "curl", "normal"):
            v = np.zeros(M.matrix.shape[1])
            v[i] = 1.0
            norms.append(np.linalg.norm(M.matrix @ v))
    assert len(norms) == 9
    npt.assert_array_less(np.array(norms), 1e-8)


def _domain_direction(g, labels, seed):
    rng = np.random.default_rng(seed)
    v = np.zeros(len(labels))
    low = [i for i, (kind, l, m) in enumerate(labels) if l <= 3]
    v[low] = rng.standard_normal(len(low))
    return v


def _fd_column(F, eps, variant, Xc, s):
    g = F.grid

    def at(sv):
        d = apply_phi(ImmersionMap(g, F.coeffs + sv * Xc), eps, variant,
                      liouville_tol=None)
        return project_codomain(g, d.class_rep, d.blended)

    return (at(s) - at(-s)) / (2.0 * s)


@pytest.mark.parametrize("eps,variant", [
    (1.0, "additive"),
    (0.3, "additive"),
    (0.3, "multiplicative"),
])
def test_linearization_matches_finite_differences(eps, variant):
    g = grid(12)
    F = sphere_immersion(g)
    M = assemble_linearization(F, eps, variant, liouville_tol=None)
    v = _domain_direction(g, M.domain_basis, 11)
    X = push_forward(F, v)
    Xc = np.stack([g.analyze(X[:, mu]) for mu in range(3)])
    col = M.matrix @ v
    err = {s: np.linalg.norm(_fd_column(F, eps, variant, Xc, s) - col)
           / np.linalg.norm(col) for s in (1e-3, 5e-4)}
    assert err[1e-3] <= 1e-4
    # clean O(s^2): halving s quarters the error
    assert 3.0 <= err[1e-3] / err[5e-4] <= 5.0


def test_linearization_affine_in_epsilon_additive():
    g = grid(8)
    F = ellipsoid_immersion(g, 1.0, 1.1, 0.9)
    M0 = assemble_linearization(F, 0.0, liouville_tol=None)
    M1 = assemble_linearization(F, 1.0, liouville_tol=None)
    M3 = assemble_linearization(F, 0.3, liouville_tol=None)
    blend = 0.7 * M0.matrix + 0.3 * M1.matrix
    npt.assert_array_less(np.abs(M3.matrix - blend).max(), 1e-10)


def test_linearization_epsilon_lipschitz_multiplicative():
    g = grid(8)
    F = sphere_immersion(g)
    Ms = {e: assemble_linearization(F, e, "multiplicative",
                                    liouville_tol=None) for e in
          (0.4, 0.5, 0.6)}
    d1 = np.linalg.norm(Ms[0.5].matrix - Ms[0.4].matrix)
    d2 = np.linalg.norm(Ms[0.6].matrix - Ms[0.5].matrix)
    scale = max(np.linalg.norm(Ms[0.5].matrix), 1.0)
    assert d1 <= scale and d2 <= scale
    # comparable increments for equal eps steps
    assert 0.2 <= d1 / d2 <= 5.0


def test_linearization_reuses_supplied_data():
    g = grid(8)
    F = ellipsoid_immersion(g, 1.0, 1.1, 0.9)
    data = apply_phi(F, 0.5, liouville_tol=None)
    M = assemble_linearization(F, 0.5, liouville_tol=None)
    M_data = assemble_linearization(F, 0.5, data=data, liouville_tol=None)
    # apply_phi is deterministic, so reuse changes nothing, bit for bit
    npt.assert_array_equal(M_data.matrix, M.matrix)
    with pytest.raises(ValueError):
        assemble_linearization(F, 0.3, data=data, liouville_tol=None)
    with pytest.raises(ValueError):
        assemble_linearization(F, 0.5, "multiplicative", data=data,
                               liouville_tol=None)
    other = ellipsoid_immersion(g, 1.0, 0.9, 1.1)
    with pytest.raises(ValueError):
        assemble_linearization(other, 0.5, data=data, liouville_tol=None)


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("eps", [1.0, 0.5, 0.2])
@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
def test_dealiased_assembly_is_the_full_block(L, eps, variant):
    # measured max difference <= 1.1e-16 of the largest entry at L 8 and 12
    # (the block's products run over fewer columns, which rounds apart)
    g = grid(L)
    F = ellipsoid_immersion(g, 1.0, 1.08, 0.95)
    data = apply_phi(F, eps, variant, liouville_tol=None)
    full = assemble_linearization(F, eps, variant, data=data)
    M = assemble_linearization(F, eps, variant, data=data, degree=L - 2)
    keep = np.array([l <= L - 2 for _, l, _ in full.domain_basis])
    rows = np.array([l <= L - 2 for _, l, _ in full.codomain_basis])
    block = full.matrix[np.ix_(rows, keep)]
    npt.assert_allclose(M.matrix, block, rtol=0,
                        atol=1e-13 * np.abs(block).max())
    assert M.domain_basis == tuple(
        lab for lab, k in zip(full.domain_basis, keep) if k)
    assert M.codomain_basis == tuple(
        lab for lab, r in zip(full.codomain_basis, rows) if r)
    assert M.structural_index == 6


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("eps,variant", [(1.0, "additive"),
                                         (0.5, "multiplicative"),
                                         (0.2, "additive")])
@pytest.mark.parametrize("cut", [None, 2])
def test_class_assembly_is_the_full_block(L, eps, variant, cut):
    # at an axis-aligned ellipsoid the "+++" assembly, whose Galerkin
    # Laplacian runs over the class's harmonics alone, is that block of the
    # full matrix: measured within 2.4e-15 of the largest entry
    g = grid(L)
    F = ellipsoid_immersion(g, 1.0, 1.08, 0.95)
    degree = None if cut is None else L - cut
    data = apply_phi(F, eps, variant, liouville_tol=None)
    full = assemble_linearization(F, eps, variant, data=data)
    # uniformized over the "+++" harmonics, as Newton's residual is
    M = assemble_linearization(F, eps, variant, data=None,
                               liouville_tol=None, degree=degree,
                               sign_class="+++")
    block_cut = operators._mode_cut(g, degree, "+++")
    keep, rows = block_cut.domain_mask, block_cut.codomain_mask
    block = full.matrix[np.ix_(rows, keep)]
    assert M.matrix.shape == block.shape
    assert 0 < block.shape[1] < full.matrix.shape[1] // 6
    npt.assert_allclose(M.matrix, block, rtol=0,
                        atol=1e-12 * np.abs(block).max())
    assert M.domain_basis == tuple(
        lab for lab, k in zip(full.domain_basis, keep) if k)
    assert M.codomain_basis == tuple(
        lab for lab, r in zip(full.codomain_basis, rows) if r)
    # the cut's block keys (sign class + 8 |m|) all lie in the class "+++"
    assert set(block_cut.classes[0] % 8) == set(block_cut.classes[1] % 8) \
        == {0}


def test_class_assembly_rejects_unknown_class():
    g = grid(8)
    with pytest.raises(ValueError):
        assemble_linearization(sphere_immersion(g), 1.0, sign_class="+-0")
    with pytest.raises(ValueError):
        apply_phi(sphere_immersion(g), 1.0, sign_class="+-0")


@pytest.mark.parametrize("L", [8, 16])
@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
def test_class_assembly_takes_full_or_class_data(L, variant):
    # the "+++" block takes data uniformized over "+++" (apply_phi's
    # sign_class), as it uniformizes itself without data, and refuses
    # data over every harmonic
    g = grid(L)
    F = ellipsoid_immersion(g, 1.03, 0.97, 1.02)
    full = apply_phi(F, 0.2, variant, liouville_tol=None)
    cls = apply_phi(F, 0.2, variant, liouville_tol=None, sign_class="+++")
    assert cls.conformal.forms.modes is operators._class_harmonics(g, "+++")
    M = assemble_linearization(F, 0.2, variant, data=cls, degree=L - 2,
                               sign_class="+++").matrix
    ref = assemble_linearization(F, 0.2, variant, liouville_tol=None,
                                 degree=L - 2, sign_class="+++").matrix
    npt.assert_allclose(M, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    with pytest.raises(ValueError, match="sign class"):
        assemble_linearization(F, 0.2, variant, data=full, sign_class="+++")
    # data over one class have no block at another, nor at every class
    for other in ("+-+", None):
        with pytest.raises(ValueError, match="sign class"):
            assemble_linearization(F, 0.2, variant, data=cls,
                                   sign_class=other)


def _dense_projection(g, class_part, blended_part):
    # the codomain pairings as plain quadrature sums over every node
    W = _weighted_tensor_fields(g).reshape(4 * g.n_nodes, -1)
    return np.vstack([W.T @ class_part.reshape(4 * g.n_nodes, -1),
                      g.node_matrix(0, 0).T
                      @ (g.weights[:, None] * blended_part)])


# cut: None keeps every row, 2 the rows of degree <= L - 2, and "+++" the
# rows of degree <= L - 2 in the fully symmetric sign class
@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("cut", [None, 2, "+++"])
@pytest.mark.parametrize("batch", [1, 7])
def test_projection_matches_dense_quadrature(L, cut, batch):
    g = grid(L)
    degree = None if cut is None else L - 2
    rng = np.random.default_rng(L + batch)
    class_part = rng.standard_normal((g.n_nodes, 2, 2, batch))
    blended = rng.standard_normal((g.n_nodes, batch))
    mode_cut = operators._mode_cut(g, degree,
                                   "+++" if cut == "+++" else None)
    ref = _dense_projection(g, class_part, blended)[mode_cut.codomain_mask]
    if cut is None and batch == 1:
        rows = project_codomain(g, class_part[..., 0], blended[:, 0])[:, None]
    elif cut is None:
        rows = project_codomain(g, class_part, blended)
    else:
        # only the cut's rows are formed; the "+++" fields are not
        # symmetric, so its class rows are still those rows of the full
        # projection
        folded = operators._fold(class_part.reshape(g.n_nodes, 4, batch))
        rows = operators._project(g, folded, blended, mode_cut,
                                  np.empty(folded.shape))
    npt.assert_allclose(rows, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("eps,variant", [(1.0, "additive"),
                                         (0.5, "multiplicative")])
def test_assembly_projection_matches_dense_quadrature(eps, variant,
                                                      monkeypatch):
    # an immersion without reflection symmetry couples every sign class
    g = grid(8)
    F = perturbed_sphere_immersion(g, 1.0, [(3, 2, 0.05), (2, -1, 0.04),
                                            (3, -3, 0.03)])
    M = assemble_linearization(F, eps, variant, liouville_tol=None).matrix
    rows, cols = operators._mode_cut(g, None).classes
    assert np.abs(M[rows[:, None] != cols]).max() > 1e-3 * np.abs(M).max()

    def dense(g, c, b, cut, work, out):
        # the folded class part (00, 01 + 10, 11) as a tensor with that
        # sum in its 01 component
        c = np.stack([c[:, 0], c[:, 1], np.zeros_like(c[:, 1]), c[:, 2]], 1)
        out[...] = _dense_projection(g, c, b)[cut.codomain_mask]
        return out
    monkeypatch.setattr(operators, "_project", dense)
    ref = assemble_linearization(F, eps, variant, liouville_tol=None).matrix
    npt.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def _einsum_assembly(F, eps, variant, degree):
    """The linearization with the first variation contracted index by index.

    An oracle for the per-node maps: the Lie derivative
    V^k d_k gamma_ij + gamma_kj d_i V^k + gamma_ik d_j V^k, the normal
    part 2 nu A and the class part (gamma' - tr(gamma^-1 gamma') gamma / 2)
    / sqrt(det gamma) are written as einsums over the basis fields, and
    the blended slot's variation as the chain rule of each blend formula.
    """
    g, geo = F.grid, F.geometry
    data = apply_phi(F, eps, variant, liouville_tol=None)
    if data.conformal is None:
        lin, forms = None, _WeakForms(MetricData.from_immersion(F))
    else:
        lin, forms = LinearizedLiouville(data.conformal), data.conformal.forms
    vb = vector_basis(g)
    keep = operators._mode_cut(g, degree).domain_mask
    V, dV = vb.fields[..., keep[:vb.size]], vb.dfields[..., keep[:vb.size]]
    nu = g.node_matrix(0, 0)[:, keep[vb.size:]]
    dgam = (np.einsum("nkia,nja->nkij", geo.d2F, geo.dF)
            + np.einsum("nia,nkja->nkij", geo.dF, geo.d2F))
    mixed = np.einsum("nkj,nikb->nijb", geo.gamma, dV)
    gp = np.concatenate(
        [np.einsum("nkb,nkij->nijb", V, dgam) + mixed
         + mixed.transpose(0, 2, 1, 3),
         2.0 * geo.second[..., None] * nu[:, None, None]], axis=3)
    Hp = np.concatenate(
        [np.einsum("nkb,nk->nb", V, g.gradient(g.analyze(geo.H))),
         -forms.laplacian(forms.S[:, keep[vb.size:]])
         - geo.norm_A_sq[:, None] * nu], axis=1)
    # the blended slot's variation, one branch per variant and endpoint
    if eps == 1.0 and variant == "additive":
        bp = Hp
    elif eps == 1.0:
        bp = -Hp / data.H[:, None] ** 2
    elif variant == "additive":
        bp = (1.0 - eps) * lin.solve_batch(gp)[1] + eps * Hp
    else:
        log_prime = ((1.0 - eps) * lin.solve_batch(gp)[1]
                     / data.lambda2[:, None] - eps * Hp / data.H[:, None])
        bp = data.blended[:, None] * log_prime
    trg = np.einsum("nij,nijb->nb", geo.inv_gamma, gp)
    crp = ((gp - 0.5 * trg[:, None, None] * geo.gamma[..., None])
           / np.sqrt(geo.det_gamma)[:, None, None, None])
    return project_codomain(g, crp, bp)[
        operators._mode_cut(g, degree).codomain_mask]


@pytest.mark.parametrize("shape", ["perturbed:1;3,2,0.05;2,-1,0.04;3,-3,0.03",
                                   "ellipsoid:1,1.05,0.95"])
@pytest.mark.parametrize("eps,variant", [(1.0, "additive"),
                                         (1.0, "multiplicative"),
                                         (0.5, "multiplicative"),
                                         (0.2, "additive")])
@pytest.mark.parametrize("cut", [None, 2])
def test_assembly_matches_einsum_first_variation(shape, eps, variant, cut):
    g = grid(8)
    F = parse_shape_spec(shape, g)
    degree = None if cut is None else g.L - cut
    M = assemble_linearization(F, eps, variant, liouville_tol=None,
                               degree=degree).matrix
    ref = _einsum_assembly(F, eps, variant, degree)
    npt.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("width", [7, 50])
@pytest.mark.parametrize("eps,variant", [(1.0, "additive"),
                                         (0.5, "multiplicative")])
@pytest.mark.parametrize("cut", [None, 2])
def test_assembly_in_narrow_panels(width, eps, variant, cut, monkeypatch):
    # panels that split a jet table and the vector/normal column boundary,
    # the last one partial, give the matrix of the default panels and the
    # oracle's
    g = grid(8)
    F = ellipsoid_immersion(g, 1.0, 1.05, 0.95)
    degree = None if cut is None else g.L - cut
    data = apply_phi(F, eps, variant, liouville_tol=None)
    ref = assemble_linearization(F, eps, variant, data=data, degree=degree)
    n_dom = ref.matrix.shape[1]
    n_vec = sum(lab[0] != "normal" for lab in ref.domain_basis)
    assert n_vec % width and n_dom % width
    if cut is not None:
        assert (n_vec // 2) % width      # the end of the grad jet table
    monkeypatch.setattr(operators, "_PANEL", width)
    M = assemble_linearization(F, eps, variant, data=data,
                               degree=degree).matrix
    npt.assert_allclose(M, ref.matrix, rtol=0,
                        atol=1e-14 * np.abs(ref.matrix).max())
    oracle = _einsum_assembly(F, eps, variant, degree)
    npt.assert_allclose(M, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())


@pytest.mark.parametrize("eps", [1.0, 0.2])
def test_sign_class_block_in_narrow_panels(eps, monkeypatch):
    # the "+++" block's gathered jet table and its normal speeds split
    # across panels, on data uniformized over the class as Newton's are;
    # at eps < 1 the linearized Liouville solve runs per panel over the
    # class's harmonics.  The block is that of the full matrix.
    g = grid(8)
    F = ellipsoid_immersion(g, 1.0, 1.05, 0.95)
    data = apply_phi(F, eps, liouville_tol=None, sign_class="+++")
    ref = assemble_linearization(F, eps, data=data, sign_class="+++").matrix
    cut = operators._mode_cut(g, None, "+++")
    width, n_vec, n_dom = 8, cut.jets[0].shape[2], ref.shape[1]
    assert width < n_dom and n_vec % width and n_dom % width
    monkeypatch.setattr(operators, "_PANEL", width)
    M = assemble_linearization(F, eps, data=data, sign_class="+++").matrix
    npt.assert_allclose(M, ref, rtol=0, atol=1e-14 * np.abs(ref).max())
    monkeypatch.undo()
    full = assemble_linearization(F, eps, liouville_tol=None).matrix
    block = full[np.ix_(cut.codomain_mask, cut.domain_mask)]
    npt.assert_allclose(M, block, rtol=0, atol=1e-12 * np.abs(block).max())


def _warm_assembly_peak(live_peak, eps, variant, cut, L=12):
    """Peak live bytes of one warm assembly, and those of an (n, 4, B)
    double array."""
    g = grid(L)
    F = ellipsoid_immersion(g, 1.0, 1.05, 0.95)
    degree = None if cut is None else g.L - cut
    data = apply_phi(F, eps, variant, liouville_tol=None)
    assemble_linearization(F, eps, variant, data=data, degree=degree)
    M, peak = live_peak(lambda: assemble_linearization(
        F, eps, variant, data=data, degree=degree))
    return peak, g.n_nodes * 4 * M.matrix.shape[1] * 8


# peak live memory of one warm assembly at L = 12, in (n, 4, B) double
# arrays, as tracemalloc counts numpy's allocations (so not the heap that
# the allocator retains).  The columns run in panels of operators._PANEL,
# 4 (full) and 3 (degree L - 2) of them here; measured 1.19 and 1.35 at
# eps = 1, where one panel's class part, H' and work buffer, the forms
# and the result are live.  A full-width (n, 4, B) temporary fails the
# eps = 1 bound; 4.75 at eps = 0.5 is the looser bound that an assembly
# keeping the linearized Liouville solve's work arrays live still meets.
@pytest.mark.parametrize("cut,eps,variant,bound", [
    pytest.param(None, 1.0, "additive", 1.5, id="None"),
    pytest.param(2, 1.0, "additive", 1.5, id="2"),
    pytest.param(None, 0.5, "multiplicative", 4.75,
                 id="None-0.5-multiplicative-4.75"),
    pytest.param(2, 0.5, "multiplicative", 4.75,
                 id="2-0.5-multiplicative-4.75"),
])
def test_assembly_peak_live_memory(cut, eps, variant, bound, live_peak):
    peak, unit = _warm_assembly_peak(live_peak, eps, variant, cut)
    assert peak <= bound * unit, peak / unit


# measured 1.44 (full) and 1.76 (degree L - 2) at eps = 0.5, where the
# linearized Liouville solve's (n, 6, b) test-jet weights of one panel
# are live too
@pytest.mark.parametrize("cut", [None, 2])
def test_assembly_peak_live_memory_liouville(cut, live_peak):
    peak, unit = _warm_assembly_peak(live_peak, 0.5, "multiplicative", cut)
    assert peak <= 2.0 * unit, peak / unit


def test_assembly_peak_live_memory_many_panels(live_peak):
    # at L = 20 the 1321 columns make 11 panels: measured 28.4 MiB, of
    # which the result is 13.3 MiB, against 95.7 MiB (2.69 (n, 4, B)
    # arrays) when every column was formed at once
    peak, _ = _warm_assembly_peak(live_peak, 1.0, "additive", None, L=20)
    assert peak <= 30 * 2**20, peak / 2**20


# -- surfaces of revolution: the eps = 1 assembly by longitude frequency ----

def _rotated_sphere(g):
    q, r = np.linalg.qr(np.random.default_rng(g.L).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return sphere_immersion(g, 1.1).rotated(q * np.sign(np.linalg.det(q)))


def _off_revolution(g, a, b, c, l=2, m=2, amp=1e-9):
    # the ellipsoid a, b, c moved radially by amp Y_lm
    E = ellipsoid_immersion(g, a, b, c)
    Y = g.synthesize(np.eye(g.n_coeffs)[coeff_index(l, m)])
    return ImmersionMap(g, E.coeffs + amp * g.analyze(E.positions * Y[:, None]).T)


REVOLUTION = {
    "sphere": _rotated_sphere,
    "spheroid": lambda g: ellipsoid_immersion(g, 1.0, 1.0, 0.8),
    "radial": lambda g: perturbed_sphere_immersion(
        g, 1.0, [(2, 0, 0.1), (3, 0, 0.05)]),
}


def _frequencies(M):
    return (np.abs([m for _, _, m in M.codomain_basis])[:, None],
            np.abs([m for _, _, m in M.domain_basis]))


# the radial graph is odd under z -> -z, so its sign classes couple and
# it has no "+++" block
@pytest.mark.parametrize("shape,L,cut", [
    (shape, L, cut)
    for shape, Ls in (("sphere", (8, 12, 20)), ("spheroid", (8, 12)),
                      ("radial", (8, 12)))
    for L in Ls for cut in (None, "degree", "+++")
    if not (shape == "radial" and cut == "+++")])
@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
def test_frequency_path_matches_node_path(shape, L, cut, variant,
                                          monkeypatch):
    # measured within 4.8e-13 of the largest entry (the multiplicative
    # L = 20 sphere; every additive case within 2.1e-14)
    g = grid(L)
    F = REVOLUTION[shape](g)
    kw = {None: {}, "degree": {"degree": L - 2},
          "+++": {"sign_class": "+++"}}[cut]
    M = assemble_linearization(F, 1.0, variant, **kw)
    rows, cols = _frequencies(M)
    assert np.all(M.matrix[rows != cols] == 0.0)
    monkeypatch.setattr(operators, "_ring_deviation", lambda *a: np.inf)
    ref = assemble_linearization(F, 1.0, variant, **kw)
    assert ref.domain_basis == M.domain_basis
    assert ref.codomain_basis == M.codomain_basis
    assert np.any(ref.matrix[rows != cols] != 0.0)
    npt.assert_allclose(M.matrix, ref.matrix, rtol=0,
                        atol=1e-12 * np.abs(ref.matrix).max())


@pytest.mark.parametrize("shape", ["ellipsoid", "spheroid+Y22", "spheroid-y"])
@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
def test_ring_test_refuses_shapes_off_revolution(shape, variant,
                                                 monkeypatch):
    # a triaxial ellipsoid, a spheroid moved by 1e-9 Y_22 (ring deviation
    # 1.2e-9) and a spheroid whose axis lies along y are not surfaces of
    # revolution about the chart's polar axis: they keep the node path
    g = grid(12)
    F = {"ellipsoid": lambda: ellipsoid_immersion(g, 1.0, 1.02, 0.98),
         "spheroid+Y22": lambda: _off_revolution(g, 1.0, 1.0, 0.8),
         "spheroid-y": lambda: ellipsoid_immersion(g, 1.0, 0.8, 1.0)}[shape]()
    geo = F.geometry
    c = operators._blend_slopes(None, geo.H, 1.0, variant)[1]
    assert operators._ring_deviation(
        g, geo.gamma, geo.second, geo.H,
        np.broadcast_to(c, geo.H.shape)) > operators._RING_MAX
    ref = assemble_linearization(F, 1.0, variant).matrix
    calls = []
    monkeypatch.setattr(operators, "_assemble_by_frequency",
                        lambda *a: calls.append(a))
    assert np.array_equal(assemble_linearization(F, 1.0, variant).matrix, ref)
    assert not calls


def test_newton_takes_the_frequency_path_at_the_round_sphere(monkeypatch):
    # Newton's first step from the round sphere assembles its "+++" block
    # by frequency; the iterates after it are off revolution
    g = grid(8)
    target = TargetData.from_immersion(ellipsoid_immersion(g, 1.02, 0.98,
                                                           1.01), 1.0)
    calls = []
    by_frequency = operators._assemble_by_frequency

    def counted(*args):
        calls.append(args)
        return by_frequency(*args)
    monkeypatch.setattr(operators, "_assemble_by_frequency", counted)
    _, hist = newton_solve(sphere_immersion(g), target)
    assert len(hist) > 2 and len(calls) == 1


def test_frequency_path_peak_live_memory(live_peak):
    # a warm L = 20 round-sphere assembly holds the result (13.3 MiB) and
    # one frequency's small blocks: within the node path's 30 MiB bound
    # (test_assembly_peak_live_memory_many_panels)
    g = grid(20)
    F = _rotated_sphere(g)
    assemble_linearization(F, 1.0)
    M, peak = live_peak(lambda: assemble_linearization(F, 1.0))
    rows, cols = _frequencies(M)
    assert np.all(M.matrix[rows != cols] == 0.0)
    assert peak <= 30 * 2**20, peak / 2**20


def test_operator_matrix_metadata():
    g = grid(8)
    M = assemble_linearization(sphere_immersion(g), 0.5, liouville_tol=None)
    n_cod, n_dom = M.matrix.shape
    assert n_dom == len(M.domain_basis) == 3 * g.n_coeffs - 2
    assert n_cod == len(M.codomain_basis) == 3 * g.n_coeffs - 8
    assert M.structural_index == 6
    orders = M.row_orders
    assert set(orders.tolist()) == {1, 2}
    assert (orders == 2).sum() == g.n_coeffs


def test_symbol_elliptic_for_positive_epsilon():
    g = grid(8)
    F = ellipsoid_immersion(g, 1.0, 1.2, 0.8)
    rng = np.random.default_rng(4)
    nodes = rng.integers(0, g.n_nodes, size=6)
    angles = 2.0 * np.pi * np.arange(36) / 36.0
    for eps in (0.1, 0.25, 0.5, 1.0):
        data = apply_phi(F, eps, liouville_tol=None)
        smin = min(principal_symbol(F, int(n), np.array([np.cos(a), np.sin(a)]),
                                    eps, data=data)[1]
                   for n in nodes for a in angles)
        assert smin > 1e-3


def test_symbol_characteristic_at_epsilon_zero():
    g = grid(8)
    F = ellipsoid_immersion(g, 1.0, 1.2, 0.8)
    angles = 2.0 * np.pi * np.arange(36) / 36.0
    data = apply_phi(F, 0.0, liouville_tol=None)
    smax = max(principal_symbol(F, n, np.array([np.cos(a), np.sin(a)]),
                                0.0, data=data)[1]
               for n in range(0, g.n_nodes, 7) for a in angles)
    assert smax <= 1e-12


def test_symbol_linear_in_epsilon():
    g = grid(8)
    F = sphere_immersion(g)
    xi = np.array([0.7, 0.4])
    s1 = principal_symbol(F, 100, xi, 0.01)[1]
    s2 = principal_symbol(F, 100, xi, 0.02)[1]
    assert abs(s2 / s1 - 2.0) <= 0.05


def test_symbol_rejects_zero_covector():
    g = grid(8)
    F = sphere_immersion(g)
    with pytest.raises(ValueError):
        principal_symbol(F, 0, np.zeros(2), 0.5)


@pytest.mark.parametrize("epsilon, variant", [(-0.1, "additive"),
                                              (1.5, "additive"),
                                              (np.nan, "additive"),
                                              (0.5, "geometric")])
def test_symbol_rejects_bad_epsilon_and_variant(epsilon, variant):
    F = sphere_immersion(grid(8))
    with pytest.raises(ValueError, match="epsilon|variant"):
        principal_symbol(F, 0, np.array([1.0, 0.0]), epsilon, variant)


def test_symbol_multiplicative_solves_liouville_without_data():
    # without data the multiplicative eps < 1 symbol uniformizes F itself
    # (apply_phi with liouville_tol=None, whose solve is the certified
    # one's), and reads what it reads from the data it is given
    F = ellipsoid_immersion(grid(12), 1.0, 1.02, 0.98)
    xi = np.array([0.6, -0.8])
    data = apply_phi(F, 0.4, "multiplicative")
    for node in (3, 50):
        S, smin = principal_symbol(F, node, xi, 0.4, "multiplicative")
        S0, smin0 = principal_symbol(F, node, xi, 0.4, "multiplicative",
                                     data=data)
        assert np.array_equal(S, S0) and smin == smin0


def test_symbol_multiplicative_without_data_on_a_coarse_grid():
    # the L = 8 ellipsoid's strong Liouville residual, 5.9e-5, fails the
    # default 1e-9 certificate, which the symbol applied without data and
    # so raised ConvergenceError; it uniformizes as Newton does
    F = ellipsoid_immersion(grid(8), 1.0, 1.1, 0.9)
    xi = np.array([0.6, -0.8])
    data = apply_phi(F, 0.4, "multiplicative", liouville_tol=None)
    S, smin = principal_symbol(F, 3, xi, 0.4, "multiplicative")
    S0, smin0 = principal_symbol(F, 3, xi, 0.4, "multiplicative", data=data)
    assert np.array_equal(S, S0) and smin == smin0 > 0.0


def test_symbol_multiplicative_endpoint():
    g = grid(8)
    F = sphere_immersion(g)
    S, smin = principal_symbol(F, 50, np.array([1.0, 0.0]), 1.0,
                               "multiplicative")
    # the blend is 1/H, so its nu slope is -1/H^2 = -1/4 on the unit sphere
    npt.assert_allclose(S[2, 2], -0.25, atol=1e-12)
    assert smin > 0.0


@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
def test_symbol_continuous_at_epsilon_one(variant):
    # the eps = 1 symbol, which needs no conformal factor, is the limit of
    # the eps < 1 one
    g = grid(8)
    F = ellipsoid_immersion(g, 1.0, 1.1, 0.9)
    xi = np.array([0.6, -0.8])
    eps = 1.0 - 1e-9
    data = apply_phi(F, eps, variant, liouville_tol=None)
    for node in (3, 50, 100):
        S1 = principal_symbol(F, node, xi, 1.0, variant)[0]
        S = principal_symbol(F, node, xi, eps, variant, data=data)[0]
        npt.assert_allclose(S, S1, rtol=0, atol=1e-6)
