"""Kernel and cokernel bookkeeping for the assembled linearization."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from scipy.linalg import qr

from immlab.fredholm import (_SVD, _bind, _detect_rank, based_report,
                             degree_one_families, kernel_vs_epsilon,
                             killing_modes, svd_report)
from immlab.operators import assemble_linearization
from immlab.shapes import perturbed_sphere_immersion, sphere_immersion
from immlab.spectral import grid


def round_matrix(L, eps=1.0, variant="additive"):
    return assemble_linearization(sphere_immersion(grid(L)), eps, variant,
                                  liouville_tol=None)


@pytest.mark.parametrize("L", [8, 12])
def test_round_sphere_unbased_counts(L):
    r = svd_report(round_matrix(L))
    assert (r.kernel_dim, r.cokernel_dim, r.index) == (9, 3, 6)
    assert r.reliable and r.gap_ratio >= 1e3


@pytest.mark.parametrize("L", [8, 12])
def test_round_sphere_based_counts(L):
    b = based_report(round_matrix(L))
    assert (b.kernel_dim, b.cokernel_dim, b.index) == (3, 3, 0)
    assert b.based and b.reliable


def test_based_index_zero_at_half():
    b = based_report(round_matrix(8, eps=0.5))
    assert b.index == 0
    # the radius mode joins the based kernel at the blend pole
    assert (b.kernel_dim, b.cokernel_dim) == (4, 4)


def test_index_stable_in_epsilon_and_variant():
    for eps in (1.0, 0.5, 0.25, 0.1):
        assert svd_report(round_matrix(8, eps)).index == 6
    assert svd_report(round_matrix(8, 1.0, "multiplicative")).index == 6


def test_singular_value_tail_sorted():
    M = round_matrix(8)
    r = svd_report(M)
    assert r.tail.shape == (12,)
    assert np.all(np.diff(r.tail) >= 0.0)
    # 6 of the 9 kernel dims are the shape deficit n_dom - n_cod;
    # only 3 show up as vanishing singular values
    assert M.matrix.shape[1] - M.matrix.shape[0] == 6
    npt.assert_array_less(r.tail[:3], 1e-10)
    assert r.tail[3] > 1.0


@pytest.mark.parametrize("report", [svd_report, based_report])
def test_report_survives_gesdd_failure(report, fail_bdsdc):
    # gesdd's divide and conquer can fail to converge on a well-conditioned
    # matrix (seen on L = 20 round-sphere linearizations); when it fails in
    # both orientations the report redoes the SVD with gesvd and must say
    # the same
    M = round_matrix(8)
    ref = report(M)
    failures = fail_bdsdc()
    r = report(M)
    assert failures
    assert (r.kernel_dim, r.cokernel_dim, r.index, r.reliable) == \
        (ref.kernel_dim, ref.cokernel_dim, ref.index, ref.reliable)
    npt.assert_allclose(r.singular_values, ref.singular_values, rtol=0,
                        atol=1e-12 * ref.singular_values[0])
    assert r.mode_labels.keys() == ref.mode_labels.keys()


def _kernel_matrices():
    M = round_matrix(8)
    comp = qr(killing_modes(M.domain_basis), mode="full")[0][:, 6:]
    rng = np.random.default_rng(3)
    return {"wide": M.matrix, "square": M.matrix @ comp, "tall": M.matrix.T,
            "rank-deficient": rng.standard_normal((70, 25))
            @ rng.standard_normal((25, 60))}


@pytest.mark.parametrize("retry", ["gesdd-steps", "transposed", "gesvd"])
@pytest.mark.parametrize("name", ["wide", "square", "tall", "rank-deficient"])
def test_svd_kernel_matches_numpy(name, retry, request):
    A = _kernel_matrices()[name]
    m, n = A.shape
    if retry != "gesdd-steps":
        # fail gesdd's orientation, or both
        uplo = "UL" if retry == "gesvd" else "U" if m >= n else "L"
        failures = request.getfixturevalue("fail_bdsdc")(uplo)
    U, s, Vt = np.linalg.svd(A)
    f = _SVD(A)
    npt.assert_allclose(f.s, s, rtol=0, atol=1e-14 * s[0])
    npt.assert_allclose(_SVD(A, compute_uv=False).s, s, rtol=0,
                        atol=1e-14 * s[0])
    rank = _detect_rank(s, 1e3)[0]
    assert rank < min(m, n)
    # the null spaces, including the directions beyond min(m, n)
    V0, U0 = f.right(range(rank, n)), f.left(range(rank, m))
    npt.assert_allclose(V0 @ V0.T, Vt[rank:].T @ Vt[rank:], rtol=0,
                        atol=1e-12)
    npt.assert_allclose(U0 @ U0.T, U[:, rank:] @ U[:, rank:].T, rtol=0,
                        atol=1e-12)
    # singular pairs away from the null space
    lead = [0, rank // 2, rank - 1]
    npt.assert_allclose(A @ f.right(lead), f.left(lead) * s[lead], rtol=0,
                        atol=1e-12 * s[0])
    b = np.random.default_rng(0).standard_normal(m)
    ref = Vt[:rank].T @ ((U[:, :rank].T @ b) / s[:rank])
    x = f.solve(b, rank)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    if retry != "gesdd-steps":
        assert len(failures) == 2 * len(uplo)


def test_lapack_binding_checks_signatures():
    with pytest.raises(ImportError, match="dgebrd"):
        _bind("dgebrd", "iid")
    with pytest.raises(ImportError, match="dgesvdq_nonesuch"):
        _bind("dgesvdq_nonesuch", "i")


def test_zero_matrix_degenerate():
    M = round_matrix(8)
    Z = dataclasses.replace(M, matrix=np.zeros_like(M.matrix))
    r = svd_report(Z)
    assert r.kernel_dim == M.matrix.shape[1]
    assert not r.reliable


def test_identity_block_sanity():
    M = round_matrix(8)
    n = M.matrix.shape[1]
    I = dataclasses.replace(M, matrix=np.eye(n))
    r = svd_report(I)
    assert r.kernel_dim == 0 and r.cokernel_dim == 0
    assert r.reliable and r.gap_ratio == np.inf


def test_transpose_consistency():
    M = round_matrix(8)
    r = svd_report(M)
    T = dataclasses.replace(M, matrix=M.matrix.T,
                            domain_basis=M.codomain_basis,
                            codomain_basis=M.domain_basis)
    rt = svd_report(T)
    # rank is transpose-invariant, so kernel/cokernel swap roles
    assert rt.kernel_dim == r.cokernel_dim
    assert rt.cokernel_dim == r.kernel_dim
    assert rt.index == -r.index


def test_perturbed_sphere_kernel():
    F = perturbed_sphere_immersion(grid(12), 1.0, [(2, 2, 0.05)])
    M = assemble_linearization(F, 1.0, liouville_tol=None)
    # the conformal modes detach: the spectral gap shrinks to ~1e2
    r = svd_report(M, gap_min=50.0)
    assert r.reliable
    assert r.kernel_dim >= 6
    assert r.index == 6


def test_kernel_vs_epsilon_sweep():
    F = sphere_immersion(grid(8))
    rows = kernel_vs_epsilon(F, [1.0, 0.5, 0.25, 0.1])
    assert [r.epsilon for r in rows] == [1.0, 0.5, 0.25, 0.1]
    for r in rows:
        assert r.kernel_dim >= 6
        assert r.index == 6
        assert r.reliable


def test_right_mode_labels_degree_one():
    r = svd_report(round_matrix(12))
    labels = r.mode_labels["right"]
    assert len(labels) == 9
    for lab in labels:
        assert lab["overlap_degree1"] >= 1.0 - 1e-6
        assert lab["label"] in ("rotation", "translation", "conformal",
                                "eigenfunction", "degree1")
    kinds = {lab["label"] for lab in labels}
    assert "rotation" in kinds and "conformal" in kinds


def test_left_mode_labels_scalar_degree_one():
    r = svd_report(round_matrix(12))
    labels = r.mode_labels["left"]
    assert len(labels) == 3
    for lab in labels:
        assert lab["scalar_fraction"] >= 1.0 - 1e-6
        assert lab["scalar_degree1_fraction"] >= 1.0 - 1e-6


def test_killing_modes_shape_and_flatness():
    M = round_matrix(8)
    K = killing_modes(M.domain_basis)
    assert K.shape == (M.matrix.shape[1], 6)
    npt.assert_allclose(K.T @ K, np.eye(6), atol=1e-12)
    npt.assert_array_less(np.linalg.norm(M.matrix @ K, axis=0), 1e-9)


def test_killing_modes_requires_degree_one():
    M = round_matrix(8)
    trimmed = [lab for lab in M.domain_basis if lab[1] != 1]
    with pytest.raises(ValueError):
        killing_modes(trimmed)


def test_degree_one_families_partition():
    M = round_matrix(8)
    fams = degree_one_families(M.domain_basis)
    assert set(fams) == {"rotation", "conformal", "eigenfunction"}
    for idx in fams.values():
        assert len(idx) == 3


def test_based_report_rejects_bad_projection():
    M = round_matrix(8)
    trimmed = [lab for lab in M.domain_basis if lab[1] != 1]
    bad = dataclasses.replace(M, matrix=M.matrix[:, :len(trimmed)],
                              domain_basis=trimmed)
    with pytest.raises(ValueError):
        based_report(bad)
