"""Kernel and cokernel bookkeeping for the assembled linearization."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from scipy.linalg import qr

from immlab import fredholm
from immlab.bases import (_weighted_tensor_fields, tensor_basis,
                          vector_basis)
from immlab.fredholm import (_SVD, _classes, _detect_rank,
                             based_report, degree_one_families,
                             kernel_vs_epsilon, killing_modes, svd_report)
from immlab.operators import (_SIGN_CLASS_NAMES, _mode_cut, _scalar_labels,
                              _sign_classes, assemble_linearization,
                              domain_labels)
from immlab.shapes import (ellipsoid_immersion, perturbed_sphere_immersion,
                           sphere_immersion)
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
def test_report_survives_gesdd_failure(report, fail_gesdd):
    # gesdd's divide and conquer can fail to converge on a well-conditioned
    # matrix (seen on L = 20 round-sphere linearizations); the report then
    # redoes the SVD with gesvd and must say the same.  The reports keep
    # M's factorization, so the second report takes a fresh instance
    M = round_matrix(8)
    ref = report(M)
    failures = fail_gesdd()
    r = report(dataclasses.replace(M))
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


def _assert_same_null_spaces(f, ref, rank, atol=1e-12):
    """f.null(rank) spans the same left and right null spaces as ref, the
    pair (U_null, V_null) of another factorization: equal projectors."""
    for X, X0 in zip(f.null(rank), ref):
        npt.assert_allclose(X @ X.T, X0 @ X0.T, rtol=0, atol=atol)


def _assert_block_pairs(f, A):
    """A v = s u for every singular pair of every block of f, on the
    block's rows and columns of A."""
    for _, r, c, _, (s, u, v) in f._blocks:
        p = s.size
        npt.assert_allclose(A[np.ix_(r, c)] @ v[:, :p], u[:, :p] * s,
                            rtol=0, atol=1e-12 * np.abs(A).max())


@pytest.mark.parametrize("retry", ["gesdd-steps", "gesvd"])
@pytest.mark.parametrize("name", ["wide", "square", "tall", "rank-deficient"])
def test_svd_kernel_matches_numpy(name, retry, request):
    A = _kernel_matrices()[name]
    m, n = A.shape
    if retry == "gesvd":
        failures = request.getfixturevalue("fail_gesdd")()
    U, s, Vt = np.linalg.svd(A)
    f = _SVD(A)
    npt.assert_allclose(f.s, s, rtol=0, atol=1e-14 * s[0])
    npt.assert_allclose(_SVD(A, compute_uv=False).s, s, rtol=0,
                        atol=1e-14 * s[0])
    rank = _detect_rank(s, 1e3)[0]
    assert rank < min(m, n)
    # the null spaces, including the directions beyond min(m, n)
    U0, V0 = f.null(rank)
    assert (U0.shape, V0.shape) == ((m, m - rank), (n, n - rank))
    _assert_same_null_spaces(f, (U[:, rank:], Vt[rank:].T), rank)
    # the singular pairs, the null space's and the rest
    _assert_block_pairs(f, A)
    b = np.random.default_rng(0).standard_normal(m)
    ref = Vt[:rank].T @ ((U[:, :rank].T @ b) / s[:rank])
    x = f.solve(b, rank)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    if retry == "gesvd":
        assert len(failures) == 2


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_matrix_raises(entry):
    # gesdd returns NaN singular values for an infinite entry rather than
    # failing, so a bad matrix must not reach it
    M = round_matrix(8)
    A = M.matrix.copy()
    A[3, 5] = entry
    for compute_uv in (True, False):
        with pytest.raises(ValueError):
            _SVD(A, compute_uv=compute_uv)
    with pytest.raises(ValueError):
        svd_report(dataclasses.replace(M, matrix=A))


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


def test_right_mode_labels_do_not_depend_on_the_kernel_basis():
    # the round sphere's kernel is degenerate, so the SVD may return any
    # basis of it; the labels are those of the degree-one family modes in
    # any basis, here the SVD's and a random rotation of it
    M = round_matrix(8)
    f = _SVD(M.matrix, classes=_classes(M))
    rank = _detect_rank(f.s, 1e3)[0]
    V = f.null(rank)[1]
    Q = qr(np.random.default_rng(4).standard_normal((9, 9)))[0]
    for basis in (V, V @ Q):
        labels = fredholm._label_right_modes(basis, M.domain_basis)
        assert sorted(lab["label"] for lab in labels) == sorted(
            ["rotation", "conformal", "eigenfunction"] * 3)
        for lab in labels:
            assert lab["overlap_" + lab["label"]] >= 1.0 - 1e-12


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


# -- sign classes: the linearization factored one class at a time ----------

@pytest.mark.parametrize("L", [12, 16])
def test_round_sphere_class_counts(L):
    # each rotation is alone in its class, odd under two reflections; each
    # translation shares its class, odd under one, with a conformal mode
    # and one cokernel direction
    r = svd_report(round_matrix(L))
    expected = {0: (0, 0), 1: (2, 1), 2: (1, 0), 3: (0, 0)}
    assert len(r.class_counts) == 8
    for name, counts in r.class_counts.items():
        assert counts == expected[name.count("-")], name
    assert sum(k for k, _ in r.class_counts.values()) == r.kernel_dim
    assert sum(c for _, c in r.class_counts.values()) == r.cokernel_dim


def test_class_counts_at_half():
    # the radius mode joins the fully even class at the blend pole, as it
    # joins the based kernel
    r = svd_report(round_matrix(12, eps=0.5))
    assert r.class_counts["+++"] == (1, 1)
    assert (r.kernel_dim, r.cokernel_dim) == (10, 4)


@pytest.mark.parametrize("sign_class", _SIGN_CLASS_NAMES)
def test_svd_report_on_each_sign_class_block(sign_class):
    # a class block holds the grad and normal modes of one degree-one
    # (1, m), one rotation, or neither: its right modes read translation
    # overlaps from the pairs it holds, and its counts are those of its
    # class in the full report.  The based report needs all six
    # candidates, so it still refuses a class block
    F = ellipsoid_immersion(grid(8), 1.0, 1.05, 0.95)
    full = svd_report(assemble_linearization(F, 1.0))
    M = assemble_linearization(F, 1.0, sign_class=sign_class)
    r = svd_report(M)
    assert (r.kernel_dim, r.cokernel_dim) == full.class_counts[sign_class]
    degree_one = {kind for kind, l, _ in M.domain_basis if l == 1}
    pair = {"grad", "normal"} <= degree_one
    assert not (pair and "curl" in degree_one)
    for lab in r.mode_labels["right"]:
        assert ("overlap_translation" in lab) == pair
    with pytest.raises(ValueError, match="three degree-one families"):
        based_report(M)


def test_reports_share_one_factorization(monkeypatch):
    # based_report takes svd_report's split and keeps the factors of every
    # block without a Killing candidate: at the round sphere 6 blocks are
    # factored again, each holding one rotation or one translation
    M = round_matrix(8)
    splits, svds = [], []
    split, svd = fredholm._class_blocks, np.linalg.svd
    monkeypatch.setattr(fredholm, "_class_blocks",
                        lambda *a: splits.append(1) or split(*a))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: svds.append(1) or svd(*a, **k))
    r = svd_report(M)
    n_blocks = len(svds)
    assert n_blocks > 8 and len(splits) == 1
    b = based_report(M)
    assert len(splits) == 1 and len(svds) == n_blocks + 6
    # the values of reports that factor on their own
    for report, ref in ((svd_report, r), (based_report, b)):
        fresh = report(dataclasses.replace(M))
        assert np.array_equal(fresh.singular_values, ref.singular_values)
    assert len(splits) == 3


@pytest.mark.parametrize("level", ["class", "frequency"])
def test_split_needs_rows_and_columns_of_every_key(level):
    # a matrix that is block diagonal over the keys, but key 2 has a row
    # and no column: no split, so the class split (level "class") or the
    # |m| split of the one class block (level "frequency") keeps it whole
    rng = np.random.default_rng(6)
    rows, cols = np.array([0, 0, 1, 2]), np.array([0, 0, 1])
    A = np.zeros((4, 3))
    A[:2, :2] = rng.standard_normal((2, 2))
    A[2, 2] = 1.0
    assert fredholm._split(A, rows, cols) is None
    assert fredholm._split(A.T, cols, rows) is None
    assert len(fredholm._split(A[:3], rows[:3], cols)) == 2
    scale = 1 if level == "class" else 8
    [(k, r, c, block)] = fredholm._class_blocks(A, (scale * rows,
                                                    scale * cols))
    assert k == (None if level == "class" else 0)
    assert np.array_equal(r, np.arange(4)) and np.array_equal(c, np.arange(3))
    assert np.array_equal(block, A)


def _ellipsoid_matrix(L):
    return assemble_linearization(
        ellipsoid_immersion(grid(L), 1.0, 1.05, 0.95), 0.2,
        liouville_tol=None)


SYMMETRIC = {"sphere-8": lambda: round_matrix(8),
             "sphere-12": lambda: round_matrix(12),
             "ellipsoid-8": lambda: _ellipsoid_matrix(8),
             "ellipsoid-12": lambda: _ellipsoid_matrix(12),
             "triaxial-12": lambda: assemble_linearization(
                 ellipsoid_immersion(grid(12), 1.0, 1.2, 0.8), 1.0,
                 liouville_tol=None)}


@pytest.mark.parametrize("retry", ["none", "gesvd"])
@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_class_blocks_match_dense_svd(name, retry, request):
    M = SYMMETRIC[name]()
    A = M.matrix
    m = A.shape[0]
    dense = _SVD(A)
    if retry == "gesvd":
        # every block's gesdd fails
        failures = request.getfixturevalue("fail_gesdd")()
    f = _SVD(A, classes=_classes(M))
    # the spheres split by sign class and |m|; the ellipsoids, without an
    # axis, fall back to the sign classes
    if name.startswith("sphere"):
        assert len(f._blocks) > 8
    else:
        assert len(f._blocks) == 8
    if retry == "gesvd":
        assert len(failures) == len(f._blocks)
    s0 = dense.s[0]
    npt.assert_allclose(f.s, dense.s, rtol=0, atol=1e-12 * s0)
    rank = _detect_rank(dense.s, 1e3)[0]
    assert _detect_rank(f.s, 1e3)[0] == rank
    _assert_same_null_spaces(f, dense.null(rank), rank)
    _assert_block_pairs(f, A)
    b = np.random.default_rng(1).standard_normal(m)
    x, x0 = f.solve(b, rank), dense.solve(b, rank)
    assert np.linalg.norm(x - x0) <= 1e-12 * np.linalg.norm(x0)


def _asymmetric_sphere(amplitude=1.0):
    return perturbed_sphere_immersion(grid(8), 1.0, [
        (3, 2, 0.05 * amplitude), (2, -1, 0.04 * amplitude),
        (3, -3, 0.03 * amplitude)])


@pytest.mark.parametrize("amplitude", [1.0, 1e-6])
def test_asymmetric_matrix_takes_dense_path(amplitude):
    M = assemble_linearization(_asymmetric_sphere(amplitude), 1.0,
                               liouville_tol=None)
    A = M.matrix
    m, n = A.shape
    dense, f = _SVD(A), _SVD(A, classes=_classes(M))
    # no split holds, so the one block is the whole matrix, without a class
    [(k, r, c, block, factors)] = f._blocks
    assert k is None and block is A
    assert np.array_equal(r, np.arange(m)) and np.array_equal(c, np.arange(n))
    assert np.array_equal(f.s, dense.s)
    b = np.random.default_rng(2).standard_normal(m)
    assert np.array_equal(f.solve(b, m - 3), dense.solve(b, m - 3))
    # the one block's factors are numpy's SVD of the matrix, unpermuted,
    # and so are the null vectors past no value and past the rank
    U, s, Vt = np.linalg.svd(A)
    for got, want in zip(factors, (s, U, Vt.T)):
        assert np.array_equal(got, want)
    assert np.array_equal(f.s, s)
    rank = _detect_rank(s, 1e3)[0]
    for kept, null in ((0, (U, Vt.T)), (rank, (U[:, rank:], Vt[rank:].T))):
        for got, want in zip(f.null(kept), null):
            assert np.array_equal(got, want)
    assert svd_report(M).class_counts is None
    assert based_report(M).class_counts is None


def _assert_based_matches_explicit_complement(M, monkeypatch):
    """based_report's values and null vectors against the SVD of A @ comp,
    comp an explicit orthonormal complement of the Killing candidates:
    its null vectors, mapped back through comp, span the same spaces."""
    A = M.matrix
    comp = qr(killing_modes(M.domain_basis), mode="full")[0][:, 6:]
    U, s, Vt = np.linalg.svd(A @ comp)
    based = []
    report = fredholm._report
    monkeypatch.setattr(fredholm, "_report", lambda f, *a, **k:
                        based.append(f) or report(f, *a, **k))
    b = based_report(M)
    npt.assert_allclose(b.singular_values, s, rtol=0,
                        atol=1e-12 * svd_report(M).singular_values[0])
    rank = _detect_rank(s, 1e3)[0]
    assert (b.kernel_dim, b.cokernel_dim) == (A.shape[1] - 6 - rank,
                                              A.shape[0] - rank)
    _assert_same_null_spaces(based[0], (U[:, rank:], comp @ Vt[rank:].T),
                             rank, atol=1e-10)


@pytest.mark.parametrize("eps", [1.0, 0.2])
def test_based_report_of_one_block_matches_explicit_complement(eps,
                                                               monkeypatch):
    # the asymmetric sphere's matrix does not split, so based_report
    # complements its one block: against the based matrix's own SVD
    M = assemble_linearization(_asymmetric_sphere(), eps, liouville_tol=None)
    assert len(fredholm._factorization(M)._blocks) == 1
    _assert_based_matches_explicit_complement(M, monkeypatch)


def _reflected_nodes(g, bit):
    """Node permutation and chart-component signs of the reflection that
    flips x (bit 0), y (bit 1) or z (bit 2): theta -> pi - theta maps the
    Gauss-Legendre rings to each other, and phi -> -phi and
    phi -> pi - phi map the 2L + 2 uniform longitudes to each other."""
    ring, lon = np.divmod(np.arange(g.n_nodes), g.n_phi)
    if bit == 2:
        return (g.L - ring) * g.n_phi + lon, np.array([-1.0, 1.0])
    shift = g.n_phi // 2 if bit == 0 else 0
    return ring * g.n_phi + (shift - lon) % g.n_phi, np.array([1.0, -1.0])


def test_sign_classes_match_reflected_tables():
    # a mode of sign class k is even or odd under each reflection as bit k
    # says: its node values at the reflected nodes, with the reflected
    # chart components, are its own times that sign
    g = grid(8)
    vb, tb = vector_basis(g), tensor_basis(g)
    Y = g.node_matrix(0, 0)
    T = _weighted_tensor_fields(g)
    dom = _sign_classes(domain_labels(g))
    cod = _sign_classes(tb.labels + _scalar_labels(g))
    for bit in range(3):
        P, d = _reflected_nodes(g, bit)
        xyz = np.stack([np.sin(g.theta) * np.cos(g.phi),
                        np.sin(g.theta) * np.sin(g.phi), np.cos(g.theta)],
                       axis=1)
        flip = np.ones(3)
        flip[bit] = -1.0
        npt.assert_allclose(xyz[P], xyz * flip, rtol=0, atol=1e-14)

        def sign(classes):
            return np.where(classes >> bit & 1, -1.0, 1.0)

        for table, expected in [
                (Y, Y * sign(dom[vb.size:])),
                (Y, Y * sign(cod[tb.size:])),
                (vb.fields, d[:, None] * vb.fields * sign(dom[:vb.size])),
                (T, np.multiply.outer(d, d)[..., None] * T
                 * sign(cod[:tb.size]))]:
            npt.assert_allclose(table[P], expected, rtol=0,
                                atol=1e-12 * np.abs(table).max())


def _rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("shape", ["sphere", "ellipsoid"])
def test_rotated_symmetric_shapes_take_block_path(shape):
    # the classes are intrinsic, so a rigid motion keeps the blocks; a
    # silent fall back to one whole-matrix block fails here
    g = grid(8)
    F = (sphere_immersion(g) if shape == "sphere" else
         ellipsoid_immersion(g, 1.0, 1.05, 0.95)).rotated(_rotation(5))
    eps = 1.0 if shape == "sphere" else 0.2
    M = assemble_linearization(F, eps, liouville_tol=None)
    assert svd_report(M).class_counts is not None
    assert based_report(M).class_counts is not None
    cut = _mode_cut(g, g.L - 2)
    Md = assemble_linearization(F, eps, liouville_tol=None, degree=g.L - 2)
    blocks = _SVD(Md.matrix, classes=cut.classes)._blocks
    # a round sphere in any position is a surface of revolution about z,
    # so it keeps one block per sign class and |m|
    assert len(blocks) == (np.unique(cut.classes[1]).size
                           if shape == "sphere" else 8)


# -- surfaces of revolution: the blocks of each |m| -------------------------

def _radial_graph(g):
    # a surface of revolution about z that is odd under z -> -z (Y_30)
    return perturbed_sphere_immersion(g, 1.0, [(2, 0, 0.1), (3, 0, 0.05)])


REVOLUTION = {"sphere": sphere_immersion,
              "spheroid": lambda g: ellipsoid_immersion(g, 1.0, 1.0, 0.8),
              "radial": _radial_graph}


@pytest.mark.parametrize("eps, variant", [(1.0, "additive"),
                                          (0.2, "additive"),
                                          (0.2, "multiplicative")])
@pytest.mark.parametrize("shape", sorted(REVOLUTION))
def test_surfaces_of_revolution_split_by_frequency(shape, eps, variant,
                                                   monkeypatch):
    M = assemble_linearization(REVOLUTION[shape](grid(12)), eps, variant,
                               liouville_tol=None)
    A = M.matrix
    rows, cols = _classes(M)
    # the spheroid keeps the three reflections, so its blocks are the
    # (sign class, |m|) keys; the radial graph couples the classes and
    # splits by |m| alone
    if shape == "radial":
        assert np.abs(A[rows[:, None] % 8 != cols % 8]).max() > \
            1e-3 * np.abs(A).max()
        rows, cols = rows // 8, cols // 8
    assert np.abs(A[rows[:, None] != cols]).max() <= 1e-12 * np.abs(A).max()
    dense, f = _SVD(A), _SVD(A, classes=_classes(M))
    assert len(f._blocks) == np.unique(cols).size
    assert (svd_report(M).class_counts is None) == (shape == "radial")

    s0 = dense.s[0]
    npt.assert_allclose(f.s, dense.s, rtol=0, atol=1e-12 * s0)
    rank = _detect_rank(dense.s, 1e3)[0]
    assert _detect_rank(f.s, 1e3)[0] == rank
    _assert_same_null_spaces(f, dense.null(rank), rank)
    _assert_block_pairs(f, A)
    # the based report on these blocks against the based matrix's own SVD
    _assert_based_matches_explicit_complement(M, monkeypatch)

    # the m = 0 blocks' (kernel, cokernel): (3, 1) at the round sphere,
    # (2, 0) at the spheroid, index 2 on both
    m0 = {"sphere": (3, 1), "spheroid": (2, 0)}.get(shape)
    if m0 is not None:
        ker = coker = 0
        for (_, r, c, *_), kept in zip(f._blocks, f._ranks(rank)):
            if rows[r[0]] < 8:
                ker, coker = ker + c.size - kept, coker + r.size - kept
        assert (ker, coker) == m0
