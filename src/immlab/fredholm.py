"""Numerical kernel, cokernel and index of the assembled linearization.

Rank detection uses the largest relative gap in the singular-value sequence:
the spectrum of a discretized operator with a k-dimensional kernel splits
into O(1) values and values at the discretization floor, and the split is
read off as the largest ratio of consecutive singular values.  A report
whose best gap falls below the configured threshold is flagged unreliable
rather than guessed at.

Near-null vectors are labeled against closed-form candidates at the round
sphere: rotations (degree-one curl modes), translations (the fixed
sqrt(2):1 mix of degree-one gradient and normal modes), pure-conformal
tangential fields (degree-one gradient modes) and first-eigenfunction
normal speeds (degree-one scalar modes).  The based variant removes the six
ambient-isometry modes from the domain before the SVD.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, svd
from scipy.linalg.lapack import dormqr

from .geometry import ImmersionMap
from .operators import (_SIGN_CLASS_NAMES, OperatorMatrix, _block_keys,
                        assemble_linearization)

__all__ = [
    "GAP_MIN",
    "SpectralReport",
    "svd_report",
    "based_report",
    "kernel_vs_epsilon",
    "killing_modes",
    "degree_one_families",
]

# Certified spectral-gap threshold: the reports' default and the Newton
# step's primary truncation test
GAP_MIN = 1e3


@dataclass(frozen=True)
class SpectralReport:
    """SVD-based kernel/cokernel/index summary of one assembled matrix.

    gap_ratio is s[rank-1] / s[rank].  Where the kernel is exact, as at the
    round sphere, s[rank] is round-off (about 1e-13 of s[0]), so the ratio's
    size is noise, moving with the BLAS thread count, the LAPACK build and
    the SVD's blocks.  It certifies gap_ratio >= gap_min; do not compare
    it bit for bit or read a trend in it.

    class_counts maps each reflection sign class, named by its signs under
    x -> -x, y -> -y and z -> -z ("+-+" is odd under y -> -y only), to
    its (kernel, cokernel) counts, summed over |m|, when the SVD's blocks
    follow the sign classes (see _SVD), and is None otherwise.  The counts
    sum to kernel_dim and cokernel_dim.

    mode_labels["left"] labels each cokernel vector in the order the SVD
    returns them: block by block, in the order of its blocks (sign class,
    then |m|; see _SVD.null), not in the order of their singular values,
    which sit at round-off.  mode_labels["right"] labels each null vector
    by its largest overlap, in a basis of the kernel that does not depend
    on the SVD's: the kernel's projections of the degree-one family modes
    (curl, grad and normal), largest first, orthonormalized.  At the round
    sphere the kernel holds the span of grad and normal at each
    degree-one (1, m), the translation among its directions, and the nine
    vectors read three "rotation", three "conformal" and three
    "eigenfunction"; in the basis the SVD returned, whether they read
    "translation", "conformal" or "eigenfunction" (overlaps 0.38 to 0.67)
    moved with round-off.  The whole kernel lies in degree one there, so
    overlap_degree1 reads 1.
    """

    epsilon: float
    variant: str
    singular_values: np.ndarray
    kernel_dim: int
    cokernel_dim: int
    index: int
    gap_ratio: float
    reliable: bool
    mode_labels: dict
    based: bool = False
    class_counts: dict | None = None

    @property
    def tail(self) -> np.ndarray:
        """The smallest 12 singular values, ascending."""
        return self.singular_values[::-1][:12]


def degree_one_families(labels: list) -> dict:
    """Index sets of the analytic degree-one families in a domain basis."""
    out = {"rotation": [], "conformal": [], "eigenfunction": []}
    family = {"curl": "rotation", "grad": "conformal", "normal": "eigenfunction"}
    for i, (kind, l, m) in enumerate(labels):
        if l == 1 and kind in family:
            out[family[kind]].append(i)
    return out


def killing_modes(labels: list) -> np.ndarray:
    """Orthonormal (n_dom, 6) basis of the ambient-isometry candidates.

    Columns 0-2: rotations; 3-5: translations, which decompose over the unit
    sphere as grad<e, x> + <e, N> N, a sqrt(2):1 mix of the unit-normalized
    degree-one gradient and normal modes.
    """
    fam = degree_one_families(labels)
    if any(len(fam[k]) != 3 for k in ("rotation", "conformal", "eigenfunction")):
        raise ValueError("domain basis lacks the three degree-one families")
    rotations = np.zeros((len(labels), 3))
    rotations[fam["rotation"], range(3)] = 1.0
    return np.concatenate([rotations, _translations(labels)], axis=1)


def _translations(labels: list) -> np.ndarray:
    """The translation candidates of killing_modes, by m, whose degree-one
    grad and normal modes both lie in labels: (n_dom, k) columns, k <= 3
    (a sign class's basis holds one pair or none)."""
    at = {(kind, m): i for i, (kind, l, m) in enumerate(labels) if l == 1}
    pairs = [(at["grad", m], at["normal", m]) for m in (-1, 0, 1)
             if ("grad", m) in at and ("normal", m) in at]
    out = np.zeros((len(labels), len(pairs)))
    for k, (ig, iv) in enumerate(pairs):
        out[ig, k] = np.sqrt(2.0 / 3.0)
        out[iv, k] = np.sqrt(1.0 / 3.0)
    return out


def _detect_rank(s: np.ndarray, gap_min: float) -> tuple[int, float, bool]:
    """(rank, gap ratio, reliable) from a descending singular-value array.

    A spectrum whose total spread stays under gap_min has no room for a
    kernel gap anywhere: that is a certified full-rank matrix, reported
    with an infinite gap (nothing was dropped).  Otherwise the rank cut
    sits at the largest consecutive ratio, reliable only when that ratio
    reaches gap_min.
    """
    if s[0] <= 0.0:
        return 0, 0.0, False
    if s[-1] * gap_min > s[0]:
        return len(s), float("inf"), True
    with np.errstate(divide="ignore"):
        ratios = np.where(s[1:] > 0.0, s[:-1] / s[1:], np.inf)
    k = int(np.argmax(ratios)) + 1
    gap = float(ratios[k - 1])
    return k, gap, bool(gap >= gap_min)


def _label_right_modes(V_null: np.ndarray, labels: list) -> list:
    fam = degree_one_families(labels)
    trans = _translations(labels)
    # the SVD returns some basis of a degenerate kernel: rotate it onto
    # the kernel's projections of the degree-one family modes, largest
    # first (pivoted QR of their coordinates), so that the labels do not
    # depend on which basis it returned
    family = fam["rotation"] + fam["conformal"] + fam["eigenfunction"]
    if family and V_null.shape[1]:
        V_null = V_null @ qr(V_null[family].T, pivoting=True)[0]
    out = []
    for v in V_null.T:
        entry = {}
        deg1 = 0.0
        for name, idx in fam.items():
            frac = float(np.sum(v[idx] ** 2)) if idx else 0.0
            entry["overlap_" + name] = frac
            deg1 += frac
        if trans.size:
            entry["overlap_translation"] = float(np.sum((trans.T @ v) ** 2))
        entry["overlap_degree1"] = deg1
        entry["label"] = max(
            (k for k in entry if k.startswith("overlap_") and
             k != "overlap_degree1"),
            key=entry.get).removeprefix("overlap_")
        out.append(entry)
    return out


def _label_left_modes(U_null: np.ndarray, labels: list) -> list:
    deg1 = [i for i, (kind, l, m) in enumerate(labels)
            if kind == "scalar" and l == 1]
    scal = [i for i, (kind, l, m) in enumerate(labels) if kind == "scalar"]
    out = []
    for u in U_null.T:
        out.append({
            "scalar_fraction": float(np.sum(u[scal] ** 2)),
            "scalar_degree1_fraction": float(np.sum(u[deg1] ** 2)),
        })
    return out


# The SVD's certificate (_SVD): a split of a block into diagonal sub-blocks
# holds when the part E between them has ||E||_F <= _OFF_CLASS_MAX ||B||_F
_OFF_CLASS_MAX = 1e-12


def _split(block: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """The diagonal sub-blocks of block over the keys rows and cols, as
    (key, row positions, column positions, sub-block), keys ascending,
    when the entries between different keys are round-off: at most
    _OFF_CLASS_MAX of the block's Frobenius norm.  None otherwise, or
    when a key has rows but no columns or columns but no rows.  One key's
    rows are gathered at a time, so no temporary of the block's size is
    made.
    """
    parts = []
    inner = off = 0.0
    for k in np.union1d(rows, cols):
        r, c = np.flatnonzero(rows == k), np.flatnonzero(cols == k)
        if not (r.size and c.size):
            return None
        band = block[r]
        sub = band[:, c]
        band[:, c] = 0.0
        inner += np.vdot(sub, sub)
        off += np.vdot(band, band)
        parts.append((int(k), r, c, sub))
    if np.isfinite(off) and off <= _OFF_CLASS_MAX ** 2 * (inner + off):
        return parts
    return None


def _class_blocks(matrix: np.ndarray, classes: tuple | None) -> list:
    """The diagonal blocks of matrix over the block keys classes.

    classes is the pair (row keys, column keys) of operators._block_keys,
    which hold the sign class, key % 8, and |m|, key // 8.  _split splits
    the matrix by sign class, then each class block by |m|; a split that
    does not hold leaves its block whole.  Returns (class, row indices,
    column indices, block) per block, class None where the class split
    failed.  A matrix without keys, with keys that do not match its
    shape, or that no split divides is one block: (None, all rows, all
    columns, the matrix itself).
    """
    m, n = matrix.shape
    whole = [(None, np.arange(m), np.arange(n), matrix)]
    if classes is None or (len(classes[0]), len(classes[1])) != (m, n):
        return whole
    rows, cols = classes
    blocks = []
    for k, r, c, block in _split(matrix, rows % 8, cols % 8) or whole:
        for _, rm, cm, sub in (_split(block, rows[r] // 8, cols[c] // 8)
                               or [(None, slice(None), slice(None), block)]):
            blocks.append((k, r[rm], c[cm], sub))
    return blocks


def _factor(block: np.ndarray, compute_uv: bool) -> tuple:
    """(s, U, V) of one block, U and V None without compute_uv.

    np.linalg.svd (LAPACK gesdd) with full_matrices=True, so U (V) holds
    the block's null directions past min(m, n).  gesdd's divide and
    conquer can fail to converge on a well-conditioned matrix (on the
    clustered spectra of dense L = 20 round-sphere linearizations that
    hinged on the last bits of the input), and np.linalg.svd then raises
    LinAlgError.  The SVD is redone with LAPACK's gesvd (QR iteration),
    which at L = 20 takes about 20 times as long.  A block with a
    non-finite entry raises ValueError.
    """
    if not np.isfinite(block).all():
        # gesdd would return NaN values for an infinite entry
        raise ValueError("the matrix has non-finite entries")
    try:
        out = np.linalg.svd(block, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        out = svd(block, compute_uv=compute_uv, lapack_driver="gesvd")
    if not compute_uv:
        return out, None, None
    u, s, vt = out
    return s, u, vt.T


class _SVD:
    """SVD of a matrix, one diagonal block at a time.

    blocks is a list of blocks as _class_blocks lists them, each given as
    its matrix or as its factors already computed (_factor's (s, U, V)),
    or a dense matrix, which _class_blocks splits over classes: the pair
    (row keys, column keys) of the block keys of its labels
    (operators._block_keys: reflection sign class and |m|).  At an
    immersion with the three coordinate reflection symmetries, or a rigid
    motion of one, the linearization maps each sign class to itself, and
    at a surface of revolution about the z axis each |m| to itself.
    Where the entries between them are round-off, each diagonal block is
    factored on its own (_factor): at L = 20 a round sphere's 84 blocks
    take 6 ms, its 8 class blocks 25 ms, one dense factorization 0.9 s
    (one BLAS thread).  The blocks are the SVD of A - E, E the part off
    the blocks; each split bounds its part by _OFF_CLASS_MAX times the
    block it splits, so ||E||_F <= sqrt(2) _OFF_CLASS_MAX ||A||_F, and by
    Weyl's inequality each singular value of A lies within ||E||_F of
    A - E's.  A matrix that does not split is one block, so its values
    and vectors are _factor's.

    A block's domain dimension is the number of columns of its V (of its
    matrix, when factored without vectors), which may be fewer than the
    columns it covers: based_report's blocks keep their vectors mapped
    back to them.  shape sums the blocks' rows and domain dimensions.  The block values are merged in descending
    order, ties in block order, and padded with exact zeros to min(shape)
    entries.  The k largest merged values hold a prefix of each block's
    own (_ranks).  null(k) returns each block's singular vectors past its
    prefix, including its structural null directions past min(m, n),
    block by block in _class_blocks order (sign class, then |m|), and
    solve(b, k) inverts the prefixes.  null and solve return vectors over
    all the columns the blocks cover.
    """

    def __init__(self, blocks, compute_uv: bool = True, classes=None):
        if isinstance(blocks, np.ndarray):
            blocks = _class_blocks(blocks, classes)
        # (class, rows, columns, block matrix or None, factors)
        self._blocks = [(k, r, c, b, _factor(b, compute_uv))
                        if isinstance(b, np.ndarray) else (k, r, c, None, b)
                        for k, r, c, b in blocks]
        # (rows, domain dimension) of each block, and the columns covered
        self._dims = [(r.size, c.size if v is None else v.shape[1])
                      for _, r, c, _, (_, _, v) in self._blocks]
        self.shape = tuple(map(sum, zip(*self._dims)))
        self._columns = sum(c.size for _, _, c, *_ in self._blocks)
        sizes = [f[0].size for *_, f in self._blocks]
        values = np.concatenate([f[0] for *_, f in self._blocks])
        order = np.argsort(-values, kind="stable")
        self.s = np.zeros(min(self.shape))
        self.s[:values.size] = values[order]
        # the block of each merged value
        self._owner = np.repeat(np.arange(len(sizes)), sizes)[order]

    def _ranks(self, k: int) -> np.ndarray:
        """How many of the k largest merged values each block holds: a
        prefix of its own values, since the merge keeps their order."""
        return np.bincount(self._owner[:k], minlength=len(self._blocks))

    def class_counts(self, rank: int) -> dict | None:
        """(kernel, cokernel) counts of each sign class, by name, summed
        over its blocks, when the rank largest merged values are kept; None
        unless the blocks follow the sign classes."""
        if self._blocks[0][0] is None:
            return None
        counts = {}
        for (k, *_), (m, n), kb in zip(self._blocks, self._dims,
                                       self._ranks(rank)):
            ker, coker = counts.get(_SIGN_CLASS_NAMES[k], (0, 0))
            counts[_SIGN_CLASS_NAMES[k]] = (ker + n - int(kb),
                                            coker + m - int(kb))
        return counts

    def null(self, rank: int) -> tuple:
        """(U_null, V_null): each block's left and right singular vectors
        past the rank largest merged values, placed at its rows and
        columns, as columns block by block."""
        U = np.zeros((self.shape[0], self.shape[0] - rank))
        V = np.zeros((self._columns, self.shape[1] - rank))
        i = j = 0
        for (_, r, c, _, (_, u, v)), kb in zip(self._blocks,
                                                self._ranks(rank)):
            U[r, i:i + u.shape[1] - kb] = u[:, kb:]
            V[c, j:j + v.shape[1] - kb] = v[:, kb:]
            i += u.shape[1] - kb
            j += v.shape[1] - kb
        return U, V

    def solve(self, b: np.ndarray, k: int) -> np.ndarray:
        """V_k S_k^-1 U_k^T b: the rank-k truncated pseudo-inverse of b."""
        x = np.zeros(self._columns)
        for (_, r, c, _, (s, u, v)), kb in zip(self._blocks, self._ranks(k)):
            if kb:
                x[c] = v[:, :kb] @ ((u[:, :kb].T @ b[r]) / s[:kb])
        return x


def _classes(M: OperatorMatrix) -> tuple:
    """(row keys, column keys) of M's labels, as _SVD takes them."""
    return _block_keys(M.codomain_basis), _block_keys(M.domain_basis)


def _factorization(M: OperatorMatrix) -> _SVD:
    """The SVD of M.matrix over the blocks of _classes(M), with its
    vectors: made on the first request and kept on M, so that both
    reports of one matrix split and factor it once."""
    if "svd" not in M._factors:
        M._factors["svd"] = _SVD(M.matrix, classes=_classes(M))
    return M._factors["svd"]


def _report(f: _SVD, M: OperatorMatrix, gap_min: float,
            based: bool = False) -> SpectralReport:
    s = f.s
    rank, gap, reliable = _detect_rank(s, gap_min)
    U_null, V_null = f.null(rank)
    kernel_dim, cokernel_dim = V_null.shape[1], U_null.shape[1]
    mode_labels = {
        "right": _label_right_modes(V_null, M.domain_basis),
        "left": _label_left_modes(U_null, M.codomain_basis),
    }
    return SpectralReport(M.epsilon, M.variant, s, kernel_dim, cokernel_dim,
                          kernel_dim - cokernel_dim, gap, reliable,
                          mode_labels, based, f.class_counts(rank))


def svd_report(M: OperatorMatrix, gap_min: float = GAP_MIN
               ) -> SpectralReport:
    """Kernel/cokernel/index of the assembled linearization by gapped SVD."""
    return _report(_factorization(M), M, gap_min)


def based_report(M: OperatorMatrix, gap_min: float = GAP_MIN
                 ) -> SpectralReport:
    """Report after removing the six ambient-isometry modes from the domain.

    The removal is by explicit orthogonal complement of the closed-form
    Killing candidates, not by numerical null-space detection.  Raises if the
    candidate block is rank-deficient (misidentified modes).  Each
    candidate lies in one sign class and one |m| (a rotation in its curl
    mode's, a translation in its grad and normal modes'), so in the
    columns of one of the SVD's blocks (_class_blocks; of the one block
    of a matrix that does not split), and the complement is built block
    by block: with K_k = Q_k R_k the candidates of block k over its
    columns, Q_k's last columns span the complement there.  Such a block
    is factored as its matrix times Q_k, less the first columns, and its
    right vectors v are kept mapped back to the block's columns,
    Q_k [0; v].  Q_k is applied as Householder reflectors, to transposed
    columns.  The split is svd_report's (_factorization), and a block
    without candidates keeps its factorization from there.
    """
    Kb = killing_modes(M.domain_basis)
    if Kb.shape[1] != 6 or np.linalg.matrix_rank(Kb, tol=1e-10) != 6:
        raise ValueError("ambient-isometry candidate block is not rank 6")

    def apply_q(reflectors, trans, c):
        h, tau = reflectors
        # a workspace query neither reads nor writes c
        lwork = dormqr("L", trans, h, tau, c, -1, overwrite_c=True)[1][0]
        return dormqr("L", trans, h, tau, c, int(lwork))[0]

    blocks = []
    for k, r, c, block, factors in _factorization(M)._blocks:
        K = Kb[c]
        K = K[:, K.any(axis=0)]
        n_cand = K.shape[1]
        if n_cand:
            reflectors = qr(K, mode="raw")[0]
            s, u, v = _factor(
                apply_q(reflectors, "T", block.T)[n_cand:].T, True)
            factors = s, u, apply_q(reflectors, "N",
                                    np.pad(v, ((n_cand, 0), (0, 0))))
        blocks.append((k, r, c, factors))
    return _report(_SVD(blocks), M, gap_min, based=True)


def kernel_vs_epsilon(F: ImmersionMap, eps_grid,
                      variant: str = "additive") -> list:
    """Assemble and report at each epsilon; the smallest-12 trajectories sit
    in each report's tail.  The assembly skips the Liouville certificate
    (liouville_tol=None)."""
    reports = []
    for eps in eps_grid:
        M = assemble_linearization(F, float(eps), variant, liouville_tol=None)
        reports.append(svd_report(M))
    return reports
