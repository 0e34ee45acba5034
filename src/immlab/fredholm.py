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
from .operators import (_SIGN_CLASS_NAMES, OperatorMatrix, _sign_classes,
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
    whether the SVD ran by sign class.  It certifies gap_ratio >= gap_min;
    do not compare it bit for bit or read a trend in it.

    class_counts maps each reflection sign class, named by its signs under
    x -> -x, y -> -y and z -> -z ("+-+" is odd under y -> -y only), to
    its (kernel, cokernel) counts when the SVD ran one class at a time
    (see _SVD), and is None otherwise.  The counts sum to kernel_dim and
    cokernel_dim.
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
    n = len(labels)
    cols = []
    for i in fam["rotation"]:
        v = np.zeros(n)
        v[i] = 1.0
        cols.append(v)
    for ig, iv in zip(fam["conformal"], fam["eigenfunction"]):
        v = np.zeros(n)
        v[ig] = np.sqrt(2.0 / 3.0)
        v[iv] = np.sqrt(1.0 / 3.0)
        cols.append(v)
    return np.stack(cols, axis=1)


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
    trans = killing_modes(labels)[:, 3:] if fam["rotation"] else None
    out = []
    for v in V_null.T:
        entry = {}
        deg1 = 0.0
        for name, idx in fam.items():
            frac = float(np.sum(v[idx] ** 2)) if idx else 0.0
            entry["overlap_" + name] = frac
            deg1 += frac
        if trans is not None:
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


# The block path's certificate: a matrix is factored one sign class at a
# time when its off-class part E has ||E||_F <= _OFF_CLASS_MAX ||A||_F
_OFF_CLASS_MAX = 1e-12


def _class_blocks(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """The diagonal blocks of matrix over the classes rows and cols.

    rows and cols give each row's and column's class.  Returns a list of
    (class, row indices, column indices, block), one for each class that
    has rows or columns, when the entries between different classes are
    round-off: their Frobenius norm ||E||_F is at most _OFF_CLASS_MAX times
    the matrix's.  Returns None otherwise, when the classes do not match
    the shape, or when a class has rows but no columns or columns but no
    rows.  One class of rows is gathered at a time, so no temporary of the
    matrix's size is made.
    """
    if (len(rows), len(cols)) != matrix.shape:
        return None
    blocks = []
    inner = off = 0.0
    for k in np.union1d(rows, cols):
        r, c = np.flatnonzero(rows == k), np.flatnonzero(cols == k)
        if not (r.size and c.size):
            return None
        band = matrix[r]
        block = band[:, c]
        band[:, c] = 0.0
        inner += np.vdot(block, block)
        off += np.vdot(band, band)
        blocks.append((int(k), r, c, block))
    if np.isfinite(off) and off <= _OFF_CLASS_MAX ** 2 * (inner + off):
        return blocks
    return None


class _SVD:
    """SVD of a dense matrix, one sign class at a time where it can be.

    The dense path is np.linalg.svd (LAPACK gesdd) with full_matrices=True,
    so a left (right) index at or beyond min(m, n) gives a null direction
    of the full U (V).  gesdd's divide and conquer can fail to converge on
    a well-conditioned matrix (on the clustered spectra of dense L = 20
    round-sphere linearizations that hinged on the last bits of the
    input), and np.linalg.svd then raises LinAlgError.  The SVD is redone
    with LAPACK's gesvd (QR iteration), which at L = 20 takes about 20
    times as long.  A matrix with a non-finite entry raises ValueError.

    classes, when given, is the pair (row classes, column classes) of the
    reflection sign classes of the matrix's labels (operators._sign_classes).
    At an immersion with the three coordinate reflection symmetries, or a
    rigid motion of one, the linearization maps each class to itself: its
    entries between different classes are round-off.  When their part E
    has ||E||_F <= _OFF_CLASS_MAX ||A||_F, each diagonal block is factored
    on its own as above, fallback and all, which at L = 20 takes
    about a twentieth of the time of one dense factorization.  The blocks
    are the SVD of A - E, and by Weyl's inequality each singular value of A
    lies within ||E||_F of the matching one of A - E.  The block values are
    merged in descending order, ties in block order, and padded with exact
    zeros to min(m, n) entries.  Index j of left and right is the j-th
    merged value's vector in its block, and indices past the block values
    give the blocks' null directions, block by block; solve(b, k) keeps
    the k largest merged values.  Any other matrix takes the dense path.
    """

    def __init__(self, matrix: np.ndarray, compute_uv: bool = True,
                 classes=None):
        self.shape = matrix.shape
        blocks = None if classes is None else _class_blocks(matrix, *classes)
        self._blocks = None
        if blocks is not None:
            self._merge(blocks, compute_uv)
            return
        if not np.isfinite(matrix).all():
            # gesdd would return NaN values for an infinite entry
            raise ValueError("the matrix has non-finite entries")
        try:
            out = np.linalg.svd(matrix, compute_uv=compute_uv)
        except np.linalg.LinAlgError:
            out = svd(matrix, compute_uv=compute_uv, lapack_driver="gesvd")
        if compute_uv:
            self._u, self.s, vt = out
            self._v = vt.T
        else:
            self.s = out

    @classmethod
    def from_blocks(cls, shape: tuple, blocks: list,
                    compute_uv: bool = True) -> "_SVD":
        """The block path on blocks already split, as _class_blocks lists
        them, of a matrix of the given shape."""
        f = cls.__new__(cls)
        f.shape = shape
        f._merge(blocks, compute_uv)
        return f

    def _merge(self, blocks: list, compute_uv: bool) -> None:
        self._blocks = [(k, r, c, _SVD(b, compute_uv))
                        for k, r, c, b in blocks]
        sizes = [f.s.size for *_, f in self._blocks]
        values = np.concatenate([f.s for *_, f in self._blocks])
        order = np.argsort(-values, kind="stable")
        self.s = np.zeros(min(self.shape))
        self.s[:values.size] = values[order]
        owner = np.repeat(np.arange(len(sizes)), sizes)[order]
        local = np.concatenate([np.arange(p) for p in sizes])[order]
        # (block, local index) of each left and each right index: the
        # merged values, then each block's null directions
        self._index = []
        for dims in ([r.size for _, r, _, _ in blocks],
                     [c.size for _, _, c, _ in blocks]):
            pairs = list(enumerate(zip(dims, sizes)))
            self._index.append(np.stack([
                np.concatenate([owner, *(np.full(d - p, b)
                                         for b, (d, p) in pairs)]),
                np.concatenate([local, *(np.arange(p, d)
                                         for _, (d, p) in pairs)])]))

    def _ranks(self, k: int) -> np.ndarray:
        """How many of the k largest merged values each block holds: a
        prefix of its own values, since the merge keeps their order."""
        return np.bincount(self._index[0][0, :k],
                           minlength=len(self._blocks))

    def kept(self, rank: int) -> list:
        """(class, rows, columns, kept values) of each block when the rank
        largest merged values are kept; None on the dense path."""
        if self._blocks is None:
            return None
        return [(k, r.size, c.size, int(n))
                for (k, r, c, _), n in zip(self._blocks, self._ranks(rank))]

    def left(self, idx) -> np.ndarray:
        """Left singular vectors as columns, for the indices idx."""
        if self._blocks is not None:
            return self._gather(idx, 0)
        return self._u[:, np.asarray(idx, dtype=int)]

    def right(self, idx) -> np.ndarray:
        """Right singular vectors as columns, for the indices idx."""
        if self._blocks is not None:
            return self._gather(idx, 1)
        return self._v[:, np.asarray(idx, dtype=int)]

    def solve(self, b: np.ndarray, k: int) -> np.ndarray:
        """V_k S_k^-1 U_k^T b: the rank-k truncated pseudo-inverse of b."""
        if self._blocks is not None:
            x = np.zeros(self.shape[1])
            for (_, r, c, f), kb in zip(self._blocks, self._ranks(k)):
                if kb:
                    x[c] = f.solve(b[r], int(kb))
            return x
        return self._v[:, :k] @ ((self._u[:, :k].T @ b) / self.s[:k])

    def _gather(self, idx, side: int) -> np.ndarray:
        """Block path of left (side 0) and right (side 1): each block's
        vectors, placed at its rows or columns."""
        owner, local = self._index[side][:, np.asarray(idx, dtype=int)]
        out = np.zeros((self.shape[side], owner.size))
        for b, (_, r, c, f) in enumerate(self._blocks):
            sel = np.flatnonzero(owner == b)
            if sel.size:
                vectors = f.right if side else f.left
                out[np.ix_(c if side else r, sel)] = vectors(local[sel])
        return out


def _classes(M: OperatorMatrix) -> tuple:
    """(row classes, column classes) of M's labels, as _SVD takes them."""
    return _sign_classes(M.codomain_basis), _sign_classes(M.domain_basis)


def _report(f: _SVD, M: OperatorMatrix, gap_min: float,
            domain_restriction=None, based: bool = False) -> SpectralReport:
    s = f.s
    rank, gap, reliable = _detect_rank(s, gap_min)
    n_cod, n_dom = f.shape
    kernel_dim = n_dom - rank
    cokernel_dim = n_cod - rank

    V_null = f.right(range(rank, n_dom))
    if domain_restriction is not None:
        V_null = domain_restriction(V_null)
    mode_labels = {
        "right": _label_right_modes(V_null, M.domain_basis),
        "left": _label_left_modes(f.left(range(rank, n_cod)),
                                  M.codomain_basis),
    }
    kept = f.kept(rank)
    class_counts = None if kept is None else {
        _SIGN_CLASS_NAMES[k]: (cols - n, rows - n)
        for k, rows, cols, n in kept}
    return SpectralReport(M.epsilon, M.variant, s, kernel_dim, cokernel_dim,
                          kernel_dim - cokernel_dim, gap, reliable,
                          mode_labels, based, class_counts)


def svd_report(M: OperatorMatrix, gap_min: float = GAP_MIN
               ) -> SpectralReport:
    """Kernel/cokernel/index of the assembled linearization by gapped SVD."""
    return _report(_SVD(M.matrix, classes=_classes(M)), M, gap_min)


def based_report(M: OperatorMatrix, gap_min: float = GAP_MIN
                 ) -> SpectralReport:
    """Report after removing the six ambient-isometry modes from the domain.

    The removal is by explicit orthogonal complement of the closed-form
    Killing candidates, not by numerical null-space detection.  Raises if the
    candidate block is rank-deficient (misidentified modes).  Each candidate
    lies in one sign class (a rotation in its curl mode's, a translation in
    its grad and normal modes'), so the complement is built class by
    class: with K_k = Q_k R_k the candidates of class k over that class's
    columns, Q_k's last columns span the complement there.  The based
    matrix is the matrix times each Q_k, less its first columns, and a
    based null vector maps back through each Q_k [0; v_k].  Q_k is applied
    as Householder reflectors, to transposed columns.  On the block path
    they are applied to the diagonal blocks and the based matrix is never
    formed.
    """
    Kb = killing_modes(M.domain_basis)
    if Kb.shape[1] != 6 or np.linalg.matrix_rank(Kb, tol=1e-10) != 6:
        raise ValueError("ambient-isometry candidate block is not rank 6")
    rows, cols = _classes(M)
    owner = cols[np.argmax(np.abs(Kb), axis=0)]
    # per class: its columns, their based positions, its candidate count
    # and Q_k's reflectors (None without candidates)
    groups = {}
    start = 0
    for k in np.unique(cols):
        idx = np.flatnonzero(cols == k)
        K = Kb[idx][:, owner == k]
        width = idx.size - K.shape[1]
        groups[k] = (idx, np.arange(start, start + width), K.shape[1],
                     qr(K, mode="raw")[0] if K.shape[1] else None)
        start += width

    def apply_q(reflectors, trans, c):
        if reflectors is None:
            return c
        h, tau = reflectors
        # a workspace query neither reads nor writes c
        lwork = dormqr("L", trans, h, tau, c, -1, overwrite_c=True)[1][0]
        return dormqr("L", trans, h, tau, c, int(lwork))[0]

    def complement(k, columns):
        # columns (transposed, over class k's columns) times Q_k, less the
        # candidates' columns
        _, _, n_cand, reflectors = groups[k]
        return apply_q(reflectors, "T", columns)[n_cand:].T

    def restore(V):
        out = np.zeros((len(cols), V.shape[1]))
        for idx, pos, n_cand, reflectors in groups.values():
            out[idx] = apply_q(reflectors, "N", np.vstack(
                [np.zeros((n_cand, V.shape[1])), V[pos]]))
        return out

    blocks = _class_blocks(M.matrix, rows, cols)
    if blocks is None:
        based = np.empty((len(rows), start))
        for k, (idx, pos, _, _) in groups.items():
            based[:, pos] = complement(k, M.matrix[:, idx].T)
        f = _SVD(based)
    else:
        f = _SVD.from_blocks((len(rows), start), [
            (k, r, groups[k][1], complement(k, block.T))
            for k, r, _, block in blocks])
    return _report(f, M, gap_min, domain_restriction=restore, based=True)


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
