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

from .geometry import ImmersionMap
from .operators import OperatorMatrix, assemble_linearization

__all__ = [
    "SpectralReport",
    "svd_report",
    "based_report",
    "kernel_vs_epsilon",
    "killing_modes",
    "degree_one_families",
]


@dataclass(frozen=True)
class SpectralReport:
    """SVD-based kernel/cokernel/index summary of one assembled matrix."""

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


def _svd(matrix: np.ndarray, full_matrices: bool = True) -> tuple:
    """np.linalg.svd, redone with LAPACK's gesvd when it fails to converge.

    np.linalg.svd uses gesdd (divide and conquer), whose convergence on a
    well-conditioned matrix can hinge on the last bits of the input: it
    failed on an L = 20 round-sphere linearization whose neighbour at
    1e-16 converges.  gesvd (QR iteration) is slower and converges there.
    """
    try:
        return np.linalg.svd(matrix, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        return svd(matrix, full_matrices=full_matrices, lapack_driver="gesvd")


def _report(matrix: np.ndarray, M: OperatorMatrix, gap_min: float,
            domain_restriction: np.ndarray | None = None,
            based: bool = False) -> SpectralReport:
    U, s, Vt = _svd(matrix)
    rank, gap, reliable = _detect_rank(s, gap_min)
    n_cod, n_dom = matrix.shape
    kernel_dim = n_dom - rank
    cokernel_dim = n_cod - rank

    V_null = Vt[rank:].T
    if domain_restriction is not None:
        V_null = domain_restriction @ V_null
    mode_labels = {
        "right": _label_right_modes(V_null, M.domain_basis),
        "left": _label_left_modes(U[:, rank:], M.codomain_basis),
    }
    return SpectralReport(M.epsilon, M.variant, s, kernel_dim, cokernel_dim,
                          kernel_dim - cokernel_dim, gap, reliable,
                          mode_labels, based)


def svd_report(M: OperatorMatrix, gap_min: float = 1e3) -> SpectralReport:
    """Kernel/cokernel/index of the assembled linearization by gapped SVD."""
    return _report(M.matrix, M, gap_min)


def based_report(M: OperatorMatrix, gap_min: float = 1e3) -> SpectralReport:
    """Report after removing the six ambient-isometry modes from the domain.

    The removal is by explicit orthogonal complement of the closed-form
    Killing candidates, not by numerical null-space detection.  Raises if the
    candidate block is rank-deficient (misidentified modes).
    """
    Kb = killing_modes(M.domain_basis)
    if Kb.shape[1] != 6 or np.linalg.matrix_rank(Kb, tol=1e-10) != 6:
        raise ValueError("ambient-isometry candidate block is not rank 6")
    Q = qr(Kb, mode="full")[0]
    comp = Q[:, 6:]
    return _report(M.matrix @ comp, M, gap_min,
                   domain_restriction=comp, based=True)


def kernel_vs_epsilon(F: ImmersionMap, eps_grid, variant: str = "additive",
                      gap_min: float = 1e3, **assemble_kw) -> list:
    """Assemble and report at each epsilon; the smallest-12 trajectories sit
    in each report's tail."""
    reports = []
    for eps in eps_grid:
        M = assemble_linearization(F, float(eps), variant, **assemble_kw)
        reports.append(svd_report(M, gap_min))
    return reports
