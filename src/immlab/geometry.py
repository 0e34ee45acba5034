"""Surface geometry of band-limited immersions of the sphere.

An immersion is stored as three coefficient vectors for the ambient
components.  All first and second fundamental form data are evaluated
pointwise at the quadrature nodes from exact chart derivatives of the
band-limited components, so they carry no discretization error beyond
rounding for a given coefficient vector.

Sign conventions: the normal is the outward one for the standard sphere
(N = d_th F x d_ph F normalized), and the second fundamental form is the
Weingarten one, A_ij = <d_i N, d_j F> = -<d2_ij F, N>, so the unit sphere
has A = gamma, H = 2, K = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chartfd import MeridianGrid
from .errors import ImmersionRegularityError
from .spectral import SphereGrid

__all__ = [
    "ImmersionMap",
    "SurfaceGeometry",
    "gauss_check",
    "darboux_residual",
    "GaussCheck",
    "DarbouxCheck",
]

DET_FLOOR = 1e-10


@dataclass
class ImmersionMap:
    """Band-limited map S^2 -> R^3 given by component coefficients (3, nc)."""

    grid: SphereGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (3, self.grid.n_coeffs):
            raise ValueError(f"expected (3, {self.grid.n_coeffs}) coefficients")

    @classmethod
    def from_samples(cls, g: SphereGrid, xyz: np.ndarray) -> "ImmersionMap":
        """Project ambient node samples (n_nodes, 3) onto the basis.

        Raises ImmersionRegularityError right away if the projected map is
        degenerate; the computed geometry stays cached for later use.
        """
        F = cls(g, g.analyze(xyz).T)
        F.geometry
        return F

    @property
    def positions(self) -> np.ndarray:
        """Node images in R^3, shape (n_nodes, 3)."""
        return self.geometry.F

    @cached_property
    def geometry(self) -> "SurfaceGeometry":
        return SurfaceGeometry.compute(self.grid, self.coeffs)

    def rotated(self, R: np.ndarray) -> "ImmersionMap":
        return ImmersionMap(self.grid, np.asarray(R, dtype=float) @ self.coeffs)

    def translated(self, t: np.ndarray) -> "ImmersionMap":
        c = self.coeffs.copy()
        c[:, 0] += np.asarray(t, dtype=float) * np.sqrt(4.0 * np.pi)
        return ImmersionMap(self.grid, c)


@dataclass
class SurfaceGeometry:
    """Pointwise first and second order data of an immersion at the nodes."""

    grid: SphereGrid
    F: np.ndarray          # (n, 3)
    dF: np.ndarray         # (n, 2, 3) chart partials d_th F, d_ph F
    d2F: np.ndarray        # (n, 2, 2, 3) second partials
    gamma: np.ndarray      # (n, 2, 2) induced metric
    inv_gamma: np.ndarray  # (n, 2, 2)
    det_gamma: np.ndarray  # (n,)
    normal: np.ndarray     # (n, 3) outward unit normal
    second: np.ndarray     # (n, 2, 2) second form A (Weingarten sign)
    H: np.ndarray          # (n,) mean curvature, trace of gamma^{-1} A
    K: np.ndarray          # (n,) Gauss curvature, det of gamma^{-1} A
    norm_A_sq: np.ndarray  # (n,) |A|^2_gamma
    christoffel: np.ndarray  # (n, 2, 2, 2) Gamma^k_ij, index order [k, i, j]
    metric_gradient: np.ndarray  # (n, 2, 2, 2) d_k gamma_ij, index order [k, i, j]

    @classmethod
    def compute(cls, g: SphereGrid, coeffs: np.ndarray) -> "SurfaceGeometry":
        """The node data of the immersion with component coefficients (3, nc).

        Each chart derivative of the three components is one batched
        synthesis.  The Christoffel symbols and the metric gradient both
        come from the products T_ij,l = <d_ij F, d_l F>: Gamma^k_ij =
        gamma^{kl} T_ij,l (the Gauss formula) and d_k gamma_ij = T_ki,j +
        T_kj,i, exact for band-limited F.
        """
        n = g.n_nodes
        C = coeffs.T
        F = g.synthesize(C)
        dF = np.stack([g.synthesize(C, 1, 0), g.synthesize(C, 0, 1)], axis=1)
        d2F = np.empty((n, 2, 2, 3))
        d2F[:, 0, 0] = g.synthesize(C, 2, 0)
        d2F[:, 0, 1] = d2F[:, 1, 0] = g.synthesize(C, 1, 1)
        d2F[:, 1, 1] = g.synthesize(C, 0, 2)

        dFt = dF.transpose(0, 2, 1)
        gamma = dF @ dFt
        det = gamma[:, 0, 0] * gamma[:, 1, 1] - gamma[:, 0, 1] ** 2
        # written so that a NaN determinant fails it too
        if not det.min() >= DET_FLOOR:
            raise ImmersionRegularityError(
                f"metric determinant {det.min():.3e} below floor {DET_FLOOR:.1e}"
            )
        inv = np.empty_like(gamma)
        inv[:, 0, 0] = gamma[:, 1, 1] / det
        inv[:, 1, 1] = gamma[:, 0, 0] / det
        inv[:, 0, 1] = inv[:, 1, 0] = -gamma[:, 0, 1] / det

        cross = np.cross(dF[:, 0], dF[:, 1])
        normal = cross / np.linalg.norm(cross, axis=1, keepdims=True)

        A = -(d2F.reshape(n, 4, 3) @ normal[:, :, None]).reshape(n, 2, 2)
        shape_op = inv @ A
        H = np.trace(shape_op, axis1=1, axis2=2)
        K = shape_op[:, 0, 0] * shape_op[:, 1, 1] - shape_op[:, 0, 1] * shape_op[:, 1, 0]
        norm_A_sq = np.einsum("nij,nji->n", shape_op, shape_op)
        T = (d2F.reshape(n, 4, 3) @ dFt).reshape(n, 2, 2, 2)  # [i, j, l]
        christoffel = (inv @ T.reshape(n, 4, 2).transpose(0, 2, 1)).reshape(
            n, 2, 2, 2)
        metric_gradient = T + T.transpose(0, 1, 3, 2)

        return cls(g, F, dF, d2F, gamma, inv, det, normal, A, H, K,
                   norm_A_sq, christoffel, metric_gradient)


# ---------------------------------------------------------------------------
# curvature identity checks


def _metric_grids(geo: SurfaceGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g = geo.grid
    shp = (g.n_theta, g.n_phi)
    E = geo.gamma[:, 0, 0].reshape(shp)
    Fm = geo.gamma[:, 0, 1].reshape(shp)
    G = geo.gamma[:, 1, 1].reshape(shp)
    return E, Fm, G


def _metric_first_derivatives(geo: SurfaceGeometry, mg: MeridianGrid):
    """d_k gamma_ij on the grid via pole-safe stencils, flattened (n, 2, 2, 2).

    Index order [n, k, i, j] for d_k gamma_ij.
    """
    E, Fm, G = _metric_grids(geo)
    n = geo.grid.n_nodes
    d = np.empty((n, 2, 2, 2))

    def flat(x):
        return x.reshape(n)

    d[:, 0, 0, 0] = flat(mg.d_theta(E, +1))
    d[:, 0, 0, 1] = d[:, 0, 1, 0] = flat(mg.d_theta(Fm, -1))
    d[:, 0, 1, 1] = flat(mg.d_theta(G, +1))
    d[:, 1, 0, 0] = flat(mg.d_phi(E))
    d[:, 1, 0, 1] = d[:, 1, 1, 0] = flat(mg.d_phi(Fm))
    d[:, 1, 1, 1] = flat(mg.d_phi(G))
    return d


def grid_christoffels(geo: SurfaceGeometry) -> np.ndarray:
    """Christoffel symbols from stencil derivatives of the metric alone.

    Deliberately independent of the exact Gauss-formula Christoffels stored
    on SurfaceGeometry; the identity checks below use this intrinsic route
    so their residuals measure honest discretization error.
    """
    g = geo.grid
    mg = MeridianGrid(g.theta_nodes, g.n_phi)
    dgam = _metric_first_derivatives(geo, mg)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    bracket = (np.einsum("nilj->nlij", dgam)
               + np.einsum("njli->nlij", dgam)
               - dgam)
    return 0.5 * np.einsum("nkl,nlij->nkij", geo.inv_gamma, bracket)


@dataclass
class GaussCheck:
    intrinsic: np.ndarray
    extrinsic: np.ndarray
    max_discrepancy: float


def gauss_check(F: ImmersionMap) -> GaussCheck:
    """Compare intrinsic (Brioschi) and extrinsic Gauss curvature.

    The intrinsic value uses only the metric and its stencil derivatives;
    the extrinsic one is det of the shape operator.  Their agreement is the
    Theorema Egregium and the discrepancy shrinks with the band limit.
    """
    geo = F.geometry
    g = geo.grid
    mg = MeridianGrid(g.theta_nodes, g.n_phi)
    E, Fm, G = _metric_grids(geo)

    E_u, E_v = mg.d_theta(E, +1), mg.d_phi(E)
    F_u, F_v = mg.d_theta(Fm, -1), mg.d_phi(Fm)
    G_u, G_v = mg.d_theta(G, +1), mg.d_phi(G)
    E_vv = mg.d_phi(E, order=2)
    G_uu = mg.d_theta(G, +1, order=2)
    F_uv = mg.d_phi(mg.d_theta(Fm, -1))

    def det3(a11, a12, a13, a21, a22, a23, a31, a32, a33):
        return (a11 * (a22 * a33 - a23 * a32)
                - a12 * (a21 * a33 - a23 * a31)
                + a13 * (a21 * a32 - a22 * a31))

    m1 = det3(-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v,
              F_v - 0.5 * G_u, E, Fm,
              0.5 * G_v, Fm, G)
    m2 = det3(np.zeros_like(E), 0.5 * E_v, 0.5 * G_u,
              0.5 * E_v, E, Fm,
              0.5 * G_u, Fm, G)
    K_int = ((m1 - m2) / (E * G - Fm * Fm) ** 2).reshape(g.n_nodes)
    diff = float(np.abs(K_int - geo.K).max())
    return GaussCheck(K_int, geo.K, diff)


@dataclass
class DarbouxCheck:
    residual: np.ndarray
    max_residual: float


def darboux_residual(F: ImmersionMap, e: np.ndarray) -> DarbouxCheck:
    """Residual of the Darboux identity for the height function u = <F, e>.

    Checks det(D2_gamma u) = K det(gamma) (1 - |grad_gamma u|^2) with the
    gamma-Hessian D2u_ij = d2_ij u - Gamma^k_ij d_k u built from stencil
    derivatives of the metric.  e is normalized first; raises ValueError
    unless it is a 3-vector of finite entries and nonzero length.
    """
    e = np.asarray(e, dtype=float)
    norm = np.linalg.norm(e) if e.shape == (3,) else np.nan
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError("darboux_residual needs a direction e of shape (3,) "
                         f"with finite entries and nonzero length, got {e!r}")
    e = e / norm
    geo = F.geometry
    du = np.einsum("nia,a->ni", geo.dF, e)          # exact chart gradient
    d2u = np.einsum("nija,a->nij", geo.d2F, e)
    Gam = grid_christoffels(geo)
    hess = d2u - np.einsum("nkij,nk->nij", Gam, du)
    det_hess = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] * hess[:, 1, 0]
    grad_sq = np.einsum("nij,ni,nj->n", geo.inv_gamma, du, du)
    rhs = geo.K * geo.det_gamma * (1.0 - grad_sq)
    res = det_hess - rhs
    return DarbouxCheck(res, float(np.abs(res).max()))
