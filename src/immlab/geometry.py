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
        coeffs = np.stack([g.analyze(xyz[:, mu]) for mu in range(3)])
        F = cls(g, coeffs)
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
    tau: np.ndarray        # (n, 2, 2) A - H gamma
    christoffel: np.ndarray  # (n, 2, 2, 2) Gamma^k_ij, index order [k, i, j]

    @classmethod
    def compute(cls, g: SphereGrid, coeffs: np.ndarray) -> "SurfaceGeometry":
        n = g.n_nodes
        F = np.empty((n, 3))
        dF = np.empty((n, 2, 3))
        d2F = np.empty((n, 2, 2, 3))
        for mu in range(3):
            c = coeffs[mu]
            F[:, mu] = g.synthesize(c)
            dF[:, 0, mu] = g.synthesize(c, dth=1)
            dF[:, 1, mu] = g.synthesize(c, dph=1)
            d2F[:, 0, 0, mu] = g.synthesize(c, dth=2)
            d2F[:, 0, 1, mu] = g.synthesize(c, dth=1, dph=1)
            d2F[:, 1, 1, mu] = g.synthesize(c, dph=2)
        d2F[:, 1, 0] = d2F[:, 0, 1]

        gamma = np.einsum("nia,nja->nij", dF, dF)
        det = gamma[:, 0, 0] * gamma[:, 1, 1] - gamma[:, 0, 1] ** 2
        if det.min() < DET_FLOOR:
            raise ImmersionRegularityError(
                f"metric determinant {det.min():.3e} below floor {DET_FLOOR:.1e}"
            )
        inv = np.empty_like(gamma)
        inv[:, 0, 0] = gamma[:, 1, 1] / det
        inv[:, 1, 1] = gamma[:, 0, 0] / det
        inv[:, 0, 1] = inv[:, 1, 0] = -gamma[:, 0, 1] / det

        cross = np.cross(dF[:, 0], dF[:, 1])
        normal = cross / np.linalg.norm(cross, axis=1, keepdims=True)

        A = -np.einsum("nija,na->nij", d2F, normal)
        shape_op = np.einsum("nik,nkj->nij", inv, A)
        H = np.trace(shape_op, axis1=1, axis2=2)
        K = shape_op[:, 0, 0] * shape_op[:, 1, 1] - shape_op[:, 0, 1] * shape_op[:, 1, 0]
        norm_A_sq = np.einsum("nij,nji->n", shape_op, shape_op)
        tau = A - H[:, None, None] * gamma
        # Gamma^k_ij from the Gauss formula, exact for band-limited F
        christoffel = np.einsum("nkl,nija,nla->nkij", inv, d2F, dF)

        return cls(g, F, dF, d2F, gamma, inv, det, normal, A, H, K,
                   norm_A_sq, tau, christoffel)


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
    derivatives of the metric.
    """
    e = np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
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
