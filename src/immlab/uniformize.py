"""Conformal uniformization of smooth metrics on the sphere.

Any smooth metric gamma on S^2 splits uniquely as gamma = lambda^2 gamma_0
where gamma_0 = e^{2 phi} gamma has Gauss curvature one and lambda^2 =
e^{-2 phi}.  The factor phi solves the Liouville equation

    Delta_gamma phi = K_gamma - e^{2 phi},

which this module discretizes in weak (Galerkin) form against the spherical
harmonic basis.  The weak form never touches Christoffel symbols or chart
components of gamma near the poles: the stiffness form integrates
gamma^{ij} d_i phi d_j psi against the metric volume element, and every
integrand that appears is a smooth scalar times sin(theta) from the volume
factor, so Gauss-Legendre quadrature applies cleanly.  The stiffness
form's quadrature sums run by longitude frequency (SphereGrid.analyze),
and so does the synthesis of the Galerkin Laplacian; the mass matrix is
one BLAS product.

Solutions are unique only up to the Moebius group; the gauge adopted here
pins the three degree-one coefficients of phi to zero.  The reduced
Gauss-Newton system drops those columns and solves the remaining rectangular
system in the least-squares sense.

The linearization solver differentiates the discrete residual exactly in the
metric, so finite-difference checks of lambda^2 along metric paths converge
at second order down to roundoff.

Both solves run over a chosen set of scalar harmonics, every one by
default.  At a metric with the three coordinate reflection symmetries phi
lies in the fully symmetric sign class, and the solves over that class's
harmonics alone (solve_liouville's modes) are the full solves' blocks; the
Galerkin forms record the modes they run over, and the linearization
takes them from there.  The strong residual, five syntheses of phi's
derivatives, is computed when first read (ConformalData.strong_residual),
so callers that skip the certificate never pay for it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr, solve_triangular

from .errors import (ConvergenceError, DegreeMismatchError,
                     ImmersionRegularityError)
from .geometry import ImmersionMap
from .spectral import HarmonicField, SphereGrid

__all__ = [
    "MetricData",
    "ConformalData",
    "LinearizedLiouville",
    "conformal_class",
    "solve_liouville",
]


def conformal_class(gamma: np.ndarray) -> np.ndarray:
    """Pointwise representative gamma / sqrt(det gamma) of the conformal class.

    Raises ImmersionRegularityError unless gamma is positive definite at
    every node.
    """
    gamma = np.asarray(gamma, dtype=float)
    det = gamma[..., 0, 0] * gamma[..., 1, 1] - gamma[..., 0, 1] * gamma[..., 1, 0]
    if np.any(det <= 0.0) or np.any(gamma[..., 0, 0] <= 0.0):
        raise ImmersionRegularityError(
            "metric must be positive definite at every node")
    return gamma / np.sqrt(det)[..., None, None]


def _round_christoffels(g: SphereGrid) -> np.ndarray:
    # scale invariant: same symbols for every radius
    n = g.n_nodes
    s, c = np.sin(g.theta), np.cos(g.theta)
    gam = np.zeros((n, 2, 2, 2))
    gam[:, 0, 1, 1] = -s * c
    gam[:, 1, 0, 1] = gam[:, 1, 1, 0] = c / s
    return gam


@dataclass(frozen=True)
class MetricData:
    """A metric on the grid with the derived quantities the solvers need.

    vol_weights are quadrature weights for the metric volume element:
    w_n sqrt(det gamma_n) / sin(theta_n), so sum(vol_weights * f) integrates
    f dv_gamma.
    """

    grid: SphereGrid
    gamma: np.ndarray        # (n, 2, 2)
    inv_gamma: np.ndarray    # (n, 2, 2)
    det_gamma: np.ndarray    # (n,)
    christoffel: np.ndarray  # (n, 2, 2, 2) Gamma^k_ij, index order [k, i, j]
    K: np.ndarray            # (n,) Gauss curvature

    @cached_property
    def vol_weights(self) -> np.ndarray:
        g = self.grid
        return g.weights * np.sqrt(self.det_gamma) / np.sin(g.theta)

    @classmethod
    def from_immersion(cls, F: ImmersionMap) -> "MetricData":
        geo = F.geometry
        return cls(F.grid, geo.gamma, geo.inv_gamma, geo.det_gamma,
                   geo.christoffel, geo.K)

    @classmethod
    def round(cls, g: SphereGrid, radius: float = 1.0) -> "MetricData":
        n = g.n_nodes
        s2 = np.sin(g.theta) ** 2
        gamma = np.zeros((n, 2, 2))
        gamma[:, 0, 0] = radius**2
        gamma[:, 1, 1] = radius**2 * s2
        inv = np.zeros_like(gamma)
        inv[:, 0, 0] = 1.0 / radius**2
        inv[:, 1, 1] = 1.0 / (radius**2 * s2)
        det = radius**4 * s2
        K = np.full(n, 1.0 / radius**2)
        return cls(g, gamma, inv, det, _round_christoffels(g), K)

    @classmethod
    def conformal_round(cls, u: HarmonicField) -> "MetricData":
        """The metric e^{2u} g_round for a band-limited conformal factor u."""
        g = u.grid
        base = cls.round(g)
        e2u = np.exp(2.0 * u.samples)
        gamma = base.gamma * e2u[:, None, None]
        inv = base.inv_gamma / e2u[:, None, None]
        det = base.det_gamma * e2u**2
        # Gamma^k_ij = Gamma0^k_ij + d_i u delta^k_j + d_j u delta^k_i
        #              - g0^{kl} d_l u g0_ij
        du = g.gradient(u.coeffs)
        gradu = np.einsum("nkl,nl->nk", base.inv_gamma, du)
        gam = _round_christoffels(g).copy()
        eye = np.eye(2)
        gam += np.einsum("ni,kj->nkij", du, eye)
        gam += np.einsum("nj,ki->nkij", du, eye)
        gam -= np.einsum("nk,nij->nkij", gradu, base.gamma)
        lap0 = g.synthesize(g.laplace_beltrami_round(u.coeffs))
        K = np.exp(-2.0 * u.samples) * (1.0 - lap0)
        return cls(g, gamma, inv, det, gam, K)

    def laplacian(self, f_coeffs: np.ndarray) -> np.ndarray:
        """Strong Laplace-Beltrami of a band-limited field at the nodes.

        Uses the chart formula gamma^{ij} (d2_ij f - Gamma^k_ij d_k f); near
        the poles the two terms cancel to the smooth limit, which costs a few
        digits but is only used for reporting strong residuals.
        """
        g = self.grid
        hess = np.empty((g.n_nodes, 2, 2))
        hess[:, 0, 0] = g.synthesize(f_coeffs, 2, 0)
        hess[:, 0, 1] = hess[:, 1, 0] = g.synthesize(f_coeffs, 1, 1)
        hess[:, 1, 1] = g.synthesize(f_coeffs, 0, 2)
        hess -= np.einsum("nkij,nk->nij", self.christoffel, g.gradient(f_coeffs))
        return np.einsum("nij,nij->n", self.inv_gamma, hess)


# the mode selection of every scalar harmonic; the defaults below and
# operators._class_harmonics share it, so forms over every harmonic are
# recognized by identity
_EVERY_MODE = slice(None)


def _degree_one_mask(g: SphereGrid) -> np.ndarray:
    keep = np.ones(g.n_coeffs, dtype=bool)
    keep[1:4] = False
    return keep


class _WeakForms:
    """Shared Galerkin matrices for a fixed metric.

    modes, when given, selects the scalar harmonics (an index array or a
    slice) that the forms run over, such as those of one reflection sign
    class (operators._class_harmonics); by default they run over all of
    them.  The forms record them: coefficient vectors and Galerkin
    matrices are over those modes, in their order.

    The stiffness S[k, c] = int gamma^{ij} d_i Y_c d_j Y_k dv is the
    quadrature sum, taken by longitude frequency: the nodal fields
    q gamma^{ij} d_j Y_c, with q the volume weights, are paired with the
    d_i derivatives of the basis by SphereGrid.analyze, the adjoint of the
    synthesis.  The mass matrix stays one GEMM of the node table, since
    the Liouville Jacobian forms it on every Gauss-Newton step, and the
    Galerkin Laplacian synthesizes its mass-matrix solve.
    """

    def __init__(self, metric: MetricData, modes=_EVERY_MODE):
        g = metric.grid
        self.metric = metric
        self.modes = modes
        self.Y = g.node_matrix(0, 0)[:, modes]
        self.dY = (g.node_matrix(1, 0)[:, modes], g.node_matrix(0, 1)[:, modes])
        with np.errstate(invalid="ignore"):
            self.q = metric.vol_weights
            # q gamma^{ij} over the grid weights, which analyze applies
            Q = (self.q / g.weights)[:, None, None] * metric.inv_gamma
        det = Q[:, 0, 0] * Q[:, 1, 1] - Q[:, 0, 1] * Q[:, 1, 0]
        if not np.all((Q[:, 0, 0] > 0.0) & (det > 0.0)):
            raise ImmersionRegularityError(
                "metric must be positive definite at every node")
        S = sum(g.analyze(Q[:, i, 0, None] * self.dY[0]
                          + Q[:, i, 1, None] * self.dY[1], *d)[modes]
                for i, d in enumerate(((1, 0), (0, 1))))
        # S[k, c] and S[c, k] regroup one quadrature sum differently; their
        # mean is exactly symmetric
        self.S = 0.5 * (S + S.T)

    def mass(self, density: np.ndarray) -> np.ndarray:
        return self.Y.T @ ((self.q * density)[:, None] * self.Y)

    def residual(self, phi_coeffs: np.ndarray) -> np.ndarray:
        # weak form of Delta phi - K + e^{2 phi} = 0 tested against Y_k:
        # r_k = -(S phi)_k + int (e^{2 phi} - K) Y_k dv
        m = self.metric
        e2p = np.exp(2.0 * (self.Y @ phi_coeffs))
        return self.Y.T @ (self.q * (e2p - m.K)) - self.S @ phi_coeffs

    def jacobian(self, phi_coeffs: np.ndarray) -> np.ndarray:
        e2p = np.exp(2.0 * (self.Y @ phi_coeffs))
        return -self.S + self.mass(2.0 * e2p)

    def laplacian(self, rhs: np.ndarray) -> np.ndarray:
        """Nodal Galerkin Laplacian: Y M^{-1} (-rhs), M the mass matrix.

        rhs = S @ c (columns (nc, B)) gives Delta_gamma of the fields with
        coefficients c; rhs = S gives it for every basis function.  Exact
        for band-limited inputs when the metric is round.  M is factored
        on the first call and the factor kept for the next ones; the
        solution, scattered into the coefficients of every harmonic, is
        synthesized at the nodes.
        """
        g = self.metric.grid
        x = cho_solve(self._mass_factor, -rhs)
        if self.modes is not _EVERY_MODE:
            x, sub = np.zeros((g.n_coeffs,) + x.shape[1:]), x
            x[self.modes] = sub
        return g.synthesize(x)

    @cached_property
    def _mass_factor(self) -> tuple:
        return cho_factor(self.mass(1.0))


@dataclass(frozen=True)
class ConformalData:
    """Result of uniformizing a metric: gamma = lambda2 * round_rep.

    round_rep = e^{2 phi} gamma has Gauss curvature one; lambda2 = e^{-2 phi}
    holds at the nodes; conformal_class gives the pointwise unimodular
    class representative.  The Moebius gauge pins the three degree-one
    coefficients of phi to zero; rotations are not fixed, since
    comparisons treat them as an equivalence.  residual_history holds the
    weak residual norm per Newton iterate.
    forms are the Galerkin matrices of metric that the solve used, over
    the scalar harmonics it solved over (forms.modes; phi has no other
    coefficients); the linearization and the Galerkin Laplacian at this
    metric reuse them.  strong_residual is computed when first read.
    """

    metric: MetricData
    phi: HarmonicField
    lambda2: np.ndarray        # (n,)
    iterations: int
    forms: _WeakForms = field(compare=False, repr=False)
    residual_history: tuple = ()

    @property
    def round_rep(self) -> np.ndarray:
        e2p = np.exp(2.0 * self.phi.samples)
        return self.metric.gamma * e2p[:, None, None]

    @cached_property
    def strong_residual(self) -> float:
        """max |Delta_gamma phi - K + e^{2 phi}| over the nodes, with the
        strong (chart) Laplacian of MetricData.laplacian."""
        m = self.metric
        strong = (m.laplacian(self.phi.coeffs) - m.K
                  + np.exp(2.0 * self.phi.samples))
        return float(np.max(np.abs(strong)))


# Gauss-Newton iterations solve_liouville takes at most
_MAX_ITER = 40


def solve_liouville(metric: MetricData, *, tol: float | None = 1e-9,
                    initial: np.ndarray | None = None,
                    modes=_EVERY_MODE) -> ConformalData:
    """Uniformize a metric by damped Gauss-Newton on the weak Liouville system.

    The default initial guess -(1/4) log(det gamma / det round) is exact for
    metrics conformal to the round one; pass explicit coefficients (e.g.
    zeros) to exercise the iteration.  Raises ConvergenceError if the
    converged solution fails the strong residual bound
    max |Delta_gamma phi - K + e^{2 phi}| <= tol (a coarse grid can converge
    in the weak sense yet carry a truncation tail above tol; raising is the
    honest report in that case), or if the gauge-reduced Jacobian degenerates.
    tol=None skips the strong certificate (ConformalData.strong_residual
    still computes it when read); finite-difference probes of the discrete
    solution map use that mode, since the weak solve is smooth in the
    metric regardless of the tail.

    modes, when given, selects the scalar harmonics phi is solved over (an
    index array, such as one reflection sign class's,
    operators._class_harmonics): the weak system is tested against them
    alone and phi's other coefficients are zero.  At a metric with the
    three coordinate reflection symmetries phi lies in the fully
    symmetric class, and the solve over it is the full solve's block.
    By default every harmonic is used.  initial, when given, holds
    coefficients over every harmonic (DegreeMismatchError otherwise).

    Each Newton step is the least-squares solution of the gauge-reduced
    system (degree-one columns dropped), taken by economic QR and a
    triangular solve; a QR pivot |R_ii| at or below 1e-12 of the largest
    counts as a degenerate reduced Jacobian.  Raises ValueError unless tol
    is None or 0 < tol < inf.
    """
    if tol is not None and not 0.0 < tol < np.inf:
        raise ValueError(
            f"solve_liouville needs tol None or 0 < tol < inf, got {tol}")
    g = metric.grid
    forms = _WeakForms(metric, modes)
    keep = _degree_one_mask(g)[modes]

    if initial is None:
        # determinant-based guess: exact for conformal-to-round metrics
        phi0 = -0.25 * np.log(metric.det_gamma / np.sin(g.theta) ** 2)
        coeffs = g.analyze(phi0)[modes]
    else:
        coeffs = np.array(initial, dtype=float)
        if coeffs.shape != (g.n_coeffs,):
            raise DegreeMismatchError(f"expected {g.n_coeffs} initial "
                                      f"coefficients, got {coeffs.shape}")
        coeffs = coeffs[modes]
    coeffs[~keep] = 0.0

    r = forms.residual(coeffs)
    rnorm = np.linalg.norm(r)
    history = [rnorm]
    floor = 1e-13 * max(1.0, np.linalg.norm(forms.Y.T @ (forms.q * metric.K)))
    iterations = 0
    for _ in range(_MAX_ITER):
        if rnorm <= floor:
            break
        Q, R = qr(forms.jacobian(coeffs)[:, keep], mode="economic")
        pivots = np.abs(np.diag(R))
        small = int(np.sum(pivots <= 1e-12 * pivots.max()))
        if small:
            raise ConvergenceError(
                "gauge projection failed: reduced Liouville Jacobian is "
                f"rank-deficient ({small} of {R.shape[1]} pivots of its QR "
                "below 1e-12 of the largest)")
        step = solve_triangular(R, Q.T @ -r)
        t, improved = 1.0, False
        for _ in range(30):
            trial = coeffs.copy()
            trial[keep] += t * step
            r_trial = forms.residual(trial)
            if np.linalg.norm(r_trial) < rnorm:
                improved = True
                break
            t *= 0.5
        if not improved:
            break  # least-squares stationary point; strong check decides below
        coeffs, r = trial, r_trial
        rnorm = np.linalg.norm(r)
        history.append(rnorm)
        iterations += 1

    full = np.zeros(g.n_coeffs)
    full[modes] = coeffs
    phi = HarmonicField(g, full)
    conf = ConformalData(metric, phi, np.exp(-2.0 * phi.samples), iterations,
                         forms, residual_history=tuple(history))
    if tol is not None and conf.strong_residual > tol:
        raise ConvergenceError(
            f"uniformization residual {conf.strong_residual:.3e} exceeds "
            f"{tol:.1e}; increase the band limit")
    return conf


def _residual_map(conformal: ConformalData) -> np.ndarray:
    """Exact h-derivative of the discrete weak residual at phi, per node.

    d_h r = -d_h(S phi) + int [ tr h (e^{2 phi} - K) / 2 - K' ] Y dv,
    with the stiffness variation d_h [q gamma^{ij}] = q P^{ij},
    P = tr h gamma^{-1} / 2 - h^{##}, and K' in the weak form of the
    LinearizedLiouville docstring.  Collected per test-function derivative,
    the K tr h terms cancel in the Y weight and both Hessian terms
    contract Hess psi = d_ij psi - Gamma^k_ij d_k psi against
    T = (tr h gamma^{-1} - h^{##}) / 2.  Each weight is linear in h at its
    node: returns those maps, (n, 6, 4), rows weighting the value, d_th,
    d_ph, d_th^2, d_th d_ph and d_ph^2 of the test functions, columns
    taking h_ij at 2 i + j.
    """
    m = conformal.metric
    inv = m.inv_gamma
    dphi = m.grid.gradient(conformal.phi.coeffs)
    e2p = np.exp(2.0 * conformal.phi.samples)
    tr = inv.reshape(-1, 1, 4)                     # tr h = gamma^{kl} h_kl
    hup = np.einsum("nik,njl->nijkl", inv, inv)    # h^{ij} = hup[ij, kl] h_kl
    T = 0.5 * (inv.reshape(-1, 4, 1) * tr - hup.reshape(-1, 4, 4))
    # the gradient weight -(flux + Gamma^k_ij T^{ij}), with
    # flux = tr h gamma^{-1} d phi / 2 - h^{##} d phi
    flux = (0.5 * (inv @ dphi[..., None]) * tr
            - np.einsum("nijkl,nj->nikl", hup, dphi).reshape(-1, 2, 4))
    grad = -(flux + m.christoffel.reshape(-1, 2, 4) @ T)
    return conformal.forms.q[:, None, None] * np.concatenate(
        [0.5 * e2p[:, None, None] * tr, grad, T[:, [0]], 2.0 * T[:, [1]],
         T[:, [3]]], axis=1)


@dataclass
class LinearizedLiouville:
    """Derivative of the uniformization map at a solved base point.

    For a metric path gamma(s) with gamma'(0) = h the solved conformal factor
    moves by phi' = -J_red^+ (d_gamma r)(h) where r is the discrete weak
    residual and J_red its Jacobian in the gauge-reduced coefficients; then
    (lambda^2)' = -2 e^{-2 phi} phi'.  Both the h-derivative and the
    phi-Jacobian are exact derivatives of the discrete residual, so the map
    composes with exact immersion linearizations without consistency loss.

    The curvature variation enters in weak form, integrated by parts so that
    only first and second derivatives of the band-limited test functions
    appear (2 K' = div div h - Delta tr h - K tr h):

        int K' psi dv = 1/2 int [ <h, Hess psi> - tr h Delta psi
                                  - K tr h psi ] dv

    Every term of d_gamma r is linear in h and pairs a nodal weight with a
    chart derivative of the test functions: one fixed (6 x 4) map of h per
    node (_residual_map) gives the weights of the value, two first and
    three second derivatives.  A batch of B variations costs one batched
    product with it, then one (nc, n) @ (n, B) GEMM per derivative of Y.

    The linearization is taken at the metric that conformal solved for,
    with the Galerkin matrices of that solve, over its modes
    (conformal.forms.modes): only that block of the gauge-reduced Jacobian
    is factored, the residual derivative is tested against those
    harmonics alone, and phi' has no other coefficients.  Over one sign
    class that is the full map's block for variations h of the class, at
    a metric with the three reflection symmetries.
    """

    conformal: ConformalData
    _cols: np.ndarray = field(init=False, repr=False)
    _qr: tuple = field(init=False, repr=False)
    _map: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        forms = self.conformal.forms
        modes = forms.modes
        g = forms.metric.grid
        keep = _degree_one_mask(g)[modes]
        # the solved coefficients' positions among all harmonics
        self._cols = np.arange(g.n_coeffs)[modes][keep]
        J = forms.jacobian(self.conformal.phi.coeffs[modes])[:, keep]
        Q, R = qr(J, mode="economic")
        self._qr = (Q, R)
        self._map = _residual_map(self.conformal)

    def solve(self, h: np.ndarray) -> tuple[HarmonicField, np.ndarray]:
        """phi' and (lambda^2)' at the nodes for a metric variation h (n,2,2)."""
        phic, l2p = self.solve_batch(h[..., None])
        return HarmonicField(self.conformal.metric.grid, phic[:, 0]), l2p[:, 0]

    def solve_batch(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized solve over a batch of variations h (n, 2, 2, B)."""
        g = self.conformal.metric.grid
        if h.ndim != 4 or h.shape[:3] != (g.n_nodes, 2, 2):
            raise DegreeMismatchError(f"bad variation batch shape {h.shape}")
        forms = self.conformal.forms
        modes = forms.modes
        w = self._map @ h.reshape(g.n_nodes, 4, h.shape[3])
        # the test functions' value and five derivatives over modes: the
        # forms hold the first three; over every mode all six are views
        tables = (forms.Y, *forms.dY, *(g.node_matrix(*d)[:, modes]
                                        for d in ((2, 0), (1, 1), (0, 2))))
        dres = tables[0].T @ w[:, 0]
        for k in range(1, 6):
            dres += tables[k].T @ w[:, k]
        del w, tables  # dead: free them before the solve's (n, B) arrays
        Q, R = self._qr
        sol = solve_triangular(R, Q.T @ -dres)
        phi_prime = np.zeros((g.n_coeffs, h.shape[3]))
        phi_prime[self._cols] = sol
        l2 = self.conformal.lambda2
        lambda2_prime = -2.0 * l2[:, None] * (forms.Y @ phi_prime[modes])
        return phi_prime, lambda2_prime
