"""The regularized data map and its linearization.

For an immersion F with induced metric gamma = lambda^2 gamma_0 (gamma_0 the
round representative of the conformal class) and mean curvature H, the map
assembled here sends F to the pair

    ( class rep of gamma,  (1 - eps) lambda^2 + eps H )        additive
    ( class rep of gamma,  lambda^(2(1-eps)) H^(-eps) )        multiplicative

for eps in [0, 1].  The blend mixes length^2 and 1/length; it is treated
formally at unit scale (all bundled experiments run at diameter ~ 2), and
EpsilonData records that convention.  At eps = 1 the additive blend is H and
the multiplicative blend is 1/H; the conformal factor drops out and no
Liouville solve is performed.

The linearization is assembled column by column from the first-variation
formulas evaluated on closed-form basis fields: the metric variation is the
Lie derivative 2 delta*(X^T) + 2 nu A (exact nodal values, since the basis
fields and their chart derivatives are analytic), the mean-curvature
variation is -Delta nu - |A|^2 nu + X^T(H) with a Galerkin Laplacian, and
the conformal-factor variation reuses the prefactored linearized Liouville
solve with the integrated-by-parts curvature variation.  Columns live over
an explicit variation basis (gradient and curl vector harmonics for the
tangential part, scalar harmonics for the normal speed); rows pair the
class slot against trace-free tensor harmonics and analyze the blended slot
in scalar harmonics, both with round quadrature weights.  With degrees up to
L this gives 3(L+1)^2 - 2 domain modes and 3(L+1)^2 - 8 codomain slots; the
structural difference 6 mirrors the continuum index.

Finite differences of apply_phi probe coefficient perturbations of the
immersion, so they see a basis field only through its degree-L ambient
analysis.  A field of degree l pushed through dF and N has ambient degree
l + deg(F); consistency checks therefore probe directions of low enough
degree to be exactly representable (the analysis is then lossless and the
columns match finite differences to truncation error).  Top-degree modes
are beyond coefficient-space resolution -- the pair grad Y_Lm, Y_Lm N even
analyzes to parallel coefficient vectors -- which is why the columns are
evaluated on the fields themselves rather than on their truncations.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky

from .bases import TensorBasis, tensor_basis, vector_basis
from .errors import DegreeMismatchError, ImmersionRegularityError
from .geometry import ImmersionMap, SurfaceGeometry
from .spectral import HarmonicField, SphereGrid, coeff_degrees
from .uniformize import (ConformalData, LinearizedLiouville, MetricData,
                         _WeakForms, conformal_class, solve_liouville)

__all__ = [
    "EpsilonData",
    "VariationField",
    "OperatorMatrix",
    "apply_phi",
    "delta_star",
    "mean_curvature_prime",
    "metric_strain",
    "assemble_linearization",
    "principal_symbol",
]


@dataclass(frozen=True)
class EpsilonData:
    """The blended data of an immersion at a fixed eps.

    lambda2 and conformal are None at eps = 1, where the blend does not
    involve the conformal factor.  formal_units documents that the additive
    blend adds length^2 to 1/length at unit scale.
    """

    epsilon: float
    variant: str
    class_rep: np.ndarray      # (n, 2, 2), det = 1 per node
    blended: np.ndarray        # (n,)
    H: np.ndarray              # (n,)
    lambda2: np.ndarray | None
    conformal: ConformalData | None
    formal_units: str = "unit-scale blend"


def apply_phi(F: ImmersionMap, epsilon: float, variant: str = "additive",
              *, liouville_tol: float | None = 1e-9) -> EpsilonData:
    """Evaluate the blended data map at an immersion.

    The multiplicative variant requires H > 0 at every node.  Liouville
    non-convergence propagates from the uniformization solve; liouville_tol
    is the strong-residual certificate (None skips it, see solve_liouville).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if variant not in ("additive", "multiplicative"):
        raise ValueError(f"unknown variant {variant!r}")
    geo = F.geometry
    H = geo.H
    if variant == "multiplicative" and np.any(H <= 0.0):
        raise ImmersionRegularityError(
            "multiplicative blend needs H > 0 everywhere; "
            f"min H = {H.min():.3e}")
    class_rep = conformal_class(geo.gamma)
    if epsilon == 1.0:
        blended = H if variant == "additive" else 1.0 / H
        return EpsilonData(epsilon, variant, class_rep, blended, H, None, None)
    conf = solve_liouville(MetricData.from_immersion(F), tol=liouville_tol)
    l2 = conf.lambda2
    if variant == "additive":
        blended = (1.0 - epsilon) * l2 + epsilon * H
    else:
        blended = l2 ** (1.0 - epsilon) * H ** (-epsilon)
    return EpsilonData(epsilon, variant, class_rep, blended, H, l2, conf)


@dataclass(frozen=True)
class VariationField:
    """An ambient variation split as X = X^T + nu N along an immersion.

    XT holds contravariant chart components (V^theta, V^phi) of the
    tangential part; nu is the normal speed.
    """

    XT: np.ndarray             # (n, 2)
    nu: HarmonicField

    @classmethod
    def from_ambient(cls, F: ImmersionMap, X: np.ndarray) -> "VariationField":
        geo = F.geometry
        X = np.asarray(X, dtype=float)
        if X.shape != (F.grid.n_nodes, 3):
            raise DegreeMismatchError(f"ambient field shape {X.shape}")
        cov = np.einsum("nm,nim->ni", X, geo.dF)
        XT = np.einsum("nij,nj->ni", geo.inv_gamma, cov)
        nu = HarmonicField.from_samples(F.grid, np.einsum("nm,nm->n", X, geo.normal))
        return cls(XT, nu)

    def to_ambient(self, F: ImmersionMap) -> np.ndarray:
        geo = F.geometry
        return (np.einsum("ni,nim->nm", self.XT, geo.dF)
                + self.nu.samples[:, None] * geo.normal)


def metric_strain(F: ImmersionMap, X: np.ndarray) -> np.ndarray:
    """Half the metric variation (1/2) d/ds [ (F + sX)^* g_Eucl ] at s = 0.

    X is an ambient field given at the nodes; it is analyzed to coefficients
    so the chart derivatives are exact for band-limited fields.  The result
    equals the tangential symmetrized strain of X^T plus nu A.
    """
    g = F.grid
    geo = F.geometry
    Xc = np.stack([g.analyze(np.asarray(X, dtype=float)[:, mu]) for mu in range(3)])
    dX = np.stack([g.node_matrix(1, 0) @ Xc.T, g.node_matrix(0, 1) @ Xc.T], axis=1)
    gp = (np.einsum("nim,njm->nij", dX, geo.dF)
          + np.einsum("nim,njm->nij", geo.dF, dX))
    return 0.5 * gp


def delta_star(F: ImmersionMap, V: VariationField
               ) -> tuple[np.ndarray, np.ndarray]:
    """Tangential symmetrized strain of a variation, plus its normal bookkeeping.

    Returns ((delta* X)^T, d nu): the (n, 2, 2) tensor equal to half the
    induced-metric variation, and the (n, 2) chart gradient of the normal
    speed (the normal-valued part of the full ambient strain).
    """
    strain = metric_strain(F, V.to_ambient(F))
    dnu = np.stack([V.nu.deriv(1, 0), V.nu.deriv(0, 1)], axis=1)
    return strain, dnu


def mean_curvature_prime(F: ImmersionMap, V: VariationField) -> np.ndarray:
    """Mean-curvature variation by the first-variation formula.

    Evaluates -Delta_gamma nu - |A|^2 nu + X^T(H) at the nodes.  The
    Laplacian is Galerkin (mass-matrix solve), and H is analyzed before
    differentiation, so the result carries the spectral truncation of H.
    """
    g = F.grid
    geo = F.geometry
    forms = _WeakForms(MetricData.from_immersion(F))
    lap_nu = forms.laplacian(forms.S @ V.nu.coeffs[:, None])[:, 0]
    advect = np.einsum("ni,ni->n", V.XT, _analyzed_gradient(g, geo.H))
    return -lap_nu - geo.norm_A_sq * V.nu.samples + advect


def _analyzed_gradient(g: SphereGrid, f: np.ndarray) -> np.ndarray:
    """Chart gradient (n, 2) of a nodal scalar via harmonic analysis."""
    c = g.analyze(f)
    return np.stack([g.synthesize(c, 1, 0), g.synthesize(c, 0, 1)], axis=1)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense linearization over labeled domain and codomain bases.

    Domain labels: ("grad", l, m) and ("curl", l, m) for the tangential
    vector-harmonic modes (l >= 1), ("normal", l, m) for normal-speed scalar
    modes (all l).  Codomain labels: ("even"/"odd", l, m) for the trace-free
    tensor slots of the class row block (l >= 2), ("scalar", l, m) for the
    blended rows.  adn_weights records the mixed-order bookkeeping: order 1
    for class rows, order 2 for blended rows.
    """

    matrix: np.ndarray
    epsilon: float
    variant: str
    domain_basis: tuple
    codomain_basis: tuple
    F: ImmersionMap
    adn_weights: dict = field(default_factory=lambda: {"class": 1, "blended": 2})

    @property
    def row_orders(self) -> np.ndarray:
        return np.array([self.adn_weights["blended"] if lab[0] == "scalar"
                         else self.adn_weights["class"]
                         for lab in self.codomain_basis])

    @property
    def structural_index(self) -> int:
        return self.matrix.shape[1] - self.matrix.shape[0]


def domain_labels(g: SphereGrid) -> tuple:
    def build():
        ls, ms = coeff_degrees(g.L)
        return vector_basis(g).labels + tuple(
            ("normal", int(l), int(m)) for l, m in zip(ls, ms))
    return g.cached("domain_labels", build)


def project_codomain(g: SphereGrid, tb: TensorBasis, class_part: np.ndarray,
                     blended_part: np.ndarray, *,
                     degree: int | None = None) -> np.ndarray:
    """Pair a (class tensor, blended scalar) pair into codomain coordinates.

    class_part: (n, 2, 2) or (n, 2, 2, B); blended_part: (n,) or (n, B).
    Rows use the round inner product and quadrature weights, so each block
    is one product with a cached table.  With degree set, only the rows of
    degree <= degree are formed, in codomain order.
    """
    single = class_part.ndim == 3
    if single:
        class_part = class_part[..., None]
        blended_part = blended_part[..., None]
    flat = class_part.reshape(-1, class_part.shape[-1])
    cut = _degree_cut(g, degree)
    out = np.vstack([tb.weighted[:, s].T @ flat for s in cut.tensor]
                    + [g.node_matrix(0, 0)[:, cut.scalar].T
                       @ (g.weights[:, None] * blended_part)])
    return out[:, 0] if single else out


@dataclass(frozen=True)
class _DegreeCut:
    """The modes of degree <= some degree, as slices of the cached tables.

    Each family lists its modes in (l, m) order, so a cut keeps a prefix
    of every family.  Adjacent slices are merged: with nothing cut, each
    table is a single slice.
    """

    vector: tuple        # slices of the vector basis columns
    tensor: tuple        # slices of the tensor basis columns
    scalar: slice        # normal-speed and blended modes
    domain: tuple        # labels of the kept columns
    codomain: tuple      # labels of the kept rows


def _degree_cut(g: SphereGrid, degree: int | None) -> _DegreeCut:
    """The cut at degree (None keeps every mode), built once per grid."""
    def slices(labels):
        out = []
        for i, (_, l, _) in enumerate(labels):
            if degree is not None and l > degree:
                continue
            if out and out[-1].stop == i:
                out[-1] = slice(out[-1].start, i + 1)
            else:
                out.append(slice(i, i + 1))
        return tuple(out)

    def select(labels):
        return sum((labels[s] for s in slices(labels)), ())

    def build():
        tb = tensor_basis(g)
        scalar, = slices(_scalar_labels(g))
        return _DegreeCut(slices(vector_basis(g).labels), slices(tb.labels),
                          scalar, select(domain_labels(g)),
                          select(tb.labels + _scalar_labels(g)))
    return g.cached(("degree_cut", degree), build)


def _blended_prime(data: EpsilonData, lin: LinearizedLiouville | None,
                   gamma_prime: np.ndarray, H_prime: np.ndarray) -> np.ndarray:
    """Blended-slot variation from batched metric and H variations.

    The conformal-factor part comes from the linearized Liouville solve on
    gamma_prime (lin is None exactly when eps = 1).
    """
    eps, variant = data.epsilon, data.variant
    if eps == 1.0:
        if variant == "additive":
            return H_prime
        return -H_prime / data.H[:, None] ** 2
    _, l2p = lin.solve_batch(gamma_prime)
    if variant == "additive":
        return (1.0 - eps) * l2p + eps * H_prime
    log_prime = ((1.0 - eps) * l2p / data.lambda2[:, None]
                 - eps * H_prime / data.H[:, None])
    return data.blended[:, None] * log_prime


def _metric_gradient(geo: SurfaceGeometry) -> np.ndarray:
    """Chart derivatives of the induced metric, (n, 2, 2, 2) = d_k gamma_ij."""
    return (np.einsum("nkia,nja->nkij", geo.d2F, geo.dF)
            + np.einsum("nia,nkja->nkij", geo.dF, geo.d2F))


def assemble_linearization(F: ImmersionMap, epsilon: float,
                           variant: str = "additive", *,
                           liouville_tol: float | None = 1e-9,
                           data: EpsilonData | None = None,
                           degree: int | None = None) -> OperatorMatrix:
    """Assemble the dense linearization of apply_phi at an immersion.

    Column j is the first-variation image of basis field j: the class rows
    pair the trace-free unit-determinant part of the metric variation
    2 delta*(X^T) + 2 nu A against tensor harmonics, the blended rows
    analyze (1 - eps) (lambda^2)' + eps H' (log-composed derivative for the
    multiplicative variant).  All nodal ingredients are exact on the basis
    fields; see the module docstring for how this relates to coefficient-
    space finite differences.

    data, when given, must be apply_phi(F, epsilon, variant) already
    evaluated at this F (a Newton iterate whose residual was just taken,
    say); it is used as is instead of uniformizing again, and
    liouville_tol is then ignored.  Its epsilon and variant must match the
    arguments and its H must be F's own (ValueError otherwise).

    degree, when given, restricts both bases to the modes of degree
    <= degree: only those columns and rows are computed, and the labels
    of the result are the matching subsets, in the same order.  The
    entries are those of the full matrix at the kept labels (up to
    rounding).
    """
    g = F.grid
    geo = F.geometry
    if data is None:
        data = apply_phi(F, epsilon, variant, liouville_tol=liouville_tol)
    elif (data.epsilon, data.variant) != (epsilon, variant):
        raise ValueError(
            f"data is for eps={data.epsilon}, {data.variant!r}; "
            f"assembling eps={epsilon}, {variant!r}")
    elif data.H is not geo.H:
        raise ValueError("data was not evaluated at this immersion")
    if data.conformal is None:
        lin = None
        forms = _WeakForms(MetricData.from_immersion(F))
    else:
        lin = LinearizedLiouville(data.conformal)
        forms = data.conformal.forms

    vb = vector_basis(g)
    cut = _degree_cut(g, degree)
    n_vec = sum(s.stop - s.start for s in cut.vector)
    Y = g.node_matrix(0, 0)[:, cut.scalar]
    n_dom = n_vec + Y.shape[1]
    gp = np.empty((g.n_nodes, 2, 2, n_dom))
    Hp = np.empty((g.n_nodes, n_dom))

    # tangential block, one slice of the basis per family: Lie-derivative
    # metric variation, advected H; built in place so that no block-sized
    # temporary outlives its use
    dgam = _metric_gradient(geo)
    dH = _analyzed_gradient(g, geo.H)
    start = 0
    for s in cut.vector:
        cols = slice(start, start + s.stop - s.start)
        mixed = np.einsum("nkj,nikb->nijb", geo.gamma, vb.dfields[..., s])
        tangential = gp[..., cols]
        np.einsum("nkb,nkij->nijb", vb.fields[..., s], dgam, out=tangential)
        tangential += mixed
        tangential += mixed.transpose(0, 2, 1, 3)
        del mixed, tangential
        Hp[:, cols] = np.einsum("nkb,nk->nb", vb.fields[..., s], dH)
        start = cols.stop

    # normal block: gamma' = 2 nu A, H' = -Delta nu - |A|^2 nu
    gp[..., n_vec:] = 2.0 * geo.second[..., None] * Y[:, None, None, :]
    Hp[:, n_vec:] = (-forms.laplacian(forms.S[:, cut.scalar])
                     - geo.norm_A_sq[:, None] * Y)

    bp = _blended_prime(data, lin, gp, Hp)
    trg = np.einsum("nij,nijb->nb", geo.inv_gamma, gp)
    crp = 0.5 * trg[:, None, None, :] * geo.gamma[..., None]
    np.subtract(gp, crp, out=crp)
    crp /= np.sqrt(geo.det_gamma)[:, None, None, None]
    del gp

    rows = project_codomain(g, tensor_basis(g), crp, bp, degree=degree)
    return OperatorMatrix(rows, epsilon, variant, cut.domain, cut.codomain, F)


def _scalar_labels(g: SphereGrid) -> tuple:
    def build():
        ls, ms = coeff_degrees(g.L)
        return tuple(("scalar", int(l), int(m)) for l, m in zip(ls, ms))
    return g.cached("scalar_labels", build)


def principal_symbol(F: ImmersionMap, node: int, xi: np.ndarray,
                     epsilon: float, variant: str = "additive",
                     data: EpsilonData | None = None
                     ) -> tuple[np.ndarray, float]:
    """Mixed-order principal symbol at one node and covector direction.

    Rows: two trace-free class components (order 1) and the blended slot
    (order 2 in nu); columns: tangential components of X in the gamma-
    orthonormal frame, then nu.  xi is normalized to unit gamma-length, so
    each row is evaluated at its own leading order on the unit covector.
    The nu column of the blended row carries the factor eps: at eps = 0 the
    whole nu column vanishes and the symbol is singular in every direction
    (the blended row then reduces to the first-order conformal-factor part).
    Returns the 3x3 matrix and its smallest singular value.

    The multiplicative variant needs blended data (pass data to avoid
    re-solving Liouville per call).
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,) or not np.any(xi != 0.0):
        raise ValueError("xi must be a nonzero 2-covector")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    gamma = F.geometry.gamma[node]
    Lc = cholesky(gamma, lower=True)
    xhat = np.linalg.solve(Lc, xi)
    xhat = xhat / np.linalg.norm(xhat)

    S = np.zeros((3, 3))
    S[0, 0], S[0, 1] = xhat[0], -xhat[1]
    S[1, 0], S[1, 1] = xhat[1], xhat[0]
    S[:2] /= np.sqrt(2.0)
    if variant == "additive":
        S[2, 0] = (1.0 - epsilon) * xhat[0]
        S[2, 1] = (1.0 - epsilon) * xhat[1]
        S[2, 2] = epsilon
    elif variant == "multiplicative":
        if epsilon == 1.0:
            H = F.geometry.H[node]
            S[2, 2] = -epsilon / H
        else:
            if data is None:
                data = apply_phi(F, epsilon, variant)
            b = data.blended[node]
            l2 = data.lambda2[node]
            S[2, 0] = (1.0 - epsilon) * (b / l2) * xhat[0]
            S[2, 1] = (1.0 - epsilon) * (b / l2) * xhat[1]
            S[2, 2] = -epsilon * b / F.geometry.H[node]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    smin = float(np.linalg.svd(S, compute_uv=False)[-1])
    return S, smin
