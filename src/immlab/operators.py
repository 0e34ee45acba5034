"""The regularized data map and its linearization.

For an immersion F with induced metric gamma = lambda^2 gamma_0 (gamma_0 the
round representative of the conformal class) and mean curvature H, the map
assembled here sends F to the pair

    ( class rep of gamma,  (1 - eps) lambda^2 + eps H )        additive
    ( class rep of gamma,  lambda^(2(1-eps)) H^(-eps) )        multiplicative

for eps in [0, 1].  The blend mixes length^2 and 1/length; it is treated
formally at unit scale (all bundled experiments run at diameter ~ 2), as
the EpsilonData docstring states.  At eps = 1 the additive blend is H and
the multiplicative blend is 1/H; the conformal factor drops out and no
Liouville solve is performed.

The linearization is assembled column by column from the first-variation
formulas evaluated on closed-form basis fields: the metric variation is the
Lie derivative 2 delta*(X^T) + 2 nu A (exact nodal values, since the basis
fields and their chart derivatives are analytic), the mean-curvature
variation is -Delta nu - |A|^2 nu + X^T(H) with a Galerkin Laplacian, and
the conformal-factor variation reuses the prefactored linearized Liouville
solve with the integrated-by-parts curvature variation.  Each formula is
written once.  The Lie derivative is linear in a tangent field's first jet
(V^k, d_i V^k) at each node, so it is a fixed (4 x 6) map per node
(_tangent_map); the class part of a metric variation, folded to the three
components that the symmetric tensor harmonics read, is a fixed (3 x 4)
map per node (_class_map).  assemble_linearization runs its columns in
panels of _PANEL: it applies the maps to the panel's slice of the vector
basis's jet table (VectorBasis.jets) and to the panel's metric variations,
each as one batched matrix product, and writes the panel's projected
columns into the result, so that its work arrays are panel-sized.  At
eps = 1 nothing else reads the metric variation, so the class map is
composed with the tangent and normal maps once and the class part formed
from the jets and speeds in one product; delta_star and
mean_curvature_prime apply the same kernels to the (n, 6, 1) jets of one
VariationField, so the single-field functions the tests check are the
code that builds the matrix.  The blended slot varies by
c H' + a (lambda^2)', with the blend's slopes (a, c) per node
(_blend_slopes, which principal_symbol reads too); (lambda^2)' is the
linearized Liouville solve, whose residual derivative is a fixed (6 x 4)
map per node (uniformize._residual_map), run on each panel.  Columns live
over an explicit variation basis (gradient and curl vector harmonics for
the tangential part, scalar harmonics for the normal speed; push_forward
maps coordinates over it to the ambient field V^k d_k F + nu N); rows pair
the class slot against trace-free tensor harmonics and analyze the blended
slot in scalar harmonics, both with round quadrature weights.  With degrees
up to L this gives 3(L+1)^2 - 2 domain modes and 3(L+1)^2 - 8 codomain
slots; the structural difference 6 mirrors the continuum index.

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

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky

from .bases import tensor_basis, vector_basis
from .errors import DegreeMismatchError, ImmersionRegularityError
from .geometry import ImmersionMap, SurfaceGeometry
from .spectral import SphereGrid, _ring_dft, coeff_degrees
from .uniformize import (ConformalData, LinearizedLiouville, MetricData,
                         _EVERY_MODE, _WeakForms, conformal_class,
                         solve_liouville)

__all__ = [
    "EpsilonData",
    "VariationField",
    "OperatorMatrix",
    "apply_phi",
    "delta_star",
    "mean_curvature_prime",
    "push_forward",
    "assemble_linearization",
    "principal_symbol",
]


@dataclass(frozen=True)
class EpsilonData:
    """The blended data of an immersion at a fixed eps.

    lambda2 and conformal are None at eps = 1, where the blend does not
    involve the conformal factor.  The blend is formal at unit scale: the
    additive variant adds lambda^2 (length^2) to H (1/length), and the
    multiplicative one multiplies their powers, with no length unit to
    make the two slots commensurate.
    """

    epsilon: float
    variant: str
    class_rep: np.ndarray      # (n, 2, 2), det = 1 per node
    blended: np.ndarray        # (n,)
    H: np.ndarray              # (n,)
    lambda2: np.ndarray | None
    conformal: ConformalData | None


def apply_phi(F: ImmersionMap, epsilon: float, variant: str = "additive",
              *, liouville_tol: float | None = 1e-9,
              sign_class: str | None = None) -> EpsilonData:
    """Evaluate the blended data map at an immersion.

    The multiplicative variant requires H > 0 at every node.  Liouville
    non-convergence propagates from the uniformization solve; liouville_tol
    is the strong-residual certificate (None skips it, see solve_liouville).

    sign_class, when given, names a reflection sign class as in
    assemble_linearization, and the conformal factor is solved over that
    class's scalar harmonics alone (solve_liouville's modes), so that
    conformal.forms run over them.  It is meant for the fully symmetric
    class "+++" at an immersion with the three coordinate reflection
    symmetries, where phi lies in it and the result is the full solve's
    up to rounding; assemble_linearization with the same sign_class takes
    these data.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if variant not in ("additive", "multiplicative"):
        raise ValueError(f"unknown variant {variant!r}")
    modes = _class_harmonics(F.grid, sign_class)
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
    conf = solve_liouville(MetricData.from_immersion(F), tol=liouville_tol,
                           modes=modes)
    l2 = conf.lambda2
    return EpsilonData(epsilon, variant, class_rep,
                       _blend(l2, H, epsilon, variant), H, l2, conf)


def _blend(lambda2: np.ndarray, H: np.ndarray, epsilon: float,
           variant: str) -> np.ndarray:
    """The blended slot from lambda^2 and H (module docstring formulas)."""
    if variant == "additive":
        return (1.0 - epsilon) * lambda2 + epsilon * H
    return lambda2 ** (1.0 - epsilon) * H ** (-epsilon)


def _blend_slopes(lambda2: np.ndarray | None, H: np.ndarray, epsilon: float,
                  variant: str) -> tuple:
    """(d blend / d lambda^2, d blend / d H) of _blend at each node.

    The first variation of the blended slot is c H' + a (lambda^2)' with
    (a, c) these slopes.  Only the multiplicative variant at eps < 1 reads
    lambda2; at eps = 1 it may be None, since the blend is then H or 1/H.
    """
    if variant == "additive":
        return 1.0 - epsilon, epsilon
    if lambda2 is None:
        return 0.0, -1.0 / H**2
    b = _blend(lambda2, H, epsilon, variant)
    return (1.0 - epsilon) * b / lambda2, -epsilon * b / H


@dataclass(frozen=True)
class VariationField:
    """An ambient variation split as X = X^T + nu N along an immersion.

    XT holds contravariant chart components (V^theta, V^phi) of the
    tangential part and dXT their chart derivatives, dXT[n, i, k] =
    d_i V^k (the index order of VectorBasis.dfields); nu holds the normal
    speed at the nodes.  jets stacks XT and dXT into the (n, 6) first jet
    of the tangential part, in the row order of VectorBasis.jets, which is
    what the per-node tangent map (_tangent_map) acts on.  The split is
    exact at the nodes; where nu must be differentiated it is analyzed
    first.
    """

    XT: np.ndarray             # (n, 2)
    dXT: np.ndarray            # (n, 2, 2)
    nu: np.ndarray             # (n,)

    @classmethod
    def from_ambient(cls, F: ImmersionMap, X: np.ndarray) -> "VariationField":
        """Split a nodal ambient field; X is analyzed for its derivatives.

        With V^k = gamma^{kl} (X . d_l F), the chain rule gives
        d_i V^k = d_i gamma^{kl} (X . d_l F)
                  + gamma^{kl} (d_i X . d_l F + X . d_i d_l F),
        evaluated as gamma^{kl} (d_i (X . d_l F) - d_i gamma_lm V^m).  The
        chart derivatives d_i X are those of X's harmonic analysis, exact
        for band-limited fields.
        """
        g = F.grid
        geo = F.geometry
        X = np.asarray(X, dtype=float)
        if X.shape != (g.n_nodes, 3):
            raise DegreeMismatchError(f"ambient field shape {X.shape}")
        cov = np.einsum("nm,nim->ni", X, geo.dF)
        XT = np.einsum("nij,nj->ni", geo.inv_gamma, cov)
        dX = g.gradient(g.analyze(X))
        dcov = (np.einsum("nim,nlm->nil", dX, geo.dF)
                + np.einsum("nm,nilm->nil", X, geo.d2F)
                - np.einsum("nilm,nm->nil", geo.metric_gradient, XT))
        dXT = np.einsum("nkl,nil->nik", geo.inv_gamma, dcov)
        return cls(XT, dXT, np.einsum("nm,nm->n", X, geo.normal))

    @property
    def jets(self) -> np.ndarray:
        return np.concatenate([self.XT, self.dXT.reshape(-1, 4)], axis=1)

    def to_ambient(self, F: ImmersionMap) -> np.ndarray:
        geo = F.geometry
        return (np.einsum("ni,nim->nm", self.XT, geo.dF)
                + self.nu[:, None] * geo.normal)


def _tangent_map(geo: SurfaceGeometry) -> np.ndarray:
    """The tangential first variation of the metric as a map per node.

    The metric varies along a tangent field V by the Lie derivative
    gamma'_ij = V^k d_k gamma_ij + gamma_kj d_i V^k + gamma_ik d_j V^k
    (= 2 delta*(X^T)), linear in the jet (V^k, d_i V^k) at each node.
    Returns those maps, (n, 4, 6): row 2 i + j is the component gamma'_ij,
    the columns are the jet rows of VectorBasis.jets.
    """
    n = geo.gamma.shape[0]
    eye = np.eye(2)
    mixed = (np.einsum("nkj,ai->nijak", geo.gamma, eye)
             + np.einsum("nik,aj->nijak", geo.gamma, eye))
    return np.concatenate(
        [geo.metric_gradient.transpose(0, 2, 3, 1).reshape(n, 4, 2),
         mixed.reshape(n, 4, 4)], axis=2)


def _normal_map(geo: SurfaceGeometry) -> np.ndarray:
    """The normal first variation of the metric per node, gamma' = 2 nu A:
    the (n, 4) components of 2 A flattened as 2 i + j."""
    return 2.0 * geo.second.reshape(-1, 4)


def _class_map(geo: SurfaceGeometry) -> np.ndarray:
    """The variation of the class rep gamma / sqrt(det gamma), per node.

    gamma' maps to (gamma' - 1/2 tr(gamma^-1 gamma') gamma) / sqrt(det
    gamma), the trace-free unit-determinant part, folded: (n, 3, 4), the
    rows giving its components 00, 01 + 10 and 11 (_fold), the columns
    acting on gamma' flattened as 2 i + j.  The tensor harmonics are
    symmetric, so the folded part is all that their pairing reads.
    """
    n = geo.gamma.shape[0]
    P = np.eye(4) - 0.5 * np.einsum("nij,nkl->nijkl", geo.gamma,
                                    geo.inv_gamma).reshape(n, 4, 4)
    P /= np.sqrt(geo.det_gamma)[:, None, None]
    return _fold(P)


def _fold(part: np.ndarray) -> np.ndarray:
    """Tensor components (n, 4, ...), flattened as 2 i + j, folded to the
    three (n, 3, ...) of TensorBasis.tables: 00, 01 + 10 and 11."""
    out = part[:, [0, 1, 3]]
    out[:, 1] += part[:, 2]
    return out


def _tangential_prime(G: np.ndarray, dH: np.ndarray, jets: np.ndarray,
                      gp: np.ndarray, Hp: np.ndarray) -> None:
    """First variation along tangent fields, written into gp and Hp.

    For fields with first jets jets (n, 6, B), in the row order of
    VectorBasis.jets, the metric varies by gamma' = G jet at each node
    (G = _tangent_map(geo)), one batched product of (4 x 6) maps, and H by
    advection, H' = V . dH, with dH the chart gradient of H.  gp (n, k, B)
    and Hp (n, B) receive the result in place.  G may be any (n, k, 6)
    map that a linear map of gamma' composes with _tangent_map: with the
    class map's, P G, gp receives the folded class part instead.
    """
    np.matmul(G, jets, out=gp)
    np.matmul(dH[:, None], jets[:, :2], out=Hp[:, None])


def _normal_prime(N: np.ndarray, geo: SurfaceGeometry, forms: _WeakForms,
                  nu: np.ndarray, Sc: np.ndarray, gp: np.ndarray,
                  Hp: np.ndarray) -> None:
    """First variation along normal speeds, written into gp and Hp.

    For nodal speeds nu (n, B) with coefficients c and Galerkin right-hand
    side Sc = forms.S @ c (nc, B): gamma' = 2 nu A, with N = _normal_map
    (geo), components flattened into gp (n, 4, B), and H' = -Delta nu -
    |A|^2 nu, with the Galerkin Laplacian of forms.  As for
    _tangential_prime, N may be composed with a linear map of gamma'
    (n, k): with the class map's, P N, gp (n, k, B) receives the folded
    class part.
    """
    np.multiply(N[..., None], nu[:, None], out=gp)
    np.subtract(-forms.laplacian(Sc), geo.norm_A_sq[:, None] * nu, out=Hp)


def _first_variation(F: ImmersionMap, V: VariationField
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(gamma', H') of one variation: the two kernels at B = 1, summed."""
    g = F.grid
    geo = F.geometry
    n = g.n_nodes
    gp, Hp = np.empty((2, n, 4, 1)), np.empty((2, n, 1))
    _tangential_prime(_tangent_map(geo), g.gradient(g.analyze(geo.H)),
                      V.jets[..., None], gp[0], Hp[0])
    forms = _WeakForms(MetricData.from_immersion(F))
    Sc = forms.S @ g.analyze(V.nu)[:, None]
    _normal_prime(_normal_map(geo), geo, forms, V.nu[:, None], Sc, gp[1],
                  Hp[1])
    return gp.sum(axis=0).reshape(n, 2, 2), Hp.sum(axis=0)[:, 0]


def delta_star(F: ImmersionMap, V: VariationField
               ) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized strain of a variation, plus its normal bookkeeping.

    Returns (delta*(X^T) + nu A, d nu): the (n, 2, 2) tensor equal to half
    the induced-metric variation, and the (n, 2) chart gradient of the
    normal speed (the normal-valued part of the full ambient strain).
    """
    g = F.grid
    return 0.5 * _first_variation(F, V)[0], g.gradient(g.analyze(V.nu))


def mean_curvature_prime(F: ImmersionMap, V: VariationField) -> np.ndarray:
    """Mean-curvature variation -Delta_gamma nu - |A|^2 nu + X^T(H), nodal.

    The Laplacian is Galerkin (mass-matrix solve) on the analyzed nu, and H
    is analyzed before differentiation, so the result carries the spectral
    truncation of both.
    """
    return _first_variation(F, V)[1]


def push_forward(F: ImmersionMap, v: np.ndarray) -> np.ndarray:
    """Nodal ambient field (n, 3) V^k d_k F + nu N of domain coordinates v.

    v runs over the full domain basis (domain_labels): the vector-basis
    coefficients of V, then the scalar-harmonic coefficients of nu.
    """
    g = F.grid
    vb = vector_basis(g)
    X = np.einsum("ni,nim->nm", vb.fields @ v[:vb.size], F.geometry.dF)
    X += F.geometry.normal * g.synthesize(v[vb.size:])[:, None]
    return X


# columns per panel of assemble_linearization: its column pipeline runs on
# this many at a time, so that its work arrays stay panel-sized.  On one
# core of a 2-core x86 VM, 128 and 256 tied at eps = 1; at eps < 1, where
# each panel reads the linearized Liouville solve's node tables again, 256
# took 10-25% less time at L = 20-32, but its live peak at L = 12 was
# 1.5-1.8 times that of 128
_PANEL = 128


# ADN row orders of the mixed-order system: order 1 for the class rows,
# order 2 for the blended rows
_ROW_ORDERS = {"class": 1, "blended": 2}


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense linearization over labeled domain and codomain bases.

    Domain labels: ("grad", l, m) and ("curl", l, m) for the tangential
    vector-harmonic modes (l >= 1), ("normal", l, m) for normal-speed scalar
    modes (all l).  Codomain labels: ("even"/"odd", l, m) for the trace-free
    tensor slots of the class row block (l >= 2), ("scalar", l, m) for the
    blended rows.  row_orders gives each row's ADN order (_ROW_ORDERS).

    The reports factor matrix once and keep the factorization here
    (fredholm._factorization), so treat an instance as immutable: for
    another matrix, make another instance (dataclasses.replace, which
    starts it without a factorization).
    """

    matrix: np.ndarray
    epsilon: float
    variant: str
    domain_basis: tuple
    codomain_basis: tuple
    _factors: dict = dataclasses.field(default_factory=dict, init=False,
                                       repr=False, compare=False)

    @property
    def row_orders(self) -> np.ndarray:
        return np.array([_ROW_ORDERS["blended"] if lab[0] == "scalar"
                         else _ROW_ORDERS["class"]
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


def project_codomain(g: SphereGrid, class_part: np.ndarray,
                     blended_part: np.ndarray) -> np.ndarray:
    """Pair a (class tensor, blended scalar) pair into codomain coordinates.

    class_part: (n, 2, 2) or (n, 2, 2, B); blended_part: (n,) or (n, B).
    Rows are round L2 pairings by quadrature, of the class part with the
    tensor harmonics and of the blended part with the scalar harmonics.
    The class part is folded to its components (00, 01 + 10, 11) (_fold),
    all that the symmetric tensor harmonics read; it is transformed ring
    by ring (SphereGrid.longitude_dft), and each |m| takes one product
    with its cached table (TensorBasis).  A harmonic has the one longitude
    frequency |m| <= L, below the Nyquist frequency L + 1, so its sum
    against a ring of node values is the pairing of the two ring DFTs at
    |m|: the same quadrature sums, in another order.  The blended part is
    analyzed by SphereGrid.analyze, the same pairing for the scalar
    harmonics.  Every codomain row is formed; the assembly forms only its
    degree cut's rows (_project).
    """
    single = class_part.ndim == 3
    if single:
        class_part = class_part[..., None]
        blended_part = blended_part[..., None]
    folded = _fold(class_part.reshape(g.n_nodes, 4, -1))
    out = _project(g, folded, blended_part, _mode_cut(g),
                   np.empty(folded.shape))
    return out[:, 0] if single else out


def _project(g: SphereGrid, class_part: np.ndarray, blended_part: np.ndarray,
             cut: "_ModeCut", work: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """project_codomain of a batched folded class part (n, 3, B) (_fold)
    and blended part (n, B).

    Only the rows that cut keeps are formed, in codomain order, into out
    (n_rows, B) when it is given, a column slice of a larger matrix say,
    and else into a new array; returns it.  work, a C-contiguous array at
    least class_part's size, receives the longitude DFTs of the class
    part, so that the caller can lend it a buffer it no longer needs.
    """
    b = class_part.shape[-1]
    if out is None:
        out = np.empty((len(cut.codomain), b))
    spec = _ring_dft(g, class_part, work)
    for m, table, rows in cut.tensor:
        out[rows] = table @ spec[2 * m:2 * m + 2].reshape(-1, b)
    out[len(out) - len(cut.blended):] = g.analyze(blended_part)[cut.blended]
    return out


# Names of the reflection sign classes of _sign_classes: the sign of a
# class's modes under x -> -x, y -> -y and z -> -z, in that order
_SIGN_CLASS_NAMES = tuple("".join("-" if k >> bit & 1 else "+"
                                 for bit in range(3)) for k in range(8))


def _sign_classes(labels) -> np.ndarray:
    """The reflection sign class, 0-7, of each basis label (kind, l, m).

    Bit 0 (1, 2) of the class is set when the mode is odd under the
    reflection x -> -x (y -> -y, z -> -z) of the parameter sphere.  Y_lm
    has the sign (-1)^(l+|m|) under z -> -z, -1 under y -> -y exactly
    when m < 0, and (-1)^|m| times its y sign under x -> -x; grad, normal,
    even and scalar modes keep those signs.  curl and odd modes apply the
    rotation J, which a reflection reverses, so they take the opposite
    sign under each reflection.  At an immersion with the three symmetries,
    and at any rigid motion of one, the linearization maps each class to
    itself, so it is block diagonal over the classes.
    """
    kinds = np.array([kind for kind, _, _ in labels])
    l = np.array([l for _, l, _ in labels], dtype=int)
    m = np.array([m for _, _, m in labels], dtype=int)
    y = m < 0
    x = (np.abs(m) % 2 == 1) != y
    z = (l + np.abs(m)) % 2 == 1
    cls = x + 2 * y + 4 * z
    return np.where(np.isin(kinds, ("curl", "odd")), cls ^ 7, cls)


def _block_keys(labels) -> np.ndarray:
    """The key _sign_classes(labels) + 8 |m| of each basis label, by which
    the SVD splits a matrix (fredholm._class_blocks): the linearization at
    a surface of revolution about z, the round sphere in any position
    among them, maps each |m| to itself."""
    return _sign_classes(labels) + 8 * np.abs([m for _, _, m in labels])


@dataclass(frozen=True)
class _ModeCut:
    """The modes of degree <= some degree, and of one reflection sign class
    if one is given, as parts of the cached tables.

    jets holds the vector-basis jet tables (VectorBasis.jets) of the kept
    columns, in domain order.  Each vector family lists its modes in
    (l, m) order, so a cut by degree alone keeps a prefix of every family:
    its tables are views of the prefixes, adjacent ones merged, so that
    with nothing cut there is one view of the whole table.  A cut by class
    keeps scattered columns, gathered once into one table.  The kept
    normal-speed columns and the kept blended rows are the same scalar
    harmonics: those of the cut's class (_class_harmonics, which the
    Galerkin Laplacian of those speeds runs over) of degree <= degree, in
    (l, m) order a prefix of them.  scalar is that prefix, as a slice of
    the class's harmonics, and blended the same harmonics as positions
    among all of them.  tensor holds (m, kept rows of the |m| table,
    their rows in the result); a table lists its modes by degree, so a cut
    by degree alone keeps a prefix of its rows.  The masks select the kept
    columns and rows of the full matrix, and classes gives the block key
    (_block_keys: sign class and |m|) of each kept row and column, the row
    keys first, as the SVD kernel takes them; these arrays are read-only.
    """

    jets: tuple          # (n, 6, k) jet tables of the kept vector columns
    scalar: slice        # normal-speed modes among the class's harmonics
    tensor: tuple        # (m, table rows, result rows) per |m| kept
    blended: np.ndarray  # blended rows among all scalar harmonics
    domain: tuple        # labels of the kept columns
    codomain: tuple      # labels of the kept rows
    domain_mask: np.ndarray     # (n_dom,) bool over domain_labels
    codomain_mask: np.ndarray   # (n_cod,) bool over the full codomain
    classes: tuple       # (row keys, column keys) of the kept modes


def _class_harmonics(g: SphereGrid, sign_class: str | None):
    """The scalar harmonics of the sign class of that name
    (_SIGN_CLASS_NAMES) as an index array, built once per grid; every
    one, _EVERY_MODE (slice(None)), for None.

    At an immersion with the three reflection symmetries the Galerkin
    forms map each class of harmonics to itself, so the forms over one
    class (_WeakForms with these modes) are the full forms' block.
    """
    if sign_class is None:
        return _EVERY_MODE
    if sign_class not in _SIGN_CLASS_NAMES:
        raise ValueError(f"unknown sign class {sign_class!r}")
    code = _SIGN_CLASS_NAMES.index(sign_class)
    return g.cached(("class_harmonics", sign_class), lambda: np.flatnonzero(
        _sign_classes(_scalar_labels(g)) == code))


def _mode_cut(g: SphereGrid, degree: int | None = None,
              sign_class: str | None = None) -> _ModeCut:
    """The cut at degree and at the sign class of that name
    (_SIGN_CLASS_NAMES; None keeps every degree or every class), built
    once per grid."""
    harmonics = _class_harmonics(g, sign_class)
    code = None if sign_class is None else _SIGN_CLASS_NAMES.index(sign_class)

    def frozen(a):
        a.setflags(write=False)
        return a

    def kept(labels):
        keep = np.array([degree is None or l <= degree for _, l, _ in labels])
        if code is not None:
            keep &= _sign_classes(labels) == code
        return frozen(keep)

    def runs(keep):
        # the kept positions as slices of consecutive ones
        edges = np.flatnonzero(np.diff(np.concatenate([[0], keep, [0]])))
        return [slice(a, b) for a, b in zip(edges[::2], edges[1::2])]

    def by_frequency(keep, tables, modes):
        # the kept rows of each |m| table, and their rows in the result
        result_row = np.cumsum(keep) - 1
        out = []
        for m, (table, cols) in enumerate(zip(tables, modes)):
            rows = np.flatnonzero(keep[cols])
            if rows.size:
                part = (table[:rows.size] if rows[-1] == rows.size - 1
                        else frozen(table[rows]))
                out.append((m, part, frozen(result_row[cols[rows]])))
        return tuple(out)

    def build():
        vb, tb = vector_basis(g), tensor_basis(g)
        labels = domain_labels(g)
        targets = tb.labels + _scalar_labels(g)
        cols, rows = kept(labels), kept(targets)
        vec, n_scalar = cols[:vb.size], int(cols[vb.size:].sum())
        if code is None:
            jets = tuple(vb.jets[..., s] for s in runs(vec))
        else:
            jets = (frozen(vb.jets[..., vec]),)
        domain = tuple(lab for lab, k in zip(labels, cols) if k)
        codomain = tuple(lab for lab, k in zip(targets, rows) if k)
        return _ModeCut(
            jets, slice(n_scalar), by_frequency(rows, tb.tables, tb.modes),
            frozen(np.arange(g.n_coeffs)[harmonics][:n_scalar]), domain,
            codomain, cols, rows,
            (frozen(_block_keys(codomain)), frozen(_block_keys(domain))))
    return g.cached(("mode_cut", degree, sign_class), build)


def assemble_linearization(F: ImmersionMap, epsilon: float,
                           variant: str = "additive", *,
                           liouville_tol: float | None = 1e-9,
                           data: EpsilonData | None = None,
                           degree: int | None = None,
                           sign_class: str | None = None) -> OperatorMatrix:
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
    arguments and its H must be F's own (ValueError otherwise).  Its
    conformal factor must be solved over the harmonics of sign_class
    (apply_phi with the same sign_class; every harmonic when it is None);
    data over other harmonics raise ValueError.

    degree, when given, restricts both bases to the modes of degree
    <= degree: only those columns and rows are computed, and the labels
    of the result are the matching subsets, in the same order.  The
    entries are those of the full matrix at the kept labels (up to
    rounding).

    sign_class, when given, names a reflection sign class ("+++" is the
    fully symmetric one; see _sign_classes and SpectralReport.class_counts)
    and restricts both bases further to the modes of that class.  It is
    meant for an immersion with the three coordinate reflection
    symmetries, where the linearization maps each class to itself: there
    the Galerkin Laplacian of the normal speeds is formed over the class's
    scalar harmonics alone, and the entries are those of the full
    matrix's class block up to rounding.  At other immersions the classes
    couple and the result is not a block of the full matrix.  At eps < 1
    the linearized Liouville solve runs over the class's harmonics too,
    on the forms of the data's solve over them.
    """
    g = F.grid
    geo = F.geometry
    if data is None:
        data = apply_phi(F, epsilon, variant, liouville_tol=liouville_tol,
                         sign_class=sign_class)
    elif (data.epsilon, data.variant) != (epsilon, variant):
        raise ValueError(
            f"data is for eps={data.epsilon}, {data.variant!r}; "
            f"assembling eps={epsilon}, {variant!r}")
    elif data.H is not geo.H:
        raise ValueError("data was not evaluated at this immersion")
    modes = _class_harmonics(g, sign_class)
    # before the forms: a grid's first assembly builds the basis tables
    # here, and built after the forms they left the L = 20 index
    # workload's peak RSS at 240 MB against 235 MB, in 10 of 10 runs
    cut = _mode_cut(g, degree, sign_class)
    conformal = data.conformal
    if conformal is None:
        forms = _WeakForms(MetricData.from_immersion(F), modes)
    else:
        forms = conformal.forms
        if forms.modes is not modes:
            raise ValueError("data was uniformized over another sign "
                             f"class than {sign_class!r}")
    Y, S = forms.Y[:, cut.scalar], forms.S[:, cut.scalar]
    # the column sources in domain order, as (first column, end, jet
    # table): each jet table of the cut's vector columns, then the normal
    # speeds (None)
    bounds = np.cumsum([0] + [j.shape[2] for j in cut.jets] + [Y.shape[1]])
    sources = list(zip(bounds[:-1].tolist(), bounds[1:].tolist(),
                       cut.jets + (None,)))
    n = g.n_nodes
    n_dom = int(bounds[-1])

    G, N, P = _tangent_map(geo), _normal_map(geo), _class_map(geo)
    dH = g.gradient(g.analyze(geo.H))
    a, c = _blend_slopes(data.lambda2, geo.H, epsilon, variant)
    a, c = np.reshape(a, (-1, 1)), np.reshape(c, (-1, 1))
    lin = None if conformal is None else LinearizedLiouville(conformal)
    if lin is None:
        # nothing reads gamma' but the class part: the kernels form the
        # class part with the composed maps, one product per column
        G, N = P @ G, (P @ N[..., None])[..., 0]
    out = np.empty((len(cut.codomain), n_dom))
    # the panel buffers, reused: the folded class part, the blended slot
    # and a work buffer for the ring DFTs, which first holds gamma' where
    # the linearized Liouville solve reads it
    width = min(_PANEL, n_dom)
    crp_buf = np.empty(n * 3 * width)
    work_buf = np.empty(n * G.shape[1] * width)
    hp_buf = np.empty(n * width)
    for first in range(0, n_dom, width):
        b = min(width, n_dom - first)
        crp = crp_buf[:n * 3 * b].reshape(n, 3, b)
        gp = crp if lin is None else work_buf[:n * 4 * b].reshape(n, 4, b)
        Hp = hp_buf[:n * b].reshape(n, b)
        for lo, hi, jets in sources:
            start, stop = max(lo, first), min(hi, first + b)
            if start >= stop:
                continue
            cols, src = (slice(start - first, stop - first),
                         slice(start - lo, stop - lo))
            if jets is None:
                _normal_prime(N, geo, forms, Y[:, src], S[:, src],
                              gp[..., cols], Hp[:, cols])
            else:
                _tangential_prime(G, dH, jets[..., src], gp[..., cols],
                                  Hp[:, cols])
        # the blended slot's variation c H' + a (lambda^2)', formed in Hp
        Hp *= c
        if lin is not None:
            Hp += a * lin.solve_batch(gp.reshape(n, 2, 2, b))[1]
            np.matmul(P, gp, out=crp)
        _project(g, crp, Hp, cut, work_buf, out[:, first:first + b])
    return OperatorMatrix(out, epsilon, variant, cut.domain, cut.codomain)


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

    The blended row is (a xhat, c), with the slopes (a, c) of the blend in
    lambda^2 and H that the assembly uses (_blend_slopes).  The
    multiplicative variant at eps < 1 needs the conformal factor (pass
    data to avoid re-solving Liouville per call).
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,) or not np.any(xi != 0.0):
        raise ValueError("xi must be a nonzero 2-covector")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if variant not in ("additive", "multiplicative"):
        raise ValueError(f"unknown variant {variant!r}")
    gamma = F.geometry.gamma[node]
    Lc = cholesky(gamma, lower=True)
    xhat = np.linalg.solve(Lc, xi)
    xhat = xhat / np.linalg.norm(xhat)

    S = np.zeros((3, 3))
    S[0, 0], S[0, 1] = xhat[0], -xhat[1]
    S[1, 0], S[1, 1] = xhat[1], xhat[0]
    S[:2] /= np.sqrt(2.0)
    lambda2 = None
    if variant == "multiplicative" and epsilon < 1.0:
        if data is None:
            data = apply_phi(F, epsilon, variant)
        lambda2 = data.lambda2[node]
    a, c = _blend_slopes(lambda2, F.geometry.H[node], epsilon, variant)
    S[2, :2] = a * xhat
    S[2, 2] = c
    smin = float(np.linalg.svd(S, compute_uv=False)[-1])
    return S, smin
