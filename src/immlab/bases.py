"""Vector and trace-free tensor harmonics on the round sphere.

Tangent fields and symmetric 2-tensors are stored in chart components over
the colatitude/longitude chart.  Vector fields carry contravariant indices
(V^theta, V^phi); tensors carry covariant indices (T_ij).  All families are
orthonormal for the round metric and its volume element.

Vector families, defined for degree l >= 1:

    grad: grad_0 Y_lm / sqrt(l(l+1))
    curl: the 90-degree rotation of grad (divergence-free)

Tensor families, defined for degree l >= 2 (lower degrees vanish):

    even: trace-free Hessian, Hess_0 Y_lm + (l(l+1)/2) g_0 Y_lm
    odd:  symmetrized covariant derivative of the curl field

scaled to unit L2 norm by quadrature.  The exact norm of the unscaled even
family is sqrt(l(l+1)(l(l+1)-2)/2).

Each basis is built once per grid and stored on it (SphereGrid.cached), so
every caller shares one instance: its arrays are read-only and its labels
are tuples.  The vector basis keeps one jet table, its fields with their
chart derivatives, filled in place; the tensor basis keeps only its
per-|m| tables, the ones that project a tensor field onto it, over the
three components 00, 01 and 11 of a symmetric tensor.  They are cut from
the ring DFTs of the weighted basis tensors, which are built in one array
(_weighted_tensor_fields) and transformed one frequency at a time, so that
the build holds about one (n, 4, n_ten) array at its peak; component 10 is
left out only as the tables are cut.  The same per-|m| amplitudes of the
vector jets and of the scalar harmonics (_frequency_jets) serve the
assembly at surfaces of revolution; they are built on its first use.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import SphereGrid, _frequency_tables, coeff_degrees

__all__ = [
    "VectorBasis",
    "TensorBasis",
    "vector_basis",
    "tensor_basis",
]


@dataclass(frozen=True)
class VectorBasis:
    """Orthonormal tangent-field basis: all grad modes, then all curl modes.

    jets holds each basis field's first jet at the nodes, one read-only
    (n, 6, n_vec) table: rows 0 and 1 are the contravariant components
    (V^theta, V^phi), row 2 + 2 i + k the chart derivative d_i V^k, exact
    analytic values.  fields and dfields are views into it, shaped
    (n, 2, n_vec) and (n, 2, 2, n_vec) with dfields[n, i, k, b] = d_i V^k.
    The first variation is a fixed linear map of the jet at each node
    (operators._tangent_map), so the assembly applies it to whole slices
    of this table.
    """

    grid: SphereGrid
    jets: np.ndarray            # (n, 6, n_vec)
    labels: tuple               # (family, l, m)

    @property
    def fields(self) -> np.ndarray:
        return self.jets[:, :2]

    @property
    def dfields(self) -> np.ndarray:
        return self.jets[:, 2:].reshape(self.jets.shape[0], 2, 2, -1)

    @property
    def size(self) -> int:
        return self.jets.shape[2]


def vector_basis(g: SphereGrid) -> VectorBasis:
    return g.cached("vector_basis", lambda: _build_vector_basis(g))


def _frequency_jets(g: SphereGrid) -> tuple:
    """Per-|m| ring amplitudes of the first jets of the vector basis and
    of the scalar harmonics, built once per grid: (jet tables, jet modes,
    harmonic tables, harmonic modes).

    Each is a pair of spectral._frequency_tables: per m, the modes of
    frequency m by degree (vector-basis label indices; coefficient
    indices) and their amplitudes of cos(m ph) and sin(m ph) on each ring,
    of the six jet rows of VectorBasis.jets, and of a harmonic's value, d_th
    and d_ph.  The assembly at a geometry that is constant along the rings
    runs its kernels on them (operators._assemble_by_frequency).
    """
    def build():
        ls, ms = coeff_degrees(g.L)
        h_tables, h_modes = _frequency_tables(
            g, np.stack([g.node_matrix(0, 0), g.node_matrix(1, 0),
                         g.node_matrix(0, 1)], axis=1), np.abs(ms), ls)
        sel = ls >= 1
        j_tables, j_modes = _frequency_tables(
            g, vector_basis(g).jets, np.tile(np.abs(ms[sel]), 2),
            np.tile(ls[sel], 2))
        return j_tables, j_modes, h_tables, h_modes
    return g.cached("frequency_jets", build)


def _build_vector_basis(g: SphereGrid) -> VectorBasis:
    ls, ms = coeff_degrees(g.L)
    sel = ls >= 1
    ll = (ls * (ls + 1.0))[sel]
    s, c = np.sin(g.theta)[:, None], np.cos(g.theta)[:, None]
    Yt, Yp = g.node_matrix(1, 0)[:, sel], g.node_matrix(0, 1)[:, sel]
    # grad_0 Y has contravariant components (Yt, Gp): g0^{theta theta} = 1,
    # g0^{phi phi} = 1/sin^2
    Gp = Yp / s**2
    scale = 1.0 / np.sqrt(ll)
    n = g.n_nodes
    k = int(sel.sum())
    jets = np.empty((n, 6, 2 * k))
    fields = jets[:, :2]
    fields[:, 0, :k] = Yt * scale
    fields[:, 1, :k] = Gp * scale
    # rotation J: orthonormal components (a, b) -> (-b, a); in chart
    # components (V^th, V^ph) -> (-sin(th) V^ph, V^th / sin(th))
    fields[:, 0, k:] = -s * Gp * scale
    fields[:, 1, k:] = Yt * scale / s
    labels = tuple([("grad", int(l), int(m)) for l, m in zip(ls[sel], ms[sel])]
                   + [("curl", int(l), int(m)) for l, m in zip(ls[sel], ms[sel])])

    Ytt = g.node_matrix(2, 0)[:, sel]
    Ytp = g.node_matrix(1, 1)[:, sel]
    Ypp = g.node_matrix(0, 2)[:, sel]
    dfields = jets[:, 2:].reshape(n, 2, 2, 2 * k)
    dfields[:, 0, 0, :k] = Ytt * scale
    dfields[:, 1, 0, :k] = Ytp * scale
    dfields[:, 0, 1, :k] = (Ytp - 2.0 * (c / s) * Yp) / s**2 * scale
    dfields[:, 1, 1, :k] = Ypp / s**2 * scale
    dfields[:, 0, 0, k:] = (-Ytp / s + c * Yp / s**2) * scale
    dfields[:, 1, 0, k:] = -Ypp / s * scale
    dfields[:, 0, 1, k:] = (Ytt / s - c * Yt / s**2) * scale
    dfields[:, 1, 1, k:] = Ytp / s * scale
    jets.setflags(write=False)
    return VectorBasis(g, jets, labels)


@dataclass(frozen=True)
class TensorBasis:
    """Orthonormal trace-free symmetric 2-tensor basis on the round sphere.

    Only the tables that pair a tensor field with the basis are kept.
    With both indices raised by the round metric and times the quadrature
    weights, each basis tensor is in every chart component a ring profile
    times cos(|m| ph) or sin(|m| ph); tables[m] holds those amplitudes for
    the tensors of frequency m, whose label indices modes[m] lists by
    degree (_frequency_tables gives the layout), of the three components
    T^00, T^01 and T^11.  Every basis tensor is symmetric, so its pairing
    with a covariant field c is T^00 c_00 + T^01 (c_01 + c_10) + T^11 c_11:
    paired with the ring DFTs at m of the folded field (c_00, c_01 + c_10,
    c_11), symmetric or not, its rows are the round L2 pairings.
    """

    grid: SphereGrid
    labels: tuple               # (family, l, m)
    tables: tuple               # per |m|: (n_m, 6 n_theta), read-only
    modes: tuple                # per |m|: (n_m,) label indices, by degree

    @property
    def size(self) -> int:
        return len(self.labels)


def tensor_basis(g: SphereGrid) -> TensorBasis:
    return g.cached("tensor_basis", lambda: _build_tensor_basis(g))


def _weighted_tensor_fields(g: SphereGrid) -> np.ndarray:
    """The basis tensors, both indices raised, times the quadrature weights.

    Contravariant chart components (n, 2, 2, n_ten), in label order; the
    round L2 pairing of a covariant field T with basis tensor b is the sum
    of this array's column b times T over nodes and indices.  Not cached:
    the tensor basis keeps only its per-frequency tables.

    Built in the one result array: the covariant even tensors first, from
    the round Hessian Hess_0 Y_ij = d_ij Y - Gamma0^k_ij d_k Y, then the odd
    ones from them, then both indices raised and the scale applied in
    place, so that besides the result only (n, n_ten) temporaries live.
    """
    ls, _ = coeff_degrees(g.L)
    sel = slice(int(np.searchsorted(ls, 2)), None)   # the degrees l >= 2
    ll = (ls * (ls + 1.0))[sel]
    k = ll.size
    s, c = np.sin(g.theta)[:, None], np.cos(g.theta)[:, None]
    s2 = s * s
    Y = g.node_matrix(0, 0)[:, sel]
    out = np.empty((g.n_nodes, 2, 2, 2 * k))
    even, odd = out[..., :k], out[..., k:]

    # even family: Hess_0 Y + (l(l+1)/2) g0 Y, with Gamma0^th_phph = -s c
    # and Gamma0^ph_thph = c/s
    even[:, 0, 0] = g.node_matrix(2, 0)[:, sel]
    even[:, 0, 0] += 0.5 * ll * Y
    np.subtract(g.node_matrix(1, 1)[:, sel],
                (c / s) * g.node_matrix(0, 1)[:, sel], out=even[:, 0, 1])
    even[:, 1, 0] = even[:, 0, 1]
    np.add(g.node_matrix(0, 2)[:, sel], s * c * g.node_matrix(1, 0)[:, sel],
           out=even[:, 1, 1])
    even[:, 1, 1] += 0.5 * ll * (s2 * Y)

    # odd family: J applied to the first index of the even tensor, (JT)_ij =
    # J^k_i T_kj with J^ph_th = 1/s, J^th_ph = -s (same rotation as the curl
    # fields).  J is parallel, so this equals Sym grad(J grad Y) up to the
    # normalization; trace-freeness of T keeps JT symmetric.
    np.divide(even[:, 0, 1], s, out=odd[:, 0, 0])
    np.multiply(even[:, 0, 0], -s, out=odd[:, 0, 1])
    odd[:, 1, 0] = odd[:, 0, 1]
    np.multiply(even[:, 0, 1], -s, out=odd[:, 1, 1])

    # g0^{ik} g0^{jl} T_kl: component ij is divided by s2 once per phi
    # index; the pointwise round inner product of each field with itself
    # pairs each raised component with its covariant one
    inner = out[:, 0, 0] * out[:, 0, 0]
    for (i, j), scale in (((0, 1), s2), ((1, 0), s2), ((1, 1), s2**2)):
        inner += out[:, i, j] / scale * out[:, i, j]
        out[:, i, j] /= scale
    norms = np.sqrt(np.sum(g.weights[:, None] * inner, axis=0))
    out *= g.weights[:, None, None, None] / norms
    return out


def _build_tensor_basis(g: SphereGrid) -> TensorBasis:
    ls, ms = coeff_degrees(g.L)
    sel = ls >= 2
    labels = tuple([("even", int(l), int(m)) for l, m in zip(ls[sel], ms[sel])]
                   + [("odd", int(l), int(m)) for l, m in zip(ls[sel], ms[sel])])
    weighted = _weighted_tensor_fields(g).reshape(g.n_nodes, 4, -1)
    # the components 00, 01 and 11: every basis tensor is symmetric, so
    # component 10 repeats 01 and pairs with the folded part's c01 + c10
    tables, modes = _frequency_tables(g, weighted, np.tile(np.abs(ms[sel]), 2),
                                      np.tile(ls[sel], 2), [0, 1, 3])
    return TensorBasis(g, labels, tables, modes)
