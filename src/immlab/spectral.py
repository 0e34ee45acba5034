"""Real spherical-harmonic basis, quadrature grid, and spectral derivatives.

Conventions
-----------
Basis functions are the fully normalized real spherical harmonics on the
unit sphere, without the Condon-Shortley phase:

    Y_{l,0}  = N_{l,0} P_l(cos th)
    Y_{l,m}  = sqrt(2) N_{l,m} P_l^m(cos th) cos(m ph)     (m > 0)
    Y_{l,-m} = sqrt(2) N_{l,m} P_l^m(cos th) sin(m ph)     (m > 0)

with N_{l,m} = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) and P_l^m the unsigned
associated Legendre functions.  They are orthonormal in L2(S^2, dOmega),
so the constant field 1 has the single coefficient sqrt(4 pi) on Y_{0,0},
and the ambient coordinates x, y, z are positive multiples of Y_{1,1},
Y_{1,-1}, Y_{1,0}.

Coefficients are stored in (l, m) lexicographic order, m = -l .. l, so a
band limit L gives (L+1)^2 coefficients and ``coeff_index(l, m) = l*l+l+m``.

The quadrature grid is Gauss-Legendre in cos th with L+1 colatitude nodes
and uniform in ph with 2L+2 nodes.  There are no nodes at the poles, the
weights sum to 4 pi, and products Y_a * Y_b with a + b <= 2L are integrated
exactly.  Analysis of a sampled field returns its L2 projection onto the
basis; for fields band-limited at L the round trip is exact to rounding.

Colatitude derivatives of basis functions are evaluated analytically from
the Legendre recurrences (orders 0, 1, 2), and ph derivatives act on each
longitude frequency by the exact cos <-> sin swap with factor m, so all
chart derivatives of a band-limited field are exact at the nodes.

Every harmonic is a ring profile in th times cos(m ph) or sin(|m| ph), so
its sum against the nodes of one ring is a sum over that ring's longitude
DFT at |m| < L + 1, the Nyquist frequency of the 2L+2 longitudes.
synthesize and analyze run by frequency (the transform method): synthesis
multiplies each |m|'s Legendre ring profiles by that |m|'s coefficients,
then takes one inverse ring DFT; analysis, its adjoint for any chart
derivative, takes the ring DFTs, then pairs each |m| with its
quadrature-weighted ring profiles.  These are the quadrature sums of the
dense node tables, regrouped, so no approximation enters.  Both take one
field or a batch of them along a trailing axis.  node_matrix builds the
dense (n_nodes, n_coeffs) tables from the same Legendre evaluation, for
the basis tables, the Galerkin mass matrix and the linearized Liouville
solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import assoc_legendre_p_all, gammaln, roots_legendre

from .errors import DegreeMismatchError

__all__ = [
    "SphereGrid",
    "HarmonicField",
    "coeff_index",
    "coeff_degrees",
    "grid",
]


def coeff_index(l: int, m: int) -> int:
    """Position of the (l, m) coefficient in lexicographic storage."""
    if abs(m) > l:
        raise ValueError(f"invalid mode (l={l}, m={m})")
    return l * l + l + m


def coeff_degrees(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of l and m for every coefficient slot up to band limit L."""
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(L + 1)])
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(L + 1)])
    return ls, ms


def _legendre_theta_blocks(L: int, theta: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre data on a colatitude list.

    Returns an array of shape (3, L+1, len(theta), L+1) holding, at
    [d, m, node, l], the theta amplitude of the (l, m >= 0) basis function
    (zero for m > l) and its first and second derivatives with respect to
    theta, d = 0, 1, 2.  The sqrt(2) factor for m > 0 is included here.
    """
    x = np.cos(theta)
    s = np.sin(theta)
    # (drv, l, m-wrapped, node); derivatives are with respect to x
    P = assoc_legendre_p_all(L, L, x, diff_n=2)
    P0 = P[0][:, : L + 1]
    P1 = P[1][:, : L + 1]
    P2 = P[2][:, : L + 1]

    ls = np.arange(L + 1)[:, None]
    ms = np.arange(L + 1)[None, :]
    lognorm = 0.5 * (
        np.log(2 * ls + 1.0)
        - np.log(4 * np.pi)
        + gammaln(np.maximum(ls - ms, 0) + 1.0)
        - gammaln(ls + ms + 1.0)
    )
    norm = np.where(ms <= ls, np.exp(lognorm), 0.0)
    norm = norm * np.where(ms > 0, np.sqrt(2.0), 1.0)
    # strip the Condon-Shortley phase carried by scipy
    norm = norm * np.where(ms % 2 == 1, -1.0, 1.0)
    norm = norm[:, :, None]

    val = norm * P0
    # chain rule x = cos(theta)
    dth = norm * (-s * P1)
    dthth = norm * (s * s * P2 - x * P1)
    return np.ascontiguousarray(np.stack([val, dth, dthth]).transpose(0, 2, 3, 1))


@dataclass
class SphereGrid:
    """Gauss-Legendre x uniform longitude quadrature grid with transforms.

    Attributes
    ----------
    L : band limit (L >= 4).
    theta, phi : flattened node coordinates, theta-major ordering with
        n_theta = L+1 rows of n_phi = 2L+2 nodes each.
    weights : quadrature weights per node, summing to 4 pi.

    Every table derived from the grid alone (node matrices, vector and
    tensor bases, mode labels, degree cuts) is built once, on first use,
    and stored on the grid by cached(); the stored arrays are read-only,
    since every caller shares them.
    """

    L: int
    theta_nodes: np.ndarray = field(repr=False)
    phi_nodes: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    _tables: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, L: int) -> "SphereGrid":
        if L < 4:
            raise ValueError("band limit must be at least 4")
        x, w = roots_legendre(L + 1)
        theta_nodes = np.arccos(x[::-1])  # increasing colatitude
        w_theta = w[::-1]
        n_phi = 2 * L + 2
        phi_nodes = 2.0 * np.pi * np.arange(n_phi) / n_phi
        th, ph = np.meshgrid(theta_nodes, phi_nodes, indexing="ij")
        weights = np.repeat(w_theta * (2.0 * np.pi / n_phi), n_phi)
        return cls(L, theta_nodes, phi_nodes, th.ravel(), ph.ravel(), weights)

    # -- basic sizes -----------------------------------------------------
    @property
    def n_theta(self) -> int:
        return self.L + 1

    @property
    def n_phi(self) -> int:
        return 2 * self.L + 2

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    @property
    def n_coeffs(self) -> int:
        return (self.L + 1) ** 2

    # -- grid tables (built lazily, cached) ------------------------------
    def cached(self, key, build):
        """The table stored under key, built by build() on its first request.

        Arrays in the result (the result itself, or the items of a tuple)
        are made read-only before they are stored.
        """
        if key not in self._tables:
            value = build()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            self._tables[key] = value
        return self._tables[key]

    def _legendre(self) -> np.ndarray:
        """Ring profiles (3, L+1, n_theta, L+1) (_legendre_theta_blocks)."""
        return self.cached("legendre", lambda: _legendre_theta_blocks(
            self.L, self.theta_nodes))

    def node_matrix(self, dth: int = 0, dph: int = 0) -> np.ndarray:
        """Node values of the (dth, dph) chart derivative of every basis function.

        Column (l, m) is the ring profile of Y_{l,|m|} times its longitude
        row of _longitude_rows, both of the requested derivative.
        """
        def build():
            ls, ms = coeff_degrees(self.L)
            rings = self._legendre()[dth][np.abs(ms), :, ls].T  # (n_theta, nc)
            # a slot's position over L + 1 is its longitude row 2|m| + t
            trig = self._longitude_rows(dph)[
                self._frequency_slots() // (self.L + 1)].T  # (n_phi, nc)
            return (rings[:, None, :] * trig).reshape(self.n_nodes, self.n_coeffs)
        return self.cached((dth, dph), build)

    def longitude_dft(self) -> np.ndarray:
        """Real DFT of one ring, (2(L+1), n_phi): rows cos(m ph), sin(m ph).

        Rows 2m and 2m + 1 hold cos(m ph) and sin(m ph) at the ring's
        longitudes, for m = 0..L (the sin(0 ph) row is zero).
        """
        def build():
            mph = np.arange(self.L + 1)[:, None] * self.phi_nodes
            return np.stack([np.cos(mph), np.sin(mph)], axis=1).reshape(
                self.n_phi, self.n_phi)
        return self.cached("longitude_dft", build)

    def _longitude_rows(self, dph: int) -> np.ndarray:
        """The dph-th longitude derivative of longitude_dft's rows.

        d/dph takes cos(m ph) to -m sin(m ph) and sin(m ph) to m cos(m ph),
        so row 2m + t of the result is the derivative of that trigonometric
        row, the inverse ring DFT of a frequency amplitude.
        """
        if dph == 0:
            return self.longitude_dft()

        def build():
            rows = self.longitude_dft().reshape(self.L + 1, 2, self.n_phi)
            m = np.arange(self.L + 1)[:, None, None]
            for _ in range(dph):
                rows = m * np.stack([-rows[:, 1], rows[:, 0]], axis=1)
            return rows.reshape(self.n_phi, self.n_phi)
        return self.cached(("longitude_rows", dph), build)

    def _frequency_slots(self) -> np.ndarray:
        """Position of each coefficient in the degree-padded frequency layout.

        The layout is (L+1, 2, L+1): [m, t, l] holds the coefficient of
        Y_{l,m} (t = 0, the cos(m ph) harmonic) or Y_{l,-m} (t = 1, the
        sin(m ph) one), and zero where no harmonic exists (l < m, or
        t = 1 at m = 0).  Returns, for each coefficient slot in storage
        order, its flat position in that layout.
        """
        def build():
            ls, ms = coeff_degrees(self.L)
            return (2 * np.abs(ms) + (ms < 0)) * (self.L + 1) + ls
        return self.cached("frequency_slots", build)

    def _analysis_rings(self, dth: int = 0) -> np.ndarray:
        """Quadrature-weighted ring profiles (L+1, L+1, n_theta): [m, l, r],
        of the dth-th colatitude derivative."""
        def build():
            w = self.weights.reshape(self.n_theta, self.n_phi)[:, 0]
            return np.ascontiguousarray(
                self._legendre()[dth].transpose(0, 2, 1) * w)
        return self.cached(("analysis_rings", dth), build)

    def _check(self, values: np.ndarray, size: int, what: str) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[0] != size:
            raise DegreeMismatchError(
                f"expected {size} {what} (and an optional batch axis), "
                f"got shape {values.shape}")
        return values

    # -- transforms ------------------------------------------------------
    def synthesize(self, coeffs: np.ndarray, dth: int = 0, dph: int = 0) -> np.ndarray:
        """Evaluate a mixed chart derivative of band-limited fields at the nodes.

        coeffs is (n_coeffs,) or a batch (n_coeffs, B); the result is
        (n_nodes,) or (n_nodes, B).  Each |m|'s ring profiles multiply its
        coefficients (one batched product over the degree-padded layout of
        _frequency_slots), and the inverse ring DFT of each ring, with the
        dph longitude derivatives in its rows, gives the node values in
        their order, so no transposed copy is made.
        """
        c = self._check(coeffs, self.n_coeffs, "coefficients")
        M, b = self.L + 1, c.size // self.n_coeffs
        padded = np.zeros((M * 2 * M, b))
        padded[self._frequency_slots()] = c.reshape(-1, b)
        amp = self._legendre()[dth][:, None] @ padded.reshape(M, 2, M, b)
        out = self._longitude_rows(dph).T @ amp.reshape(
            2 * M, self.n_theta, b).transpose(1, 0, 2)
        return out.reshape((self.n_nodes,) + c.shape[1:])

    def analyze(self, samples: np.ndarray, dth: int = 0, dph: int = 0
                ) -> np.ndarray:
        """Quadrature pairing of node samples with a chart derivative of the
        basis: node_matrix(dth, dph).T @ (weights * samples).

        It is the adjoint of synthesize(., dth, dph) in the quadrature
        inner product; at dth = dph = 0 it is the L2 projection of the
        samples onto the basis.  samples is (n_nodes,) or a batch
        (n_nodes, B); the result is (n_coeffs,) or (n_coeffs, B).  Each
        ring is transformed once (_ring_dft, the dph longitude derivatives
        in its rows), and each |m| pairs its two frequency rows with the
        quadrature-weighted ring profiles of the dth colatitude derivative.
        """
        f = self._check(samples, self.n_nodes, "samples")
        M, b = self.L + 1, f.size // self.n_nodes
        spec = _ring_dft(self, f, np.empty(f.shape), dph)
        out = self._analysis_rings(dth)[:, None] @ spec.reshape(
            M, 2, self.n_theta, b)
        return out.reshape(-1, b)[self._frequency_slots()].reshape(
            (self.n_coeffs,) + f.shape[1:])

    def gradient(self, coeffs: np.ndarray) -> np.ndarray:
        """Chart gradient (n_nodes, 2), d_th then d_ph, of a band-limited field.

        A batch (n_coeffs, B) of fields gives (n_nodes, 2, B).
        """
        return np.stack([self.synthesize(coeffs, 1, 0),
                         self.synthesize(coeffs, 0, 1)], axis=1)

    def laplace_beltrami_round(self, coeffs: np.ndarray) -> np.ndarray:
        """Round-sphere Laplacian (div grad sign, spectrum -l(l+1))."""
        c = self._check(coeffs, self.n_coeffs, "coefficients")
        ls, _ = coeff_degrees(self.L)
        return np.reshape(-ls * (ls + 1.0), (-1,) + (1,) * (c.ndim - 1)) * c


def _ring_dft(g: SphereGrid, values: np.ndarray, out: np.ndarray,
             dph: int = 0) -> np.ndarray:
    """Longitude DFT of every ring of node values (n, ...), by frequency.

    Returns (n_phi, n_theta, rest), row 2m + t of longitude_dft (of its
    dph-th longitude derivative, _longitude_rows) on ring r at [2m + t, r],
    so the rows of one frequency are contiguous.  It is written into the
    leading values.size entries of out, a C-contiguous array at least that
    large.
    """
    spec = out.reshape(-1)[:values.size].reshape(g.n_phi, g.n_theta, -1)
    np.matmul(g._longitude_rows(dph), values.reshape(g.n_theta, g.n_phi, -1),
              out=spec.transpose(1, 0, 2))
    return spec


def _frequency_tables(g: SphereGrid, weighted: np.ndarray, freq: np.ndarray,
                      degree: np.ndarray, components=slice(None)
                      ) -> tuple[tuple, tuple]:
    """Per-|m| amplitude tables of node fields of one longitude frequency.

    weighted (n, k, c) holds c fields of k components; in each component,
    field j is a ring profile times cos(freq[j] ph) or sin(freq[j] ph),
    freq[j] <= L.  The tables keep the components that components selects,
    k' of them.  Returns (tables, modes), one entry for each m = 0..L:
    modes[m] lists the fields of frequency m by degree, and tables[m]
    (len(modes[m]), 2 n_theta k') their amplitudes of cos(m ph) (t = 0)
    and sin(m ph) (t = 1), entry [i, (t n_theta + r) k' + comp] on ring r:
    the layout of _ring_dft's rows 2m, 2m + 1.

    Each m lies below the Nyquist frequency L + 1 of the 2L + 2
    longitudes, so by discrete orthogonality of the trigonometric rows an
    amplitude is the field's ring DFT at m times 1/n_phi for m = 0 and
    2/n_phi otherwise.  The sum over a ring's longitudes of field j times
    any node field f is then its amplitudes paired with f's ring DFT at
    m.  The fields of one frequency are transformed at a time, so that
    the transient arrays are one frequency's share of weighted, not its
    size.  The tables are read-only.
    """
    k = weighted.shape[1]
    tables, modes = [], []
    for m in range(g.L + 1):
        cols = np.flatnonzero(freq == m)
        cols = cols[np.argsort(degree[cols], kind="stable")]
        part = weighted[..., cols]
        spec = _ring_dft(g, part, np.empty(part.shape)).reshape(
            g.L + 1, 2, g.n_theta, k, cols.size)
        table = np.ascontiguousarray(spec[m][:, :, components]
                                     .reshape(-1, cols.size).T)
        table *= (1.0 if m == 0 else 2.0) / g.n_phi
        for a in (table, cols):
            a.setflags(write=False)
        tables.append(table)
        modes.append(cols)
    return tuple(tables), tuple(modes)


@lru_cache(maxsize=16)
def grid(L: int) -> SphereGrid:
    """Shared immutable grid instance for a band limit."""
    return SphereGrid.build(L)


@dataclass
class HarmonicField:
    """A scalar field represented by its harmonic coefficients.

    Samples and coefficients stay consistent because instances are treated
    as immutable.
    """

    grid: SphereGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.grid.n_coeffs,):
            raise DegreeMismatchError(
                f"expected {self.grid.n_coeffs} coefficients, got {self.coeffs.shape}"
            )

    @cached_property
    def samples(self) -> np.ndarray:
        return self.grid.synthesize(self.coeffs)
