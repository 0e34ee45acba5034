"""Grid-shared tables: vector and tensor bases, labels, masks."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from immlab.bases import (_frequency_jets, _weighted_tensor_fields,
                          tensor_basis, vector_basis)
from immlab.continuation import TargetData, newton_solve
from immlab.operators import (_class_harmonics, _frequency_cut, _mode_cut,
                              _scalar_labels, assemble_linearization,
                              domain_labels, project_codomain)
from immlab.shapes import ellipsoid_immersion, sphere_immersion
from immlab.spectral import SphereGrid, grid

TABLES = {
    "vector_basis": vector_basis,
    "tensor_basis": tensor_basis,
    "domain_labels": domain_labels,
    "scalar_labels": _scalar_labels,
    "degree_cut": lambda g: _mode_cut(g, g.L - 2),
    "class_cut": lambda g: _mode_cut(g, g.L - 2, "+++"),
    "node_matrix": lambda g: g.node_matrix(1, 1),
    "frequency_jets": _frequency_jets,
    "frequency_cut": lambda g: _frequency_cut(g, g.L - 2, "+++"),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_repeat_call_returns_same_object(name):
    g = grid(8)
    assert TABLES[name](g) is TABLES[name](g)


ARRAYS = {
    "vector fields": lambda g: vector_basis(g).fields,
    "vector dfields": lambda g: vector_basis(g).dfields,
    "vector jets": lambda g: vector_basis(g).jets,
    "tensor weighted": lambda g: tensor_basis(g).tables[2],
    "tensor modes": lambda g: tensor_basis(g).modes[2],
    "domain mask": lambda g: _mode_cut(g, g.L - 2).domain_mask,
    "codomain mask": lambda g: _mode_cut(g, g.L - 2).codomain_mask,
    "row classes": lambda g: _mode_cut(g, g.L - 2).classes[0],
    "column classes": lambda g: _mode_cut(g, g.L - 2).classes[1],
    "cut jets": lambda g: _mode_cut(g, g.L - 2).jets[0],
    "cut tensor rows": lambda g: _mode_cut(g, g.L - 2).tensor[2][2],
    "class jets": lambda g: _mode_cut(g, g.L - 2, "+++").jets[0],
    "class harmonics": lambda g: _class_harmonics(g, "+++"),
    "class tensor table": lambda g: _mode_cut(g, g.L - 2, "+++").tensor[1][1],
    "class tensor rows": lambda g: _mode_cut(g, g.L - 2, "+++").tensor[1][2],
    "class blended": lambda g: _mode_cut(g, g.L - 2, "+++").blended,
    "class masks": lambda g: _mode_cut(g, g.L - 2, "+++").domain_mask,
    "class row classes": lambda g: _mode_cut(g, g.L - 2, "+++").classes[0],
    "node matrix": lambda g: g.node_matrix(0, 2),
    "jet amplitudes": lambda g: _frequency_jets(g)[0][2],
    "jet amplitude modes": lambda g: _frequency_jets(g)[1][2],
    "harmonic amplitudes": lambda g: _frequency_jets(g)[2][2],
    "harmonic amplitude modes": lambda g: _frequency_jets(g)[3][2],
    "frequency cut jets": lambda g: _frequency_cut(g, g.L - 2, None)[2].jets,
    "frequency class jets": lambda g: _frequency_cut(g, None, "+++")[2].jets,
    "frequency class harmonics":
        lambda g: _frequency_cut(g, None, "+++")[2].harmonics,
    "frequency class tensor": lambda g: _frequency_cut(g, None, "+++")[2].tensor,
    "frequency cut columns": lambda g: _frequency_cut(g, g.L - 2, None)[2].cols,
    "frequency cut rows": lambda g: _frequency_cut(g, g.L - 2, None)[2].rows,
}


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_cached_arrays_are_read_only(name):
    a = ARRAYS[name](grid(8))
    first = (0,) * a.ndim
    with pytest.raises(ValueError):
        a[first] = a[first]


def test_labels_are_immutable():
    g = grid(8)
    for labels in (vector_basis(g).labels, tensor_basis(g).labels,
                   domain_labels(g), _scalar_labels(g)):
        assert isinstance(labels, tuple)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_vector_basis_stores_one_jet_table():
    # fields and dfields are read-only views into the (n, 6, n_vec) jet
    # table, and nothing else is stored: a second copy of the jets raises
    # the peak memory of the L = 20 index workload past its bound
    g = grid(8)
    vb = vector_basis(g)
    n, n_vec = g.n_nodes, vb.size
    assert vb.jets.shape == (n, 6, n_vec)
    for view in (vb.fields, vb.dfields):
        assert view.base is vb.jets
        assert not view.flags.writeable
    assert np.array_equal(vb.fields, vb.jets[:, :2])
    for i in range(2):
        for k in range(2):
            assert np.array_equal(vb.dfields[:, i, k],
                                  vb.jets[:, 2 + 2 * i + k])
    stored = sum(a.size for f in dataclasses.fields(vb)
                 for a in _arrays(getattr(vb, f.name)) if a.dtype.kind == "f")
    assert stored == 6 * n * n_vec


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("drop,sign_class", [
    (None, None), (2, None), (None, "+++"), (2, "+++")])
def test_mode_cut_keeps_one_scalar_prefix(L, drop, sign_class):
    # a cut's normal-speed columns and blended rows are the same harmonics,
    # a prefix of its class's in (l, m) order: the Galerkin forms over the
    # class read them as one slice, and the blended rows as one index
    # array into SphereGrid.analyze's output
    g = grid(L)
    cut = _mode_cut(g, None if drop is None else L - drop, sign_class)
    normal = [lab[1:] for lab in cut.domain if lab[0] == "normal"]
    blended = [lab[1:] for lab in cut.codomain if lab[0] == "scalar"]
    assert normal == blended
    k = len(normal)
    assert cut.scalar == slice(k)
    harmonics = np.arange(g.n_coeffs)[_class_harmonics(g, sign_class)]
    npt.assert_array_equal(cut.blended, harmonics[:k])
    labels = _scalar_labels(g)
    assert [labels[i][1:] for i in cut.blended] == blended
    if sign_class is None:
        # the vector columns too are views, of the one jet table: a
        # gathered copy raises the L = 20 index workload's peak memory
        jets = vector_basis(g).jets
        assert all(t.base is jets for t in cut.jets)


@pytest.mark.parametrize("L", [8, 12])
def test_amplitude_tables_resynthesize_the_node_tables(L):
    # on each ring, a cos(m ph) + b sin(m ph) of the tables' amplitudes
    # (a, b) gives back the jets of the vector basis and the harmonics with
    # their first chart derivatives at every node
    g = grid(L)
    jets, jet_modes, harm, harm_modes = _frequency_jets(g)
    nodes = {6: vector_basis(g).jets,
             3: np.stack([g.node_matrix(0, 0), g.node_matrix(1, 0),
                          g.node_matrix(0, 1)], axis=1)}
    for tables, modes in ((jets, jet_modes), (harm, harm_modes)):
        assert sorted(np.concatenate(modes)) == list(range(sum(
            len(c) for c in modes)))
        for m, (table, cols) in enumerate(zip(tables, modes)):
            k = table.shape[1] // (2 * g.n_theta)
            amp = table.reshape(-1, 2, g.n_theta, k)
            trig = np.stack([np.cos(m * g.phi_nodes), np.sin(m * g.phi_nodes)])
            values = np.einsum("itrc,tj->rjci", amp, trig)
            ref = nodes[k][..., cols].reshape(values.shape)
            npt.assert_allclose(values, ref, rtol=0,
                                atol=1e-13 * np.abs(nodes[k]).max())


@pytest.mark.parametrize("L", [8, 12, 16])
def test_vector_basis_is_orthonormal(L):
    # the round L2 pairing of the contravariant fields by quadrature,
    # sum_n w_n (V^th_a V^th_b + sin^2(th) V^ph_a V^ph_b), is delta_ab
    g = grid(L)
    V = vector_basis(g).fields
    s2 = np.sin(g.theta) ** 2
    gram = (V[:, 0].T @ (g.weights[:, None] * V[:, 0])
            + V[:, 1].T @ ((g.weights * s2)[:, None] * V[:, 1]))
    npt.assert_allclose(gram, np.eye(V.shape[2]), rtol=0, atol=1e-13)


def test_tensor_weighted_table_projects_the_basis():
    # projecting each basis tensor returns its unit coordinate vector; the
    # weighted fields, which the per-frequency tables are built from, hold
    # the tensors with both indices raised by the round metric, times the
    # quadrature weights, so divide both out to recover them
    g = grid(8)
    tb = tensor_basis(g)
    s2 = np.sin(g.theta) ** 2
    raised = np.ones((g.n_nodes, 2, 2))
    raised[:, 0, 1] = raised[:, 1, 0] = 1.0 / s2
    raised[:, 1, 1] = 1.0 / s2 ** 2
    fields = _weighted_tensor_fields(g)
    fields = fields / (g.weights[:, None, None] * raised)[..., None]
    rows = project_codomain(g, fields, np.zeros((g.n_nodes, tb.size)))
    npt.assert_allclose(rows[:tb.size], np.eye(tb.size), atol=1e-12)


@pytest.mark.parametrize("L", [8, 12])
def test_tensor_fields_have_one_longitude_frequency(L):
    # the tables keep each weighted basis tensor's ring-wise DFT at its own
    # |m| only, which is exact only while the rest of the DFT vanishes: its
    # norm off |m| must be round-off next to its norm at |m|
    g = grid(L)
    W = _weighted_tensor_fields(g).reshape(g.n_theta, g.n_phi, 4, -1)
    power = np.sum(np.abs(np.fft.rfft(W, axis=1)) ** 2, axis=(0, 2))
    freq = np.array([abs(m) for _, _, m in tensor_basis(g).labels])
    own = np.arange(power.shape[0])[:, None] == freq
    assert power.shape[0] == L + 2         # up to the Nyquist frequency
    off = np.where(own, 0.0, power).sum(axis=0)
    assert np.all(np.sqrt(off) <= 1e-13 * np.sqrt(power[own]))


def test_tensor_basis_stores_per_frequency_tables_only():
    # the per-|m| tables hold 2 trigonometric amplitudes of 4 components
    # on each ring for every basis tensor; a dense (4 n, n_ten) table
    # would hold n_phi / 2 times as much
    g = SphereGrid.build(12)
    assemble_linearization(sphere_immersion(g), 1.0)
    tb = tensor_basis(g)
    stored = sum(a.size for f in dataclasses.fields(tb)
                 for a in _arrays(getattr(tb, f.name)) if a.dtype.kind == "f")
    assert 0 < stored <= 2 * g.n_theta * 4 * tb.size


def test_tensor_basis_build_peak_live_memory(live_peak):
    # the weighted fields are built in one array and their ring DFTs taken
    # one frequency's fields at a time, so the build's live peak is about
    # one (n, 4, n_ten) array and its (n, n_ten) temporaries: measured
    # 1.52 at L = 16, against 2.10 when the DFTs of every field were one
    # second array and 4.14 when the Hessians, the even and odd families,
    # their concatenation and the raised copy were separate arrays
    g = SphereGrid.build(16)
    for d in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)):
        g.node_matrix(*d)
    tb, peak = live_peak(lambda: tensor_basis(g))
    units = peak / (g.n_nodes * 4 * tb.size * 8)
    assert units <= 1.6, units


@pytest.mark.parametrize("eps,variant", [(1.0, "additive"),
                                         (0.5, "additive"),
                                         (0.5, "multiplicative")])
def test_assembly_on_warm_grid_matches_fresh_grid(eps, variant):
    warm = grid(8)
    vector_basis(warm), tensor_basis(warm)
    fresh = SphereGrid.build(8)
    M = [assemble_linearization(ellipsoid_immersion(g, 1.0, 1.08, 0.95), eps,
                                variant, liouville_tol=None)
         for g in (warm, fresh)]
    assert np.array_equal(M[0].matrix, M[1].matrix)
    assert M[0].domain_basis == M[1].domain_basis
    assert M[0].codomain_basis == M[1].codomain_basis


@pytest.mark.parametrize("eps", [1.0, 0.2])
def test_newton_on_warm_grid_matches_fresh_grid(eps):
    out = []
    for g in (grid(8), SphereGrid.build(8)):
        E = ellipsoid_immersion(g, 1.02, 0.98, 1.01)
        target = TargetData.from_immersion(E, eps, liouville_tol=None)
        out.append(newton_solve(sphere_immersion(g), target))
    (F0, h0), (F1, h1) = out
    assert np.array_equal(h0, h1)
    assert np.array_equal(F0.coeffs, F1.coeffs)
