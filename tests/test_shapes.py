"""Shape-spec grammar and the strict immersion file format."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from immlab.errors import ImmersionRegularityError, ShapeSpecError
from immlab.shapes import (ellipsoid_immersion, load_immersion,
                           parse_shape_spec, perturbed_sphere_immersion,
                           save_immersion, sphere_immersion)
from immlab.spectral import grid


def test_sphere_spec():
    g = grid(8)
    F = parse_shape_spec("sphere:2.5", g)
    npt.assert_allclose(np.linalg.norm(F.positions, axis=1), 2.5, atol=1e-12)
    npt.assert_allclose(F.positions, sphere_immersion(g, 2.5).positions,
                        atol=1e-14)


def test_ellipsoid_spec():
    g = grid(8)
    F = parse_shape_spec("ellipsoid:1,1.2,0.8", g)
    ref = ellipsoid_immersion(g, 1.0, 1.2, 0.8)
    npt.assert_allclose(F.positions, ref.positions, atol=1e-14)
    u = F.positions / np.array([1.0, 1.2, 0.8])
    npt.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)


def test_perturbed_spec_multiple_modes():
    g = grid(12)
    F = parse_shape_spec("perturbed:1;2,1,0.05;3,-2,0.02", g)
    ref = perturbed_sphere_immersion(g, 1.0, [(2, 1, 0.05), (3, -2, 0.02)])
    npt.assert_allclose(F.positions, ref.positions, atol=1e-14)


def test_file_spec_roundtrip(tmp_path):
    g = grid(8)
    F = ellipsoid_immersion(g, 1.0, 1.1, 0.9)
    path = tmp_path / "shape.json"
    save_immersion(str(path), F)
    G = parse_shape_spec(f"file:{path}", g)
    npt.assert_allclose(G.coeffs, F.coeffs, atol=1e-14)


def test_file_resample_to_finer_grid(tmp_path):
    g8, g12 = grid(8), grid(12)
    F = ellipsoid_immersion(g8, 1.0, 1.1, 0.9)
    path = tmp_path / "shape.json"
    save_immersion(str(path), F)
    G = load_immersion(str(path), g12)
    assert G.grid.L == 12
    # padding with zeros is exact for band-limited immersions
    npt.assert_allclose(G.coeffs[:, : g8.n_coeffs], F.coeffs, atol=1e-12)
    npt.assert_allclose(G.coeffs[:, g8.n_coeffs:], 0.0, atol=1e-12)


def test_file_cannot_lower_band_limit(tmp_path):
    g12, g8 = grid(12), grid(8)
    path = tmp_path / "shape.json"
    save_immersion(str(path), sphere_immersion(g12))
    with pytest.raises(ShapeSpecError):
        load_immersion(str(path), g8)


@pytest.mark.parametrize("target_L", [None, 8, 10])
def test_file_of_degenerate_immersion_raises(tmp_path, target_L):
    # a well-formed file whose immersion collapses to a point: loading it
    # onto its own grid, onto none or onto a finer one computes its
    # geometry and raises, as the other shape kinds do
    nc = grid(8).n_coeffs
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(
        {"L": 8, "coeffs": {k: [0.0] * nc for k in "xyz"}}))
    g = None if target_L is None else grid(target_L)
    with pytest.raises(ImmersionRegularityError):
        load_immersion(str(path), g)


@pytest.mark.parametrize("spec", [
    "blob:1",
    "sphere:abc",
    "ellipsoid:1,2",
    "perturbed:1",
    "perturbed:1;2,1",
    "file:/nonexistent/path.json",
])
def test_bad_specs_raise(spec):
    with pytest.raises(ShapeSpecError):
        parse_shape_spec(spec, grid(8))


def test_perturbed_mode_needs_band_limit():
    with pytest.raises(ShapeSpecError):
        perturbed_sphere_immersion(grid(8), 1.0, [(8, 0, 0.01)])


def _valid_payload(g):
    F = sphere_immersion(g)
    return {"L": g.L, "coeffs": {"x": F.coeffs[0].tolist(),
                                 "y": F.coeffs[1].tolist(),
                                 "z": F.coeffs[2].tolist()}}


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d.pop("coeffs"),
    lambda d: d.update(L=8.0),
    lambda d: d.update(L=3),
    lambda d: d["coeffs"].update(w=[0.0]),
    lambda d: d["coeffs"].pop("z"),
    lambda d: d["coeffs"].update(x=d["coeffs"]["x"][:-1]),
])
def test_file_rejects_malformed_payloads(tmp_path, mutate):
    g = grid(8)
    data = _valid_payload(g)
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ShapeSpecError):
        load_immersion(str(path))


def test_file_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ShapeSpecError):
        load_immersion(str(path))
