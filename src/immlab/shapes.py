"""Reference immersions, the shape-spec grammar, and immersion files.

Shape specification strings:

    sphere:<r>
    ellipsoid:<a>,<b>,<c>
    perturbed:<r>;<l>,<m>,<amp>[;<l>,<m>,<amp>...]
    file:<path>

Every number in a spec must be finite.  The JSON immersion file format is
``{"L": int, "coeffs": {"x": [...], "y": [...], "z": [...]}}`` with the
coefficient lists in (l, m) lexicographic order.  Readers reject unknown
fields and non-finite coefficients.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ImmersionRegularityError, ShapeSpecError
from .geometry import ImmersionMap
from .spectral import SphereGrid, coeff_index, grid

__all__ = [
    "sphere_immersion",
    "ellipsoid_immersion",
    "perturbed_sphere_immersion",
    "parse_shape_spec",
    "load_immersion",
    "save_immersion",
]


def _unit_sphere_samples(g: SphereGrid) -> np.ndarray:
    st, ct = np.sin(g.theta), np.cos(g.theta)
    return np.stack([st * np.cos(g.phi), st * np.sin(g.phi), ct], axis=-1)


def sphere_immersion(g: SphereGrid, radius: float = 1.0) -> ImmersionMap:
    return ImmersionMap.from_samples(g, radius * _unit_sphere_samples(g))


def ellipsoid_immersion(g: SphereGrid, a: float, b: float, c: float) -> ImmersionMap:
    xyz = _unit_sphere_samples(g) * np.array([a, b, c])
    return ImmersionMap.from_samples(g, xyz)


def perturbed_sphere_immersion(
    g: SphereGrid, radius: float, modes: list[tuple[int, int, float]]
) -> ImmersionMap:
    """Radial graph r (1 + sum amp * Y_lm) over the round sphere."""
    bump = np.zeros(g.n_coeffs)
    for l, m, amp in modes:
        if l + 1 > g.L:
            raise ShapeSpecError(f"mode l={l} needs band limit at least {l + 1}")
        bump[coeff_index(l, m)] += amp
    radial = radius * (1.0 + g.synthesize(bump))
    return ImmersionMap.from_samples(g, radial[:, None] * _unit_sphere_samples(g))


def parse_shape_spec(spec: str, g: SphereGrid) -> ImmersionMap:
    """Build an immersion from a shape-spec string on the given grid."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "sphere":
            return sphere_immersion(g, _finite(rest))
        if kind == "ellipsoid":
            a, b, c = (_finite(v) for v in rest.split(","))
            return ellipsoid_immersion(g, a, b, c)
        if kind == "perturbed":
            parts = rest.split(";")
            radius = _finite(parts[0])
            if len(parts) < 2:
                raise ShapeSpecError("perturbed spec needs at least one mode")
            modes = []
            for part in parts[1:]:
                l, m, amp = part.split(",")
                modes.append((int(l), int(m), _finite(amp)))
            return perturbed_sphere_immersion(g, radius, modes)
        if kind == "file":
            return load_immersion(rest, g)
    except (ShapeSpecError, ImmersionRegularityError):
        # a well-formed spec of a degenerate immersion is a numerical failure
        raise
    except (ValueError, OSError) as exc:
        raise ShapeSpecError(f"bad shape spec {spec!r}: {exc}") from exc
    raise ShapeSpecError(f"unknown shape kind {kind!r}")


def _finite(text: str) -> float:
    """A shape-spec number: ValueError unless it is finite."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def load_immersion(path: str, g: SphereGrid | None = None) -> ImmersionMap:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or set(data) != {"L", "coeffs"}:
        raise ShapeSpecError("immersion file must have exactly the fields 'L' and 'coeffs'")
    L = data["L"]
    if not isinstance(L, int) or L < 4:
        raise ShapeSpecError("field 'L' must be an integer band limit >= 4")
    coeffs = data["coeffs"]
    if not isinstance(coeffs, dict) or set(coeffs) != {"x", "y", "z"}:
        raise ShapeSpecError("field 'coeffs' must have exactly the keys 'x', 'y', 'z'")
    nc = (L + 1) ** 2
    arr = np.empty((3, nc))
    for i, key in enumerate(("x", "y", "z")):
        comp = np.asarray(coeffs[key], dtype=float)
        if comp.shape != (nc,):
            raise ShapeSpecError(f"component {key!r} must have {nc} coefficients")
        if not np.isfinite(comp).all():
            raise ShapeSpecError(f"component {key!r} has non-finite coefficients")
        arr[i] = comp
    if g is not None and g.L != L:
        # resample onto the requested grid; exact when g.L >= L
        return ImmersionMap.from_samples(g, g.synthesize(_pad(arr.T, L, g.L)))
    F = ImmersionMap(grid(L) if g is None else g, arr)
    # a degenerate immersion raises ImmersionRegularityError here, as it
    # does on every other path (from_samples)
    F.geometry
    return F


def _pad(c: np.ndarray, L_from: int, L_to: int) -> np.ndarray:
    if L_to < L_from:
        raise ShapeSpecError("cannot lower the band limit of an immersion file")
    out = np.zeros(((L_to + 1) ** 2,) + c.shape[1:])
    out[: (L_from + 1) ** 2] = c
    return out


def save_immersion(path: str, F: ImmersionMap) -> None:
    data = {
        "L": F.grid.L,
        "coeffs": {
            "x": F.coeffs[0].tolist(),
            "y": F.coeffs[1].tolist(),
            "z": F.coeffs[2].tolist(),
        },
    }
    with open(path, "w") as fh:
        json.dump(data, fh)
