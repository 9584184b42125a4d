"""Geometric primitives, lattice containers and orthonormal frames.

Points and vectors are plain numpy arrays of shape (3,) in world units;
collections of them are (N, 3) arrays.  The digitization lattice is a
dense axis-aligned grid described by :class:`GridDomain`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ZeroDirection

_AXES = np.eye(3)


def normalize(v):
    """Return ``v`` scaled to unit length; raise ZeroDirection below 1e-12."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n <= 1e-12:
        raise ZeroDirection(f"cannot normalize near-zero vector {v}")
    return v / n


@dataclass(frozen=True)
class OrthonormalFrame:
    """Right-handed orthonormal basis (u, v, w) anchored at ``center``.

    ``w`` is the defining direction; ``u`` and ``v`` span the plane
    normal to it.
    """

    center: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def frame_from_direction(w, center=(0.0, 0.0, 0.0)) -> OrthonormalFrame:
    """Build a deterministic orthonormal frame whose third axis is ``w``.

    ``u`` is the normalized cross product of ``w`` with the canonical axis
    least aligned with it (smallest absolute component, ties resolved in
    x < y < z order) and ``v = w x u``.  Two calls with bit-identical
    input give bit-identical output.
    """
    w = normalize(w)
    axis = int(np.argmin(np.abs(w)))  # argmin takes the first of tied minima
    u = normalize(np.cross(w, _AXES[axis]))
    v = np.cross(w, u)
    return OrthonormalFrame(np.asarray(center, dtype=float), u, v, w)


@dataclass(frozen=True)
class GridDomain:
    """Axis-aligned voxel lattice.

    Voxel (i, j, k) covers the half-open cube
    ``origin + gridstep*[i, i+1) x [j, j+1) x [k, k+1)`` and its center is
    ``origin + gridstep*(i+0.5, j+0.5, k+0.5)``.  Points exactly on a
    boundary belong to the higher-index voxel.
    """

    origin: np.ndarray
    gridstep: float
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.gridstep <= 0:
            raise ValueError("gridstep must be positive")
        if any(d <= 0 for d in self.dims):
            raise ValueError("dims must be positive")

    @property
    def shape(self):
        return self.dims

    @property
    def voxel_count(self):
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def strides(self):
        """Linear voxel id of index (i, j, k) is (i, j, k) @ strides: C
        order over dims, the flat index into a dense grid's values."""
        _, ny, nz = self.dims
        return np.array([ny * nz, nz, 1], dtype=np.int64)

    def voxel_center(self, index):
        return self.origin + self.gridstep * (np.asarray(index, dtype=float) + 0.5)

    def index_array(self, points):
        """Vectorized world->index: returns ((N, 3) int indices, (N,) in-bounds mask)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor((pts - self.origin) / self.gridstep).astype(np.int64)
        inb = np.all((idx >= 0) & (idx < np.asarray(self.dims)), axis=1)
        return idx, inb

    def contains_point(self, p):
        _, inb = self.index_array(p)
        return bool(inb[0])


def digitize(p, domain: GridDomain):
    """Map a world point to its voxel index, or None when outside the domain.

    Out-of-domain is an ordinary value here, not a failure.
    """
    idx, inb = domain.index_array(p)
    if not inb[0]:
        return None
    return tuple(int(c) for c in idx[0])


@dataclass
class ScalarGrid3:
    """Dense per-voxel counts (uint32), indexed ``values[i, j, k]``."""

    domain: GridDomain
    values: np.ndarray

    @classmethod
    def zeros(cls, domain: GridDomain):
        return cls(domain, np.zeros(domain.dims, dtype=np.uint32))


@dataclass
class VectorGrid3:
    """Dense per-voxel 3-vectors, indexed ``values[i, j, k]``.

    Stored vectors are running sums (of cross products, for the direction
    image) and therefore need not be unit; voxels never updated hold the
    zero vector.
    """

    domain: GridDomain
    values: np.ndarray

    @classmethod
    def zeros(cls, domain: GridDomain):
        return cls(domain, np.zeros(domain.dims + (3,), dtype=np.float64))


# --- grid serialization -----------------------------------------------------
#
# A grid is stored as <stem>.json (header) plus <stem>.raw holding the raw
# little-endian array, x-fastest then y then z, vector components interleaved
# per voxel.

_DTYPES = {"uint32": "<u4", "float64": "<f8"}


def save_grid(grid, stem):
    stem = Path(stem)
    if isinstance(grid, ScalarGrid3):
        dtype, components = "uint32", 1
        flat = grid.values.transpose(2, 1, 0).astype(_DTYPES[dtype])
    elif isinstance(grid, VectorGrid3):
        dtype, components = "float64", 3
        flat = grid.values.transpose(2, 1, 0, 3).astype(_DTYPES[dtype])
    else:
        raise TypeError(f"cannot serialize {type(grid).__name__}")
    header = {
        "dims": list(grid.domain.dims),
        "origin": [float(c) for c in grid.domain.origin],
        "gridstep": float(grid.domain.gridstep),
        "dtype": dtype,
        "components": components,
    }
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(stem.with_suffix(".raw"), "wb") as fh:
        fh.write(np.ascontiguousarray(flat).tobytes())
    return stem.with_suffix(".json"), stem.with_suffix(".raw")


def load_grid(stem):
    stem = Path(stem)
    with open(stem.with_suffix(".json")) as fh:
        header = json.load(fh)
    nx, ny, nz = header["dims"]
    domain = GridDomain(np.array(header["origin"]), header["gridstep"], (nx, ny, nz))
    raw = np.fromfile(stem.with_suffix(".raw"), dtype=_DTYPES[header["dtype"]])
    if header["components"] == 1:
        values = raw.reshape(nz, ny, nx).transpose(2, 1, 0).copy()
        return ScalarGrid3(domain, values)
    values = raw.reshape(nz, ny, nx, 3).transpose(2, 1, 0, 3).copy()
    return VectorGrid3(domain, values)
