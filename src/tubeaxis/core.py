"""Geometric primitives, lattice containers, orthonormal frames and a cell hash.

Points and vectors are plain numpy arrays of shape (3,) in world units;
collections of them are (N, 3) arrays.  The digitization lattice is a
dense axis-aligned grid described by :class:`GridDomain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroDirection

_AXES = np.eye(3)


def normalize(v):
    """Return ``v`` scaled to unit length; raise ZeroDirection below 1e-12."""
    v = np.asarray(v, dtype=float)
    flat = v.ravel(order="K")
    n = math.sqrt(flat.dot(flat))  # np.linalg.norm(v), without its checks
    if n <= 1e-12:
        raise ZeroDirection(f"cannot normalize near-zero vector {v}")
    return v / n


def _cross(a, b):
    """np.cross of two 3-vectors, by the same products and differences on
    Python floats, without np.cross's per-call cost."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


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
    u = normalize(_cross(w, _AXES[axis]))
    v = _cross(w, u)
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
        if not (np.isfinite(self.gridstep) and self.gridstep > 0):
            raise ValueError("gridstep must be positive and finite")
        if self.origin.shape != (3,) or not np.isfinite(self.origin).all():
            raise ValueError("origin must be three finite coordinates")
        if any(d <= 0 for d in self.dims):
            raise ValueError("dims must be positive")

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


class CellHash:
    """Points bucketed in a uniform grid of cubic cells, for neighbour
    queries.

    A point's cell is floor((p - origin) / cell) per axis, with origin the
    points' lower corner, and its key the C-order linear id of that cell in
    the box the points occupy. ``order`` lists the point indices sorted by
    key (stable), ``keys`` the sorted keys and ``coords`` the x, y and z of
    the points in that order. The cells of one (x, y) column
    are consecutive keys, so the points of a run of cells along z are one
    slice of ``order``.
    """

    _MAX_CELLS = 1 << 20  # per axis, so the keys fit int64
    _CHUNK_CANDIDATES = 1 << 18  # candidates a batched ball query tests at once

    def __init__(self, points, cell):
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        self.origin = column_min(pts) if len(pts) else np.zeros(3)
        extent = float((column_max(pts) - self.origin).max()) if len(pts) else 0.0
        # any cell size serves points that all coincide
        self.cell = max(float(cell), extent / self._MAX_CELLS) or 1.0
        idx = self.cells(pts)
        self.dims = column_max(idx) + 1 if len(pts) else np.ones(3, dtype=np.int64)
        self.strides = np.array([self.dims[1] * self.dims[2], self.dims[2], 1])
        keys = idx[:, 0] * self.strides[0] + idx[:, 1] * self.strides[1] + idx[:, 2]
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        # x, y and z of the points in key order, each contiguous
        self.coords = tuple(np.ascontiguousarray(pts[self.order, k]) for k in range(3))
        self._stencils = {}

    def cells(self, points):
        """(N, 3) int64 cell indices of points; outside the box they fall
        below 0 or at or above ``dims``, clamped to _MAX_CELLS cells past
        it: farther than any stencil reaches, and in int64 range."""
        cells = np.floor((points - self.origin) / self.cell)
        return np.clip(cells, -self._MAX_CELLS, 2 * self._MAX_CELLS, out=cells).astype(np.int64)

    def ranges(self, cells, columns):
        """Slices of ``order`` holding the points of cell runs.

        ``columns`` rows (ox, oy, oz_lo, oz_hi) name the cells
        (x + ox, y + oy, z + oz_lo ... z + oz_hi) around each (x, y, z) of
        ``cells``. Returns (start, stop), each (len(cells), len(columns));
        cells outside the box hold no points.
        """
        x = cells[:, 0, None] + columns[:, 0]
        y = cells[:, 1, None] + columns[:, 1]
        z_lo = np.maximum(cells[:, 2, None] + columns[:, 2], 0)
        z_hi = np.minimum(cells[:, 2, None] + columns[:, 3], self.dims[2] - 1)
        inside = ((x >= 0) & (x < self.dims[0]) & (y >= 0) & (y < self.dims[1])
                  & (z_lo <= z_hi))
        column = x * self.strides[0] + y * self.strides[1]
        start = np.searchsorted(self.keys, column + z_lo, side="left")
        stop = np.searchsorted(self.keys, column + z_hi, side="right")
        return start, np.where(inside, stop, start)

    def stencil(self, r, forward=False):
        """Columns for :meth:`ranges`: the cell offsets whose box gap to a
        cell is at most r, so that they hold every point within r of a
        point of that cell. ``forward`` keeps one of each pair of opposite
        offsets and the cell itself: ox > 0, or ox == 0 and oy > 0, or
        ox == oy == 0 and oz >= 0; rows go in (ox, oy) order, so that column leads."""
        if (r, forward) not in self._stencils:
            reach = int(r // self.cell) + 1
            gap2 = (np.maximum(np.arange(reach + 1) - 1, 0) * self.cell) ** 2
            ox, oy = (g.ravel() for g in np.meshgrid(np.arange(-reach, reach + 1),
                                                      np.arange(-reach, reach + 1),
                                                      indexing="ij"))
            room = r * r - gap2[np.abs(ox)] - gap2[np.abs(oy)]
            # gap2 grows with |oz|: count the offsets that fit in the room
            oz = (gap2 <= room[:, None]).sum(axis=1) - 1
            keep = room >= 0
            if forward:
                keep &= (ox > 0) | ((ox == 0) & (oy >= 0))
            oz_lo = np.where(forward & (ox == 0) & (oy == 0), 0, -oz)
            self._stencils[r, forward] = np.column_stack([ox, oy, oz_lo, oz])[keep]
        return self._stencils[r, forward]

    def query_ball_points(self, points, r):
        """Ascending indices of the points within r of each of points, by
        d^2 <= r^2 in this arithmetic, yielded in order; callers whose own
        distance test must not lose a point to rounding pad r by a
        relative margin.

        One :meth:`ranges` lookup serves all points; the distance tests
        then run on about _CHUNK_CANDIDATES candidates at a time, so the
        per-point cost is a slice rather than a dozen numpy calls.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        n = len(self.order)
        start, stop = self.ranges(self.cells(points), self.stencil(r))
        lens = np.maximum(stop - start, 0).sum(axis=1)
        # a batch starts at each point whose first candidate opens a new chunk
        first = np.flatnonzero(np.diff((np.cumsum(lens) - lens) // self._CHUNK_CANDIDATES,
                                       prepend=-1))
        for lo, hi in zip(first, np.r_[first[1:], len(points)]):
            pos = concat_ranges(start[lo:hi].ravel(), stop[lo:hi].ravel())
            owner = np.repeat(np.arange(lo, hi), lens[lo:hi])
            d2 = np.zeros(len(pos))
            for coord, column in zip(self.coords, points.T):
                delta = coord[pos] - column[owner]
                d2 += delta * delta
            near = d2 <= r * r
            owner = owner[near]
            # ascending point index within each owner: sort owner*n + index
            flat = np.sort(owner * n + self.order[pos[near]])
            counts = np.bincount(owner - lo, minlength=hi - lo)
            yield from np.split(flat - np.repeat(np.arange(lo, hi) * n, counts),
                                np.cumsum(counts)[:-1])


def column_min(a):
    """a.min(axis=0) of an (N, k) array, reduced one column at a time: the
    same values, several times faster than numpy's reduction across rows."""
    return np.array([column.min() for column in a.T])


def column_max(a):
    """a.max(axis=0) of an (N, k) array, reduced one column at a time."""
    return np.array([column.max() for column in a.T])


def concat_ranges(start, stop):
    """np.concatenate of np.arange(start[i], stop[i]) over i, without the
    loop; empty where stop <= start."""
    lens = np.maximum(stop - start, 0)
    ends = np.cumsum(lens)
    return np.repeat(start - ends + lens, lens) + np.arange(ends[-1] if len(ends) else 0)


def digitize(p, domain: GridDomain):
    """Map a world point to its voxel index, or None when outside the domain.

    Out-of-domain is an ordinary value here, not a failure. index_array's
    arithmetic on Python floats; NaN and +-inf fail the [0, dims) test.
    """
    t = [(x - o) / domain.gridstep
         for x, o in zip(np.ravel(p).tolist(), domain.origin.tolist())]
    inside = all(0 <= c < n for c, n in zip(t, domain.dims))
    return tuple(map(math.floor, t)) if inside else None


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

    Stored vectors need not be unit; voxels never set hold the zero vector.
    """

    domain: GridDomain
    values: np.ndarray

    @classmethod
    def zeros(cls, domain: GridDomain):
        return cls(domain, np.zeros(domain.dims + (3,), dtype=np.float64))
