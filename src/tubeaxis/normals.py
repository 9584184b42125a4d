"""Per-face normals oriented toward the tube interior.

Meshes get exact cross-product normals. Digital surfaces (voxel boundaries)
start from axis-aligned facet normals which are then smoothed by local
covariance analysis over the facets within a radius, found by pairing the
cells of a uniform cell hash; a cheap accumulation probe resolves which
global orientation actually points inward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CellHash, column_max, column_min, concat_ranges
from .errors import DegenerateFace, EmptyInput, SeedInvalid

_CELL_MARGIN = 1e-9  # relative cell padding, so rounding never drops a pair
_CHUNK_PAIRS = 1 << 16  # candidate pairs tested at once

_FACET_DIRS = np.array([
    [1, 0, 0], [-1, 0, 0],
    [0, 1, 0], [0, -1, 0],
    [0, 0, 1], [0, 0, -1],
], dtype=np.int64)


@dataclass
class OrientedFaceSet:
    """Face centers with unit normals and areas, in input face order."""

    centers: np.ndarray
    normals: np.ndarray
    areas: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        self.areas = np.asarray(self.areas, dtype=float).ravel()
        n = len(self.centers)
        if len(self.normals) != n or len(self.areas) != n:
            raise ValueError("centers, normals and areas must have equal length")

    def __len__(self):
        return len(self.centers)

    def flipped(self):
        return OrientedFaceSet(self.centers, -self.normals, self.areas)


def face_normals(mesh) -> OrientedFaceSet:
    """Exact per-face normals, centroids and areas of a triangle mesh, from
    its face geometry (TriMesh.geometry, computed once per mesh).

    If the mesh carries precomputed unit normals they take precedence over
    the cross-product orientation.
    """
    geometry = mesh.geometry()
    norms = geometry.norms
    if np.any(norms <= 1e-12):
        bad = int(np.argmin(norms))
        raise DegenerateFace(f"face {bad} has zero area")
    normals = geometry.cross / norms[:, None]
    if mesh.face_normals is not None and len(mesh.face_normals) == len(normals):
        normals = mesh.face_normals / np.linalg.norm(mesh.face_normals, axis=1)[:, None]
    return OrientedFaceSet(geometry.centers, normals, 0.5 * norms)


def digital_surface_faces(voxels) -> OrientedFaceSet:
    """Boundary facets of a voxel set with provisional outward axis normals.

    A voxel at lattice point p occupies the unit cube [p, p+1]^3; every cube
    face adjacent to a non-set voxel becomes one facet of area 1 centered on
    that cube face. Facets come in voxel order, and per voxel in
    _FACET_DIRS order. Pass the result through estimate_digital_normals to
    get smoothed inward normals.
    """
    pts = np.asarray(voxels.points, dtype=np.int64).reshape(-1, 3)
    if len(pts) == 0:
        raise EmptyInput("voxel set is empty")
    keys, strides = _lattice_keys(pts)
    # a neighbour p+d is set iff its key is among the sorted voxel keys
    nbr = keys[:, None] + _FACET_DIRS @ strides
    sorted_keys = np.sort(keys)
    pos = np.searchsorted(sorted_keys, nbr)
    absent = sorted_keys[np.minimum(pos, len(pts) - 1)] != nbr
    vox, facet = np.nonzero(absent)
    dirs = _FACET_DIRS[facet]
    return OrientedFaceSet(pts[vox] + 0.5 + 0.5 * dirs,
                           dirs.astype(float),
                           np.ones(len(vox)))


def _lattice_keys(pts):
    """(keys, strides): distinct int64 keys for lattice points and their
    6 neighbours.

    Each axis is compressed to the sorted distinct values of x-1, x and x+1
    over the points, so a point's neighbours are exactly one rank away and
    p+d has key key(p) + d @ strides. They are the distinct values of
    v-1, v and v+1 over the axis's distinct values v, and a point's rank
    is its position among them. Keys are mixed-radix over the axis sizes;
    the product of the sizes is checked to fit in int64, so no two lattice
    points share a key.
    """
    info = np.iinfo(np.int64)
    if pts.min() <= info.min or pts.max() >= info.max:
        raise ValueError("voxel coordinates must lie strictly inside the int64 range")
    ranks = np.empty_like(pts)
    sizes = []
    for axis in range(3):
        v = _sorted_distinct(pts[:, axis])
        values = _sorted_distinct(np.concatenate([v - 1, v, v + 1]))
        ranks[:, axis] = np.searchsorted(values, pts[:, axis])
        sizes.append(len(values))
    if sizes[0] * sizes[1] * sizes[2] > info.max:
        raise ValueError(f"voxel coordinates too spread out to index "
                         f"({sizes[0]} x {sizes[1]} x {sizes[2]} distinct values)")
    strides = np.array([sizes[1] * sizes[2], sizes[2], 1], dtype=np.int64)
    return ranks @ strides, strides


def _sorted_distinct(a):
    """np.unique(a) by sorting: numpy's hashing path, which np.unique takes
    when it returns no indices, is many times slower on millions of
    distinct values."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


def estimate_digital_normals(faces: OrientedFaceSet, radius: float) -> OrientedFaceSet:
    """Covariance-smoothed inward normals for digital surface facets.

    Each facet's normal becomes the smallest-eigenvalue eigenvector of the
    covariance of facet centers within `radius`, signed opposite to the
    provisional outward normal (so the result points inward). Facets with
    fewer than 3 neighbors get their negated provisional normal.

    One stable sort of the neighbourhood sizes groups the facets by size
    k, in facet order within a group. Each group's (m, 3, k) block of
    neighbour coordinates is taken one axis at a time, and its covariances
    go through one batched eigh; the arithmetic is that of np.cov with
    bias=True, so every normal equals the per-facet computation bit for bit.
    """
    centers = faces.centers
    counts, members = _ball_neighbourhoods(centers, float(radius))
    starts = np.cumsum(counts) - counts
    normals = -faces.normals
    columns = [np.ascontiguousarray(centers[:, axis]) for axis in range(3)]
    by_size = np.argsort(counts, kind="stable")
    sizes = counts[by_size]
    first = np.flatnonzero(np.diff(sizes, prepend=-1))
    for lo, hi in zip(first, np.r_[first[1:], len(sizes)]):
        k = int(sizes[lo])
        if k < 3:
            continue
        rows = by_size[lo:hi]
        idx = members[starts[rows, None] + np.arange(k)]
        # (m, 3, k): the k neighbour centers of each facet, centred
        local = np.empty((len(rows), 3, k))
        for axis, column in enumerate(columns):
            np.take(column, idx, out=local[:, axis, :])
        local -= local.mean(axis=2, keepdims=True)
        cov = local @ local.transpose(0, 2, 1)
        cov *= 1.0 / k
        n = np.linalg.eigh(cov)[1][:, :, 0]
        # sign-match to outward, then flip inward
        opposed = (n * faces.normals[rows]).sum(axis=1) < 0
        normals[rows] = np.where(opposed[:, None], n, -n)
    return OrientedFaceSet(centers, normals, faces.areas)


def _ball_neighbourhoods(centers, radius):
    """Ascending indices of the centers within `radius` of each center, in
    CSR form: (counts, members), the neighbours of i being
    members[sum(counts[:i]) : sum(counts[:i + 1])]. Same sets as
    a k-d tree's query_ball_point, each center included.

    Centers are hashed in cells of about radius/2. Each cell is paired
    with the cells of the forward half of the stencil that can hold a
    center within radius, and every pair (i, j), i before j in cell order,
    is tested as d^2 <= radius^2. A passing pair writes the keys i*n + j
    and j*n + i into one key array sized by the candidate count, after the
    self keys i*n + i; sorting it in place orders the keys by center, then
    by neighbour, so the counts and members are read off the keys.
    """
    n = len(centers)
    grid = CellHash(centers, 0.5 * radius * (1.0 + _CELL_MARGIN))
    # the cells in sorted order, each with the slices of its columns
    first_of_cell = np.flatnonzero(np.diff(grid.keys, prepend=-1))
    cell_start, cell_stop = grid.ranges(grid.cells(centers[grid.order[first_of_cell]]),
                                        grid.stencil(radius, forward=True))
    cell_of = np.repeat(np.arange(len(first_of_cell)), np.diff(np.r_[first_of_cell, n]))
    # j runs over the column slices of i's cell, past i itself
    start = np.maximum(cell_start[cell_of], np.arange(1, n + 1)[:, None])
    stop = cell_stop[cell_of]
    lens = np.maximum(stop - start, 0).sum(axis=1)
    bounds = np.searchsorted(np.cumsum(lens), np.arange(0, lens.sum(), _CHUNK_PAIRS),
                             side="right")
    # 32-bit keys, where they fit, sort about twice as fast
    key_type = np.uint32 if n * n <= np.iinfo(np.uint32).max else np.int64
    keys = np.empty(n + 2 * int(lens.sum()), dtype=key_type)
    keys[:n] = np.arange(n, dtype=key_type) * key_type(n + 1)
    used = n
    order = grid.order.astype(key_type)
    for lo, hi in zip(bounds, np.r_[bounds[1:], n]):
        j = concat_ranges(start[lo:hi].ravel(), stop[lo:hi].ravel())
        i = np.repeat(np.arange(lo, hi), lens[lo:hi])
        d2 = np.zeros(len(j))
        for coord in grid.coords:
            delta = coord[j]
            delta -= coord[i]
            delta *= delta
            d2 += delta
        near = d2 <= radius * radius
        oi, oj = order[i[near]], order[j[near]]
        m = len(oi)
        keys[used:used + m] = oi * key_type(n) + oj
        keys[used + m:used + 2 * m] = oj * key_type(n) + oi
        used += 2 * m
    del start, stop  # freed before the members are made, which set the peak
    keys = keys[:used]
    keys.sort()
    counts = np.diff(np.searchsorted(keys, np.arange(n + 1, dtype=key_type) * key_type(n)))
    np.remainder(keys, key_type(n), out=keys)
    return counts, keys.astype(np.intp)


def orient_inward(faces: OrientedFaceSet, mesh=None, mode="auto",
                  radius=None) -> OrientedFaceSet:
    """Resolve the global inward/outward ambiguity of a face set.

    mode="flip" negates all normals, mode="keep" returns the input as is,
    and mode="auto" counts the votes of both orientations on a lattice of
    step radius/3 (no directions) and keeps whichever concentrates more
    votes (inward scans pile up on the axis, outward scans disperse). A
    tie raises SeedInvalid: the probe cannot tell the orientations apart.
    """
    if mode == "keep":
        return faces
    if mode == "flip":
        return faces.flipped()
    if mode != "auto":
        raise ValueError(f"unknown orientation mode {mode!r}")

    from .accumulate import AccumulationParams, accumulate_counts

    if radius is None:
        extent = float((column_max(faces.centers) - column_min(faces.centers)).max())
        radius = 0.25 * max(extent, 1e-9)
    # 3 steps per scan whatever the extent: a step tied to the extent gave
    # long tubes one-voxel scans, on which both orientations tie
    params = AccumulationParams(radius=radius, epsilon=0.0, gridstep=radius / 3.0)
    flipped = faces.flipped()
    kept_max = accumulate_counts(faces, params).max_acc
    flipped_max = accumulate_counts(flipped, params).max_acc
    if kept_max == flipped_max:
        raise SeedInvalid(f"orientation probe ties at {kept_max} votes; "
                          "pass the orientation explicitly")
    return faces if kept_max > flipped_max else flipped
