"""Per-face normals oriented toward the tube interior.

Meshes get exact cross-product normals. Digital surfaces (voxel boundaries)
start from axis-aligned facet normals which are then smoothed by local
covariance analysis over the facets within a radius, found by pairing the
cells of a uniform cell hash; a cheap accumulation probe resolves which
global orientation actually points inward.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .core import CellHash, concat_ranges
from .errors import DegenerateFace, EmptyInput, SeedInvalid

_CELL_MARGIN = 1e-9  # relative cell padding, so rounding never drops a pair
_UNIT_TOL = 1e-12  # largest |n . n - 1| of a face normal (see OrientedFaceSet)
_CHUNK_PAIRS = 1 << 16  # candidate pairs tested, or neighbour pairs gathered, at once
# closed-form eigenvectors need the two smallest eigenvalues this far
# apart, relative to the largest eigenvalue magnitude; eigh solves the rest
_MIN_GAP = 1e-2

_FACET_DIRS = np.array([
    [1, 0, 0], [-1, 0, 0],
    [0, 1, 0], [0, -1, 0],
    [0, 0, 1], [0, 0, -1],
], dtype=np.int64)


@dataclass
class OrientedFaceSet:
    """Face centers with unit normals, in input face order.

    Construction raises a ValueError naming the first face whose center
    is not finite or whose normal n has |n . n - 1| > _UNIT_TOL. So
    |n| <= 1 + 5e-13: a scan, which stops short of acc_radius, stays
    inside the voxel that accumulation_domain pads beyond acc_radius, and
    accumulate._march tests no bounds.

    The (3, F) columns of the centers and normals are made on first use
    and kept (see columns), so centers and normals must not be modified
    in place after it.
    """

    centers: np.ndarray
    normals: np.ndarray
    _columns: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        if len(self.normals) != len(self.centers):
            raise ValueError("centers and normals must have equal length")
        # NaN and inf fail every test below
        off = np.abs(np.einsum("ij,ij->i", self.normals, self.normals) - 1.0)
        ok = (off <= _UNIT_TOL) & np.isfinite(self.centers).all(axis=1)
        if not ok.all():
            f = int(np.argmin(ok))
            raise ValueError(f"face {f} has center {self.centers[f]} and normal "
                             f"{self.normals[f]}, not a finite center and a unit normal "
                             f"(|n . n - 1| <= {_UNIT_TOL:g})")

    def __len__(self):
        return len(self.centers)

    def columns(self):
        """(centers, normals) as contiguous (3, F) arrays, one row per axis."""
        if self._columns is None:
            self._columns = (self.centers.T.copy(), self.normals.T.copy())
        return self._columns

    def flipped(self):
        """The faces with negated normals, unit as these are, so not checked
        again; its columns are this set's, the normals negated."""
        centers, normals = self.columns()
        out = copy.copy(self)
        out.normals, out._columns = -self.normals, (centers, -normals)
        return out


def face_normals(mesh) -> OrientedFaceSet:
    """Exact per-face normals and centroids of a triangle mesh, from its
    face geometry (TriMesh.geometry, computed once per mesh)."""
    geometry = mesh.geometry()
    norms = geometry.norms
    if not np.all((norms > 1e-12) & (norms < np.inf)):
        bad = int(np.argmin(np.where(norms < np.inf, norms, 0.0)))
        raise DegenerateFace(f"face {bad} has an area that is zero or overflows")
    return OrientedFaceSet(geometry.centers, geometry.cross / norms[:, None])


def digital_surface_faces(voxels) -> OrientedFaceSet:
    """Boundary facets of a voxel set with provisional outward axis normals.

    A voxel at lattice point p occupies the unit cube [p, p+1]^3; every cube
    face adjacent to a non-set voxel becomes one facet centered on that
    cube face. Facets come in voxel order, and per voxel in
    _FACET_DIRS order. Pass the result through estimate_digital_normals to
    get smoothed inward normals.
    """
    pts = voxels.points
    if len(pts) == 0:
        raise EmptyInput("voxel set is empty")
    keys, strides = voxels.lattice()
    # a neighbour p+d is set iff its key is among the sorted voxel keys;
    # load_volume's points come in key order, so the sort is usually done
    order = slice(None) if np.all(keys[:-1] <= keys[1:]) else np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    absent = np.empty((6, len(pts)), dtype=bool)
    # +-x, +-y: one row of needles per direction, sorted like the keys,
    # which searchsorted walks faster than interleaved ones
    nbr = (_FACET_DIRS[:4] @ strides)[:, None] + keys
    pos = np.searchsorted(sorted_keys, nbr)
    np.not_equal(sorted_keys[np.minimum(pos, len(pts) - 1)], nbr, out=absent[:4])
    # +-z (stride 1): key + 1 is set iff it is the next distinct key, and
    # key - 1 iff it is the previous one
    above, below = _next_keys_adjacent(sorted_keys)
    absent[4, order], absent[5, order] = ~above, ~below
    vox, facet = np.nonzero(absent.T)
    dirs = _FACET_DIRS[facet]
    return OrientedFaceSet(pts[vox] + 0.5 + 0.5 * dirs, dirs.astype(float))


def _next_keys_adjacent(sorted_keys):
    """(above, below): for each of the sorted int64 keys, whether key + 1
    and key - 1 are among them. Copies of a key share their answers."""
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    adjacent = np.diff(sorted_keys[starts]) == 1  # between distinct keys
    copies = np.diff(np.r_[starts, len(sorted_keys)])
    return (np.repeat(np.r_[adjacent, False], copies),
            np.repeat(np.r_[False, adjacent], copies))


def estimate_digital_normals(faces: OrientedFaceSet, radius: float) -> OrientedFaceSet:
    """Covariance-smoothed inward normals for digital surface facets.

    Each facet's normal becomes the smallest-eigenvalue eigenvector of the
    covariance of facet centers within `radius`, signed opposite to the
    provisional outward normal (so the result points inward). Facets with
    fewer than 3 neighbors get their negated provisional normal.

    One stable sort of the neighbourhood sizes groups the facets by size
    k, in facet order within a group. A group is taken in batches of
    about _CHUNK_PAIRS neighbour pairs; each batch's (m, 3, k) block of
    neighbour coordinates is taken one axis at a time, and its covariances,
    with np.cov's arithmetic (bias=True), go into one (n, 3, 3) array. Then
    _least_eigenvector solves all of them at once in closed form, and the
    sign step runs once over all rows. The eigenvectors are not LAPACK's
    bit for bit: they agree with np.linalg.eigh's to about 1e-15 where the
    two smallest eigenvalues are apart, and are eigh's own where they are
    not (see _least_eigenvector).
    """
    centers = faces.centers
    counts, members = _ball_neighbourhoods(centers, float(radius))
    starts = np.cumsum(counts) - counts
    normals = -faces.normals
    columns = [np.ascontiguousarray(centers[:, axis]) for axis in range(3)]
    by_size = np.argsort(counts, kind="stable")
    sizes = counts[by_size]
    # the facets with 3 or more neighbours, by size: a suffix of by_size
    skip = int(np.searchsorted(sizes, 3))
    solved = by_size[skip:]
    cov = np.empty((len(solved), 3, 3))
    first = skip + np.flatnonzero(np.diff(sizes[skip:], prepend=-1))
    for lo, hi in zip(first, np.r_[first[1:], len(sizes)]):
        k = int(sizes[lo])
        # a group in batches of about _CHUNK_PAIRS pairs, so that on flat
        # surfaces, where most facets share one size, the group's block
        # does not set the peak; every facet's numbers are its own
        batch = max(_CHUNK_PAIRS // k, 1)
        for at in range(lo, hi, batch):
            stop = min(at + batch, hi)
            rows = by_size[at:stop]
            idx = members[starts[rows, None] + np.arange(k)]
            # (m, 3, k): the k neighbour centers of each facet, centred
            local = np.empty((len(rows), 3, k))
            for axis, column in enumerate(columns):
                np.take(column, idx, out=local[:, axis, :])
            local -= local.mean(axis=2, keepdims=True)
            block = cov[at - skip:stop - skip]
            np.matmul(local, local.transpose(0, 2, 1), out=block)
            block *= 1.0 / k
    n = _least_eigenvector(cov)
    # sign-match to outward, then flip inward
    opposed = (n * faces.normals[solved]).sum(axis=1) < 0
    normals[solved] = np.where(opposed[:, None], n, -n)
    return OrientedFaceSet(centers, normals)


def _least_eigenvector(cov):
    """(n, 3) unit eigenvectors of the smallest eigenvalues of the
    symmetric (n, 3, 3) matrices `cov`.

    The eigenvalues are the trigonometric roots of the characteristic
    cubic (Smith, CACM 1961): with q = trace/3 and p = |cov - qI|_F/sqrt(6),
    they are q + 2p cos(phi + 2 pi j/3), j = 0, 1, 2, where
    phi = arccos(det((cov - qI)/p)/2)/3. The eigenvector of the smallest,
    lo, is the longest cross product of two rows of cov - lo I (Kopp,
    2008). Its error grows as the gap to the middle eigenvalue shrinks, so
    rows whose two smallest eigenvalues differ by no more than _MIN_GAP of
    the largest eigenvalue magnitude (zero, isotropic and rank-1 matrices
    among them), and rows whose longest cross product is zero or not
    finite, take np.linalg.eigh's eigenvector instead.
    """
    m = len(cov)
    # the lower triangle, which np.linalg.eigh reads too
    a, _, _, d, b, _, e, f, c = cov.reshape(m, 9).T.copy()
    with np.errstate(all="ignore"):
        q = (a + b + c) / 3.0
        a0, b0, c0 = a - q, b - q, c - q
        p = np.sqrt((a0 * a0 + b0 * b0 + c0 * c0 + 2.0 * (d * d + e * e + f * f)) / 6.0)
        det = a0 * (b0 * c0 - f * f) - d * (d * c0 - f * e) + e * (d * f - b0 * e)
        phi = np.arccos(np.clip(det / (2.0 * p * p * p), -1.0, 1.0)) / 3.0
        lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        hi = q + 2.0 * p * np.cos(phi)
        gap = (3.0 * q - lo - hi) - lo  # the middle eigenvalue minus lo
        # the rows of cov - lo I, crossed pairwise: (pair, component, row)
        a0, b0, c0 = a - lo, b - lo, c - lo
        crosses = np.array([
            [d * f - e * b0, e * d - a0 * f, a0 * b0 - d * d],
            [d * c0 - e * f, e * e - a0 * c0, a0 * f - d * e],
            [b0 * c0 - f * f, f * e - d * c0, d * f - b0 * e],
        ])
        x, y, z = crosses.transpose(1, 0, 2)
        lengths = np.sqrt(x * x + y * y + z * z)
        longest = np.argmax(lengths, axis=0)
        rows = np.arange(m)
        length = lengths[longest, rows]
        v = crosses[longest, :, rows] / length[:, None]
        fallback = ~((gap > _MIN_GAP * np.maximum(np.abs(lo), np.abs(hi)))
                     & (length > 0) & (length < np.inf))
    if fallback.any():
        v[fallback] = np.linalg.eigh(cov[fallback])[1][:, :, 0]
    return v


def _ball_neighbourhoods(centers, radius):
    """Ascending indices of the centers within `radius` of each center, in
    CSR form: (counts, members), the neighbours of i being
    members[sum(counts[:i]) : sum(counts[:i + 1])]. Same sets as
    a k-d tree's query_ball_point, each center included.

    Centers are hashed in cells of about radius/2. Each cell lists the centers
    of its forward stencil, own column first, so its own centers lead; center
    i (in cell order) is tested against the tail of its cell's list after
    itself, as d^2 <= radius^2. A passing pair writes the keys i*n + j and
    j*n + i into one key array sized by the candidate count, after the self
    keys i*n + i; sorting it in place orders the keys by center, then by
    neighbour, so the counts and members are read off the keys.
    """
    n = len(centers)
    grid = CellHash(centers, 0.5 * radius * (1.0 + _CELL_MARGIN))
    first_of_cell = np.flatnonzero(np.diff(grid.keys, prepend=-1))
    cell_start, cell_stop = grid.ranges(grid.cells(centers[grid.order[first_of_cell]]),
                                        grid.stencil(radius, forward=True))
    lists = concat_ranges(cell_start.ravel(), cell_stop.ravel())
    list_stop = np.cumsum((cell_stop - cell_start).sum(axis=1))
    # i's place in its cell's list is its place among the cell's centers
    cell_of = np.repeat(np.arange(len(first_of_cell)), np.diff(np.r_[first_of_cell, n]))
    stop = list_stop[cell_of]
    start = np.arange(1, n + 1) + np.r_[0, list_stop[:-1]][cell_of] - first_of_cell[cell_of]
    lens = stop - start
    bounds = np.searchsorted(np.cumsum(lens), np.arange(0, lens.sum(), _CHUNK_PAIRS),
                             side="right")
    # 32-bit keys, where they fit, sort about twice as fast
    key_type = np.uint32 if n * n <= np.iinfo(np.uint32).max else np.int64
    keys = np.empty(n + 2 * int(lens.sum()), dtype=key_type)
    keys[:n] = np.arange(n, dtype=key_type) * key_type(n + 1)
    used = n
    order = grid.order.astype(key_type)
    for lo, hi in zip(bounds, np.r_[bounds[1:], n]):
        j = lists[concat_ranges(start[lo:hi], stop[lo:hi])]
        d2 = np.zeros(len(j))
        for coord in grid.coords:
            delta = coord[j]
            delta -= np.repeat(coord[lo:hi], lens[lo:hi])
            delta *= delta
            d2 += delta
        near = np.flatnonzero(d2 <= radius * radius)
        passes = np.diff(np.searchsorted(near, np.cumsum(lens[lo:hi])), prepend=0)
        oi, oj = np.repeat(order[lo:hi], passes), order[j[near]]
        m = len(oi)
        keys[used:used + m] = oi * key_type(n) + oj
        keys[used + m:used + 2 * m] = oj * key_type(n) + oi
        used += 2 * m
    keys = keys[:used]
    keys.sort()
    counts = np.diff(np.searchsorted(keys, np.arange(n + 1, dtype=key_type) * key_type(n)))
    # keys mod n, which np.remainder computes several times slower
    keys -= keys // key_type(n) * key_type(n)
    return counts, keys.astype(np.intp)


def orient_inward(faces: OrientedFaceSet, mode="auto",
                  radius=None) -> OrientedFaceSet:
    """Resolve the global inward/outward ambiguity of a face set.

    mode="flip" negates all normals, mode="keep" returns the input as is,
    and mode="auto" scans both orientations at the tube radius on a
    lattice of step radius/3 and keeps the one whose fullest voxel has
    more votes (inward scans pile up on the axis, outward scans disperse);
    count_peak computes that count alone. A tie raises SeedInvalid: the
    probe cannot tell the orientations apart, which a wrong radius can cause.
    """
    if mode == "keep":
        return faces
    if mode == "flip":
        return faces.flipped()
    if mode != "auto":
        raise ValueError(f"unknown orientation mode {mode!r}")

    from .accumulate import AccumulationParams, count_peak

    if radius is None:
        raise ValueError("mode 'auto' needs the tube radius")
    # 3 steps per scan whatever the extent: a step tied to the extent gave
    # long tubes one-voxel scans, on which both orientations tie
    params = AccumulationParams(radius=radius, epsilon=0.0, gridstep=radius / 3.0)
    flipped = faces.flipped()
    kept_max = count_peak(faces, params).max_acc
    flipped_max = count_peak(flipped, params).max_acc
    if kept_max == flipped_max:
        raise SeedInvalid(f"orientation probe ties at {kept_max} votes at radius "
                          f"{radius:g}; the tube radius may be wrong, or pass the "
                          "orientation explicitly")
    return faces if kept_max > flipped_max else flipped
