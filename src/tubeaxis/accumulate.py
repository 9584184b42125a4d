"""Directional vote accumulation along inward face normals.

Every face casts a ray from its center along its (inward) unit normal,
stepping by gridstep while still closer than accRadius to the start. Each
visited voxel counts one vote; from the second visit on, the cross product
of the previous and current visiting normals accumulates into a principal
direction per voxel. For an ideal tube of radius R and accRadius slightly
above R, votes pile up on the axis and the per-voxel direction aligns with
it.

The votes are kept in a table of the visited voxels, not in grids sized by
the bounding box: the sorted int64 linear ids of the voxels that received
a vote (C order over the domain dims), with a uint32 count beside each.
Rays only visit a shell around the axis, so the table grows with faces x
steps while the domain grows with the volume of the box. Readers look
voxels up with searchsorted on the ids; a voxel missing from the table
holds 0. The dense `acc` and `directions` grids of a result are scattered
from the table the first time they are read (to write them out, say);
tracking never reads them.

The implementation is vectorized but reproduces the sequential per-face,
per-step semantics bit for bit. Votes are order-free. The direction update
has a sign that depends on the running value, but a voxel's direction only
changes when that voxel is visited. So the events are kept grouped by
voxel in chronological order (as int32 face ids), and a voxel's direction
sum is replayed from its own group when it is read: tracking reads a few
dozen voxels, the `accumulate` subcommand all of them. The min_norm gate
does not depend on the running value, so it runs on all pairs at once, and
only the passing pairs are replayed: the k-th of many voxels in one
vectorized step, those of one voxel (as tracking reads it) one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GridDomain, ScalarGrid3, VectorGrid3
from .errors import DomainTooLarge, EmptyInput

_STEP_EPS = 1e-9
_INT64_MAX = np.iinfo(np.int64).max
# events per direction-replay chunk; a chunk holds whole voxel groups
_CHUNK = 1 << 14
_WIDE = 64  # fewest voxel groups replayed in one vectorized step


@dataclass(frozen=True)
class AccumulationParams:
    """Scan geometry: tube radius, slack, lattice resolution.

    acc_radius = radius + epsilon bounds the scan length; epsilon defaults
    to 0.1*radius. min_norm discards near-parallel normal pairs whose cross
    product is too short to carry direction information.
    """

    radius: float
    epsilon: float | None = None
    gridstep: float = 1.0
    min_norm: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")
        if not (math.isfinite(self.gridstep) and self.gridstep > 0):
            raise ValueError("gridstep must be positive and finite")
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", 0.1 * self.radius)
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be >= 0 and finite")
        if not 0 < self.min_norm < 1:
            raise ValueError("min_norm must be in (0, 1)")

    @property
    def acc_radius(self):
        return self.radius + self.epsilon

    @property
    def n_steps(self):
        """Number of marching positions per scan (distance < acc_radius)."""
        return int(math.ceil(self.acc_radius / self.gridstep - _STEP_EPS))


class AccumulationResult:
    """Votes per visited voxel, the seed voxel and the direction sums.

    `keys` are the sorted int64 linear ids of the visited voxels and
    `counts` their uint32 votes; `acc` is the dense count grid, scattered
    from the table on first read. The direction sums are replayed from the
    kept events where they are read: `direction_at` replays one voxel's
    row on its first read, `dirs` (the (n_keys, 3) table) every row on
    first access, with the same bits. A `dirs` table given by hand is read
    as it is. `directions` is the dense grid scattered from `dirs`. The
    faces' normals are read by the replay, so they must not change in place.
    """

    def __init__(self, domain, keys, counts, max_acc, max_pt, dirs=None, *,
                 events=None):
        self.domain = domain
        self.keys = keys
        self.counts = counts
        self.max_acc = max_acc
        self.max_pt = max_pt
        # (face_of, bounds, normals, min_norm): see _replay_directions
        self._events = events
        self._rows = {}
        if dirs is not None:
            self.dirs = dirs

    @cached_property
    def acc(self) -> ScalarGrid3:
        grid = ScalarGrid3.zeros(self.domain)
        grid.values.reshape(-1)[self.keys] = self.counts
        return grid

    @cached_property
    def dirs(self) -> np.ndarray:
        return _replay_directions(*self._events, 0, len(self.keys))

    def direction_at(self, key):
        """Direction sum of the voxel with linear id key; 0 if it has no vote."""
        row = int(np.searchsorted(self.keys, key))
        if row == len(self.keys) or self.keys[row] != key:
            return np.zeros(3)
        if "dirs" in vars(self):
            return self.dirs[row]
        if row not in self._rows:
            self._rows[row] = _replay_directions(*self._events, row, row + 1)[0]
        return self._rows[row]

    @cached_property
    def directions(self) -> VectorGrid3:
        grid = VectorGrid3.zeros(self.domain)
        grid.values.reshape(-1, 3)[self.keys] = self.dirs
        return grid


def accumulation_domain(points, params: AccumulationParams) -> GridDomain:
    """Bounding lattice of the scan: point bbox plus acc_radius and one
    voxel of margin on every side. Every scan starts inside it.

    Raises DomainTooLarge when its voxels cannot all have int64 linear ids.
    """
    points = np.atleast_2d(points)
    if points.size == 0:
        raise EmptyInput("no points to build a domain around")
    pad = params.acc_radius + params.gridstep
    # column by column: numpy's axis-0 reduction of an (N, 3) array is
    # several times slower
    lo = np.array([column.min() for column in points.T]) - pad
    hi = np.array([column.max() for column in points.T]) + pad
    dims = np.maximum(np.ceil((hi - lo) / params.gridstep), 1)
    if np.any(dims >= 2.0 ** 63):  # the int cast would wrap
        raise DomainTooLarge(f"a domain of {dims} voxels is too large to index")
    domain = GridDomain(origin=lo, gridstep=params.gridstep, dims=tuple(dims.astype(int)))
    if domain.voxel_count > _INT64_MAX:
        raise DomainTooLarge(f"a domain of {domain.dims} voxels is too large to index")
    return domain


def _march(centers, normals, params, domain):
    """Linear voxel id of every (step, face) scan position, shape (S, F).

    ``centers`` and ``normals`` are (3, F): one contiguous row per axis.

    Row s holds every face's position s steps along its ray; face f's s-th
    position is event f * S + s of the sequential visit order. Positions
    outside the domain get id -1: a ray starts inside the domain, which is
    padded by acc_radius, but a non-unit normal can carry it out. The
    domain box is convex, so a ray that exits never re-enters and dropping
    those positions is a clean truncation.

    Each row is built one axis at a time, in place: the voxel index
    floor(((c + dist * n) - origin) / gridstep) is tested against the
    bounds and added times its stride.
    """
    n_faces = centers.shape[1]
    strides = domain.strides
    rows = np.empty((params.n_steps, n_faces), dtype=np.int64)
    pos = np.empty(n_faces)
    index = np.empty(n_faces, dtype=np.int64)
    inside = np.empty(n_faces, dtype=bool)
    test = np.empty(n_faces, dtype=bool)
    steps = np.arange(params.n_steps, dtype=float) * params.gridstep
    for ids, dist in zip(rows, steps):
        ids.fill(0)
        inside.fill(True)
        for axis in range(3):
            np.multiply(normals[axis], dist, out=pos)
            pos += centers[axis]
            pos -= domain.origin[axis]
            pos /= domain.gridstep
            np.floor(pos, out=pos)
            inside &= np.greater_equal(pos, 0, out=test)
            inside &= np.less(pos, domain.dims[axis], out=test)
            np.copyto(index, pos, casting="unsafe")
            index *= strides[axis]
            ids += index
        ids[~inside] = -1
    return rows


def _runs(sorted_ids):
    """(starts, keys, counts) of the runs of equal ids in a sorted id
    array that holds no out-of-domain (-1) entries; counts are uint32."""
    new = np.empty(len(sorted_ids), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.empty(len(starts), dtype=np.uint32)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1], casting="unsafe")
    counts[-1:] = len(sorted_ids) - starts[-1:]
    return starts, sorted_ids[starts], counts


def _group_events(ids, voxel_count):
    """(order, sorted_ids) of the in-domain events, grouped by voxel id and
    in chronological order inside each group, as a stable argsort would give.

    ``ids`` holds the march's (S, F) step rows, or one row of events in
    visit order. One sort of the packed keys id * E + event index does it:
    they are unique, so their order is the (id, index) order, and
    out-of-domain events (id -1) pack to negative keys that sort first.
    The keys are packed, sorted and split in place, so ``ids`` is
    overwritten and ``order`` is a view of it.
    """
    rows = np.atleast_2d(ids)
    n_steps = len(rows)
    n_events = rows.size
    if voxel_count * n_events > _INT64_MAX:
        raise DomainTooLarge(f"{n_events} vote events in {voxel_count} voxels "
                             "overflow the int64 sort keys")
    for s, row in enumerate(rows):
        row *= n_events
        row += np.arange(s, n_events, n_steps)
    packed = rows.reshape(-1)
    packed.sort()
    packed = packed[np.searchsorted(packed, 0):]
    sorted_ids = packed // n_events
    return np.remainder(packed, n_events, out=packed), sorted_ids


def _replay_directions(face_of, bounds, normals, min_norm, first, stop):
    """(stop - first, 3) direction sums of the voxel groups first .. stop - 1.

    Group r's events are the faces face_of[bounds[r]:bounds[r + 1]] in visit
    order; ``normals`` is (F, 3). The min_norm gate runs on all pairs of a
    chunk at once, with np.cross's and np.linalg.norm's arithmetic. Then
    the k-th passing pair of every group is added in one vectorized step
    while _WIDE groups have one, and the rest one pair at a time, with the
    step's bits: einsum's dot ((sx x + sy y) + sz z), and a sign of -1 as
    a subtraction. Chunks hold whole groups: at most _CHUNK events, or one
    larger group.
    """
    out = np.zeros((stop - first, 3))
    i = first
    while i < stop:
        j = min(max(int(np.searchsorted(bounds, bounds[i] + _CHUNK, "right")) - 1,
                    i + 1), stop)
        e0 = bounds[i]
        # pair k joins the chunk's events k and k + 1
        prev = normals.take(face_of[e0:bounds[j]], axis=0).T
        prev, cur = prev[:, :-1], prev[:, 1:]
        axes = np.empty_like(prev)
        for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.subtract(prev[a] * cur[b], prev[b] * cur[a], out=axes[c])
        ok = np.sqrt((axes[0] * axes[0] + axes[1] * axes[1]) + axes[2] * axes[2]) > min_norm
        ok[bounds[i + 1:j] - e0 - 1] = False  # pairs across two groups
        pair = np.flatnonzero(ok)
        axes = axes[:, pair].T
        row = np.searchsorted(bounds[i:j], e0 + pair, "right") + (i - 1 - first)
        starts, _, n_pass = _runs(row)
        live, k = np.arange(len(starts)), 0
        while len(live) >= _WIDE:
            at = starts[live] + k
            step, rows = axes[at], row[at]
            current = out[rows]
            sign = np.sign(np.einsum("ij,ij->i", step, current))
            sign[sign == 0] = 1.0
            current += step * sign[:, None]
            out[rows] = current
            k += 1
            live = live[n_pass[live] > k]
        for a, b in zip((starts[live] + k).tolist(), (starts[live] + n_pass[live]).tolist()):
            sx, sy, sz = out[row[a]].tolist()
            for x, y, z in axes[a:b].tolist():
                dot = (sx * x + sy * y) + sz * z
                if dot < 0:
                    sx, sy, sz = sx - x, sy - y, sz - z
                elif dot >= 0:
                    sx, sy, sz = sx + x, sy + y, sz + z
                else:  # a NaN dot is np.sign's sign too
                    sx, sy, sz = sx + x * dot, sy + y * dot, sz + z * dot
            out[row[a]] = sx, sy, sz
        i = j
    return out


def compute_accumulation(faces, params: AccumulationParams) -> AccumulationResult:
    """Vote table of all scans over accumulation_domain(faces.centers,
    params), and the events its directions are replayed from.

    max_pt is the voxel whose count first reached the final maximum, in
    scan order (ties on the count value are impossible under the
    strictly-greater update rule this mirrors).
    """
    if len(faces) == 0:
        raise EmptyInput("no faces to accumulate")
    domain = accumulation_domain(faces.centers, params)
    ids = _march(faces.centers.T.copy(), faces.normals.T.copy(), params, domain)
    n_steps = len(ids)
    order, sorted_ids = _group_events(ids, domain.voxel_count)
    del ids
    starts, keys, counts = _runs(sorted_ids)
    del sorted_ids
    max_acc = int(counts.max())

    # first voxel to reach the final maximum wins
    at_max = np.flatnonzero(counts == max_acc)
    winner = at_max[np.argmin(order[starts[at_max] + max_acc - 1])]
    max_pt = np.unravel_index(keys[winner], domain.dims)

    order //= n_steps  # event -> face; the int64 march buffer is not kept
    face_of = order.astype(np.int32 if len(faces) < 2 ** 31 else np.int64)
    events = (face_of, np.append(starts, len(face_of)), faces.normals, params.min_norm)
    return AccumulationResult(domain=domain, keys=keys, counts=counts,
                              max_acc=max_acc, max_pt=tuple(int(i) for i in max_pt),
                              events=events)
