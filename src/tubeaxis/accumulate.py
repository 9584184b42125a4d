"""Directional vote accumulation along inward face normals.

Every face casts a ray from its center along its (inward) unit normal,
stepping by gridstep while still closer than accRadius to the start. Each
visited voxel counts one vote. For an ideal tube of radius R and accRadius
slightly above R, votes pile up on the axis. The normals are unit
(OrientedFaceSet checks them), so every vote lands in accumulation_domain.

The votes are kept in a table of the visited voxels, not in grids sized by
the bounding box: the sorted int64 linear ids of the voxels that received
a vote (C order over the domain dims), with a uint32 count beside each.
Rays only visit a shell around the axis, so the table grows with faces x
steps while the domain grows with the volume of the box. Readers look
voxels up with searchsorted on the ids; a voxel missing from the table
holds 0. The dense `acc` and `directions` grids of a result are scattered
from the table the first time they are read; tracking never reads them,
and the `accumulate` subcommand writes the table itself.

A voxel's direction comes from the normals of its own vote events, kept
grouped by voxel (as int32 face ids): the least eigenvector of their
tensor, the sum of n n^T (see _tensor_directions). The tensor is
order-free, so the direction is computed where it is read: tracking reads
a few dozen voxels, the `accumulate` subcommand all of them. This departs
from the paper's direction image, a sign-dependent running sum of the
cross products of consecutive visiting normals.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GridDomain, ScalarGrid3, VectorGrid3, column_max, column_min
from .errors import DomainTooLarge, EmptyInput, TooSmall, check_setting

_STEP_EPS = 1e-9
_INT64_MAX = np.iinfo(np.int64).max
_FAR = 2.0 ** 48  # gridsteps from 0 below which rounding stays far inside a voxel
_BLOCK = 1 << 16  # events whose remainders one step computes
# largest share of the trace the least eigenvalue of a direction's normal
# tensor may hold, and smallest share the middle one must
_FLAT = 0.02
# (row, column) of the upper triangle of a 3 x 3 matrix
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
VotePeak = namedtuple("VotePeak", "max_acc")


@dataclass(frozen=True)
class AccumulationParams:
    """Scan geometry: tube radius, slack, lattice resolution.

    acc_radius = radius + epsilon bounds the scan length; epsilon defaults
    to 0.1*radius. A value outside errors.LIMITS is an OutOfRange.
    """

    radius: float
    epsilon: float | None = None
    gridstep: float = 1.0

    def __post_init__(self):
        check_setting("radius", self.radius)
        check_setting("gridstep", self.gridstep)
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", 0.1 * self.radius)
        check_setting("epsilon", self.epsilon)

    @property
    def acc_radius(self):
        return self.radius + self.epsilon

    @property
    def n_steps(self):
        """Number of marching positions per scan (distance < acc_radius)."""
        return int(math.ceil(self.acc_radius / self.gridstep - _STEP_EPS))


class AccumulationResult:
    """Votes per visited voxel, the seed voxel and the voxel directions.

    `keys` are the sorted int64 linear ids of the visited voxels and
    `counts` their uint32 votes; `acc` is the dense count grid, scattered
    from the table on first read. The directions (unit vectors, or 0 where
    a voxel's normals fix none; see _tensor_directions) are computed from
    the kept events where they are read: `direction_at` computes one
    voxel's row, `dirs` (the (n_keys, 3) table) every row on first access,
    with the same bits. A `dirs` table given by hand is read as it is.
    `directions` is the dense grid scattered from `dirs`. The faces'
    normals are read then, so they must not change in place.
    """

    def __init__(self, domain, keys, counts, max_acc, max_pt, dirs=None, *,
                 events=None):
        self.domain = domain
        self.keys = keys
        self.counts = counts
        self.max_acc = max_acc
        self.max_pt = max_pt
        self._events = events  # (face_of, bounds, normals): see _tensor_directions
        if dirs is not None:
            self.dirs = dirs

    @cached_property
    def acc(self) -> ScalarGrid3:
        grid = ScalarGrid3.zeros(self.domain)
        grid.values.reshape(-1)[self.keys] = self.counts
        return grid

    @cached_property
    def dirs(self) -> np.ndarray:
        return _tensor_directions(*self._events, 0, len(self.keys))

    def direction_at(self, key):
        """Direction of the voxel with linear id key; 0 if it has no vote."""
        row = int(np.searchsorted(self.keys, key))
        if row == len(self.keys) or self.keys[row] != key:
            return np.zeros(3)
        if "dirs" in vars(self):
            return self.dirs[row]
        return _tensor_directions(*self._events, row, row + 1)[0]

    @cached_property
    def directions(self) -> VectorGrid3:
        grid = VectorGrid3.zeros(self.domain)
        grid.values.reshape(-1, 3)[self.keys] = self.dirs
        return grid


def accumulation_domain(points, params: AccumulationParams) -> GridDomain:
    """Bounding lattice of the scan: point bbox plus acc_radius and one
    voxel of margin on every side, which holds every scan along a unit
    normal and the rounding of its positions (a few ulps, under _FAR).

    Raises DomainTooLarge when it reaches _FAR gridsteps from 0, or when
    its voxels cannot all have int64 linear ids.
    """
    points = np.atleast_2d(points)
    if points.size == 0:
        raise EmptyInput("no points to build a domain around")
    pad = params.acc_radius + params.gridstep
    lo = column_min(points) - pad
    hi = column_max(points) + pad
    if np.abs(np.r_[lo, hi]).max() >= _FAR * params.gridstep:  # so dims < 2**63 too
        raise DomainTooLarge(f"a domain from {lo} to {hi} is too large to index "
                             f"exactly at gridstep {params.gridstep:g}")
    dims = np.maximum(np.ceil((hi - lo) / params.gridstep), 1)
    domain = GridDomain(origin=lo, gridstep=params.gridstep, dims=tuple(dims.astype(int)))
    if domain.voxel_count > _INT64_MAX:
        raise DomainTooLarge(f"a domain of {domain.dims} voxels is too large to index")
    return domain


def _march(centers, normals, params, domain):
    """Linear voxel id of every (step, face) scan position, shape (S, F).

    ``centers`` and ``normals`` are (3, F): one contiguous row per axis.

    Row s holds every face's position s steps along its ray; face f's s-th
    position is event f * S + s of the sequential visit order. Each row is
    built one axis at a time, in place: the voxel index
    floor(((c + dist * n) - origin) / gridstep) is added times its stride.
    No bound is tested: the normals are unit (OrientedFaceSet checks
    them), so every position lies inside accumulation_domain.
    """
    n_faces = centers.shape[1]
    strides = domain.strides
    rows = np.empty((params.n_steps, n_faces), dtype=np.int64)
    pos = np.empty(n_faces)
    index = np.empty(n_faces, dtype=np.int64)
    steps = np.arange(params.n_steps, dtype=float) * params.gridstep
    for ids, dist in zip(rows, steps):
        for axis in range(3):
            np.multiply(normals[axis], dist, out=pos)
            pos += centers[axis]
            pos -= domain.origin[axis]
            pos /= domain.gridstep
            np.floor(pos, out=pos)
            if axis == 0:
                np.copyto(ids, pos, casting="unsafe")
                ids *= strides[0]
            else:
                np.copyto(index, pos, casting="unsafe")
                if axis == 1:
                    index *= strides[1]
                ids += index  # the z stride is 1
    return rows


def _runs(sorted_ids):
    """(starts, keys, counts) of the runs of equal ids in a sorted id
    array; counts are uint32."""
    new = np.empty(len(sorted_ids), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.empty(len(starts), dtype=np.uint32)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1], casting="unsafe")
    counts[-1:] = len(sorted_ids) - starts[-1:]
    return starts, sorted_ids[starts], counts


def _group_events(ids, voxel_count):
    """(order, sorted_ids) of the events, grouped by voxel id and in
    chronological order inside each group, as a stable argsort would give.

    ``ids`` holds the march's (S, F) step rows, or one row of events in
    visit order, every id in [0, voxel_count). One sort of the packed keys
    id * E + event index does it: they are unique, so their order is the
    (id, index) order. The keys are packed, sorted and split in place, so
    ``ids`` is overwritten and ``order`` is a view of it.
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
    sorted_ids = packed // n_events
    # the remainder, which np.remainder computes several times slower; a
    # block at a time, so that no third array of every event is made
    for lo in range(0, len(packed), _BLOCK):
        packed[lo:lo + _BLOCK] -= sorted_ids[lo:lo + _BLOCK] * n_events
    return packed, sorted_ids


def _tensor_directions(face_of, bounds, normals, first, stop):
    """(stop - first, 3) tube directions of the voxel groups first .. stop - 1.

    Group r's events are the faces face_of[bounds[r]:bounds[r + 1]];
    ``normals`` is (F, 3). A direction is the least eigenvector of the
    group's normal tensor, the sum of n n^T over its events: the normals
    of a tube's wall lie on a great circle of the Gauss map, and its pole
    is the axis. A group's row is 0 unless its normals span a plane and
    little else: the least eigenvalue at most _FLAT of the trace, and the
    middle one at least 4 times the least and _FLAT of the trace (normals
    that all agree have no pole). A kept vector is turned so that its
    largest-magnitude component is positive.
    """
    e0 = bounds[first]
    n = normals.take(face_of[e0:bounds[stop]], axis=0).T  # (3, events)
    starts = bounds[first:stop] - e0
    sums = np.empty((stop - first, 3, 3))
    for i, j in _UPPER:
        sums[:, i, j] = sums[:, j, i] = np.add.reduceat(n[i] * n[j], starts)
    values, vectors = np.linalg.eigh(sums)
    lo, mid = values[:, 0], values[:, 1]
    floor = _FLAT * np.trace(sums, axis1=1, axis2=2)
    kept = (lo <= floor) & (mid >= np.maximum(4 * lo, floor))
    axes = vectors[:, :, 0]
    sign = np.sign(axes[np.arange(len(axes)), np.abs(axes).argmax(axis=1)])
    return np.where(kept[:, None], axes * sign[:, None], 0.0)


def _scan(faces, params):
    """The domain and the (S, F) march ids of every face's scan."""
    if len(faces) == 0:
        raise EmptyInput("no faces to accumulate")
    if params.n_steps == 0:
        raise TooSmall(f"acc_radius {params.acc_radius:g} is too small for a scan "
                       f"step at gridstep {params.gridstep:g}")
    centers, normals = faces.columns()
    domain = accumulation_domain(centers.T, params)  # reduced one contiguous row at a time
    return domain, _march(centers, normals, params, domain)


def compute_accumulation(faces, params: AccumulationParams) -> AccumulationResult:
    """Vote table of all scans over accumulation_domain(faces.centers,
    params), and the events its directions are computed from.

    Raises TooSmall when acc_radius is too short for one scan step.

    max_pt is the voxel whose count first reached the final maximum, in
    scan order (ties on the count value are impossible under the
    strictly-greater update rule this mirrors).
    """
    domain, ids = _scan(faces, params)
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
    return AccumulationResult(domain=domain, keys=keys, counts=counts,
                              max_acc=max_acc, max_pt=tuple(int(i) for i in max_pt),
                              events=(face_of, np.append(starts, len(face_of)),
                                      faces.normals))


def count_peak(faces, params: AccumulationParams) -> VotePeak:
    """compute_accumulation(faces, params).max_acc alone, the longest run of
    the march ids after one plain sort (int32 where they fit): no event keys."""
    domain, ids = _scan(faces, params)
    ids = ids.reshape(-1).astype(np.int32 if domain.voxel_count < 2 ** 31 else np.int64)
    ids.sort()
    return VotePeak(int(_runs(ids)[2].max()))
