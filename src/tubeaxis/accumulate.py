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
a vote (C order over the domain dims), with a uint32 count and a float64
direction sum beside each. Rays only visit a shell around the axis, so the
table grows with faces x steps while the domain grows with the volume of
the box. Readers look voxels up with searchsorted on the ids; a voxel
missing from the table holds 0. The dense `acc` and `directions` grids of
a result are scattered from the table the first time they are read (to
write them out, say); tracking never reads them.

The implementation is fully vectorized but reproduces the sequential
per-face, per-step semantics exactly: votes are order-free, and the
direction update (whose sign choice depends on the running value) is
replayed per visit rank, which is equivalent to per-voxel chronological
order because a voxel's direction only changes when that voxel is visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import GridDomain, ScalarGrid3, VectorGrid3
from .errors import DomainTooSmall, EmptyInput

_STEP_EPS = 1e-9


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


@dataclass
class VoteCounts:
    """Votes per visited voxel: sorted linear ids and their counts.

    `acc` is the dense count grid, scattered from the table on first read.
    """

    domain: GridDomain = field(repr=False)
    keys: np.ndarray = field(repr=False)    # sorted int64 linear voxel ids
    counts: np.ndarray = field(repr=False)  # uint32, one per key
    max_acc: int

    @cached_property
    def acc(self) -> ScalarGrid3:
        grid = ScalarGrid3.zeros(self.domain)
        grid.values.reshape(-1)[self.keys] = self.counts
        return grid


@dataclass
class AccumulationResult(VoteCounts):
    """Vote counts plus the per-voxel direction sums and the seed voxel.

    `directions` is the dense direction grid, scattered from the table on
    first read.
    """

    dirs: np.ndarray = field(repr=False)  # (n_keys, 3) float64
    max_pt: tuple

    @cached_property
    def directions(self) -> VectorGrid3:
        grid = VectorGrid3.zeros(self.domain)
        grid.values.reshape(-1, 3)[self.keys] = self.dirs
        return grid


def accumulation_domain(points, params: AccumulationParams) -> GridDomain:
    """Bounding lattice of the scan: point bbox plus acc_radius and one
    voxel of margin on every side."""
    points = np.atleast_2d(points)
    if points.size == 0:
        raise EmptyInput("no points to build a domain around")
    pad = params.acc_radius + params.gridstep
    lo = points.min(axis=0) - pad
    hi = points.max(axis=0) + pad
    dims = np.maximum(np.ceil((hi - lo) / params.gridstep).astype(int), 1)
    return GridDomain(origin=lo, gridstep=params.gridstep, dims=tuple(dims))


def _march(faces, params, domain):
    """Linear voxel id of every (face, step) scan position, shape (F, S).

    Row f is face f's scan in step order, so the ravelled array is the
    sequential visit order. Positions outside the domain get id -1; the
    domain box is convex, so a ray that exits never re-enters and dropping
    them is a clean truncation.
    """
    if domain.voxel_count > np.iinfo(np.int64).max:
        raise ValueError(f"domain of {domain.dims} voxels is too large to index")
    centers = faces.centers
    normals = faces.normals
    dims = np.asarray(domain.dims)
    steps = np.arange(params.n_steps, dtype=float) * params.gridstep
    ids = np.empty((len(faces), params.n_steps), dtype=np.int64)
    for s, dist in enumerate(steps):
        idx = np.floor((centers + dist * normals - domain.origin)
                       / domain.gridstep).astype(np.int64)
        inb = np.all((idx >= 0) & (idx < dims), axis=1)
        if s == 0 and not inb.all():
            bad = int(np.flatnonzero(~inb)[0])
            raise DomainTooSmall(f"scan of face {bad} starts outside the domain")
        ids[:, s] = np.where(inb, idx @ domain.strides, -1)
    return ids


def _runs(sorted_ids):
    """(starts, keys, counts) of the runs of equal ids in a sorted id
    array that holds no out-of-domain (-1) entries."""
    new = np.empty(len(sorted_ids), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(sorted_ids))
    return starts, sorted_ids[starts], counts


def _group_events(ids, voxel_count):
    """(order, sorted_ids) of the in-domain events, grouped by voxel id and
    in chronological order inside each group, as a stable argsort would give.

    One sort of the packed keys id * E + event index does it: they are
    unique, so their order is the (id, index) order, and out-of-domain
    events (id -1) pack to negative keys that sort first. The keys are
    packed in place, so ``ids`` is overwritten.
    """
    n_events = len(ids)
    if voxel_count * n_events > np.iinfo(np.int64).max:
        raise ValueError(f"{n_events} vote events in {voxel_count} voxels "
                         "overflow the int64 sort keys")
    packed = ids
    packed *= n_events
    packed += np.arange(n_events, dtype=np.int64)
    packed.sort()
    packed = packed[np.searchsorted(packed, 0):]
    return packed % n_events, packed // n_events


def accumulate_counts(faces, params: AccumulationParams) -> VoteCounts:
    """Vote counts only: no direction replay, no seed voxel."""
    if len(faces) == 0:
        raise EmptyInput("no faces to accumulate")
    domain = accumulation_domain(faces.centers, params)
    ids = np.sort(_march(faces, params, domain), axis=None)
    _, keys, counts = _runs(ids[np.searchsorted(ids, 0):])
    return VoteCounts(domain=domain, keys=keys, counts=counts.astype(np.uint32),
                      max_acc=int(counts.max()))


def compute_accumulation(faces, params: AccumulationParams,
                         domain: GridDomain | None = None) -> AccumulationResult:
    """Run all scans and build the vote table with its directions.

    max_pt is the voxel whose count first reached the final maximum, in
    scan order (ties on the count value are impossible under the
    strictly-greater update rule this mirrors).
    """
    if len(faces) == 0:
        raise EmptyInput("no faces to accumulate")
    if domain is None:
        domain = accumulation_domain(faces.centers, params)

    ids = _march(faces, params, domain)
    n_steps = ids.shape[1]
    order, sorted_ids = _group_events(ids.ravel(), domain.voxel_count)
    del ids
    starts, keys, counts = _runs(sorted_ids)
    del sorted_ids
    max_acc = int(counts.max())

    # first voxel to reach the final maximum wins
    at_max = np.flatnonzero(counts == max_acc)
    winner = at_max[np.argmin(order[starts[at_max] + max_acc - 1])]
    max_pt = np.unravel_index(keys[winner], domain.dims)

    # direction table: replay the sign-dependent update rank by rank. The
    # r-th visits of all voxels are independent of each other. The voxels
    # visited more than r times shrink from rank to rank, and each carries
    # the normal of its previous visit along, so the replay stays linear
    # in the events.
    normals = faces.normals
    dirs = np.zeros((len(keys), 3))
    group = np.arange(len(keys))
    current = normals.take(order[starts] // n_steps, axis=0)
    for rank in range(1, max_acc):
        more = counts[group] > rank
        group = group[more]
        previous = current[more]
        current = normals.take(order[starts[group] + rank] // n_steps, axis=0)
        axis = np.cross(previous, current)
        ok = np.linalg.norm(axis, axis=1) > params.min_norm
        updated, axis = group[ok], axis[ok]
        sign = np.sign(np.einsum("ij,ij->i", axis, dirs[updated]))
        sign[sign == 0] = 1.0
        dirs[updated] += axis * sign[:, None]

    return AccumulationResult(domain=domain, keys=keys,
                              counts=counts.astype(np.uint32), max_acc=max_acc,
                              dirs=dirs, max_pt=tuple(int(i) for i in max_pt))
