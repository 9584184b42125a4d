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

The implementation is vectorized but reproduces the sequential per-face,
per-step semantics bit for bit. Votes are order-free. The direction update
has a sign that depends on the running value, but whether a pair of
consecutive visits updates at all (the min_norm gate) does not, and a
voxel's direction only changes when that voxel is visited. So the events
are grouped by voxel in chronological order, the gate is evaluated for all
pairs at once, and only the passing pairs are replayed: the j-th passing
pair of every voxel in one vectorized step, in chunks of whole voxel
groups so that the temporaries stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import GridDomain, ScalarGrid3, VectorGrid3
from .errors import DomainTooSmall, EmptyInput

_STEP_EPS = 1e-9
# events per direction-replay chunk; a chunk holds whole voxel groups
_CHUNK = 1 << 14


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
    # column by column: numpy's axis-0 reduction of an (N, 3) array is
    # several times slower
    lo = np.array([column.min() for column in points.T]) - pad
    hi = np.array([column.max() for column in points.T]) + pad
    dims = np.maximum(np.ceil((hi - lo) / params.gridstep).astype(int), 1)
    return GridDomain(origin=lo, gridstep=params.gridstep, dims=tuple(dims))


def _march(centers, normals, params, domain):
    """Linear voxel id of every (step, face) scan position, shape (S, F).

    ``centers`` and ``normals`` are (3, F): one contiguous row per axis.

    Row s holds every face's position s steps along its ray; face f's s-th
    position is event f * S + s of the sequential visit order. Positions
    outside the domain get id -1; the domain box is convex, so a ray that
    exits never re-enters and dropping them is a clean truncation.

    Each row is built one axis at a time, in place: the voxel index
    floor(((c + dist * n) - origin) / gridstep) is tested against the
    bounds and added times its stride.
    """
    if domain.voxel_count > np.iinfo(np.int64).max:
        raise ValueError(f"domain of {domain.dims} voxels is too large to index")
    n_faces = centers.shape[1]
    strides = domain.strides
    rows = np.empty((params.n_steps, n_faces), dtype=np.int64)
    pos = np.empty(n_faces)
    index = np.empty(n_faces, dtype=np.int64)
    inside = np.empty(n_faces, dtype=bool)
    test = np.empty(n_faces, dtype=bool)
    steps = np.arange(params.n_steps, dtype=float) * params.gridstep
    for s, (ids, dist) in enumerate(zip(rows, steps)):
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
        if s == 0 and not inside.all():
            bad = int(np.flatnonzero(~inside)[0])
            raise DomainTooSmall(f"scan of face {bad} starts outside the domain")
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
    if voxel_count * n_events > np.iinfo(np.int64).max:
        raise ValueError(f"{n_events} vote events in {voxel_count} voxels "
                         "overflow the int64 sort keys")
    for s, row in enumerate(rows):
        row *= n_events
        row += np.arange(s, n_events, n_steps)
    packed = rows.reshape(-1)
    packed.sort()
    packed = packed[np.searchsorted(packed, 0):]
    sorted_ids = packed // n_events
    return np.remainder(packed, n_events, out=packed), sorted_ids


def _replay_directions(face_of, starts, normals, min_norm):
    """Direction sum of every voxel group, replaying the sign-dependent
    update in each voxel's chronological order.

    ``face_of`` holds the face of each event, grouped by voxel and in
    chronological order inside each group; ``starts`` holds where each
    group begins; ``normals`` is (3, F), one contiguous row per axis.

    Which consecutive-visit pairs pass the min_norm gate does not depend
    on the running direction, so the gate runs on all pairs of a chunk at
    once; only the passing pairs are replayed, the j-th passing pair of
    every voxel of the chunk in one step. A voxel's replay needs only its
    own events, so the chunks hold whole groups and the temporaries stay
    bounded by the chunk size.
    """
    n_groups = len(starts)
    # filled, not calloc'ed: the replay reads a voxel's row before writing
    # it, and a first read of an untouched page costs a second page fault
    dirs = np.empty((n_groups, 3))
    dirs.fill(0.0)
    # chunk i holds groups edges[i] .. edges[i + 1] - 1, which are events
    # event_edges[i] .. event_edges[i + 1] - 1: at most _CHUNK events, or
    # one larger group
    edges = [0]
    while edges[-1] < n_groups:
        edges.append(int(np.searchsorted(starts, starts[edges[-1]] + _CHUNK)))
    event_edges = np.append(starts[edges[:-1]], len(face_of))
    # every chunk works in the same buffers; fresh ones per chunk would be
    # mapped from the system, and faulted in, chunk after chunk
    longest = int(np.diff(event_edges).max())
    gathered = np.empty((3, longest))
    cross = np.empty((3, longest))
    work = np.empty((2, longest))
    passed = np.empty(longest, dtype=bool)
    for g0, g1, e0, e1 in zip(edges[:-1], edges[1:], event_edges[:-1],
                              event_edges[1:]):
        n_pairs = e1 - e0 - 1
        # pair k joins events e0 + k and e0 + k + 1; np.cross's component
        # formula and np.linalg.norm's ((x^2 + y^2) + z^2) keep the gate
        # bit for bit. mode="clip" (the face ids are valid) lets take
        # write straight into the buffer
        for c in range(3):
            normals[c].take(face_of[e0:e1], out=gathered[c, :n_pairs + 1],
                            mode="clip")
        prev, cur = gathered[:, :n_pairs], gathered[:, 1:n_pairs + 1]
        axes, ok = cross[:, :n_pairs], passed[:n_pairs]
        tmp, norm = work[:, :n_pairs]
        for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.multiply(prev[a], cur[b], out=axes[c])
            axes[c] -= np.multiply(prev[b], cur[a], out=tmp)
        np.multiply(axes[0], axes[0], out=norm)
        for c in (1, 2):
            norm += np.multiply(axes[c], axes[c], out=tmp)
        np.greater(np.sqrt(norm, out=norm), min_norm, out=ok)
        ok[starts[g0 + 1:g1] - e0 - 1] = False  # pairs across two voxels
        pair = np.flatnonzero(ok)
        axis = axes.T[pair]
        voxel = np.searchsorted(starts[g0:g1], e0 + pair, side="right") + (g0 - 1)
        first, _, n_pass = _runs(voxel)
        group = np.arange(len(first))
        for j in range(int(n_pass.max(initial=0))):
            group = group[n_pass.take(group) > j]
            at = first.take(group) + j
            updated, step = voxel.take(at), axis.take(at, axis=0)
            current = dirs.take(updated, axis=0)
            sign = np.sign(np.einsum("ij,ij->i", step, current))
            sign[sign == 0] = 1.0
            current += step * sign[:, None]
            dirs[updated] = current
    return dirs


def accumulate_counts(faces, params: AccumulationParams) -> VoteCounts:
    """Vote counts only: no direction replay, no seed voxel."""
    if len(faces) == 0:
        raise EmptyInput("no faces to accumulate")
    domain = accumulation_domain(faces.centers, params)
    ids = _march(faces.centers.T.copy(), faces.normals.T.copy(), params,
                 domain).reshape(-1)
    ids.sort()
    _, keys, counts = _runs(ids[np.searchsorted(ids, 0):])
    return VoteCounts(domain=domain, keys=keys, counts=counts,
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
    elif domain.gridstep != params.gridstep:
        # the rays would step at one pitch and be binned at the other
        raise ValueError(f"domain gridstep {domain.gridstep} differs from "
                         f"the scan's gridstep {params.gridstep}")

    centers, normals = faces.centers.T.copy(), faces.normals.T.copy()
    ids = _march(centers, normals, params, domain)
    del centers
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

    order //= n_steps  # event -> face
    dirs = _replay_directions(order, starts, normals, params.min_norm)
    return AccumulationResult(domain=domain, keys=keys, counts=counts,
                              max_acc=max_acc, dirs=dirs,
                              max_pt=tuple(int(i) for i in max_pt))
