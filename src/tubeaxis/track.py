"""Centerline tracking through the accumulation image.

Starting from the global accumulation maximum, the tracker repeatedly steps
along the local principal direction, samples a square cross-sectional patch
of the count image one step ahead, and jumps to the patch argmax. Runs in
both directions are stitched into one polyline. Every read goes to the
accumulation's table of visited voxels, never to a dense grid.

A step is a few small numpy calls, so their fixed cost is most of its
time. The run's reference level, the lower quartile of the accepted
points' levels, is read off a list kept sorted as points are accepted
(np.percentile's value, bit for bit, without its sort and its numpy.ma
import). The local direction is the voxel's normal-tensor axis (see
accumulate._tensor_directions) where its normals fix one. The count-ridge
fallback, taken where they do not, builds its voxel centers one axis at a
time and sums only the lower triangle of its covariance, in einsum's order.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import concat_ranges, digitize, frame_from_direction, normalize
from .errors import DuplicatePoint, OutOfRange, SeedInvalid, TooFewPoints

_MAX_TRACK_STEPS = 100000
_ZERO_DIR = 1e-12
# the largest coordinate magnitude of a centerline point: the squared
# distance of two such points, at most 12 MAX_COORD^2, stays finite
MAX_COORD = 1e150
# how far a centerline direction's length may be from 1; the centerline
# CSV's 9 significant digits keep it within 1e-9
UNIT_TOL = 1e-6
# the continuation gates: the share of the run's reference level a point
# needs, and the largest turn per step, in radians
INSIDE_THRESHOLD = 0.5
MAX_ANGLE = math.pi / 3
# the 8 corners of a trilinear cell, last axis fastest
_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)))
# (row, column) of the lower triangle of a 3 x 3 matrix
_LOWER = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))


@dataclass
class Centerline:
    """(n, 3) points along a tube's axis with a unit tangent each. Built
    only to its contract, checked here once: at least 2 points
    (TooFewPoints), coordinates finite and at most MAX_COORD in magnitude
    (OutOfRange), consecutive points more than 1e-12 apart (DuplicatePoint),
    and (n, 3) directions whose lengths are finite and within UNIT_TOL of 1
    (OutOfRange).
    """

    points: np.ndarray
    directions: np.ndarray
    closed: bool = False
    refined: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if len(self.points) < 2:
            raise TooFewPoints(f"a centerline needs at least 2 points, got {len(self.points)}")
        far = ~(np.abs(self.points) <= MAX_COORD).all(axis=1)  # NaN compares False
        if far.any():
            raise OutOfRange(f"centerline point {np.argmax(far)} has a coordinate that is "
                             f"not finite or above {MAX_COORD:g} in magnitude")
        steps = self.segment_lengths()
        if steps.min() <= _ZERO_DIR:
            raise DuplicatePoint(f"centerline points {np.argmin(steps)} and "
                                 f"{np.argmin(steps) + 1} coincide")
        if self.directions.shape != (len(self.points), 3):
            raise OutOfRange(f"a centerline needs one direction per point, got "
                             f"{self.directions.shape} for {len(self.points)} points")
        with np.errstate(over="ignore"):  # a length that overflows is not 1
            off = ~(np.abs(np.linalg.norm(self.directions, axis=1) - 1) <= UNIT_TOL)
        if off.any():
            raise OutOfRange(f"centerline direction {np.argmax(off)} is not a unit "
                             f"vector within {UNIT_TOL:g}")

    def __len__(self):
        return len(self.points)

    def segment_lengths(self):
        return np.linalg.norm(np.diff(self.points, axis=0), axis=1)


def _lookup(keys, values, ids):
    """values[i] where ids equals keys[i], 0 where an id is not among the
    sorted keys: a sparse grid read as if it were dense."""
    if len(keys) == 0:
        return np.zeros(np.shape(ids), dtype=values.dtype)
    row = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
    return np.where(keys[row] == ids, values[row], 0)


def _sample_trilinear(keys, values, domain, points):
    """Trilinear interpolation of a sparse voxel field at world points.

    The field holds values[i] at linear voxel id keys[i] (sorted) and 0 at
    every other voxel. The arithmetic is that of
    ndimage.map_coordinates(grid, order=1, mode="constant", cval=0) on the
    dense grid, so the two agree bit for bit: a point with any coordinate
    outside [0, dims - 1] (in voxel-center units) is 0, the weights are
    1 - t and 1 - (1 - t), and each corner's value times its x, y and z
    weights is added in corner order.
    """
    points = np.atleast_2d(points)
    coords = (points - domain.origin) / domain.gridstep - 0.5
    ok = (coords >= 0) & (coords <= np.asarray(domain.dims) - 1)
    inside = ok[:, 0] & ok[:, 1] & ok[:, 2]
    coords = coords[inside]
    base = np.floor(coords)
    weights = np.empty((len(coords), 2, 3))  # (n, corner bit, axis)
    np.subtract(1.0, coords - base, out=weights[:, 0])
    np.subtract(1.0, weights[:, 0], out=weights[:, 1])
    # on the last voxel center of an axis the upper corner lies past the
    # grid (its id is some other voxel's), but its weight there is 0
    strides = domain.strides
    corner_ids = (base.astype(np.int64) @ strides)[:, None] + _CORNERS @ strides
    # corner 4a + 2b + c of _CORNERS is [a, b, c] of the (n, 2, 2, 2) view:
    # its value times its x, then y, then z weight, by broadcasting
    terms = (_lookup(keys, values, corner_ids).reshape(-1, 2, 2, 2)
             * weights[:, :, None, None, 0])
    terms *= weights[:, None, :, None, 1]
    terms *= weights[:, None, None, :, 2]
    total = np.zeros(len(coords))
    for corner in terms.reshape(-1, 8).T:
        total += corner
    out = np.zeros(len(points))
    out[inside] = total
    return out


def _voxel_dir(res, point):
    """Direction of the voxel containing a world point; 0 outside the domain."""
    idx = digitize(point, res.domain)
    return np.zeros(3) if idx is None else res.direction_at(np.dot(idx, res.domain.strides))


def patch_size(acc_radius, gridstep):
    return 2 * int(math.ceil(acc_radius / gridstep)) + 1


def _ridge_direction(res, point, acc_radius):
    """Principal axis of the count ridge in a patch-sized box around a point.

    Fallback where a voxel's direction is 0: its normals do not span a
    plane (all of them agree, say), or normals off the plane enter the
    tensor, as a cap's do near a capped end. The count image still carries
    the ridge; its count^2-weighted principal component recovers the local
    direction (sign is arbitrary). Returns None when the box is empty or
    has no dominant axis.
    """
    dom = res.domain
    idx = digitize(point, dom)
    if idx is None:
        return None
    half = int(math.ceil(acc_radius / dom.gridstep))
    lo = [max(i - half, 0) for i in idx]
    hi = [min(i + half, d - 1) for i, d in zip(idx, dom.dims)]
    _, ny, nz = dom.dims
    # the table rows inside the box: one run of keys per (x, y) column,
    # x-major; the box's empty voxels would only add exact zeros
    column = (np.arange(lo[0], hi[0] + 1)[:, None] * (ny * nz)
              + np.arange(lo[1], hi[1] + 1) * nz).ravel()
    rows = concat_ranges(np.searchsorted(res.keys, column + lo[2]),
                         np.searchsorted(res.keys, column + hi[2], side="right"))
    w = res.counts[rows].astype(float) ** 2
    total = w.sum()
    if total <= 0:
        return None
    # (3, V): the voxel centers, one axis at a time
    keys = res.keys[rows]
    pts = np.empty((3, len(rows)))
    for axis, index in enumerate((keys // (ny * nz), keys // nz % ny, keys % nz)):
        np.multiply(dom.gridstep, index + 0.5, out=pts[axis])
        pts[axis] += dom.origin[axis]
    # the weighted mean and the lower triangle of the weighted covariance
    # (all that eigh reads) as running sums in row order, the order of
    # numpy's axis-0 sums and of einsum("v,vi,vj->ij", w, cen, cen): the
    # zero rows of the box, which the table leaves out, change no bit
    mu = np.array([np.cumsum(row)[-1] for row in w * pts]) / total
    cen = pts - mu[:, None]
    wcen = w * cen
    cov = np.zeros((3, 3))
    for i, j in _LOWER:
        # einsum's sums start from +0.0, so a sum of -0.0 terms is +0.0
        cov[i, j] = (np.cumsum(wcen[i] * cen[j])[-1] + 0.0) / total
    vals, vecs = np.linalg.eigh(cov)
    # require a clearly dominant axis so blobs cannot fabricate a direction
    if vals[2] <= _ZERO_DIR or vals[2] < 2.0 * vals[1]:
        return None
    return vecs[:, 2]


def _local_direction(res, point, acc_radius):
    """Unit tracking direction at a point: the voxel's direction where it
    is nonzero, otherwise the count-ridge principal axis. None if neither."""
    d = _voxel_dir(res, point)
    n = np.linalg.norm(d)
    if n > _ZERO_DIR:
        return d / n
    return _ridge_direction(res, point, acc_radius)


def extract_patch(res, center, direction, acc_radius):
    """Sample the square patch of the accumulation `res` orthogonal to
    `direction` centered on `center`, with pixel pitch = gridstep and side
    covering 2*acc_radius.

    Returns (values, frame): pixel (a, b) of the (size, size) values lies
    at frame.center + (a - size // 2) * gridstep * frame.u
    + (b - size // 2) * gridstep * frame.v, and frame.w is the direction.
    """
    domain = res.domain
    frame = frame_from_direction(normalize(np.asarray(direction, dtype=float)),
                                 center=center)
    size = patch_size(acc_radius, domain.gridstep)
    m = size // 2
    offs = (np.arange(size) - m) * domain.gridstep
    pts = (frame.center
           + offs[:, None, None] * frame.u
           + offs[None, :, None] * frame.v)
    values = _sample_trilinear(res.keys, res.counts, domain, pts.reshape(-1, 3))
    return values.reshape(size, size), frame


def is_inside_tube(current, previous, ref_value, inside_threshold, max_angle,
                   direction, level):
    """Continuation test: enough accumulation support at `current`, and the
    last step roughly follows the local principal direction (whose sign is
    ambiguous, so the angle is folded into [0, pi/2]).

    `level` is the count at `current` and `direction` the tracking
    direction there (None or 0: the angle test passes). ref_value is the
    run's reference level, a low running quantile of the accepted points
    rather than the seed's: bends and cap discs focus the vote rays and can
    elevate the seed severalfold above straight sections, which would
    starve the test there.
    """
    if level < inside_threshold * ref_value:
        return False
    d = np.zeros(3) if direction is None else np.asarray(direction, dtype=float)
    dn = np.linalg.norm(d)
    step = np.asarray(current, dtype=float) - np.asarray(previous, dtype=float)
    sn = np.linalg.norm(step)
    if dn <= _ZERO_DIR or sn <= _ZERO_DIR:
        return True
    cosang = abs(float(np.dot(step, d)) / (sn * dn))
    return math.acos(min(cosang, 1.0)) <= max_angle


def _lower_quartile(ordered):
    """np.percentile(ordered, 25) of a non-empty sorted list, bit for bit,
    without sorting it again: numpy's "linear" rule reads the virtual
    index (n - 1) * 0.25 and interpolates between its two neighbours as
    numpy's _lerp does, from the upper one when the fraction is >= 0.5."""
    index = (len(ordered) - 1) * 0.25
    i = int(index)
    if i + 1 == len(ordered):  # a single value
        return ordered[i]
    t = index - i
    a, b = ordered[i], ordered[i + 1]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def track_direction(res, start, in_front, track_step, acc_radius,
                    inside_threshold, max_angle):
    """One directional tracking run; returns (points, closed_flag).

    Stops when the continuation test fails, the next patch would leave the
    domain, the patch is empty, the local direction vanishes, or the run
    loops back to its start (closed tube).

    The start's level is sampled; an accepted point's is the patch pixel
    it was built from by that pixel's operations, the sample there bit for bit.
    """
    start = np.asarray(start, dtype=float)
    d0 = _local_direction(res, start, acc_radius)
    if d0 is None:
        raise SeedInvalid("neither the voxel nor the count ridge fixes a direction "
                          f"at the tracking seed, scanning to {acc_radius:g} (tube "
                          "radius + epsilon); the tube radius may be wrong")
    last_vect = d0 * (1.0 if in_front else -1.0)
    # the current point's sampled level; the accepted points' levels, sorted
    level = _sample_trilinear(res.keys, res.counts, res.domain, start)[0]
    levels = [level]

    current = start
    previous = start - last_vect * track_step
    points = [current.copy()]
    closed = False

    for step_i in range(_MAX_TRACK_STEPS):
        dir_vect = _local_direction(res, current, acc_radius)
        if dir_vect is not None and float(np.dot(last_vect, dir_vect)) < 0:
            dir_vect = -dir_vect
        ref = float(_lower_quartile(levels))
        if not is_inside_tube(current, previous, ref, inside_threshold, max_angle,
                              dir_vect, level):
            # the point that fails the continuation test is outside the tube;
            # drop it instead of leaving one overshoot point per open end
            if len(points) > 1:
                points.pop()
            break
        if dir_vect is None:
            break
        patch_center = current + dir_vect * track_step
        if digitize(patch_center, res.domain) is None:
            break
        values, frame = extract_patch(res, patch_center, dir_vect, acc_radius)
        if values.max() <= 0:
            break
        # the world position of the maximal pixel; ties go to the smallest
        # (row, col) in scan order
        a, b = divmod(int(np.argmax(values)), len(values))
        m = len(values) // 2
        g = res.domain.gridstep
        nxt = frame.center + (a - m) * g * frame.u + (b - m) * g * frame.v
        if np.linalg.norm(nxt - current) <= _ZERO_DIR:
            break
        previous = current
        last_vect = dir_vect
        current = nxt
        points.append(current.copy())
        level = values[a, b]
        bisect.insort(levels, level)
        if step_i >= 2 and np.linalg.norm(current - start) < 0.75 * track_step:
            closed = True
            break
    return np.asarray(points), closed


def _polyline_directions(points, closed=False):
    """Per-point unit tangents by central differences (one-sided at open
    ends, wrapped when closed)."""
    points = np.atleast_2d(points)
    if closed and len(points) > 2:
        dirs = np.roll(points, -1, axis=0) - np.roll(points, 1, axis=0)
    else:
        dirs = np.empty_like(points)
        dirs[0] = points[1] - points[0]
        dirs[-1] = points[-1] - points[-2]
        dirs[1:-1] = points[2:] - points[:-2]
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    return dirs / norms[:, None]


def extract_centerline(res, track_step, acc_radius,
                       inside_threshold=INSIDE_THRESHOLD) -> Centerline:
    """Full centerline through the accumulation maximum.

    Tracks forward and backward from the seed voxel and concatenates the
    runs with the seed appearing once. A run that returns to the seed marks
    the centerline closed, as does a head-tail gap below track_step.
    """
    if res.max_acc < 2:
        raise SeedInvalid(f"accumulation maximum {res.max_acc} is too weak to seed "
                          f"tracking, scanning to {acc_radius:g} (tube radius + "
                          "epsilon); the tube radius may be wrong")
    seed = res.domain.voxel_center(res.max_pt)

    fwd, closed = track_direction(res, seed, True, track_step, acc_radius,
                                  inside_threshold, MAX_ANGLE)
    if closed:
        points = fwd
    else:
        bwd, closed_b = track_direction(res, seed, False, track_step, acc_radius,
                                        inside_threshold, MAX_ANGLE)
        if closed_b:
            points, closed = bwd, True
        else:
            points = np.concatenate([bwd[::-1], fwd[1:]]) if len(bwd) > 1 else fwd

    if len(points) < 2:
        raise TooFewPoints("tracking stopped at the seed in both directions "
                           f"(inside_threshold {inside_threshold:g}, max_angle {MAX_ANGLE:g})")
    if not closed and len(points) > 2:
        closed = np.linalg.norm(points[0] - points[-1]) < track_step
    dirs = _polyline_directions(points, closed)
    return Centerline(points=points, directions=dirs, closed=closed)
