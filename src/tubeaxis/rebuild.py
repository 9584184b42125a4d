"""Tube reconstruction from a centerline and surface error measurement.

The error map measures exact point-to-polyline distances. Each point
takes its candidate segments from a uniform cell hash over the segment
midpoints, with cells that grow for the points far from the polyline, so
a finely sampled centerline costs about as much as a coarse one. The
passes over the points run one coordinate column at a time, and the
distances of a cell's points to its few candidate segments are
(segments, points) arrays reduced over their short first axis.
"""

from __future__ import annotations

import numpy as np

from .core import (CellHash, column_max, column_min, concat_ranges, frame_from_direction,
                   normalize)
from .errors import EmptyInput, check_setting
from .ingest import TriMesh
from .synth import _band_faces, _ring_vertices
from .track import _polyline_directions

_EPS = 1e-12
_CHUNK_PAIRS = 131_072  # point-segment pairs measured at once
_REACH_MARGIN = 1e-6  # relative padding of the candidate reach for rounding
# (ox, oy, oz_lo, oz_hi) of the 3 x 3 x 3 cells around a cell
_NEIGHBOUR_COLUMNS = np.array([(ox, oy, -1, 1) for ox in (-1, 0, 1) for oy in (-1, 0, 1)])


def sweep_tube(centerline, radius, sides=24) -> TriMesh:
    """Sweep a circular cross-section of the given radius along a centerline.

    Ring frames are rotation-minimizing: each frame reuses the previous
    ring's first axis with the new tangent projected out, so consecutive
    rings never twist against each other. Ends stay open; a closed
    centerline is stitched around the wrap; its contract gives every ring a
    tangent. A radius or sides outside errors.LIMITS is an OutOfRange.
    """
    check_setting("radius", radius)
    check_setting("sides", sides)
    points = centerline.points
    tangents = _polyline_directions(points, centerline.closed)

    u = frame_from_direction(tangents[0]).u
    us = np.empty_like(points)
    for k, t in enumerate(tangents):
        u = u - np.dot(u, t) * t
        nu = np.linalg.norm(u)
        if nu <= 1e-9:
            u = frame_from_direction(t).u
        else:
            u = u / nu
        us[k] = u
    vertices = _ring_vertices(points, us, np.cross(tangents, us), radius, sides)
    return TriMesh(vertices, _band_faces(len(points), sides, centerline.closed))


def distance_to_polyline(points, polyline, closed=False, *, min_reach=0.0):
    """Exact distance from query points to a polyline, per point.

    The segment holding a point's nearest polyline location has its
    midpoint within d + half of the point, d being the distance and half
    the longest half segment. The midpoints are hashed in cells of size
    h = 4 half, and the points of one cell measure the segments whose
    midpoints lie in the 27 cells around it, which hold every midpoint
    within h of those points. A point whose distance so found has
    d + half <= h is done; the others try again with cells twice as large,
    until 27 cells would span the polyline, and the points still unsure
    measure every segment. All use the same per-pair formula, so the
    result is that of the full F x P scan.

    min_reach, a distance that most points are known to lie at or beyond
    (error_map passes the tube radius), skips the cells that could settle
    no point that far: the first round has cells of
    h = max(4 half, min_reach + half), the smallest that settle a point
    min_reach away, and the later rounds double it. Any cell size gives
    exact rounds, so it changes no result, only the work.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.atleast_2d(np.asarray(polyline, dtype=float))
    if len(poly) == 0:
        raise EmptyInput("empty polyline")
    if len(poly) == 1:
        return np.linalg.norm(points - poly[0], axis=1)
    a = poly[:-1]
    b = poly[1:]
    if closed:
        a = np.vstack([a, poly[-1]])
        b = np.vstack([b, poly[0]])
    ab = b - a
    a_ab = (a * ab).sum(axis=1)
    len2 = np.einsum("ij,ij->i", ab, ab)
    segments = (a, ab, a_ab, np.maximum(len2, _EPS))
    half = 0.5 * float(np.sqrt(len2.max()))
    mid = 0.5 * (a + b)
    extent = float((column_max(mid) - column_min(mid)).max())

    best = np.empty(len(points))
    todo = np.arange(len(points))
    h = max(4.0 * half, min_reach + half)
    while len(todo) and 3.0 * h < extent:
        todo = _measure_by_cells(points, todo, segments, CellHash(mid, h), half, best)
        h *= 2.0
    chunk = max(1, _CHUNK_PAIRS // len(a))
    for s in range(0, len(todo), chunk):
        rows = todo[s:s + chunk]
        best[rows] = _nearest_distance(points[rows], *segments)
    return best


def _measure_by_cells(points, rows, segments, grid, half, best):
    """Set best[rows] for the rows whose nearest segment surely has its
    midpoint in the 27 cells of ``grid`` around theirs; return the others.
    The rows of one cell share one candidate list.

    Each row's cell index, box test and C-order key (that of
    np.ravel_multi_index over the box padded by one cell) are built from
    points[rows, axis], one axis at a time."""
    reach = (grid.cell - half) / (1.0 + _REACH_MARGIN)
    cells = []
    # only cells at most one away from the box have candidates
    near = np.ones(len(rows), dtype=bool)
    key = np.zeros(len(rows), dtype=np.int64)
    for axis, dim in enumerate(grid.dims):
        cell = points[rows, axis]
        cell -= grid.origin[axis]
        cell /= grid.cell
        cell = np.floor(cell, out=cell).astype(np.int64)
        near &= cell >= -1
        near &= cell <= dim
        key *= dim + 2
        key += cell
        key += 1
        cells.append(cell)
    kept = np.flatnonzero(near)
    unsure = [rows[~near]]
    key = key[kept]
    by_cell = np.argsort(key, kind="stable")
    kept, key = kept[by_cell], key[by_cell]
    rows = rows[kept]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    lead = kept[first]
    start, stop = grid.ranges(np.column_stack([cell[lead] for cell in cells]),
                              _NEIGHBOUR_COLUMNS)
    cand = grid.order[concat_ranges(start.ravel(), stop.ravel())]
    cand_end = np.cumsum((stop - start).sum(axis=1))
    cand_start = np.r_[0, cand_end[:-1]]
    for c0, c1, r0, r1 in zip(cand_start, cand_end, first, np.r_[first[1:], len(rows)]):
        if c0 == c1:
            unsure.append(rows[r0:r1])
            continue
        seg = tuple(x[cand[c0:c1]] for x in segments)
        chunk = max(1, _CHUNK_PAIRS // (c1 - c0))
        for s in range(r0, r1, chunk):
            r = rows[s:min(s + chunk, r1)]
            d = _nearest_distance(points[r], *seg)
            sure = d <= reach
            best[r[sure]] = d[sure]
            unsure.append(r[~sure])
    return np.concatenate(unsure)


def _nearest_distance(p, a, ab, a_ab, ab_len2):
    """Distance from each p[i] to the nearest of the (S, 3) segments a, ab.

    The (S, len(p)) arrays, one row per segment, are built one axis at a
    time: the projection a + t ab, its offset from p squared, and the
    squares summed x, y, z; the minimum is taken over the S rows. Every
    value has the bits of the (len(p), S) layout: the einsum below sums
    each dot product in the same order as "ik,jk->ij" does.
    """
    # t[j, i]: clamped parameter of the projection of point i on segment j
    t = np.einsum("jk,ik->ji", ab, p)
    t -= a_ab[:, None]
    t /= ab_len2[:, None]
    np.clip(t, 0.0, 1.0, out=t)
    d2 = np.empty_like(t)
    delta = np.empty_like(t)
    for axis in range(3):
        np.multiply(t, ab[:, axis, None], out=delta)
        delta += a[:, axis, None]
        np.subtract(p[:, axis], delta, out=delta)
        if axis == 0:
            np.multiply(delta, delta, out=d2)  # 0 + x^2 is x^2
        else:
            delta *= delta
            d2 += delta
    return np.sqrt(np.minimum.reduce(d2, axis=0))


def error_map(faces, centerline, radius):
    """Per-face squared deviation from the ideal tube surface.

    Each input face center M scores (dist(M, centerline) - radius)^2,
    with exact point-to-polyline distances, finite by the Centerline's
    contract. No centerline is EmptyInput.
    """
    if centerline is None:
        raise EmptyInput("centerline is empty")
    d = distance_to_polyline(faces.centers, centerline.points, closed=centerline.closed,
                             min_reach=radius)
    return (d - radius) ** 2


def error_summary(errors):
    """Mean, max, RMS and count of an error map's values. The values are
    the squared deviations (d - R)^2, so mean and max are in length^2,
    and the RMS is that of the squares, also in length^2."""
    errors = np.asarray(errors, dtype=float).ravel()
    if errors.size == 0:
        return {"mean": 0.0, "max": 0.0, "rms": 0.0, "count": 0}
    scale = float(np.abs(errors).max())  # the squares of errors / scale cannot overflow
    rms = scale * float(np.sqrt(np.mean((errors / scale) ** 2))) if scale > 0 else 0.0
    return {"mean": float(errors.mean()), "max": float(errors.max()), "rms": rms,
            "count": int(errors.size)}
