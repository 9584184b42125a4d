"""Tube reconstruction from a centerline and surface error measurement.

The error map measures exact point-to-polyline distances. Each point
takes its candidate segments from a uniform cell hash over the segment
midpoints, with cells that grow for the points far from the polyline, so
a finely sampled centerline costs about as much as a coarse one.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (CellHash, column_max, column_min, concat_ranges, frame_from_direction,
                   normalize)
from .errors import DegenerateTangent, EmptyInput, TooSmall
from .ingest import TriMesh
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
    centerline is stitched around the wrap.
    """
    points = np.atleast_2d(np.asarray(centerline.points, dtype=float))
    if len(points) < 2:
        raise TooSmall("sweep needs at least 2 centerline points")
    if radius <= 0:
        raise ValueError("radius must be positive")
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    if np.any(steps <= _EPS):
        bad = int(np.argmin(steps))
        raise DegenerateTangent(f"centerline points {bad} and {bad + 1} coincide")
    closed = bool(getattr(centerline, "closed", False))
    tangents = _polyline_directions(points, closed)

    u = frame_from_direction(tangents[0]).u
    theta = 2 * math.pi * np.arange(sides) / sides
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    n = len(points)
    vertices = np.empty((n * sides, 3))
    for k in range(n):
        t = tangents[k]
        u = u - np.dot(u, t) * t
        nu = np.linalg.norm(u)
        if nu <= 1e-9:
            u = frame_from_direction(t).u
        else:
            u = u / nu
        v = np.cross(t, u)
        vertices[k * sides:(k + 1) * sides] = (
            points[k] + radius * (np.outer(cos_t, u) + np.outer(sin_t, v)))

    j = np.arange(sides)
    jn = (j + 1) % sides
    bands = n if closed else n - 1
    faces = []
    for k in range(bands):
        k2 = (k + 1) % n
        a = k * sides + j
        b = k * sides + jn
        c = k2 * sides + jn
        d = k2 * sides + j
        faces.append(np.column_stack([a, b, d]))
        faces.append(np.column_stack([b, c, d]))
    return TriMesh(vertices, np.concatenate(faces))


def distance_to_polyline(points, polyline, closed=False):
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
    h = 4.0 * half
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
    The rows of one cell share one candidate list."""
    reach = (grid.cell - half) / (1.0 + _REACH_MARGIN)
    cells = grid.cells(points[rows])
    # only cells at most one away from the box have candidates
    near = np.all((cells >= -1) & (cells <= grid.dims), axis=1)
    unsure = [rows[~near]]
    rows, cells = rows[near], cells[near]
    key = np.ravel_multi_index((cells + 1).T, grid.dims + 2)
    by_cell = np.argsort(key, kind="stable")
    rows, cells, key = rows[by_cell], cells[by_cell], key[by_cell]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    start, stop = grid.ranges(cells[first], _NEIGHBOUR_COLUMNS)
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
    """Distance from each p[i] to the nearest of the (S, 3) segments a, ab."""
    # t[i, j]: clamped parameter of the projection of point i on segment j
    t = np.einsum("ik,jk->ij", p, ab) - a_ab
    t = np.clip(t / ab_len2, 0.0, 1.0)
    proj = a + t[:, :, None] * ab
    d2 = np.sum((p[:, None, :] - proj) ** 2, axis=2)
    return np.sqrt(d2.min(axis=1))


def error_map(faces, centerline, radius):
    """Per-face squared deviation from the ideal tube surface.

    Each input face center M scores (dist(M, centerline) - radius)^2,
    with exact point-to-polyline distances.
    """
    if centerline is None or len(centerline.points) == 0:
        raise EmptyInput("centerline is empty")
    d = distance_to_polyline(faces.centers, centerline.points,
                             closed=getattr(centerline, "closed", False))
    return (d - radius) ** 2


def error_summary(errors):
    errors = np.asarray(errors, dtype=float).ravel()
    if errors.size == 0:
        return {"mean": 0.0, "max": 0.0, "rms": 0.0, "count": 0}
    return {
        "mean": float(errors.mean()),
        "max": float(errors.max()),
        "rms": float(np.sqrt(np.mean(errors ** 2))),
        "count": int(errors.size),
    }
