"""Tube reconstruction from a centerline and surface error measurement."""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .core import frame_from_direction, normalize
from .errors import DegenerateTangent, EmptyInput, TooSmall
from .ingest import TriMesh
from .track import _polyline_directions

_EPS = 1e-12
_CANDIDATES = (4, 8)  # nearest segments tried in turn before all of them
_CHUNK_PAIRS = 131_072  # point-segment pairs measured at once
_REACH_MARGIN = 1e-6  # relative padding of the candidate reach for rounding


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
    midpoint within (distance to the nearest midpoint) + (longest half
    segment) of the point. So each point measures only its 4 nearest
    segments by midpoint, unless even the last of those is within that
    reach; such points try their 8 nearest (a centerline sampled finer
    than about half the distance to the surface needs them), and the
    points still unsure measure every segment. All use the same per-pair
    formula, so the result is that of the full F x P scan.
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
    tree = cKDTree(0.5 * (a + b))

    best = np.empty(len(points))
    todo = np.arange(len(points))
    for k in _CANDIDATES:
        if k >= len(a):
            break
        unsure = [todo[:0]]
        chunk = max(1, _CHUNK_PAIRS // k)
        for s in range(0, len(todo), chunk):
            rows = todo[s:s + chunk]
            p = points[rows]
            mid_dist, cand = tree.query(p, k=k)
            reach = (mid_dist[:, 0] + half) * (1.0 + _REACH_MARGIN)
            sure = mid_dist[:, -1] > reach
            c = cand[sure]
            best[rows[sure]] = _nearest_distance(p[sure], *(x[c] for x in segments))
            unsure.append(rows[~sure])
        todo = np.concatenate(unsure)
    chunk = max(1, _CHUNK_PAIRS // len(a))
    for s in range(0, len(todo), chunk):
        rows = todo[s:s + chunk]
        best[rows] = _nearest_distance(points[rows], *segments)
    return best


def _nearest_distance(p, a, ab, a_ab, ab_len2):
    """Distance from each p[i] to the nearest of its segments: a, ab are
    (S, 3) segments shared by all points, or (F, k, 3) per point."""
    # t[i, j]: clamped parameter of the projection of point i on segment j
    t = np.einsum("ik,jk->ij" if a.ndim == 2 else "ik,ijk->ij", p, ab) - a_ab
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
