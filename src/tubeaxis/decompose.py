"""Straight/arc decomposition of a centerline via its tangent-space polygon.

The polyline maps to the plane: x accumulates segment length, y accumulates
the unsigned turning angle at each vertex. Straight runs are flat there;
constant-curvature runs put the per-segment midpoints on a line whose slope
is the curvature (1/r). Detected arc runs are then fitted with 3D circles;
non-planar constant-curvature runs (helices) fail the fit residual test and
are bisected recursively, ending in flagged leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Collinear, DuplicatePoint, TooFewPoints

_EPS = 1e-12


@dataclass
class TangentSpacePolygon:
    """Length/turn plot of a polyline.

    lengths[i] is |C_i C_{i+1}|; alphas[i] is the unsigned turn at vertex i
    (alphas[0] = 0 by convention); midpoints[i] is (arclength at the middle
    of segment i, total turn up to vertex i): the midpoint of segment i's
    horizontal edge in the staircase plot.
    """

    lengths: np.ndarray
    alphas: np.ndarray
    midpoints: np.ndarray


@dataclass
class Segment:
    start: int                       # centerline point range, inclusive
    end: int
    kind: str                        # "STRAIGHT" or "ARC"
    point: np.ndarray | None = None  # straight: point on the fitted line
    direction: np.ndarray | None = None
    center: np.ndarray | None = None  # arc: fitted circle
    radius: float | None = None
    axis: np.ndarray | None = None
    extent: float | None = None
    residual: float = 0.0
    flagged: bool = False


@dataclass
class Decomposition:
    segments: list = field(default_factory=list)

    def kinds(self):
        return "".join("S" if s.kind == "STRAIGHT" else "A" for s in self.segments)

    def __len__(self):
        return len(self.segments)


def tangent_space_transform(points) -> TangentSpacePolygon:
    """Map a 3D polyline to its (cumulative length, cumulative turn) plot."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points) - 1
    if n < 2:
        raise TooFewPoints("tangent space needs at least 3 points")
    edges = np.diff(points, axis=0)
    lengths = np.linalg.norm(edges, axis=1)
    if np.any(lengths <= _EPS):
        bad = int(np.argmin(lengths))
        raise DuplicatePoint(f"points {bad} and {bad + 1} coincide")
    units = edges / lengths[:, None]
    cosang = np.clip(np.einsum("ij,ij->i", units[:-1], units[1:]), -1.0, 1.0)
    alphas = np.concatenate([[0.0], np.arccos(cosang)])

    cum_len = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    midpoints = np.column_stack([cum_len + lengths / 2.0, np.cumsum(alphas)])
    return TangentSpacePolygon(lengths=lengths, alphas=alphas, midpoints=midpoints)


def _line_max_deviation(pts2):
    """Max orthogonal deviation of 2D points from their least-squares line."""
    pts2 = np.atleast_2d(pts2)
    if len(pts2) < 3:
        return 0.0
    centered = pts2 - pts2.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    return float(np.abs(centered @ normal).max())


def _vertex_runs(alphas, n_segments, alpha_flat):
    """Alternating flat/turning vertex runs -> point ranges with a shared
    index at every junction (the turning side's boundary vertex)."""
    n_vertices = n_segments - 1  # interior vertices 1..n_segments-1
    flat = [alphas[i] <= alpha_flat for i in range(1, n_vertices + 1)]
    runs = []  # (first_vertex, last_vertex, is_flat)
    s = 0
    for i in range(1, n_vertices):
        if flat[i] != flat[s]:
            runs.append((s + 1, i, flat[s]))
            s = i
    runs.append((s + 1, n_vertices, flat[s]))

    ranges = []
    for k, (va, vb, is_flat) in enumerate(runs):
        start = 0 if k == 0 else (runs[k - 1][1] if not runs[k - 1][2] else va)
        end = n_segments if k == len(runs) - 1 else (vb if not is_flat else runs[k + 1][0])
        ranges.append((start, end, is_flat))
    return ranges


def detect_arcs_and_lines(tsp: TangentSpacePolygon, alpha_flat, nu, min_len):
    """Label point ranges as straight or arc from the tangent-space plot.

    Flat-angle runs become STRAIGHT. Turning runs are grown greedily while
    their midpoints stay within orthogonal deviation nu of a fitted line,
    splitting whenever the fit breaks. Ranges spanning fewer than min_len
    indices are merged into their predecessor (or successor at the head).
    Returns (start, end, kind) tuples over centerline point indices.
    """
    n = len(tsp.lengths)
    labeled = []
    for start, end, is_flat in _vertex_runs(tsp.alphas, n, alpha_flat):
        if is_flat:
            labeled.append((start, end, "STRAIGHT"))
            continue
        # grow arcs over segment indices [start, end-1]
        sa = start
        while sa < end:
            sb = sa + 1
            while sb < end and _line_max_deviation(tsp.midpoints[sa:sb + 1]) <= nu:
                sb += 1
            labeled.append((sa, min(sb, end), "ARC"))
            sa = sb

    merged = []
    for start, end, kind in labeled:
        if merged and (end - start + 1) < min_len:
            prev = merged[-1]
            merged[-1] = (prev[0], end, prev[2])
        elif not merged and (end - start + 1) < min_len:
            merged.append((start, end, None))  # head stub: adopt next kind
        else:
            if merged and merged[-1][2] is None:
                stub = merged.pop()
                merged.append((stub[0], end, kind))
            else:
                merged.append((start, end, kind))
    if merged and merged[-1][2] is None:
        s, e, _ = merged.pop()
        merged.append((s, e, "STRAIGHT"))
    return merged


def fit_circle_3d(points):
    """Least-squares circle through 3D points.

    Fits the plane through the centroid (smallest principal direction as
    normal), projects, and solves the algebraic circle fit
    [2x 2y 1]·[a b c]^T = x^2+y^2 in the plane. Returns a dict with center,
    radius, axis, angular extent (2pi minus the largest angular gap) and the
    RMS 3D point-to-circle distance.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) < 3:
        raise TooFewPoints("circle fit needs at least 3 points")
    centroid = points.mean(axis=0)
    centered = points - centroid
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    if sv[1] <= max(1e-9 * sv[0], _EPS):
        raise Collinear("points have no planar spread")
    e1, e2, normal = vt[0], vt[1], vt[2]

    x = centered @ e1
    y = centered @ e2
    design = np.column_stack([2 * x, 2 * y, np.ones(len(x))])
    sol, *_ = np.linalg.lstsq(design, x * x + y * y, rcond=None)
    a, b, c = sol
    r2 = c + a * a + b * b
    if r2 <= _EPS:
        raise Collinear("degenerate circle fit")
    radius = math.sqrt(r2)
    center = centroid + a * e1 + b * e2

    ang = np.sort(np.arctan2(y - b, x - a))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * math.pi]]))
    extent = 2 * math.pi - float(gaps.max()) if len(ang) > 1 else 2 * math.pi

    rel = points - center
    z_off = rel @ normal
    rho = np.linalg.norm(rel - np.outer(z_off, normal), axis=1)
    residual = float(np.sqrt(np.mean(z_off ** 2 + (rho - radius) ** 2)))
    return {"center": center, "radius": radius, "axis": normal,
            "extent": extent, "residual": residual}


def _fit_line_3d(points):
    points = np.atleast_2d(points)
    centroid = points.mean(axis=0)
    if len(points) == 1:
        return centroid, np.array([1.0, 0.0, 0.0]), 0.0
    centered = points - centroid
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    if np.dot(direction, points[-1] - points[0]) < 0:
        direction = -direction
    dev = centered - np.outer(centered @ direction, direction)
    residual = float(np.sqrt(np.mean(np.sum(dev * dev, axis=1))))
    return centroid, direction, residual


def _fit_segment(points, start, end, kind, resid_tol, min_pts=4):
    """Fit one labeled range; arcs failing the residual test bisect."""
    pts = points[start:end + 1]
    if kind == "STRAIGHT":
        point, direction, residual = _fit_line_3d(pts)
        return [Segment(start=start, end=end, kind="STRAIGHT", point=point,
                        direction=direction, residual=residual)]
    try:
        fit = fit_circle_3d(pts)
    except Collinear:
        point, direction, residual = _fit_line_3d(pts)
        return [Segment(start=start, end=end, kind="STRAIGHT", point=point,
                        direction=direction, residual=residual)]
    if fit["residual"] <= resid_tol or (end - start + 1) < 2 * min_pts:
        return [Segment(start=start, end=end, kind="ARC", center=fit["center"],
                        radius=fit["radius"], axis=fit["axis"],
                        extent=fit["extent"], residual=fit["residual"],
                        flagged=fit["residual"] > resid_tol)]
    mid = (start + end) // 2
    return (_fit_segment(points, start, mid, "ARC", resid_tol, min_pts)
            + _fit_segment(points, mid, end, "ARC", resid_tol, min_pts))


def decompose_centerline(centerline, alpha_flat=0.05, nu=0.15, min_len=3, *,
                         resid_tol) -> Decomposition:
    """Full decomposition of a (refined) centerline.

    resid_tol is the arc planarity gate in world units (run_pipeline
    passes 0.3 * gridstep); arcs above it are recursively bisected and any
    stubborn leaves stay flagged.
    """
    points = centerline.points
    if len(points) < 3:
        point, direction, residual = _fit_line_3d(points)
        return Decomposition([Segment(start=0, end=len(points) - 1, kind="STRAIGHT",
                                      point=point, direction=direction,
                                      residual=residual)])
    tsp = tangent_space_transform(points)
    ranges = detect_arcs_and_lines(tsp, alpha_flat=alpha_flat, nu=nu, min_len=min_len)
    segments = []
    for start, end, kind in ranges:
        segments.extend(_fit_segment(points, start, end, kind, resid_tol))
    return Decomposition(segments)
