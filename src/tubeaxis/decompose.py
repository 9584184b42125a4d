"""Straight/arc decomposition of a centerline by line and circle fits.

One left-to-right pass decides every segment by least-squares fits held
to one RMS tolerance in world units: a run is straight while a line fits
it, and an arc where a circle fits it and the next straight run. This
stands in for the paper's linear-time arc recognition in the
tangent-space plot (README, "Deviation from the paper"), which
tangent_space_transform still draws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Collinear, DuplicatePoint, TooFewPoints, TooSmall

_EPS = 1e-12
_SLIDE = 3  # indices a straight/arc junction may move
# the smallest tolerance, as a share of the largest coordinate magnitude:
# rounding alone gives exact lines and circles fit residuals of up to
# 8e-16 of it (measured at magnitudes 1 to 1e148), so a tolerance below
# 1000 times that cannot tell a fit from rounding
_ROUNDING = 1e-12


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
    x, y, z = (centered @ vt.T).T  # in-plane coordinates, then off-plane
    # x and y sum to 0, are uncorrelated and have squared norms sv[0]^2 and
    # sv[1]^2, so the normal matrix of [2x 2y 1] is diagonal: a, b and
    # c = (sv[0]^2 + sv[1]^2) / n are sums, taken on x and y over sv[0],
    # whose cubes cannot overflow; r^2 = c + a^2 + b^2
    u, v = x / sv[0], y / sv[0]
    w = u * u + v * v
    a = sv[0] * (u @ w) / 2
    b = sv[0] * (v @ w) / (2 * (sv[1] / sv[0]) ** 2)
    radius = math.hypot(*sv[:2] / math.sqrt(len(points)), a, b)
    if radius * radius <= _EPS:
        raise Collinear("degenerate circle fit")
    center = centroid + a * vt[0] + b * vt[1]

    dx, dy = x - a, y - b
    ang = np.sort(np.arctan2(dy, dx))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * math.pi]]))
    extent = 2 * math.pi - float(gaps.max())
    residual = float(np.sqrt(np.mean(z * z + (np.hypot(dx, dy) - radius) ** 2)))
    return {"center": center, "radius": radius, "axis": vt[2],
            "extent": extent, "residual": residual}


def _fit_line_3d(points):
    """Centroid, unit direction (first to last point) and RMS distance of
    the least-squares line through points."""
    centroid = points.mean(axis=0)
    _, sv, vt = np.linalg.svd(points - centroid, full_matrices=False)
    direction = vt[0] if np.dot(vt[0], points[-1] - points[0]) >= 0 else -vt[0]
    # the squared distances to the line sum to the other squared singular values
    return centroid, direction, math.hypot(*sv[1:]) / math.sqrt(len(points))


def _fit(points, start, end, kind):
    """The Segment of kind fitted to points[start:end + 1]; an arc on
    collinear points has an infinite residual."""
    pts = points[start:end + 1]
    if kind == "STRAIGHT":
        point, direction, residual = _fit_line_3d(pts)
        return Segment(start, end, kind, point=point, direction=direction, residual=residual)
    try:
        fit = fit_circle_3d(pts)
    except Collinear:
        return Segment(start, end, kind, residual=math.inf)
    return Segment(start, end, kind, center=fit["center"], radius=fit["radius"],
                   axis=fit["axis"], extent=fit["extent"], residual=fit["residual"])


def _longest(fits, start, end, last):
    """The last index e in [end, last] with fits(start, e), found by doubling
    the step past end, then bisecting; fits(start, end) is taken as true."""
    good, bad, step = end, last + 1, 1
    while good < last and bad > last:
        probe = min(good + step, last)
        if fits(start, probe):
            good, step = probe, 2 * step
        else:
            bad = probe
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if fits(start, mid) else (good, mid)
    return good


def decompose_centerline(centerline, *, resid_tol) -> Decomposition:
    """Straight and arc segments of a (refined) centerline, chained through
    shared boundary indices, each fitted within RMS resid_tol in world units
    (run_pipeline passes 0.05 * radius).

    From each segment's start, the longest run that a line fits is a
    straight, unless a circle fits it together with the next such run (at
    most as long again); then it is an arc, extended while its circle
    fits. In two passes, each junction of a straight and an arc then
    moves, by up to _SLIDE indices, to where the two fits' summed squared
    residuals are least. A resid_tol below _ROUNDING times the largest
    coordinate magnitude is a TooSmall.
    """
    points = centerline.points
    floor = _ROUNDING * float(np.abs(points).max())
    if not resid_tol >= floor:  # NaN too
        raise TooSmall(f"resid_tol {resid_tol:g} is below the rounding of the centerline's "
                       f"coordinates, {_ROUNDING:g} times their largest magnitude: {floor:g}")
    last = len(points) - 1
    fit = functools.cache(lambda start, end, kind: _fit(points, start, end, kind))

    def line(start, end):
        return fit(start, end, "STRAIGHT").residual <= resid_tol

    def circle(start, end):
        return fit(start, end, "ARC").residual <= resid_tol

    runs, start = [], 0  # [start, end, kind]
    while start < last:
        end, kind = _longest(line, start, start + 1, last), "STRAIGHT"
        if end < last:
            after = _longest(line, end, end + 1, min(2 * end - start, last))
            if circle(start, after):
                end, kind = _longest(circle, start, after, last), "ARC"
        runs.append([start, end, kind])
        start = end

    def cost(a, j, b, kind_a, kind_b):
        """Summed squared residuals of the fits on either side of j."""
        ra, rb = fit(a, j, kind_a).residual, fit(j, b, kind_b).residual
        return (j - a + 1) * ra * ra + (b - j + 1) * rb * rb

    for _ in range(2):
        for one, two in zip(runs, runs[1:]):
            (a, j, kind_a), (_, b, kind_b) = one, two
            if kind_a != kind_b:
                # an arc keeps 3 points, a straight 2
                lo = max(j - _SLIDE, a + 1 + (kind_a == "ARC"))
                hi = min(j + _SLIDE, b - 1 - (kind_b == "ARC"))
                one[1] = two[0] = min(range(lo, hi + 1), key=lambda k: (
                    cost(a, k, b, kind_a, kind_b), abs(k - j)))
    return Decomposition([fit(start, end, kind) for start, end, kind in runs])
