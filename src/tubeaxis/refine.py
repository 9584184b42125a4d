"""Centerline refinement by known-radius least squares.

Each centerline point C collects nearby surface points M_j (a slab
orthogonal to the local tangent) and minimises the energy

    E(C) = sum_j (|C M_j| - R)^2

whose gradient is g = 2 sum_j u_j (R - |CM_j|), with u_j = CM_j/|CM_j|
the unit vector from C to M_j. The resultant force f = sum_j u_j
(|CM_j| - R) equals -g/2 exactly. Each residual |CM_j| - R has gradient
-u_j, so the Gauss-Newton step delta solves H delta = f with
H = sum_j u_j u_j^T (Ahn, Rauh & Warnecke, "Least-squares orthogonal
distances fitting of circle, sphere, ellipse, hyperbola, and parabola",
Pattern Recognition 2001). H is singular when every u_j lies in one
plane (C inside the plane of a ring); the least-squares solve then gives
the step of least norm, which stays in that plane. The step is halved
until E does not increase, so E never increases from one accepted point
to the next.

Each candidate is evaluated once: energy_and_gradient computes the
offsets, distances and unit vectors a single time (g is -2 f, not a
second sum), and the Gauss-Newton step from an accepted candidate reuses
the unit vectors its evaluation wrote into optimize_point's buffer.

Sections come from a uniform cell hash over the face centers
(:class:`~tubeaxis.core.CellHash`, numpy only): one batched ball query
gathers the candidates of every centerline point, and the distance and
slab tests pick each section from them, so it is the section a full scan
over the faces would give.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CellHash
from .errors import CoincidentPoint, TooFewPoints
from .track import Centerline, _polyline_directions

_MIN_DIST = 1e-12
_BALL_MARGIN = 1e-9  # relative radius padding of the candidate ball query
# cell size of the face hash over acc_radius: smaller cells fit the ball
# more closely, larger ones make fewer columns to look up
_CELL_FRACTION = 0.25
# optimize_point's default convergence settings, which optimize_centerline
# uses: stop when the accepted energy drop falls below EPSILON_O, or after
# MAX_ITER
EPSILON_O = 0.001
MAX_ITER = 1000


def section_points(centerline, faces, i, acc_radius, track_step, near):
    """Face centers within acc_radius of C_i whose axial offset along the
    local direction d_i falls in the slab (-track_step/2, +track_step/2],
    in face order.

    ``near`` holds the candidate face indices: at least those whose
    centers lie within acc_radius of C_i, such as a ball query's result
    with a margin for its own rounding. The distance and slab tests below
    decide, so the selection is that of a full scan.
    """
    c = centerline.points[i]
    d = centerline.directions[i]
    near = np.sort(np.asarray(near, dtype=np.intp))
    rel = faces.centers[near] - c
    dist = np.linalg.norm(rel, axis=1)
    proj = rel @ d
    sel = near[(dist <= acc_radius) & (proj > -0.5 * track_step) & (proj <= 0.5 * track_step)]
    if len(sel) < 3:
        raise TooFewPoints(f"only {len(sel)} surface points near centerline point {i}")
    return faces.centers[sel]


def energy_and_gradient(c, points, radius, *, units=None):
    """Evaluate E, its gradient g and the resultant force f at center c.

    Returns (E, g, f); g is -2 f exactly. ``units``, an (N, 3) float
    array, receives the unit vectors u_j when given, so a caller that
    steps from c does not compute them again.
    """
    c = np.asarray(c, dtype=float)
    unit = np.subtract(np.atleast_2d(points), c, out=units)  # CM_j
    # |CM_j| summed as np.linalg.norm(axis=1) sums, (x^2 + y^2) + z^2, but
    # by columns, which numpy runs several times faster than across rows
    sq = unit * unit
    dist = sq[:, 0] + sq[:, 1]
    dist += sq[:, 2]
    np.sqrt(dist, out=dist)
    if (dist <= _MIN_DIST).any():
        bad = int(np.argmin(dist))
        raise CoincidentPoint(f"surface point {bad} coincides with the center")
    unit /= dist[:, None]
    resid = dist - radius
    e = float((resid * resid).sum())
    f = np.einsum("i,ij->j", resid, unit)
    return e, -2.0 * f, f


def _gauss_newton_step(units, f):
    """Least-squares solution delta of H delta = f, where
    H = sum_j u_j u_j^T over the unit vectors u_j."""
    return np.linalg.lstsq(units.T @ units, f, rcond=None)[0]


def optimize_point(c0, points, radius, epsilon_o=EPSILON_O, max_iter=MAX_ITER):
    """Gauss-Newton descent of a single center with backtracking halving.

    Each iteration evaluates one candidate c + step * delta: the full
    Gauss-Newton step first, then half of the previous candidate's step
    whenever E would increase or the candidate hits a surface point.
    Accepted iterations never increase E; stops when the accepted energy
    drop falls below epsilon_o or the iteration budget runs out. Returns
    (refined point, final energy, iterations used).

    Every evaluation writes its unit vectors into one buffer; a step is
    only taken from the candidate just evaluated and accepted, so the
    buffer then holds that candidate's u_j.
    """
    c = np.asarray(c0, dtype=float).copy()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    units = np.empty(points.shape)
    e, _, f = energy_and_gradient(c, points, radius, units=units)
    delta = _gauss_newton_step(units, f)
    step = 1.0
    for it in range(1, max_iter + 1):
        if math.sqrt(f.dot(f)) <= _MIN_DIST:  # np.linalg.norm(f)
            return c, e, it
        cand = c + step * delta
        try:
            e_new, _, f_new = energy_and_gradient(cand, points, radius, units=units)
        except CoincidentPoint:
            step *= 0.5
            continue
        if e_new > e:
            step *= 0.5
            continue
        moved = abs(e - e_new)
        c, e, f = cand, e_new, f_new
        if moved < epsilon_o:
            return c, e, it
        delta = _gauss_newton_step(units, f)
        step = 1.0
    return c, e, max_iter


def optimize_centerline(centerline, faces, radius, acc_radius, track_step) -> Centerline:
    """Refine every centerline point independently.

    Each point's section (section_points with acc_radius and track_step)
    is fitted to the known radius by optimize_point. Points with fewer than 3
    associated surface points are passed through untouched; the returned
    centerline's `refined` mask records which points actually moved
    through the optimizer.
    """
    pts = centerline.points.copy()
    refined = np.zeros(len(pts), dtype=bool)
    tree = CellHash(faces.centers, _CELL_FRACTION * acc_radius)
    balls = tree.query_ball_points(centerline.points,
                                  acc_radius * (1.0 + _BALL_MARGIN))
    for i, near in enumerate(balls):
        try:
            section = section_points(centerline, faces, i, acc_radius, track_step,
                                     near=near)
        except TooFewPoints:
            continue
        pts[i], _, _ = optimize_point(pts[i], section, radius)
        refined[i] = True
    dirs = _polyline_directions(pts, centerline.closed)
    return Centerline(points=pts, directions=dirs, closed=centerline.closed,
                      refined=refined)
