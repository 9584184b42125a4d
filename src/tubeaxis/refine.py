"""Centerline refinement by known-radius least squares.

Each centerline point C collects nearby surface points M_j (a slab
orthogonal to the local tangent) and minimises the energy

    E(C) = sum_j w_j (|C M_j| - R)^2

whose gradient is g = 2 sum_j w_j u_j (R - |CM_j|), with u_j = CM_j/|CM_j|
the unit vector from C to M_j. The resultant force f = sum_j w_j u_j
(|CM_j| - R) equals -g/2 exactly. Each residual |CM_j| - R has gradient
-u_j, so the Gauss-Newton step delta solves H delta = f with
H = sum_j w_j u_j u_j^T (Ahn, Rauh & Warnecke, "Least-squares orthogonal
distances fitting of circle, sphere, ellipse, hyperbola, and parabola",
Pattern Recognition 2001). H is singular when every u_j lies in one
plane (C inside the plane of a ring); the least-squares solve then gives
the step of least norm, which stays in that plane. The step is halved
until E does not increase, so E never increases from one accepted point
to the next.

Sections come from a uniform cell hash over the face centers
(:class:`~tubeaxis.core.CellHash`, numpy only): its ball query gathers
candidates, and the distance and slab tests pick the section from them,
so it is the section a full scan over the faces would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CellHash
from .errors import CoincidentPoint, TooFewPoints
from .track import Centerline, _polyline_directions

_MIN_DIST = 1e-12
_BALL_MARGIN = 1e-9  # relative radius padding of the candidate ball query
# cell size of the face hash over acc_radius: smaller cells fit the ball
# more closely, larger ones make fewer columns to look up
_CELL_FRACTION = 0.25


@dataclass(frozen=True)
class RefineParams:
    radius: float
    acc_radius: float
    track_step: float
    epsilon_o: float = 0.001      # stop when |E_prev - E| drops below this
    max_iter: int = 1000
    area_weighting: bool = False


@dataclass
class SectionAssociation:
    """Surface points attached to centerline point i."""

    index: int
    points: np.ndarray
    weights: np.ndarray | None = None


def section_points(centerline, faces, i, acc_radius, track_step,
                   use_areas=False, tree=None) -> SectionAssociation:
    """Face centers within acc_radius of C_i whose axial offset along the
    local direction d_i falls in the slab (-track_step/2, +track_step/2],
    in face order.

    ``tree`` is any index over ``faces.centers`` with a
    ``query_ball_point(point, r)`` that returns at least the indices within
    r (a :class:`CellHash` by default, or a k-d tree); callers that take
    sections at many points build it once. Its query only gathers
    candidates (with a margin for its own rounding); the distance and
    slab tests below decide, so the selection is that of a full scan.
    """
    if tree is None:
        tree = CellHash(faces.centers, _CELL_FRACTION * acc_radius)
    c = centerline.points[i]
    d = centerline.directions[i]
    near = tree.query_ball_point(c, acc_radius * (1.0 + _BALL_MARGIN))
    near = np.sort(np.asarray(near, dtype=np.intp))
    rel = faces.centers[near] - c
    dist = np.linalg.norm(rel, axis=1)
    proj = rel @ d
    sel = near[(dist <= acc_radius) & (proj > -0.5 * track_step) & (proj <= 0.5 * track_step)]
    if len(sel) < 3:
        raise TooFewPoints(f"only {len(sel)} surface points near centerline point {i}")
    weights = faces.areas[sel] if use_areas else None
    return SectionAssociation(index=i, points=faces.centers[sel], weights=weights)


def energy_and_gradient(c, points, radius, weights=None):
    """Evaluate E, its gradient g and the resultant force f at center c.

    Returns (E, g, f); f == -g/2 holds exactly. Weights (face areas)
    multiply each point's term.
    """
    c = np.asarray(c, dtype=float)
    rel = np.atleast_2d(points) - c  # CM_j
    dist = np.linalg.norm(rel, axis=1)
    if np.any(dist <= _MIN_DIST):
        bad = int(np.argmin(dist))
        raise CoincidentPoint(f"surface point {bad} coincides with the center")
    unit = rel / dist[:, None]
    w = np.ones(len(dist)) if weights is None else np.asarray(weights, dtype=float)
    e = float(np.sum(w * (dist - radius) ** 2))
    g = 2.0 * np.einsum("i,ij->j", w * (radius - dist), unit)
    f = np.einsum("i,ij->j", w * (dist - radius), unit)
    return e, g, f


def _gauss_newton_step(c, points, weights, f):
    """Least-squares solution delta of H delta = f, where
    H = sum_j w_j u_j u_j^T over the unit vectors u_j from c to the points."""
    rel = points - c
    unit = rel / np.linalg.norm(rel, axis=1)[:, None]
    weighted = unit if weights is None else unit * weights[:, None]
    return np.linalg.lstsq(weighted.T @ unit, f, rcond=None)[0]


def optimize_point(c0, points, radius, epsilon_o=0.001, max_iter=1000,
                   weights=None):
    """Gauss-Newton descent of a single center with backtracking halving.

    Each iteration evaluates one candidate c + step * delta: the full
    Gauss-Newton step first, then half of the previous candidate's step
    whenever E would increase or the candidate hits a surface point.
    Accepted iterations never increase E; stops when the accepted energy
    drop falls below epsilon_o or the iteration budget runs out. Returns
    (refined point, final energy, iterations used).
    """
    c = np.asarray(c0, dtype=float).copy()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
    e, _, f = energy_and_gradient(c, points, radius, weights)
    delta = _gauss_newton_step(c, points, weights, f)
    step = 1.0
    for it in range(1, max_iter + 1):
        if np.linalg.norm(f) <= _MIN_DIST:
            return c, e, it
        cand = c + step * delta
        try:
            e_new, _, f_new = energy_and_gradient(cand, points, radius, weights)
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
        delta = _gauss_newton_step(c, points, weights, f)
        step = 1.0
    return c, e, max_iter


def optimize_centerline(centerline, faces, params: RefineParams) -> Centerline:
    """Refine every centerline point independently.

    Points with fewer than 3 associated surface points are passed through
    untouched; the returned centerline's `refined` mask records which
    points actually moved through the optimizer.
    """
    pts = centerline.points.copy()
    refined = np.zeros(len(pts), dtype=bool)
    tree = CellHash(faces.centers, _CELL_FRACTION * params.acc_radius)
    for i in range(len(pts)):
        try:
            assoc = section_points(centerline, faces, i, params.acc_radius,
                                   params.track_step, use_areas=params.area_weighting,
                                   tree=tree)
        except TooFewPoints:
            continue
        pts[i], _, _ = optimize_point(pts[i], assoc.points, params.radius,
                                      epsilon_o=params.epsilon_o,
                                      max_iter=params.max_iter,
                                      weights=assoc.weights)
        refined[i] = True
    dirs = _polyline_directions(pts, centerline.closed)
    return Centerline(points=pts, directions=dirs,
                      source_max_pt=centerline.source_max_pt,
                      closed=centerline.closed, refined=refined)
