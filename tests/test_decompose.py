"""Tangent-space transform, circle fitting and straight/arc labeling."""

import math

import numpy as np
import pytest

import tubeaxis as tx
from tubeaxis.decompose import _line_max_deviation
from tubeaxis.track import Centerline


def _ngon(n, r, wrap=1):
    theta = 2 * math.pi * np.arange(n + wrap) / n
    return np.column_stack([r * np.cos(theta), r * np.sin(theta),
                            np.zeros(n + wrap)])


def _slope(midpoints):
    x, y = midpoints[:, 0], midpoints[:, 1]
    return np.polyfit(x, y, 1)[0]


def test_ngon_closed_forms():
    # regular 36-gon on a circle of radius 10:
    # edge length 2*10*sin(pi/36), turn angle 2*pi/36 at every vertex
    tsp = tx.tangent_space_transform(_ngon(36, 10.0))
    assert np.allclose(tsp.lengths, 1.7431148549531632, atol=1e-12)
    assert tsp.alphas[0] == 0.0
    assert np.allclose(tsp.alphas[1:], 0.17453292519943295, atol=1e-12)
    # midpoints are exactly collinear with slope alpha / length
    assert _line_max_deviation(tsp.midpoints) < 1e-9
    assert _slope(tsp.midpoints) == pytest.approx(0.100127036783312,
                                                  abs=1e-9)


def test_ngon_slope_converges_second_order():
    errs = []
    for n in (18, 36, 72):
        tsp = tx.tangent_space_transform(_ngon(n, 10.0))
        errs.append(abs(_slope(tsp.midpoints) * 10.0 - 1.0))
    assert 3.8 < errs[0] / errs[1] < 4.2
    assert 3.8 < errs[1] / errs[2] < 4.2
    # at n = 72 the slope-implied radius is within 0.5 percent
    assert errs[2] < 0.005


def test_staircase_shape():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [2.0, 1.0, 0]])
    tsp = tx.tangent_space_transform(pts)
    assert tsp.lengths.shape == (3,)
    assert tsp.alphas[1] == pytest.approx(0.0)
    assert tsp.alphas[2] == pytest.approx(math.pi / 2)
    # the middle of each segment's horizontal edge in the staircase plot
    assert tsp.midpoints == pytest.approx(np.array([[0.5, 0.0], [1.5, 0.0],
                                                    [2.5, math.pi / 2]]))


def test_degenerate_polylines_rejected():
    with pytest.raises(tx.TooFewPoints):
        tx.tangent_space_transform(np.zeros((2, 3)))
    with pytest.raises(tx.DuplicatePoint):
        tx.tangent_space_transform(np.array([[0.0, 0, 0], [0.0, 0, 0],
                                             [1.0, 0, 0]]))


def test_fit_circle_exact():
    rng = np.random.default_rng(0)
    center = np.array([3.0, -2.0, 5.0])
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    fr = tx.frame_from_direction(axis)
    theta = rng.uniform(0, 2 * math.pi, size=40)
    pts = center + 7.0 * (np.cos(theta)[:, None] * fr.u
                          + np.sin(theta)[:, None] * fr.v)
    fit = tx.fit_circle_3d(pts)
    assert np.allclose(fit["center"], center, atol=1e-9)
    assert fit["radius"] == pytest.approx(7.0, abs=1e-9)
    assert abs(abs(fit["axis"] @ axis) - 1.0) < 1e-9
    assert fit["residual"] < 1e-9


def test_fit_circle_extent_quarter_turn():
    theta = np.linspace(0.0, math.pi / 2, 20)
    pts = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(20)])
    fit = tx.fit_circle_3d(pts)
    assert fit["extent"] == pytest.approx(math.pi / 2, abs=0.02)


def test_fit_circle_collinear_raises():
    pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
    with pytest.raises(tx.Collinear):
        tx.fit_circle_3d(pts)


def test_helix_has_large_residual():
    theta = np.linspace(0, 2 * math.pi, 60)
    pts = np.column_stack([10 * np.cos(theta), 10 * np.sin(theta),
                           3.0 * theta])
    fit = tx.fit_circle_3d(pts)
    assert fit["residual"] > 1.0


def _sas_polyline(step=3.0, arc_r=15.0, leg=30.0, angle=math.pi / 2):
    """Straight, quarter arc, straight, sampled every `step`."""
    pts = [np.array([x, 0.0, 0.0]) for x in np.arange(-leg, 0.0, step)]
    n_arc = int(round(arc_r * angle / step))
    for i in range(n_arc + 1):
        phi = angle * i / n_arc
        pts.append(np.array([arc_r * math.sin(phi),
                             arc_r * (1 - math.cos(phi)), 0.0]))
    t = np.array([math.cos(angle), math.sin(angle), 0.0])
    last = pts[-1]
    for x in np.arange(step, leg + step / 2, step):
        pts.append(last + x * t)
    return np.asarray(pts)


def test_planarity_gate_has_no_default():
    # the gate scales with the lattice; a fixed default disagreed with the
    # chain's 0.3 gridstep
    pts = _sas_polyline()
    cl = Centerline(points=pts, directions=np.zeros_like(pts))
    with pytest.raises(TypeError, match="resid_tol"):
        tx.decompose_centerline(cl)
    with pytest.raises(TypeError):
        tx.decompose_centerline(cl, 0.05, 0.15, 3, 0.5)


def test_detect_straight_arc_straight():
    pts = _sas_polyline()
    cl = Centerline(points=pts, directions=np.zeros_like(pts))
    dec = tx.decompose_centerline(cl, resid_tol=0.5)
    assert dec.kinds() == "SAS"
    s0, a, s1 = dec.segments
    assert a.radius == pytest.approx(15.0, rel=0.02)
    assert abs(abs(a.axis[2]) - 1.0) < 1e-6
    assert a.extent == pytest.approx(math.pi / 2, abs=0.15)
    assert np.allclose(np.abs(s0.direction), [1, 0, 0], atol=1e-9)
    # segments chain through shared boundary indices
    assert s0.end == a.start and a.end == s1.start
    assert not a.flagged


def test_junctions_land_on_turning_side():
    pts = _sas_polyline()
    tsp = tx.tangent_space_transform(pts)
    first_turn = int(np.flatnonzero(tsp.alphas > 0.05)[0])
    cl = Centerline(points=pts, directions=np.zeros_like(pts))
    dec = tx.decompose_centerline(cl, resid_tol=0.5)
    assert abs(dec.segments[0].end - first_turn) <= 1


def test_single_vertex_kink_merges_into_straights():
    # one isolated turning vertex spans too few indices to stand alone
    d1 = np.array([1.0, 0.0, 0.0])
    d2 = np.array([math.cos(0.12), math.sin(0.12), 0.0])
    pts = [i * 3.0 * d1 for i in range(6)]
    pts += [pts[-1] + i * 3.0 * d2 for i in range(1, 6)]
    pts = np.asarray(pts)
    cl = Centerline(points=pts, directions=np.zeros_like(pts))
    dec = tx.decompose_centerline(cl, resid_tol=0.5)
    assert dec.kinds().count("A") == 0
    assert len(dec.segments) <= 2


def test_helix_is_flagged_or_split():
    theta = np.linspace(0, 1.5 * math.pi, 40)
    pts = np.column_stack([12 * np.cos(theta), 12 * np.sin(theta),
                           4.0 * theta])
    cl = Centerline(points=pts, directions=np.zeros_like(pts))
    dec = tx.decompose_centerline(cl, resid_tol=0.3)
    arcs = [s for s in dec.segments if s.kind == "ARC"]
    assert arcs
    assert any(s.flagged for s in arcs) or len(arcs) > 1


def test_decompose_covers_every_index():
    pts = _sas_polyline()
    cl = Centerline(points=pts, directions=np.zeros_like(pts))
    dec = tx.decompose_centerline(cl, resid_tol=0.5)
    assert dec.segments[0].start == 0
    assert dec.segments[-1].end == len(pts) - 1
    for a, b in zip(dec.segments, dec.segments[1:]):
        assert a.end == b.start


def test_bent_pipe_mesh_decomposition(bent_pipe):
    res = bent_pipe["result"]
    radius = bent_pipe["radius"]
    acc_r = bent_pipe["params"].acc_radius
    raw = tx.extract_centerline(res, track_step=radius, acc_radius=acc_r)
    refined = tx.optimize_centerline(raw, bent_pipe["faces"], radius, acc_r, radius)
    dec = tx.decompose_centerline(refined, resid_tol=0.3)
    assert dec.kinds() == "SAS"
    arc = dec.segments[1]
    assert arc.radius == pytest.approx(15.0, rel=0.05)
