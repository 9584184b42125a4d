"""Tangent-space transform, circle fitting and straight/arc labeling."""

import math

import numpy as np
import pytest

import tubeaxis as tx
from conftest import centerline_of


def _ngon(n, r, wrap=1):
    theta = 2 * math.pi * np.arange(n + wrap) / n
    return np.column_stack([r * np.cos(theta), r * np.sin(theta),
                            np.zeros(n + wrap)])


def _line_max_deviation(pts2):
    """Max orthogonal deviation of 2D points from their least-squares line."""
    centered = pts2 - pts2.mean(axis=0)
    normal = np.linalg.svd(centered, full_matrices=False)[2][-1]
    return float(np.abs(centered @ normal).max())


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


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e100])
def test_fit_circle_is_the_algebraic_least_squares_circle(scale):
    # the reference solves [2x 2y 1] [a b c]^T = x^2 + y^2 in the principal
    # plane with lstsq; the fit takes the same solution from three sums
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.0, 2.0, size=30)
    pts = scale * (np.column_stack([10 * np.cos(theta), 10 * np.sin(theta), np.zeros(30)])
                   + rng.normal(0.0, 0.3, size=(30, 3)))
    centroid = pts.mean(axis=0)
    vt = np.linalg.svd(pts - centroid, full_matrices=False)[2]
    x, y = ((pts - centroid) @ vt[:2].T / scale).T
    (a, b, c), *_ = np.linalg.lstsq(np.column_stack([2 * x, 2 * y, np.ones(30)]),
                                    x * x + y * y, rcond=None)
    fit = tx.fit_circle_3d(pts)
    assert fit["radius"] == pytest.approx(scale * math.sqrt(c + a * a + b * b), rel=1e-12)
    assert np.allclose(fit["center"], centroid + scale * (a * vt[0] + b * vt[1]),
                       rtol=0, atol=1e-12 * scale * 10)


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
    # the fit tolerance is in world units and scales with the tube (the
    # chain passes 0.05 R), so no fixed default fits every input
    pts = _sas_polyline()
    cl = centerline_of(pts)
    with pytest.raises(TypeError, match="resid_tol"):
        tx.decompose_centerline(cl)
    with pytest.raises(TypeError):
        tx.decompose_centerline(cl, 0.05, 0.15, 3, 0.5)


def test_detect_straight_arc_straight():
    pts = _sas_polyline()
    cl = centerline_of(pts)
    dec = tx.decompose_centerline(cl, resid_tol=0.3)
    assert dec.kinds() == "SAS"
    s0, a, s1 = dec.segments
    assert a.radius == pytest.approx(15.0, rel=0.02)
    assert abs(abs(a.axis[2]) - 1.0) < 1e-6
    assert a.extent == pytest.approx(math.pi / 2, abs=0.15)
    assert np.allclose(np.abs(s0.direction), [1, 0, 0], atol=1e-9)
    # segments chain through shared boundary indices
    assert s0.end == a.start and a.end == s1.start


def test_junctions_land_on_turning_side():
    pts = _sas_polyline()
    tsp = tx.tangent_space_transform(pts)
    first_turn = int(np.flatnonzero(tsp.alphas > 0.05)[0])
    cl = centerline_of(pts)
    dec = tx.decompose_centerline(cl, resid_tol=0.3)
    assert abs(dec.segments[0].end - first_turn) <= 1


def test_single_vertex_kink_merges_into_straights():
    # one isolated turning vertex spans too few indices to stand alone
    d1 = np.array([1.0, 0.0, 0.0])
    d2 = np.array([math.cos(0.12), math.sin(0.12), 0.0])
    pts = [i * 3.0 * d1 for i in range(6)]
    pts += [pts[-1] + i * 3.0 * d2 for i in range(1, 6)]
    pts = np.asarray(pts)
    cl = centerline_of(pts)
    dec = tx.decompose_centerline(cl, resid_tol=0.5)
    assert dec.kinds().count("A") == 0
    assert len(dec.segments) <= 2


def test_helix_is_flagged_or_split():
    theta = np.linspace(0, 1.5 * math.pi, 40)
    pts = np.column_stack([12 * np.cos(theta), 12 * np.sin(theta),
                           4.0 * theta])
    cl = centerline_of(pts)
    dec = tx.decompose_centerline(cl, resid_tol=0.3)
    arcs = [s for s in dec.segments if s.kind == "ARC"]
    assert arcs
    assert len(arcs) > 1


def test_decompose_covers_every_index():
    pts = _sas_polyline()
    cl = centerline_of(pts)
    dec = tx.decompose_centerline(cl, resid_tol=0.3)
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


def test_wide_ring_is_one_arc():
    # 200 points over 95% of a circle of radius 50: each vertex turns
    # under 0.03 rad, but no line fits the run
    theta = np.linspace(0.0, 0.95 * 2 * math.pi, 200)
    pts = np.column_stack([50 * np.cos(theta), 50 * np.sin(theta), np.zeros(200)])
    dec = tx.decompose_centerline(centerline_of(pts), resid_tol=0.05)
    assert dec.kinds() == "A"
    assert dec.segments[0].radius == pytest.approx(50.0, rel=1e-9)


# kinds on refined centerlines at the chain's default tolerance, 0.05 R

def _refined_kinds(mesh, radius, **settings):
    run = tx.run_pipeline(mesh, radius, stages=("accumulate", "track", "refine", "decompose"),
                          **settings)
    return run.decomposition.kinds()


@pytest.mark.parametrize("seed", [20813, 12345, 1, 2, 3])
def test_noisy_cylinder_is_one_straight(seed):
    # C3's cylinder with sigma = 0.2 vertex noise
    mesh, _ = tx.gen_tube([tx.Straight(100.0)], radius=5.0, mesh_step=1.0)
    noisy = tx.degrade(mesh, "noise", sigma=0.2, seed=seed)
    assert _refined_kinds(noisy, 5.0, gridstep=1.0) == "S"


@pytest.fixture(scope="module")
def long_straight():
    return tx.gen_tube([tx.Straight(240.0)], radius=6.0, mesh_step=0.5)[0]


@pytest.mark.parametrize("pose", range(12))
def test_straight_on_a_body_diagonal_is_one_straight(long_straight, pose):
    # +x taken to a random signed body diagonal, with a random roll about it
    rng = np.random.default_rng([0, pose])
    d = rng.choice([-1.0, 1.0], size=3) / math.sqrt(3.0)
    frame = tx.frame_from_direction(d)
    roll = rng.uniform(0.0, 2 * math.pi)
    u = math.cos(roll) * frame.u + math.sin(roll) * frame.v
    rotation = np.column_stack([d, u, np.cross(d, u)])
    mesh = tx.TriMesh(long_straight.vertices @ rotation.T, long_straight.faces)
    assert _refined_kinds(mesh, 6.0) == "S"


@pytest.mark.parametrize("spec,track_step", [("S:100,A:150:60,S:100", None),
                                             ("S:100,A:90:60,S:100", None),
                                             ("S:100,A:90:60,S:100", 3.0)])
def test_wide_bends_are_one_arc(spec, track_step):
    # bend radii 25R and 15R: a vertex turns 0.04 rad or less at step R
    mesh, _ = tx.gen_tube(tx.parse_tube_spec(spec), radius=6.0, mesh_step=0.515)
    assert _refined_kinds(mesh, 6.0, track_step=track_step) == "SAS"


@pytest.mark.parametrize("mesh_step", [3.0, 4.5])
def test_coarse_meshes_give_the_spec_kinds(mesh_step):
    # the auto gridsteps are 4.15 and 6.39, the second above R
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:120,A:30:90,S:120"), radius=6.0,
                          mesh_step=mesh_step)
    assert _refined_kinds(mesh, 6.0) == "SAS"


# (bend radius in R, track step in R) whose bend has fewer than 4 steps
_TOO_FEW_STEPS = {(2, 2.0), (5, 2.0)}


@pytest.mark.parametrize("k", [2, 5, 10, 20, 30])
def test_bend_radius_and_track_step_sweep(k):
    # S:36, A:kR:90, S:36 (R=3), tracked at steps R/4 to 2R
    radius = 3.0
    mesh, _ = tx.gen_tube(tx.parse_tube_spec(f"S:36,A:{k * radius}:90,S:36"), radius=radius,
                          mesh_step=0.5)
    run = tx.run_pipeline(mesh, radius, stages=("accumulate",))
    acc_r = run.acc_params.acc_radius
    for f in (0.25, 0.5, 1.0, 2.0):
        raw = tx.extract_centerline(run.accumulation, f * radius, acc_r)
        refined = tx.optimize_centerline(raw, run.faces, radius, acc_r, f * radius)
        kinds = tx.decompose_centerline(refined, resid_tol=0.05 * radius).kinds()
        assert kinds == "SAS" or (k, f) in _TOO_FEW_STEPS, (f, kinds)


@pytest.mark.parametrize("scale", [1e12, 1e148])
def test_a_tolerance_below_the_coordinates_rounding_is_too_small(bent_pipe, scale):
    # bent_pipe's axis scaled up: its fits' residuals are rounding once
    # resid_tol is below 1e-12 of the largest coordinate magnitude; at 1e148
    # a tolerance of 0.15 once gave 19 straights
    line = centerline_of(bent_pipe["truth"].points * scale)
    floor = 1e-12 * np.abs(line.points).max()
    with pytest.raises(tx.TooSmall) as raised:
        tx.decompose_centerline(line, resid_tol=0.15)
    assert str(raised.value) == ("resid_tol 0.15 is below the rounding of the centerline's "
                                 f"coordinates, 1e-12 times their largest magnitude: {floor:g}")
    assert tx.decompose_centerline(line, resid_tol=0.15 * scale).kinds() == "SAS"
