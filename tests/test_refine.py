"""Known-radius center optimization: energy, gradient, force, convergence."""

import math

import numpy as np
import pytest

from scipy.spatial import cKDTree

import tubeaxis as tx
from tubeaxis import refine
from tubeaxis.track import Centerline

from conftest import random_unit_vectors


def _ring(center, radius, n, axis=(0.0, 0.0, 1.0), rng=None, rho_jitter=0.0):
    fr = tx.frame_from_direction(np.asarray(axis, dtype=float) /
                                 np.linalg.norm(axis), center=center)
    theta = 2 * math.pi * np.arange(n) / n
    rho = radius * np.ones(n)
    if rng is not None and rho_jitter:
        rho = rho + rng.normal(scale=rho_jitter, size=n)
    return (np.asarray(center, dtype=float)
            + rho[:, None] * (np.cos(theta)[:, None] * fr.u
                              + np.sin(theta)[:, None] * fr.v))


def _fd_gradient(c, pts, radius, h=1e-6):
    g = np.zeros(3)
    for a in range(3):
        dp = np.zeros(3)
        dp[a] = h
        ep, _, _ = tx.energy_and_gradient(c + dp, pts, radius)
        em, _, _ = tx.energy_and_gradient(c - dp, pts, radius)
        g[a] = (ep - em) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = rng.normal(size=3) * 5
        pts = c + rng.normal(size=(rng.integers(4, 40), 3)) * rng.uniform(1, 6)
        radius = rng.uniform(0.5, 5.0)
        e, g, f = tx.energy_and_gradient(c, pts, radius)
        fd = _fd_gradient(c, pts, radius)
        scale = max(np.linalg.norm(fd), 1.0)
        assert np.linalg.norm(g - fd) / scale < 1e-5
        assert e >= 0.0


def test_force_is_exactly_half_negative_gradient():
    rng = np.random.default_rng(1)
    for _ in range(25):
        c = rng.normal(size=3)
        pts = c + rng.normal(size=(10, 3)) * 3
        _, g, f = tx.energy_and_gradient(c, pts, 1.5)
        assert np.array_equal(f, -g / 2.0)


def test_energy_zero_on_exact_ring():
    ring = _ring(np.array([1.0, 2.0, 3.0]), 4.0, 36)
    e, g, f = tx.energy_and_gradient(np.array([1.0, 2.0, 3.0]), ring, 4.0)
    assert e < 1e-20
    assert np.linalg.norm(g) < 1e-10


def test_energy_counts_radial_misfit():
    ring = _ring(np.zeros(3), 5.0, 24)
    e, _, _ = tx.energy_and_gradient(np.zeros(3), ring, 4.0)
    assert e == pytest.approx(24 * 1.0, rel=1e-9)


def test_rigid_motion_equivariance():
    rng = np.random.default_rng(2)
    c = rng.normal(size=3)
    pts = c + rng.normal(size=(15, 3)) * 2
    e0, g0, _ = tx.energy_and_gradient(c, pts, 1.2)
    t = rng.normal(size=3) * 10
    e1, g1, _ = tx.energy_and_gradient(c + t, pts + t, 1.2)
    assert e1 == pytest.approx(e0, rel=1e-9)
    assert np.allclose(g1, g0, atol=1e-9)
    # rotation: energy invariant, gradient rotates
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    e2, g2, _ = tx.energy_and_gradient(q @ c, pts @ q.T, 1.2)
    assert e2 == pytest.approx(e0, rel=1e-9)
    assert np.allclose(g2, q @ g0, atol=1e-9)


def test_coincident_point_rejected():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    with pytest.raises(tx.CoincidentPoint):
        tx.energy_and_gradient(np.zeros(3), pts, 1.0)


def test_optimizer_recovers_ring_center():
    # a single ring pins the center in its plane; along the ring axis the
    # energy is quartic and nearly flat, so only in-plane error must vanish
    true_c = np.array([2.0, -1.0, 0.5])
    axis = np.array([0.2, 0.3, 1.0]) / np.linalg.norm([0.2, 0.3, 1.0])
    ring = _ring(true_c, 5.0, 48, axis=axis)
    start = true_c + np.array([0.8, -0.6, 0.4])
    c, e, iters = tx.optimize_point(start, ring, 5.0, epsilon_o=1e-9)
    err = c - true_c
    axial = float(err @ axis)
    inplane = np.linalg.norm(err - axial * axis)
    assert inplane < 5e-3
    assert abs(axial) <= abs(float((start - true_c) @ axis))
    e0, _, _ = tx.energy_and_gradient(start, ring, 5.0)
    assert e <= e0


def test_optimizer_never_increases_energy():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 3)) * 4
    start = rng.normal(size=3)
    e_start, _, _ = tx.energy_and_gradient(start, pts, 2.0)
    c, e_end, _ = tx.optimize_point(start, pts, 2.0)
    assert e_end <= e_start


def test_section_slab_bounds():
    cl = Centerline(points=np.array([[0.0, 0, 0], [4.0, 0, 0], [8.0, 0, 0]]),
                    directions=np.tile([1.0, 0, 0], (3, 1)))
    centers = np.array([
        [4.0, 1.0, 0.0],    # proj 0, inside
        [6.0, 0.5, 0.0],    # proj +2.0 == +step/2, inside (closed above)
        [2.0, 0.5, 0.0],    # proj -2.0 == -step/2, outside (open below)
        [4.0, 9.0, 0.0],    # too far radially
        [5.0, -1.0, 0.0],   # proj +1, inside
    ])
    faces = tx.OrientedFaceSet(centers, np.tile([0.0, 1, 0], (5, 1)))
    points = tx.section_points(cl, faces, 1, acc_radius=5.0, track_step=4.0,
                               near=np.arange(len(centers)))
    got = {tuple(p) for p in points}
    assert tuple(centers[0]) in got
    assert tuple(centers[1]) in got
    assert tuple(centers[4]) in got
    assert tuple(centers[2]) not in got
    assert tuple(centers[3]) not in got


def _full_scan_section(cl, centers, i, acc_radius, track_step):
    rel = centers - cl.points[i]
    proj = rel @ cl.directions[i]
    sel = ((np.linalg.norm(rel, axis=1) <= acc_radius)
           & (proj > -0.5 * track_step) & (proj <= 0.5 * track_step))
    return centers[sel]


def test_section_tree_query_equals_full_scan():
    # C_1 = (4, 0, 0) looks along +x: ball radius 5, slab (-2, +2]
    d2 = np.array([2.0, -1.0, 0.5]) / np.linalg.norm([2.0, -1.0, 0.5])
    cl = Centerline(points=np.array([[0.0, 0, 0], [4.0, 0, 0], [8.0, 0, 0]]),
                    directions=np.array([[1.0, 0, 0], [1.0, 0, 0], d2]))
    planted = np.array([
        [4.0, 5.0, 0.0],          # on the sphere: in
        [4.0, 0.0, -5.0],         # on the sphere: in
        [4.0, 5.0 + 1e-12, 0.0],  # just outside the sphere: out
        [6.0, 3.0, 0.0],          # on the upper slab plane: in
        [2.0, 3.0, 0.0],          # on the lower slab plane: out
        [7.0, 4.0, 0.0],          # on the sphere beyond the slab: out
    ])
    rng = np.random.default_rng(7)
    cloud = [4.0, 0.0, 0.0] + rng.normal(size=(600, 3)) * 3.0
    centers = np.vstack([cloud[:300], planted, cloud[300:]])
    faces = tx.OrientedFaceSet(centers, np.tile([0.0, 1, 0], (len(centers), 1)))
    tree = cKDTree(centers)
    everything = np.arange(len(centers))
    for i in range(3):
        expected = _full_scan_section(cl, centers, i, 5.0, 4.0)
        own = tx.section_points(cl, faces, i, 5.0, 4.0, everything)
        ball = tree.query_ball_point(cl.points[i], 5.0 * (1 + 1e-9))
        shared = tx.section_points(cl, faces, i, 5.0, 4.0, ball)
        assert len(expected) >= 3
        assert np.array_equal(own, expected)
        assert np.array_equal(shared, expected)
    ball = tree.query_ball_point(cl.points[1], 5.0 * (1 + 1e-9))
    got = tx.section_points(cl, faces, 1, 5.0, 4.0, ball)
    kept = [bool((got == p).all(axis=1).any()) for p in planted]
    assert kept == [True, True, False, True, False, False]


def test_section_needs_three_points():
    cl = Centerline(points=np.array([[0.0, 0, 0], [4.0, 0, 0]]),
                    directions=np.tile([1.0, 0, 0], (2, 1)))
    faces = tx.OrientedFaceSet(np.array([[0.0, 1.0, 0.0]]),
                               np.array([[0.0, 1, 0]]))
    with pytest.raises(tx.TooFewPoints):
        tx.section_points(cl, faces, 0, acc_radius=5.0, track_step=4.0,
                          near=np.arange(1))


def test_optimize_centerline_marks_unrefined_points():
    pts = np.array([[0.0, 0, 0], [4.0, 0, 0], [100.0, 0, 0]])
    cl = Centerline(points=pts, directions=np.tile([1.0, 0, 0], (3, 1)))
    ring0 = _ring([0.0, 0, 0], 2.0, 12, axis=(1.0, 0, 0))
    ring1 = _ring([4.0, 0, 0], 2.0, 12, axis=(1.0, 0, 0))
    centers = np.vstack([ring0, ring1])
    faces = tx.OrientedFaceSet(centers, np.tile([1.0, 0, 0], (24, 1)))
    out = tx.optimize_centerline(cl, faces, 2.0, acc_radius=2.5, track_step=4.0)
    assert out.refined.tolist() == [True, True, False]
    assert np.allclose(out.points[2], pts[2])


def test_optimize_centerline_equals_one_section_query_per_point(bent_pipe):
    # the batched candidate query selects the sections that one k-d tree
    # query per point selects, so every refined point is the same bit for bit
    radius, faces = bent_pipe["radius"], bent_pipe["faces"]
    acc_radius = bent_pipe["params"].acc_radius
    raw = tx.extract_centerline(bent_pipe["result"], track_step=radius,
                                acc_radius=acc_radius)
    # a point far from the surface has no section and passes through
    raw = Centerline(points=np.vstack([raw.points, [[500.0, 0, 0]]]),
                     directions=np.vstack([raw.directions, [[1.0, 0, 0]]]))
    out = tx.optimize_centerline(raw, faces, radius, acc_radius, radius)
    balls = cKDTree(faces.centers).query_ball_point(raw.points,
                                                    acc_radius * (1 + 1e-9))
    expected = raw.points.copy()
    refined = np.zeros(len(raw), dtype=bool)
    for i in range(len(raw)):
        try:
            section = tx.section_points(raw, faces, i, acc_radius, radius, balls[i])
        except tx.TooFewPoints:
            continue
        expected[i] = tx.optimize_point(expected[i], section, radius)[0]
        refined[i] = True
    assert refined[:-1].all() and not refined[-1]
    assert np.array_equal(out.refined, refined)
    assert out.points.tobytes() == expected.tobytes()


def test_refined_cylinder_beats_raw(cylinder):
    raw = tx.extract_centerline(cylinder.result, track_step=cylinder.radius,
                                acc_radius=cylinder.params.acc_radius)
    refined = tx.optimize_centerline(raw, cylinder.faces, cylinder.radius,
                                     cylinder.params.acc_radius, cylinder.radius)
    d_raw = cylinder.axis_distance(raw.points)
    d_ref = cylinder.axis_distance(refined.points)
    rms_raw = np.sqrt(np.mean(d_raw ** 2))
    rms_ref = np.sqrt(np.mean(d_ref ** 2))
    assert rms_ref < 0.2 * cylinder.gridstep
    assert rms_ref <= rms_raw


def _gradient_walk(c0, points, radius, step_scale=0.5, epsilon_o=0.001,
                   max_iter=1000):
    """The fixed-step gradient walk Gauss-Newton replaced: steps along f of
    step_scale / (point count), halved while E would increase."""
    c = np.asarray(c0, dtype=float).copy()
    step = step_scale / len(np.atleast_2d(points))
    e, _, f = tx.energy_and_gradient(c, points, radius)
    for it in range(1, max_iter + 1):
        if np.linalg.norm(f) <= 1e-12:
            return c, e, it
        cand = c + step * f
        try:
            e_new, _, f_new = tx.energy_and_gradient(cand, points, radius)
        except tx.CoincidentPoint:
            step *= 0.5
            continue
        if e_new > e:
            step *= 0.5
            continue
        moved = abs(e - e_new)
        c, e, f = cand, e_new, f_new
        if moved < epsilon_o:
            return c, e, it
    return c, e, max_iter


def _bent_pipe_sections(bent_pipe):
    radius = bent_pipe["radius"]
    acc_radius = bent_pipe["params"].acc_radius
    raw = tx.extract_centerline(bent_pipe["result"], track_step=radius,
                                acc_radius=acc_radius)
    balls = cKDTree(bent_pipe["faces"].centers).query_ball_point(
        raw.points, acc_radius * (1 + 1e-9))
    return [(raw.points[i],
             tx.section_points(raw, bent_pipe["faces"], i, acc_radius, radius,
                               balls[i]))
            for i in range(len(raw))]


def test_gauss_newton_ends_below_the_gradient_walk(bent_pipe):
    radius = bent_pipe["radius"]
    sections = _bent_pipe_sections(bent_pipe)
    iterations = []
    for start, pts in sections:
        _, e_walk, _ = _gradient_walk(start, pts, radius)
        _, e_gn, iters = tx.optimize_point(start, pts, radius)
        assert e_gn <= e_walk
        iterations.append(iters)
    assert len(sections) > 20
    assert np.median(iterations) <= 6


def test_energy_never_increases_from_one_iteration_to_the_next():
    # E after an iteration budget of k must not exceed E after k - 1:
    # every accepted candidate, the full Gauss-Newton step included, has
    # passed the energy test
    rng = np.random.default_rng(4)
    for _ in range(10):
        pts = rng.normal(size=(30, 3)) * 4
        start = rng.normal(size=3) * 3
        e_prev, _, _ = tx.energy_and_gradient(start, pts, 2.0)
        for budget in range(1, 15):
            _, e, _ = tx.optimize_point(start, pts, 2.0, epsilon_o=0.0,
                                        max_iter=budget)
            assert e <= e_prev
            e_prev = e


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.2, 0.3, 1.0)])
def test_start_in_the_plane_of_a_ring(axis):
    # every u_j lies in the ring's plane, so H is singular along the axis;
    # the least-squares step stays in the plane and removes the error there
    true_c = np.array([2.0, -1.0, 0.5])
    axis = np.asarray(axis) / np.linalg.norm(axis)
    ring = _ring(true_c, 5.0, 48, axis=axis)
    fr = tx.frame_from_direction(axis, center=true_c)
    start = true_c + 0.8 * fr.u - 0.6 * fr.v
    units = (ring - start) / np.linalg.norm(ring - start, axis=1)[:, None]
    assert np.linalg.eigvalsh(units.T @ units)[0] < 1e-12
    c, e, _ = tx.optimize_point(start, ring, 5.0, epsilon_o=1e-12)
    e0, _, _ = tx.energy_and_gradient(start, ring, 5.0)
    assert e <= e0
    err = c - true_c
    assert abs(float(err @ axis)) < 1e-9
    assert np.linalg.norm(err) < 1e-9


def test_candidate_on_a_surface_point_is_halved():
    # from the origin, u_j = +x for both points, H = 2 e_x e_x^T and
    # f = (1 - 1 + 3 - 1) e_x, so the full step lands on (1, 0, 0)
    pts = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(tx.CoincidentPoint):
        tx.energy_and_gradient(pts[0], pts, 1.0)
    c, e, _ = tx.optimize_point(np.zeros(3), pts, 1.0)
    e0, _, _ = tx.energy_and_gradient(np.zeros(3), pts, 1.0)
    assert e < e0
    assert not np.any(np.all(c == pts, axis=1))


# energy_and_gradient, _gauss_newton_step and optimize_point as they were
# before an evaluation computed its unit vectors once and the step reused
# them, less the face-area weights that the fit no longer takes; kept as
# the reference for the bits of the refined points


def _ref_energy_and_gradient(c, points, radius):
    c = np.asarray(c, dtype=float)
    rel = np.atleast_2d(points) - c  # CM_j
    dist = np.linalg.norm(rel, axis=1)
    if np.any(dist <= 1e-12):
        bad = int(np.argmin(dist))
        raise tx.CoincidentPoint(f"surface point {bad} coincides with the center")
    unit = rel / dist[:, None]
    e = float(np.sum((dist - radius) ** 2))
    g = 2.0 * np.einsum("i,ij->j", radius - dist, unit)
    f = np.einsum("i,ij->j", dist - radius, unit)
    return e, g, f


def _ref_gauss_newton_step(c, points, f):
    rel = points - c
    unit = rel / np.linalg.norm(rel, axis=1)[:, None]
    return np.linalg.lstsq(unit.T @ unit, f, rcond=None)[0]


def _ref_optimize_point(c0, points, radius, epsilon_o=0.001, max_iter=1000,
                        evaluate=_ref_energy_and_gradient):
    c = np.asarray(c0, dtype=float).copy()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    e, _, f = evaluate(c, points, radius)
    delta = _ref_gauss_newton_step(c, points, f)
    step = 1.0
    for it in range(1, max_iter + 1):
        if np.linalg.norm(f) <= 1e-12:
            return c, e, it
        cand = c + step * delta
        try:
            e_new, _, f_new = evaluate(cand, points, radius)
        except tx.CoincidentPoint:
            step *= 0.5
            continue
        if e_new > e:
            step *= 0.5
            continue
        moved = abs(e - e_new)
        c, e, f = cand, e_new, f_new
        if moved < epsilon_o:
            return c, e, it
        delta = _ref_gauss_newton_step(c, points, f)
        step = 1.0
    return c, e, max_iter


def _counted(fn):
    """fn with a call counter in .calls."""
    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)
    wrapper.calls = 0
    return wrapper


def _assert_optimize_point_equals_reference(monkeypatch, start, pts, radius, **kw):
    ref_eval = _counted(_ref_energy_and_gradient)
    want = _ref_optimize_point(start, pts, radius, evaluate=ref_eval, **kw)
    own_eval = _counted(refine.energy_and_gradient)
    monkeypatch.setattr(refine, "energy_and_gradient", own_eval)
    got = tx.optimize_point(start, pts, radius, **kw)
    monkeypatch.undo()
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    assert got[2] == want[2]
    assert own_eval.calls == ref_eval.calls
    return got


def _random_sections(rng, n):
    """Noisy rings around random axes with starts off their centers."""
    for _ in range(n):
        center = rng.normal(size=3) * 20
        radius = rng.uniform(1.0, 8.0)
        axis = rng.normal(size=3)
        pts = _ring(center, radius, int(rng.integers(5, 400)),
                    axis=axis / np.linalg.norm(axis), rng=rng,
                    rho_jitter=0.1 * radius)
        pts = pts + rng.normal(size=pts.shape) * 0.3 * rng.uniform(0, radius)
        start = center + rng.normal(size=3) * 0.3 * radius
        yield start, pts, radius


@pytest.mark.parametrize("kw", [{}, {"epsilon_o": 0.0}, {"max_iter": 1},
                                {"max_iter": 2}, {"max_iter": 3},
                                {"epsilon_o": 0.0, "max_iter": 3}])
def test_optimize_point_equals_the_reference_bit_for_bit(monkeypatch, kw):
    rng = np.random.default_rng(21)
    for start, pts, radius in _random_sections(rng, 40):
        _assert_optimize_point_equals_reference(monkeypatch, start, pts, radius, **kw)


def test_optimize_point_equals_the_reference_on_pipe_sections(bent_pipe, monkeypatch):
    radius = bent_pipe["radius"]
    for start, pts in _bent_pipe_sections(bent_pipe):
        _assert_optimize_point_equals_reference(monkeypatch, start, pts, radius)


def test_optimize_point_equals_the_reference_when_a_candidate_hits_a_point(monkeypatch):
    # the full step from the origin lands on (1, 0, 0): it is halved
    pts = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    for max_iter in (1, 2, 3, 1000):
        _assert_optimize_point_equals_reference(monkeypatch, np.zeros(3), pts, 1.0,
                                                max_iter=max_iter)


def test_energy_and_gradient_equals_the_reference_and_fills_units():
    rng = np.random.default_rng(22)
    for start, pts, radius in _random_sections(rng, 30):
        want = _ref_energy_and_gradient(start, pts, radius)
        units = np.empty(pts.shape)
        for got in (tx.energy_and_gradient(start, pts, radius),
                    tx.energy_and_gradient(start, pts, radius, units=units)):
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            assert got[2].tobytes() == want[2].tobytes()
            assert np.array_equal(got[1], want[1])
        rel = pts - start
        assert units.tobytes() == (rel / np.linalg.norm(rel, axis=1)[:, None]).tobytes()
