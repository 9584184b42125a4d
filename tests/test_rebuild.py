"""Tube sweeping, polyline distance and the per-face error map."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubeaxis as tx
from tubeaxis import rebuild
from tubeaxis.errors import LIMITS
from tubeaxis.track import Centerline, _polyline_directions

from conftest import random_unit_vectors


def _line_centerline(n=11, step=2.0):
    pts = np.column_stack([np.arange(n) * step, np.zeros(n), np.zeros(n)])
    dirs = np.tile([1.0, 0, 0], (n, 1))
    return Centerline(points=pts, directions=dirs)


def _circle_centerline(n=64, r=12.0):
    theta = 2 * math.pi * np.arange(n) / n
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta),
                           np.zeros(n)])
    dirs = np.column_stack([-np.sin(theta), np.cos(theta), np.zeros(n)])
    return Centerline(points=pts, directions=dirs, closed=True)


def test_sweep_vertices_on_cylinder():
    cl = _line_centerline()
    mesh = tx.sweep_tube(cl, radius=3.0, sides=16)
    assert mesh.n_vertices == 11 * 16
    assert mesh.n_faces == 2 * 10 * 16
    rho = np.linalg.norm(mesh.vertices[:, 1:], axis=1)
    assert np.allclose(rho, 3.0, atol=1e-12)


def test_sweep_faces_cover_every_interior_edge_twice():
    mesh = tx.sweep_tube(_line_centerline(n=5), radius=2.0, sides=8)
    counts = {}
    for f in mesh.faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            counts[(min(a, b), max(a, b))] = counts.get((min(a, b), max(a, b)), 0) + 1
    shares = np.array(sorted(counts.values()))
    # boundary edges (end rings) appear once, interior edges twice
    assert set(shares.tolist()) == {1, 2}
    assert (shares == 1).sum() == 2 * 8


def test_sweep_closed_circle_lies_on_torus():
    cl = _circle_centerline()
    mesh = tx.sweep_tube(cl, radius=3.0, sides=20)
    x, y, z = mesh.vertices.T
    implicit = (np.sqrt(x ** 2 + y ** 2) - 12.0) ** 2 + z ** 2
    assert np.allclose(implicit, 9.0, atol=1e-6)


def test_sweep_frames_do_not_twist():
    # a gentle s-curve: consecutive ring vertex 0 positions stay close
    t = np.linspace(0, 1, 40)
    pts = np.column_stack([20 * t, 3 * np.sin(2 * t), np.zeros(40)])
    cl = Centerline(points=pts, directions=np.zeros((40, 3)))
    mesh = tx.sweep_tube(cl, radius=1.0, sides=12)
    ring0 = mesh.vertices[0::12]  # vertex 0 of each ring
    jumps = np.linalg.norm(np.diff(ring0, axis=0), axis=1)
    assert jumps.max() < 1.5  # no sudden half-turn flips


def _sweep_per_ring(points, radius, sides, closed):
    """Reference for sweep_tube's mesh: the per-ring loops it ran before
    the ring mesher was shared with gen_tube."""
    tangents = _polyline_directions(points, closed)
    u = tx.frame_from_direction(tangents[0]).u
    theta = 2 * math.pi * np.arange(sides) / sides
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rings = []
    for p, t in zip(points, tangents):
        u = u - np.dot(u, t) * t
        nu = np.linalg.norm(u)
        u = tx.frame_from_direction(t).u if nu <= 1e-9 else u / nu
        rings.append(p + radius * (np.outer(cos_t, u) + np.outer(sin_t, np.cross(t, u))))
    n = len(points)
    j = np.arange(sides)
    jn = (j + 1) % sides
    faces = []
    for k in range(n if closed else n - 1):
        k2 = (k + 1) % n
        a, b, c, d = k * sides + j, k * sides + jn, k2 * sides + jn, k2 * sides + j
        faces += [np.column_stack([a, b, d]), np.column_stack([b, c, d])]
    return np.concatenate(rings), np.concatenate(faces)


@pytest.mark.parametrize("closed", [False, True])
def test_sweep_matches_the_per_ring_loops(closed):
    theta = np.linspace(0, 2 * math.pi, 90, endpoint=False)
    pts = np.column_stack([20 * np.cos(theta), 20 * np.sin(theta), 3 * np.sin(3 * theta)])
    cl = Centerline(points=pts, directions=np.zeros_like(pts), closed=closed)
    mesh = tx.sweep_tube(cl, radius=2.0, sides=24)
    vertices, faces = _sweep_per_ring(pts, 2.0, 24, closed)
    assert mesh.vertices.tobytes() == vertices.tobytes()
    assert mesh.faces.tobytes() == faces.tobytes()


def test_sweep_needs_two_points():
    # the Centerline holds at least two points, so none with one reaches the sweep
    with pytest.raises(tx.TooFewPoints):
        tx.sweep_tube(Centerline(points=np.zeros((1, 3)), directions=np.zeros((1, 3))),
                      radius=1.0)


@pytest.mark.parametrize("setting,value", [
    # a NaN radius once gave faces of NaN vertices, and 2 sides a flat band
    ("radius", math.nan), ("radius", math.inf), ("radius", 0.0), ("sides", 2)])
def test_sweep_rejects_a_setting_outside_the_pipeline_limits(setting, value):
    kw = {"radius": 2.0, "sides": 24, setting: value}
    want = f"{setting} must be {LIMITS[setting][1]}, got {value!r}"
    with pytest.raises(tx.OutOfRange) as error:
        tx.sweep_tube(_line_centerline(), **kw)
    assert str(error.value) == want


def _brute_distance(points, polyline, closed=False):
    segs = list(zip(polyline[:-1], polyline[1:]))
    if closed:
        segs.append((polyline[-1], polyline[0]))
    out = []
    for p in points:
        best = np.inf
        for a, b in segs:
            ab = b - a
            ab2 = np.dot(ab, ab)
            tt = np.clip(np.dot(p - a, ab) / ab2, 0.0, 1.0) if ab2 > 0 else 0.0
            best = min(best, np.linalg.norm(p - (a + tt * ab)))
        out.append(best)
    return np.asarray(out)


def _dense_distance(points, polyline, closed=False):
    """Every point against every segment with the library's per-pair
    formula, as distance_to_polyline computed it before its k-d tree."""
    a, b = polyline[:-1], polyline[1:]
    if closed:
        a, b = np.vstack([a, polyline[-1]]), np.vstack([b, polyline[0]])
    ab = b - a
    ab_len2 = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-12)
    t = np.einsum("ik,jk->ij", points, ab) - (a * ab).sum(axis=1)
    t = np.clip(t / ab_len2, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.sqrt(np.sum((points[:, None, :] - proj) ** 2, axis=2).min(axis=1))


def _nearest_distance_by_rows(p, a, ab, a_ab, ab_len2):
    """Reference: rebuild._nearest_distance on (n, S, 3) arrays summed
    over the last axis, as the library computed it before its columns."""
    t = np.einsum("ik,jk->ij", p, ab) - a_ab
    t = np.clip(t / ab_len2, 0.0, 1.0)
    proj = a + t[:, :, None] * ab
    d2 = np.sum((p[:, None, :] - proj) ** 2, axis=2)
    return np.sqrt(d2.min(axis=1))


@pytest.mark.parametrize("seed", range(6))
def test_nearest_distance_columns_equal_the_rows_bit_for_bit(seed):
    rng = np.random.default_rng(40 + seed)
    poly = np.cumsum(rng.normal(size=(25, 3)) * rng.uniform(0.01, 10.0), axis=0)
    # zero-length segments: repeated vertices
    poly[[5, 6, 12]] = poly[[4, 5, 11]]
    a, b = poly[:-1], poly[1:]
    ab = b - a
    segments = (a, ab, (a * ab).sum(axis=1),
                np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-12))
    # points off the polyline, exactly at its vertices and at its midpoints
    pts = np.vstack([poly.mean(axis=0) + rng.normal(size=(200, 3)) * rng.uniform(0.1, 50.0),
                     poly, 0.5 * (a + b)])
    got = rebuild._nearest_distance(pts, *segments)
    assert got.tobytes() == _nearest_distance_by_rows(pts, *segments).tobytes()


@settings(max_examples=150)
@given(n_segments=st.integers(1, 40), closed=st.booleans(),
       step=st.sampled_from([0.05, 1.0, 7.0]), wander=st.sampled_from([0.2, 1.0]),
       repeats=st.integers(0, 6), radius=st.sampled_from([0.2, 3.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_distance_to_polyline_equals_the_dense_scan(n_segments, closed, step, wander,
                                                    repeats, radius, seed):
    # a walk of 1-40 segments, some of zero length, that keeps a heading
    # (long enough for the cell rounds to run) or wanders, and points of
    # three kinds: about radius from the polyline, far from it (the
    # all-segment scan after the cell rounds) and outside the box of the
    # segment midpoints (past the ends and the corners of the box)
    rng = np.random.default_rng(seed)
    heading = random_unit_vectors(rng, 1)
    poly = np.cumsum((heading + rng.normal(size=(n_segments + 1, 3)) * wander) * step,
                     axis=0)
    for i in rng.integers(1, n_segments + 1, size=repeats):
        poly[i] = poly[i - 1]
    near = (poly[rng.integers(0, len(poly), size=40)]
            + random_unit_vectors(rng, 40) * radius * rng.uniform(0.5, 1.5, size=(40, 1)))
    extent = max(float(np.ptp(poly, axis=0).max()), step)
    far = poly.mean(axis=0) + random_unit_vectors(rng, 10) * extent * rng.uniform(2, 50)
    mid = 0.5 * (poly[:-1] + poly[1:])
    lo, hi = mid.min(axis=0), mid.max(axis=0)
    corners = np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
                        for z in (lo[2], hi[2])])
    outside = np.vstack([poly[[0, -1]], corners + rng.normal(size=(8, 3)) * radius,
                         hi + np.abs(rng.normal(size=(5, 3))) * step,
                         lo - np.abs(rng.normal(size=(5, 3))) * step])
    pts = np.vstack([near, far, outside])
    want = _dense_distance(pts, poly, closed)
    for min_reach in (0.0, radius):
        got = tx.distance_to_polyline(pts, poly, closed=closed, min_reach=min_reach)
        assert got.tobytes() == want.tobytes()


def test_distance_to_polyline_matches_brute_force():
    rng = np.random.default_rng(0)
    poly = np.cumsum(rng.normal(size=(12, 3)), axis=0)
    pts = rng.normal(size=(50, 3)) * 4
    got = tx.distance_to_polyline(pts, poly)
    assert np.allclose(got, _brute_distance(pts, poly), atol=1e-12)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("poly", [
    np.cumsum(np.random.default_rng(1).normal(size=(30, 3)), axis=0),
    np.array([[1.0, 2.0, 3.0], [4.0, -1.0, 0.5]]),                   # one segment
    np.array([[0.0, 0, 0], [3.0, 0, 0], [3.0, 0, 0], [3.0, 4.0, 0],  # repeated vertex
              [0.0, 5.0, 1.0]]),
], ids=["walk", "single", "repeated"])
def test_distance_to_polyline_candidates_equal_full_scan(poly, closed):
    rng = np.random.default_rng(2)
    pts = poly.mean(axis=0) + rng.normal(size=(300, 3)) * 3
    pts = np.vstack([pts, poly, 0.5 * (poly[:-1] + poly[1:])])
    got = tx.distance_to_polyline(pts, poly, closed=closed)
    assert np.allclose(got, _brute_distance(pts, poly, closed), atol=1e-12)
    # the candidate search returns exactly what the dense F x P pass does
    assert np.array_equal(got, _dense_distance(pts, poly, closed))


def test_distance_to_polyline_falls_back_near_a_circle_center(monkeypatch):
    # every midpoint of a finely sampled circle is about as far from its
    # center as the nearest one, so no k nearest segments are enough
    poly = _circle_centerline(n=400, r=10.0).points
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.normal(size=(50, 3)) * 0.5,
                     rng.normal(size=(50, 3)) * 3 + [10.0, 0.0, 0.0]])
    calls = []
    full_scan = rebuild._nearest_distance

    def spy(p, a, *args):
        if a.ndim == 2:
            calls.append(len(p))
        return full_scan(p, a, *args)

    monkeypatch.setattr(rebuild, "_nearest_distance", spy)
    got = tx.distance_to_polyline(pts, poly, closed=True)
    assert sum(calls) >= 50
    assert np.allclose(got, _brute_distance(pts, poly, closed=True), atol=1e-12)
    assert np.array_equal(got, _dense_distance(pts, poly, closed=True))


def test_distance_to_a_fine_polyline_needs_no_full_scan(monkeypatch):
    # a centerline sampled at 1 measured from 3 away: the cells of the
    # first round are too small to be sure, those of the second are
    poly = _line_centerline(n=51, step=1.0).points
    rng = np.random.default_rng(4)
    theta = rng.uniform(0, 2 * math.pi, 400)
    pts = np.column_stack([rng.uniform(5, 45, 400),
                           3 * np.cos(theta), 3 * np.sin(theta)])
    calls = {}
    measure = rebuild._nearest_distance

    def spy(p, a, *args):
        k = a.shape[1] if a.ndim == 3 else len(a)
        calls[k] = calls.get(k, 0) + len(p)
        return measure(p, a, *args)

    monkeypatch.setattr(rebuild, "_nearest_distance", spy)
    got = tx.distance_to_polyline(pts, poly)
    assert calls and max(calls) < 50
    assert calls.get(50, 0) == 0
    assert np.array_equal(got, _dense_distance(pts, poly))


@pytest.mark.parametrize("step", [0.5, 0.25])
def test_distance_to_a_finer_polyline_needs_no_full_scan(monkeypatch, step):
    # a line 50 long sampled at 0.5 or 0.25, measured from 6 away: the
    # spacing --track-step 0.5 gives on a tube of radius 6. The points need
    # a few rounds of larger cells, but none measures every segment
    n = int(round(50 / step)) + 1
    poly = _line_centerline(n=n, step=step).points
    rng = np.random.default_rng(5)
    theta = rng.uniform(0, 2 * math.pi, 400)
    pts = np.column_stack([rng.uniform(5, 45, 400),
                           6 * np.cos(theta), 6 * np.sin(theta)])
    widths = []
    measure = rebuild._nearest_distance

    def spy(p, a, *args):
        widths.append(len(a))
        return measure(p, a, *args)

    monkeypatch.setattr(rebuild, "_nearest_distance", spy)
    got = tx.distance_to_polyline(pts, poly)
    assert widths and max(widths) < n - 1
    assert np.array_equal(got, _dense_distance(pts, poly))


@pytest.mark.parametrize("step", [3.0, 1.5, 1.0, 0.5, 0.25])
def test_error_map_distances_equal_the_full_scan_at_any_track_step(bent_pipe,
                                                                    monkeypatch, step):
    # the refined centerline tracked at each step, measured from the face
    # centers with and without min_reach: without it the rounds start at
    # cells of 4 half, with it at the smallest cells that settle a face
    # one radius out, each later round doubles the cells, and the
    # distances are those of the dense F x P pass either way
    faces, radius = bent_pipe["faces"], bent_pipe["radius"]
    line = tx.run_pipeline(bent_pipe["mesh"], radius, gridstep=1.0, track_step=step,
                           stages=("accumulate", "track", "refine")).centerline
    cells = []
    measure = rebuild._measure_by_cells

    def spy(points, rows, segments, grid, half, best):
        cells[-1].append((grid.cell, half))
        return measure(points, rows, segments, grid, half, best)

    monkeypatch.setattr(rebuild, "_measure_by_cells", spy)
    want = _dense_distance(faces.centers, line.points)
    for min_reach in (0.0, radius):
        cells.append([])
        got = tx.distance_to_polyline(faces.centers, line.points, min_reach=min_reach)
        assert got.tobytes() == want.tobytes()
    every, skipped = cells
    half = every[0][1]
    assert every[0][0] == 4.0 * half
    assert skipped[0][0] == max(4.0 * half, radius + half)
    for rounds in cells:
        assert [cell for cell, _ in rounds[1:]] == [2.0 * cell for cell, _ in rounds[:-1]]
    errors = tx.error_map(faces, line, radius)
    assert errors.tobytes() == ((want - radius) ** 2).tobytes()


def test_error_map_rounds_at_a_fine_track_step_are_never_idle(bent_pipe, monkeypatch):
    # at --track-step 0.5 the segments are short, so 4 half is well below
    # the radius: the first round has cells of radius + half and settles
    # the faces inside the tube's radius. Every round settles faces; the
    # rounds of smaller cells, which settle none, are skipped
    faces, radius = bent_pipe["faces"], bent_pipe["radius"]
    line = tx.run_pipeline(bent_pipe["mesh"], radius, gridstep=1.0, track_step=0.5,
                           stages=("accumulate", "track", "refine")).centerline
    rounds = []
    measure = rebuild._measure_by_cells

    def spy(points, rows, segments, grid, half, best):
        left = measure(points, rows, segments, grid, half, best)
        rounds.append((grid.cell, half, len(rows), len(left)))
        return left

    monkeypatch.setattr(rebuild, "_measure_by_cells", spy)
    errors = tx.error_map(faces, line, radius)
    cell, half = rounds[0][:2]
    assert 4.0 * half < radius
    assert cell == radius + half
    assert all(left < given for _, _, given, left in rounds)
    want = _dense_distance(faces.centers, line.points)
    assert errors.tobytes() == ((want - radius) ** 2).tobytes()


def test_distance_to_a_long_segment_whose_midpoint_is_out_of_the_cells():
    # one segment of length 8 among unit steps: cells of 16, and the
    # faces near x = 16.3 sit two cells from its midpoint (0, 0, 0) while
    # its end (4, 0, 0) is 12.3 away. A chain point 14 away is in their
    # cells, but 14 + 4 > 16, so they may not stop at it
    def line(a, b, n):
        return np.linspace(a, b, n + 1)[1:]
    poly = np.vstack([[[4.0, 0, 0], [-4.0, 0, 0]],
                      line([-4.0, 0, 0], [-15.84, 0, 0], 12),
                      line([-15.84, 0, 0], [-15.84, 60, 0], 60),
                      line([-15.84, 60, 0], [16.2, 60, 0], 32),
                      line([16.2, 60, 0], [16.2, 14, 0], 46)])
    rng = np.random.default_rng(0)
    pts = np.array([16.3, 0.0, 0.0]) + rng.uniform(-0.05, 0.05, size=(50, 3))
    got = tx.distance_to_polyline(pts, poly)
    assert np.all(got < 12.4)
    assert np.array_equal(got, _dense_distance(pts, poly))


def test_distance_to_polyline_closed_wraps():
    poly = np.array([[0.0, 0, 0], [4.0, 0, 0], [4.0, 4.0, 0], [0.0, 4.0, 0]])
    p = np.array([[-1.0, 2.0, 0.0]])  # nearest to the wrap edge x = 0
    open_d = tx.distance_to_polyline(p, poly, closed=False)[0]
    closed_d = tx.distance_to_polyline(p, poly, closed=True)[0]
    assert closed_d == pytest.approx(1.0, abs=1e-12)
    assert open_d > closed_d


def test_error_map_zero_on_ideal_tube():
    cl = _line_centerline()
    theta = np.linspace(0, 2 * math.pi, 33)[:-1]
    centers = []
    for x in np.linspace(2.0, 18.0, 9):
        centers.extend([x, 3.0 * math.cos(t), 3.0 * math.sin(t)]
                       for t in theta)
    centers = np.asarray(centers)
    faces = tx.OrientedFaceSet(centers, np.tile([1.0, 0, 0], (len(centers), 1)))
    errs = tx.error_map(faces, cl, radius=3.0)
    assert errs.shape == (len(centers),)
    assert np.all(errs < 1e-20)


def test_error_map_squares_the_offset():
    cl = _line_centerline()
    centers = np.array([[10.0, 3.5, 0.0], [10.0, 0.0, -2.5]])
    faces = tx.OrientedFaceSet(centers, np.tile([0.0, 1, 0], (2, 1)))
    errs = tx.error_map(faces, cl, radius=3.0)
    assert errs[0] == pytest.approx(0.25, abs=1e-12)
    assert errs[1] == pytest.approx(0.25, abs=1e-12)


def test_error_summary_stats():
    errs = np.array([0.0, 0.04, 0.09])
    s = tx.error_summary(errs)
    assert s["max"] == pytest.approx(0.09)
    assert s["mean"] == pytest.approx(np.mean(errs))
    assert s["rms"] == pytest.approx(np.sqrt(np.mean(errs ** 2)))


def test_error_summary_rms_of_huge_errors_is_finite():
    # the squares of these errors overflow float64; scaled by the max they do not
    errs = np.array([8e200, 9e200, 1e201])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = tx.error_summary(errs)
    assert s["rms"] == pytest.approx(1e200 * math.sqrt((64 + 81 + 100) / 3), rel=1e-15)


def test_reconstruction_matches_generator(bent_pipe):
    # sweep an ideal tube along the exact truth and compare to the mesh
    truth = bent_pipe["truth"]
    cl = Centerline(points=truth.points, directions=truth.tangents)
    errs = tx.error_map(bent_pipe["faces"], cl, radius=bent_pipe["radius"])
    # generating face centers sit just inside the ideal surface (chordal
    # inset ~ meshstep^2 / 8R), so the squared error stays tiny
    assert np.sqrt(np.mean(errs ** 2)) < 0.01
