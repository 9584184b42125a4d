"""Patch extraction and ridge tracking on hand-built vote fields."""

import math

import numpy as np
import pytest

import tubeaxis as tx
from tubeaxis.accumulate import AccumulationResult
from tubeaxis.core import GridDomain, ScalarGrid3, VectorGrid3
from tubeaxis.track import (Patch, _polyline_directions, _sample_trilinear,
                            extract_patch, patch_size)


def _field_result(domain, counts, dirs):
    counts = counts.astype(np.uint32)
    flat = int(np.argmax(counts))
    max_pt = np.unravel_index(flat, domain.dims)
    return AccumulationResult(acc=ScalarGrid3(domain, counts),
                              directions=VectorGrid3(domain, dirs),
                              max_acc=int(counts.max()),
                              max_pt=tuple(int(i) for i in max_pt),
                              domain=domain)


def _straight_ridge(nx=40, ny=21, nz=21, axis_y=10.5, axis_z=10.5,
                    with_dirs=True):
    """Gaussian tube of votes along +x through (axis_y, axis_z)."""
    domain = GridDomain(origin=np.zeros(3), gridstep=1.0, dims=(nx, ny, nz))
    ii, jj, kk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    y = jj + 0.5
    z = kk + 0.5
    d2 = (y - axis_y) ** 2 + (z - axis_z) ** 2
    counts = np.rint(60 * np.exp(-d2 / (2 * 1.5 ** 2))).astype(np.uint32)
    dirs = np.zeros((nx, ny, nz, 3))
    if with_dirs:
        dirs[d2 <= 9.0] = [5.0, 0.0, 0.0]
    return _field_result(domain, counts, dirs)


def test_patch_size_is_odd_and_covers_radius():
    assert patch_size(5.5, 1.0) == 13
    assert patch_size(3.0, 1.0) == 7
    assert patch_size(3.3, 1.5) == 7


def test_trilinear_reproduces_linear_fields():
    domain = GridDomain(origin=np.array([1.0, -2.0, 0.0]), gridstep=0.5,
                        dims=(10, 10, 10))
    ii, jj, kk = np.meshgrid(*(np.arange(10),) * 3, indexing="ij")
    centers = domain.origin + domain.gridstep * (
        np.stack([ii, jj, kk], axis=-1) + 0.5)
    values = centers @ np.array([1.0, 2.0, 3.0]) + 4.0
    rng = np.random.default_rng(0)
    pts = domain.origin + rng.uniform(1.0, 3.5, size=(50, 3))
    sampled = _sample_trilinear(values, domain, pts)
    assert np.allclose(sampled, pts @ np.array([1.0, 2.0, 3.0]) + 4.0,
                       atol=1e-9)


def test_trilinear_on_count_grid_equals_its_float_copy():
    # counts are sampled in their own dtype; the result must be bit-equal
    # to sampling the float64 copy the tracker used to make
    domain = GridDomain(origin=np.array([0.5, -1.0, 2.0]), gridstep=0.7,
                        dims=(9, 11, 7))
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 4_000_000_000, size=domain.dims, dtype=np.uint32)
    # points inside, on the border and outside the grid
    pts = domain.origin + rng.uniform(-1.0, 9.0, size=(400, 3))
    got = _sample_trilinear(counts, domain, pts)
    assert got.dtype == np.float64
    assert np.array_equal(got, _sample_trilinear(counts.astype(float), domain, pts))


def test_patch_frame_and_pixels():
    res = _straight_ridge()
    center = np.array([20.0, 10.5, 10.5])
    patch = extract_patch(res.acc, res.domain, center, np.array([1.0, 0, 0]),
                          acc_radius=5.0)
    assert patch.size == 11
    m = patch.size // 2
    assert np.allclose(patch.world_of_pixel(m, m), center)
    # moving one pixel moves one gridstep in the patch plane
    step = patch.world_of_pixel(m + 1, m) - patch.world_of_pixel(m, m)
    assert np.linalg.norm(step) == pytest.approx(1.0)
    assert abs(step @ np.array([1.0, 0, 0])) < 1e-12


def test_patch_argmax_prefers_first_in_scan_order():
    frame = tx.frame_from_direction(np.array([0.0, 0, 1.0]),
                                    center=np.zeros(3))
    values = np.zeros((5, 5))
    values[1, 3] = values[3, 1] = 7.0  # tie: (1, 3) wins in scan order
    patch = Patch(frame=frame, size=5, gridstep=1.0, values=values)
    assert np.allclose(patch.argmax_world(), patch.world_of_pixel(1, 3))


def test_tracks_straight_ridge():
    res = _straight_ridge()
    cl = tx.extract_centerline(res, track_step=3.0, acc_radius=5.0)
    assert not cl.closed
    assert len(cl) >= 9
    assert np.all(np.abs(cl.points[:, 1] - 10.5) < 0.75)
    assert np.all(np.abs(cl.points[:, 2] - 10.5) < 0.75)
    assert cl.points[:, 0].max() - cl.points[:, 0].min() > 25.0
    # steps are close to the requested track step
    assert np.all(np.abs(cl.segment_lengths() - 3.0) < 1.0)


def test_tracks_ridge_without_direction_image():
    # fine structured meshes can yield an all-zero direction image; the
    # tracker must fall back to the count ridge orientation
    res = _straight_ridge(with_dirs=False)
    cl = tx.extract_centerline(res, track_step=3.0, acc_radius=5.0)
    assert len(cl) >= 9
    assert cl.points[:, 0].max() - cl.points[:, 0].min() > 25.0
    assert np.all(np.abs(cl.points[:, 1] - 10.5) < 0.75)


def test_closed_loop_detected():
    n = 48
    domain = GridDomain(origin=np.zeros(3), gridstep=1.0, dims=(n, n, 13))
    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(13),
                             indexing="ij")
    x = ii + 0.5 - 24.0
    y = jj + 0.5 - 24.0
    z = kk + 0.5 - 6.5
    rho = np.sqrt(x ** 2 + y ** 2)
    d2 = (rho - 15.0) ** 2 + z ** 2
    counts = np.rint(60 * np.exp(-d2 / (2 * 1.5 ** 2))).astype(np.uint32)
    # tangents of the circle
    dirs = np.zeros((n, n, 13, 3))
    mask = d2 <= 9.0
    tang = np.stack([-y, x, np.zeros_like(x)], axis=-1)
    tang /= np.maximum(np.linalg.norm(tang, axis=-1, keepdims=True), 1e-9)
    dirs[mask] = 5.0 * tang[mask]
    res = _field_result(domain, counts, dirs)
    cl = tx.extract_centerline(res, track_step=3.0, acc_radius=5.0)
    assert cl.closed
    rr = np.linalg.norm(cl.points[:, :2] - 24.0, axis=1)
    assert np.all(np.abs(rr - 15.0) < 1.0)


def test_weak_seed_raises():
    domain = GridDomain(origin=np.zeros(3), gridstep=1.0, dims=(6, 6, 6))
    counts = np.zeros((6, 6, 6), dtype=np.uint32)
    counts[3, 3, 3] = 1
    res = _field_result(domain, counts, np.zeros((6, 6, 6, 3)))
    with pytest.raises(tx.SeedInvalid):
        tx.extract_centerline(res, track_step=2.0, acc_radius=3.0)


def test_inside_tube_thresholds():
    res = _straight_ridge()
    on_axis = np.array([20.0, 10.5, 10.5])
    off_axis = np.array([20.0, 16.5, 10.5])
    prev = on_axis - np.array([3.0, 0, 0])
    ref = 60.0
    assert tx.is_inside_tube(res, on_axis, prev, ref)
    assert not tx.is_inside_tube(res, off_axis, off_axis - 3.0, ref)
    # a step nearly orthogonal to the ridge direction fails the angle test
    sideways_prev = on_axis - np.array([0.0, 3.0, 0.0])
    assert not tx.is_inside_tube(res, on_axis, sideways_prev, ref,
                                 max_angle=math.pi / 3)


def test_polyline_directions_unit_and_centered():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 1.0, 0], [3.0, 1.0, 0]])
    dirs = _polyline_directions(pts)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert np.allclose(dirs[0], [1, 0, 0])
    assert np.allclose(dirs[1], np.array([2.0, 1.0, 0]) / math.sqrt(5))


def test_raw_centerline_on_mesh_cylinder(cylinder):
    cl = tx.extract_centerline(cylinder.result, track_step=cylinder.radius,
                               acc_radius=cylinder.params.acc_radius)
    d = cylinder.axis_distance(cl.points)
    assert np.sqrt(np.mean(d ** 2)) < 1.0 * cylinder.gridstep
    span = cl.points[:, 0].max() - cl.points[:, 0].min()
    assert span > 0.8 * cylinder.length
