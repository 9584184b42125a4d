"""Patch extraction and ridge tracking on hand-built vote fields."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import tubeaxis as tx
from tubeaxis.accumulate import AccumulationResult
from tubeaxis.core import GridDomain
from tubeaxis.ingest import write_centerline_csv
from tubeaxis.track import (MAX_COORD, _local_direction, _lookup, _lower_quartile,
                            _polyline_directions, _ridge_direction,
                            _sample_trilinear, _voxel_dir, extract_patch,
                            is_inside_tube, patch_size)

from conftest import capped_voxel_pipe, random_unit_vectors


def _field_result(domain, counts, dirs):
    """Vote table of hand-built dense grids: every voxel whose count or
    direction is nonzero becomes a row."""
    counts = counts.astype(np.uint32).ravel()
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    keys = np.flatnonzero((counts != 0) | np.any(dirs != 0, axis=1))
    max_pt = np.unravel_index(int(np.argmax(counts)), domain.dims)
    return AccumulationResult(domain=domain, keys=keys, counts=counts[keys],
                              max_acc=int(counts.max()), dirs=dirs[keys],
                              max_pt=tuple(int(i) for i in max_pt))


def _sample_dense(values, domain, points):
    """_sample_trilinear on a dense grid: every voxel is a table entry."""
    return _sample_trilinear(np.arange(values.size), values.ravel(), domain, points)


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
    sampled = _sample_dense(values, domain, pts)
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
    got = _sample_dense(counts, domain, pts)
    assert got.dtype == np.float64
    assert np.array_equal(got, _sample_dense(counts.astype(float), domain, pts))


def _map_coordinates(values, domain, points):
    """The dense trilinear sampler the table lookups replaced."""
    coords = (np.atleast_2d(points) - domain.origin) / domain.gridstep - 0.5
    return ndimage.map_coordinates(values, coords.T, order=1, output=np.float64,
                                   mode="constant", cval=0.0)


def _border_points(domain, rng):
    """Points exactly on each border face of the voxel-center box and one
    ulp outside it, the other two coordinates random inside. Needs a
    domain whose origin and gridstep keep the arithmetic exact."""
    dims = np.asarray(domain.dims)
    inner = rng.uniform(0, dims - 1, size=(20, 3))
    pts, want = [], []
    for axis in range(3):
        for edge, outward in ((0, -np.inf), (dims[axis] - 1, np.inf)):
            on = domain.origin[axis] + (edge + 0.5) * domain.gridstep
            for value in (on, np.nextafter(on, outward)):
                block = domain.origin + (inner + 0.5) * domain.gridstep
                block[:, axis] = value
                pts.append(block)
    pts = np.concatenate(pts)
    coords = (pts - domain.origin) / domain.gridstep - 0.5
    on_face = np.any((coords == 0) | (coords == dims - 1), axis=1)
    outside = np.any((coords < 0) | (coords > dims - 1), axis=1)
    assert on_face.sum() == outside.sum() == len(pts) // 2
    return pts


@pytest.mark.parametrize("dtype", [np.uint32, np.float64])
def test_sparse_sampler_is_bit_equal_to_map_coordinates(dtype):
    domain = GridDomain(origin=np.array([0.5, -1.0, 2.0]), gridstep=0.5,
                        dims=(9, 11, 7))
    rng = np.random.default_rng(5)
    grid = rng.integers(1, 4_000_000_000, size=domain.dims).astype(dtype)
    if dtype == np.float64:
        grid -= 2_000_000_000.5
    grid[rng.random(domain.dims) < 0.6] = 0  # most voxels absent
    keys = np.flatnonzero(grid)
    ii, jj, kk = np.meshgrid(*(np.arange(d) for d in domain.dims), indexing="ij")
    centers = domain.voxel_center(np.stack([ii, jj, kk], axis=-1).reshape(-1, 3))
    for pts in (domain.origin + rng.uniform(-1.0, 7.0, size=(3000, 3)),
                centers, _border_points(domain, rng)):
        got = _sample_trilinear(keys, grid.ravel()[keys], domain, pts)
        want = _map_coordinates(grid, domain, pts)
        assert got.tobytes() == want.tobytes()


def test_sparse_sampler_of_empty_table_is_zero():
    domain = GridDomain(origin=np.zeros(3), gridstep=1.0, dims=(4, 4, 4))
    got = _sample_trilinear(np.zeros(0, dtype=np.int64), np.zeros(0, np.uint32),
                            domain, np.full((5, 3), 2.0))
    assert np.array_equal(got, np.zeros(5))


def test_table_reads_equal_dense_grid_reads():
    res = _straight_ridge(nx=30)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2.0, 32.0, size=(300, 3))
    assert (_sample_trilinear(res.keys, res.counts, res.domain, pts).tobytes()
            == _map_coordinates(res.acc.values, res.domain, pts).tobytes())
    for p in pts:
        idx, inb = res.domain.index_array(p)
        want = res.directions.values[tuple(idx[0])] if inb[0] else np.zeros(3)
        assert np.array_equal(_voxel_dir(res, p), want)
    # the ridge box is read through the table; compare with the dense box
    found = 0
    for p in pts[:60]:
        got = _ridge_direction(res, p, 5.0)
        want = _ridge_from_dense(res, p, 5.0)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()
            found += 1
    assert 0 < found < 60


def _ridge_from_dense(res, point, acc_radius):
    dom = res.domain
    idx = tx.digitize(point, dom)
    if idx is None:
        return None
    half = int(math.ceil(acc_radius / dom.gridstep))
    lo = np.maximum(np.asarray(idx) - half, 0)
    hi = np.minimum(np.asarray(idx) + half + 1, np.asarray(dom.dims))
    sub = res.acc.values[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]].astype(float)
    w = sub.ravel() ** 2
    total = w.sum()
    if total <= 0:
        return None
    axes = np.meshgrid(*(np.arange(lo[a], hi[a]) for a in range(3)), indexing="ij")
    pts = dom.origin + dom.gridstep * (np.stack([a.ravel() for a in axes], axis=1) + 0.5)
    mu = (w[:, None] * pts).sum(axis=0) / total
    cen = pts - mu
    cov = np.einsum("v,vi,vj->ij", w, cen, cen) / total
    vals, vecs = np.linalg.eigh(cov)
    if vals[2] <= 1e-12 or vals[2] < 2.0 * vals[1]:
        return None
    return vecs[:, 2]


def _ridge_from_box(res, point, acc_radius):
    """_ridge_direction as it was before it read only the table rows: the
    count of every voxel of the box is looked up, empty ones included."""
    dom = res.domain
    idx = tx.digitize(point, dom)
    if idx is None:
        return None
    half = int(math.ceil(acc_radius / dom.gridstep))
    lo = np.maximum(np.asarray(idx) - half, 0)
    hi = np.minimum(np.asarray(idx) + half + 1, np.asarray(dom.dims))
    axes = np.meshgrid(*(np.arange(lo[a], hi[a]) for a in range(3)), indexing="ij")
    box = np.stack([a.ravel() for a in axes], axis=1)
    w = _lookup(res.keys, res.counts, box @ dom.strides).astype(float) ** 2
    total = w.sum()
    if total <= 0:
        return None
    pts = dom.origin + dom.gridstep * (box + 0.5)
    mu = (w[:, None] * pts).sum(axis=0) / total
    cen = pts - mu
    cov = np.einsum("v,vi,vj->ij", w, cen, cen) / total
    vals, vecs = np.linalg.eigh(cov)
    if vals[2] <= 1e-12 or vals[2] < 2.0 * vals[1]:
        return None
    return vecs[:, 2]


def _random_ridges(rng, domain, n_lines):
    """Vote table of noisy count ridges along random lines."""
    dims = np.asarray(domain.dims)
    cells = np.stack(np.meshgrid(*(np.arange(d) for d in dims), indexing="ij"),
                     axis=-1).reshape(-1, 3) + 0.5
    counts = np.zeros(len(cells))
    for _ in range(n_lines):
        d = rng.normal(size=3)
        off = cells - rng.uniform(0, dims)
        dist2 = (off ** 2).sum(axis=1) - (off @ (d / np.linalg.norm(d))) ** 2
        counts += 40.0 * np.exp(-dist2 / 2.0) * rng.uniform(0.5, 1.5, size=len(cells))
    return _field_result(domain, np.rint(counts).reshape(domain.dims),
                         np.zeros(domain.dims + (3,)))


def test_ridge_table_rows_equal_the_box_reads():
    rng = np.random.default_rng(14)
    domain = GridDomain(origin=np.array([0.5, -1.0, 2.0]), gridstep=0.7,
                        dims=(19, 23, 17))
    dims = np.asarray(domain.dims)
    found = 0
    for n_lines in (1, 2, 3, 6):
        res = _random_ridges(rng, domain, n_lines)
        # points inside, and boxes clipped at each domain face
        lattice = [rng.uniform(0, dims, size=(30, 3))]
        for axis in range(3):
            for edge in (0.3, dims[axis] - 0.3):
                block = rng.uniform(0, dims, size=(5, 3))
                block[:, axis] = edge
                lattice.append(block)
        for p in domain.origin + domain.gridstep * np.concatenate(lattice):
            got, want = _ridge_direction(res, p, 2.5), _ridge_from_box(res, p, 2.5)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
                found += 1
    assert found > 60


def test_ridge_of_empty_box_or_table_is_none():
    domain = GridDomain(origin=np.zeros(3), gridstep=1.0, dims=(20, 20, 20))
    counts = np.zeros(domain.dims)
    counts[:4, 1, 1] = 9  # a short ridge in one corner
    corner = _field_result(domain, counts, np.zeros(domain.dims + (3,)))
    assert _ridge_direction(corner, np.array([1.5, 1.5, 1.5]), 3.0) is not None
    far = np.array([15.5, 15.5, 15.5])
    assert _ridge_direction(corner, far, 3.0) is None
    assert _ridge_from_box(corner, far, 3.0) is None
    empty = _field_result(domain, np.zeros(domain.dims), np.zeros(domain.dims + (3,)))
    assert len(empty.keys) == 0
    assert _ridge_direction(empty, far, 3.0) is None


def test_running_quartile_equals_np_percentile():
    # tracking keeps its levels sorted as they come and go; the quartile
    # read off them must be np.percentile(levels, 25) bit for bit
    rng = np.random.default_rng(15)
    checked = set()
    for trial in range(120):
        n = int(rng.integers(1, 201))
        if trial % 3 == 0:  # many ties
            values = rng.integers(0, 5, size=n) * rng.uniform(0.5, 50.0)
        else:
            values = rng.uniform(0.0, 400.0, size=n)
        levels, ordered = [], []
        for value in values.tolist():
            levels.append(value)
            bisect.insort(ordered, value)
            if len(levels) > 1 and rng.random() < 0.25:
                gone = levels.pop(int(rng.integers(len(levels))))
                del ordered[bisect.bisect_left(ordered, gone)]
            want = np.float64(np.percentile(levels, 25))
            assert np.float64(_lower_quartile(ordered)).tobytes() == want.tobytes()
            checked.add(len(levels))
    assert checked == set(range(1, max(checked) + 1)) and max(checked) >= 150


def test_patch_frame_and_pixels():
    res = _straight_ridge()
    center = np.array([20.0, 10.5, 10.5])
    values, frame = extract_patch(res, center, np.array([1.0, 0, 0]), acc_radius=5.0)
    assert values.shape == (11, 11)
    assert np.array_equal(frame.center, center)
    assert np.allclose(frame.w, [1.0, 0, 0])
    # pixel (a, b) is the count sampled (a - m, b - m) gridsteps along
    # (u, v) from the center: one pixel is one gridstep in the patch plane
    m = len(values) // 2
    a, b = np.meshgrid(np.arange(11), np.arange(11), indexing="ij")
    world = (center + (a - m)[..., None] * 1.0 * frame.u
             + (b - m)[..., None] * 1.0 * frame.v)
    want = _sample_trilinear(res.keys, res.counts, res.domain, world.reshape(-1, 3))
    assert np.array_equal(values, want.reshape(11, 11))
    assert values[m, m] == values.max()


def test_patch_argmax_prefers_first_in_scan_order(monkeypatch):
    # the first patch has two equal maxima: the run steps to the world
    # position of the one with the smallest (row, col), (m - 1, m + 1).
    # The planted value becomes that point's level, so it is the patch's
    # own peak, which the continuation test accepts
    res = _straight_ridge()
    patches = []

    def tied_patch(res, center, direction, acc_radius):
        values, frame = extract_patch(res, center, direction, acc_radius)
        if not patches:
            m = len(values) // 2
            peak = values.max()
            values = np.zeros_like(values)
            values[m - 1, m + 1] = values[m + 1, m - 1] = peak
        patches.append(frame)
        return values, frame

    monkeypatch.setattr(tx.track, "extract_patch", tied_patch)
    start = res.domain.voxel_center(res.max_pt)
    points, _ = tx.track_direction(res, start, True, 3.0, 5.0, 0.5, math.pi / 3)
    frame = patches[0]
    assert len(points) > 2
    assert np.array_equal(points[1], frame.center - 1.0 * frame.u + 1.0 * frame.v)


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


def test_tracking_samples_each_point_level_once(monkeypatch):
    # an accepted point's level is the patch pixel it was taken from: no
    # accepted point is sampled alone, and the level the continuation test
    # gets is the sample at that point, bit for bit
    res = _straight_ridge()
    alone, tested = [], []

    def sample(keys, values, domain, pts):
        if len(np.atleast_2d(pts)) == 1:
            alone.append(np.asarray(pts, dtype=float).tobytes())
        return _sample_trilinear(keys, values, domain, pts)

    def inside(current, *args):
        tested.append((current.copy(), args[-1]))  # the level
        return is_inside_tube(current, *args)

    monkeypatch.setattr(tx.track, "_sample_trilinear", sample)
    monkeypatch.setattr(tx.track, "is_inside_tube", inside)
    cl = tx.extract_centerline(res, track_step=3.0, acc_radius=5.0)
    seed = res.domain.voxel_center(res.max_pt)
    assert alone == [seed.tobytes()] * 2  # the seed, once per direction
    assert {p.tobytes() for p in cl.points} <= {p.tobytes() for p, _ in tested}
    for point, level in tested:
        want = _sample_trilinear(res.keys, res.counts, res.domain, point)[0]
        assert level.tobytes() == want.tobytes()
    # a level given to the continuation test is the one it compares
    on_axis = np.array([20.0, 10.5, 10.5])
    prev = on_axis - [3.0, 0, 0]
    d = _voxel_dir(res, on_axis)
    assert not tx.is_inside_tube(on_axis, prev, 60.0, 0.5, math.pi / 3, d, 29.0)
    assert tx.is_inside_tube(on_axis, prev, 60.0, 0.5, math.pi / 3, d, 30.0)


def test_tracks_ridge_without_direction_image():
    # fine structured meshes can yield an all-zero direction image; the
    # tracker must fall back to the count ridge orientation
    res = _straight_ridge(with_dirs=False)
    cl = tx.extract_centerline(res, track_step=3.0, acc_radius=5.0)
    assert len(cl) >= 9
    assert cl.points[:, 0].max() - cl.points[:, 0].min() > 25.0
    assert np.all(np.abs(cl.points[:, 1] - 10.5) < 0.75)


def _assert_falls_back_to_the_ridge(res, point, acc_radius):
    """The voxel at point has votes but reads direction 0, so the local
    direction is the count ridge's."""
    key = res.domain.index_array(point)[0][0] @ res.domain.strides
    assert np.isin(key, res.keys)
    assert res.direction_at(key).tobytes() == np.zeros(3).tobytes()
    ridge = _ridge_direction(res, point, acc_radius)
    assert ridge is not None
    assert np.array_equal(_local_direction(res, point, acc_radius), ridge)
    return ridge


def test_rank_one_voxel_reads_zero_and_tracking_follows_the_ridge():
    # a row of faces along x that all face +y: every voxel's events share
    # one normal, a rank-1 tensor with no axis, while the votes form a
    # sheet that is long along x
    centers = np.stack([np.arange(0.0, 40.0, 0.25), np.zeros(160), np.zeros(160)], axis=1)
    normals = np.tile([0.0, 1.0, 0.0], (160, 1))
    params = tx.AccumulationParams(radius=3.0, gridstep=1.0)
    res = tx.compute_accumulation(tx.OrientedFaceSet(centers, normals),
                                  params)
    assert res.max_acc > 1
    assert not np.any(res.dirs)
    ridge = _assert_falls_back_to_the_ridge(res, np.array([20.1, 1.5, 0.1]),
                                            params.acc_radius)
    assert abs(ridge[0]) > 0.99


def test_capped_end_voxel_reads_zero_and_tracking_follows_the_ridge():
    # the seed of a capped voxel pipe sits near its cap, where the cap's
    # normals, along the axis, enter the tensor and spoil its plane
    params = tx.AccumulationParams(radius=3.0, gridstep=1.0)
    res = tx.compute_accumulation(capped_voxel_pipe(), params)
    seed = res.domain.voxel_center(res.max_pt)
    assert seed[0] < 4.0  # within a radius and a voxel of the cap at x = 0
    ridge = _assert_falls_back_to_the_ridge(res, seed, params.acc_radius)
    assert abs(ridge[0]) > 0.99  # the first straight runs along x


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
    with pytest.raises(tx.SeedInvalid, match=r"maximum 1 is too weak to seed tracking, "
                       r"scanning to 3 \(tube radius \+ epsilon\); the tube radius "
                       "may be wrong"):
        tx.extract_centerline(res, track_step=2.0, acc_radius=3.0)


def test_inside_tube_thresholds():
    res = _straight_ridge()
    on_axis = np.array([20.0, 10.5, 10.5])
    off_axis = np.array([20.0, 16.5, 10.5])
    prev = on_axis - np.array([3.0, 0, 0])
    ref = 60.0

    def inside(current, previous):
        # the direction and level the tracker reads at current
        level = _sample_trilinear(res.keys, res.counts, res.domain, current)[0]
        return tx.is_inside_tube(current, previous, ref, 0.5, math.pi / 3,
                                 _voxel_dir(res, current), level)

    assert inside(on_axis, prev)
    assert not inside(off_axis, off_axis - 3.0)
    # a step nearly orthogonal to the ridge direction fails the angle test
    sideways_prev = on_axis - np.array([0.0, 3.0, 0.0])
    assert not inside(on_axis, sideways_prev)
    # no direction passes the angle test, as a zero one does
    level = _sample_trilinear(res.keys, res.counts, res.domain, on_axis)[0]
    for d in (None, np.zeros(3)):
        assert tx.is_inside_tube(on_axis, sideways_prev, ref, 0.5, math.pi / 3, d, level)


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


def _csv_precision(values):
    """The values as the centerline CSV keeps them, to 9 significant digits."""
    return np.array([float("%.9g" % v) for v in values.ravel()]).reshape(values.shape)


@settings(max_examples=100)
@given(n=st.integers(2, 200), scale=st.floats(1e-3, 1e6), seed=st.integers(0, 2 ** 32 - 1))
def test_a_valid_centerline_builds_and_round_trips_bit_for_bit(tmp_path_factory, n, scale,
                                                              seed):
    # a walk of steps 0.5 to 2 under a random rotation, shift and scale, at
    # the CSV's precision, whose rounding is far below the steps
    rng = np.random.default_rng(seed)
    steps = random_unit_vectors(rng, n - 1) * rng.uniform(0.5, 2.0, (n - 1, 1))
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation *= np.sign(np.linalg.det(rotation))
    walk = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
    points = _csv_precision((walk @ rotation.T + rng.uniform(-100, 100, 3)) * scale)
    cl = tx.Centerline(points, _csv_precision(_polyline_directions(points)))
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_centerline_csv(cl, path)
    back = tx.Centerline(*tx.read_centerline_csv(path))
    assert back.points.tobytes() == cl.points.tobytes()
    assert back.directions.tobytes() == cl.directions.tobytes()
    queries = points[0] + rng.normal(scale=10 * scale, size=(50, 3))
    assert (tx.distance_to_polyline(queries, back.points).tobytes()
            == tx.distance_to_polyline(queries, points).tobytes())


@pytest.mark.parametrize("points,error,message", [
    ([[1.0, 2, 3]], tx.TooFewPoints, "a centerline needs at least 2 points, got 1"),
    ([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0]], tx.DuplicatePoint,
     "centerline points 1 and 2 coincide"),
    ([[0.0, 0, 0], [1, 0, 0], [2, math.nan, 0]], tx.OutOfRange,
     "centerline point 2 has a coordinate that is not finite or above 1e+150 in magnitude"),
    ([[0.0, 0, 0], [0, 0, -2 * MAX_COORD]], tx.OutOfRange,
     "centerline point 1 has a coordinate that is not finite or above 1e+150 in magnitude")])
def test_a_centerline_outside_its_contract_is_refused(points, error, message):
    with pytest.raises(error) as raised:
        tx.Centerline(points, np.zeros_like(points))
    assert str(raised.value) == message


def test_a_centerline_may_reach_its_coordinate_bound():
    points = np.array([[0.0, 0, 0], [MAX_COORD, -MAX_COORD, MAX_COORD]])
    directions = _polyline_directions(points)
    assert tx.Centerline(points, directions).points.tobytes() == points.tobytes()


@pytest.mark.parametrize("directions,message", [
    ([[1.0, 0, 0]], "a centerline needs one direction per point, got (1, 3) for 2 points"),
    # 0 let every slab test of refine pass, 1000 let none
    ([[0.0, 0, 0], [1, 0, 0]], "centerline direction 0 is not a unit vector within 1e-06"),
    ([[1.0, 0, 0], [1000, 0, 0]], "centerline direction 1 is not a unit vector within 1e-06"),
    ([[1.0, 0, 0], [1 + 2e-6, 0, 0]], "centerline direction 1 is not a unit vector within 1e-06"),
    ([[1.0, 0, 0], [math.nan, 0, 0]], "centerline direction 1 is not a unit vector within 1e-06"),
    # a length that overflows, without a warning
    ([[1e200, 0, 0], [1, 0, 0]], "centerline direction 0 is not a unit vector within 1e-06")])
def test_centerline_directions_must_be_unit_vectors(directions, message):
    with pytest.raises(tx.OutOfRange) as raised:
        tx.Centerline([[0.0, 0, 0], [1, 0, 0]], directions)
    assert str(raised.value) == message
    assert tx.Centerline([[0.0, 0, 0], [1, 0, 0]], [[1.0, 0, 0], [1 - 9e-7, 0, 0]])
