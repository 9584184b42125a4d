"""Patch extraction and ridge tracking on hand-built vote fields."""

import bisect
import math

import numpy as np
import pytest
from scipy import ndimage

import tubeaxis as tx
from tubeaxis.accumulate import AccumulationResult
from tubeaxis.core import GridDomain
from tubeaxis.track import (Patch, _lookup, _lower_quartile, _polyline_directions,
                            _ridge_direction, _sample_trilinear, _voxel_dir,
                            extract_patch, patch_size)


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
    patch = extract_patch(res, center, np.array([1.0, 0, 0]), acc_radius=5.0)
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
