"""Vote accumulation against a plain sequential reference implementation
and against the dense-grid computation the vote table replaced."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tubeaxis as tx
from tubeaxis.accumulate import _group_events, _march, _runs, accumulation_domain

from conftest import capped_voxel_pipe, quaternion_rotation, random_unit_vectors


def sequential_accumulate(faces, params, domain):
    """Literal per-face, per-step replay of the vote rules: (visits, best,
    best_vox), where visits maps each voxel to its visiting normals in
    visit order."""
    dims = domain.dims
    visits = {}
    best, best_vox = 0, None
    for fi in range(len(faces)):
        c = faces.centers[fi]
        n = faces.normals[fi]
        for s in range(params.n_steps):
            p = c + s * params.gridstep * n
            i = tuple(int(v) for v in
                      np.floor((p - domain.origin) / domain.gridstep))
            if not all(0 <= i[a] < dims[a] for a in range(3)):
                continue
            visits.setdefault(i, []).append(n)
            if len(visits[i]) > best:  # strictly greater: first to reach wins
                best, best_vox = len(visits[i]), i
    return visits, best, best_vox


def tensor_reference(visits):
    """Per-voxel loop over the direction rule: the least eigenvector of the
    sum of n n^T over a voxel's visiting normals, kept when the least
    eigenvalue is at most 2% of the trace and the middle one at least 4
    times the least and 2% of the trace, turned so that its largest-
    magnitude component is positive; 0 otherwise."""
    dirs = {}
    for i, normals in visits.items():
        tensor = sum(np.outer(n, n) for n in normals)
        values, vectors = np.linalg.eigh(tensor)
        floor = 0.02 * np.trace(tensor)
        d = np.zeros(3)
        if values[0] <= floor and values[1] >= max(4 * values[0], floor):
            d = vectors[:, 0] * np.sign(vectors[np.argmax(np.abs(vectors[:, 0])), 0])
        dirs[i] = d
    return dirs


def _assert_matches_sequential_reference(faces, params):
    res = tx.compute_accumulation(faces, params)
    visits, best, best_vox = sequential_accumulate(faces, params, res.domain)
    dense = np.zeros(res.domain.dims, dtype=int)
    dense_dir = np.zeros(res.domain.dims + (3,))
    for i, d in tensor_reference(visits).items():
        dense[i] = len(visits[i])
        dense_dir[i] = d
    assert np.array_equal(res.acc.values, dense)
    assert res.max_acc == best
    assert res.max_pt == best_vox
    assert np.allclose(res.directions.values, dense_dir, rtol=0, atol=1e-9)
    return res


def dense_accumulate(faces, params, domain):
    """Dense bounding-box vote grid built the way the vote table's
    predecessor built it: (counts, max_acc, max_pt)."""
    nsteps = params.n_steps
    steps = np.arange(nsteps, dtype=float) * params.gridstep
    pos = (faces.centers[:, None, :]
           + steps[None, :, None] * faces.normals[:, None, :])
    idx = np.floor((pos - domain.origin) / domain.gridstep).astype(np.int64)
    dims = np.asarray(domain.dims)
    keep = np.all((idx >= 0) & (idx < dims), axis=2).ravel()
    ev_voxel = np.ravel_multi_index(tuple(np.moveaxis(idx, 2, 0)), domain.dims,
                                    mode="clip").ravel()[keep]
    counts = np.bincount(ev_voxel, minlength=int(dims.prod()))
    max_acc = int(counts.max())

    order = np.argsort(ev_voxel, kind="stable")
    sorted_voxel = ev_voxel[order]
    group_start = np.zeros(len(order), dtype=np.int64)
    new_group = np.flatnonzero(sorted_voxel[1:] != sorted_voxel[:-1]) + 1
    group_start[new_group] = new_group
    np.maximum.accumulate(group_start, out=group_start)
    rank = np.arange(len(order)) - group_start
    at_max_rank = np.flatnonzero(rank == max_acc - 1)
    winner = int(sorted_voxel[at_max_rank[np.argmin(order[at_max_rank])]])
    max_pt = tuple(int(i) for i in np.unravel_index(winner, domain.dims))
    return counts.reshape(domain.dims).astype(np.uint32), max_acc, max_pt


def rowwise_march(faces, params, domain):
    """The (F, 3)-row march the columnar one replaced: (F, S) voxel ids."""
    dims = np.asarray(domain.dims)
    steps = np.arange(params.n_steps, dtype=float) * params.gridstep
    ids = np.empty((len(faces), params.n_steps), dtype=np.int64)
    for s, dist in enumerate(steps):
        idx = np.floor((faces.centers + dist * faces.normals - domain.origin)
                       / domain.gridstep).astype(np.int64)
        inb = np.all((idx >= 0) & (idx < dims), axis=1)
        ids[:, s] = np.where(inb, idx @ domain.strides, -1)
    return ids


def stepwise_march(centers, normals, params, domain):
    """The columnar march with the bounds tested at every step and the
    positions outside the domain given id -1."""
    n_faces = centers.shape[1]
    strides = domain.strides
    rows = np.empty((params.n_steps, n_faces), dtype=np.int64)
    pos = np.empty(n_faces)
    index = np.empty(n_faces, dtype=np.int64)
    inside = np.empty(n_faces, dtype=bool)
    test = np.empty(n_faces, dtype=bool)
    steps = np.arange(params.n_steps, dtype=float) * params.gridstep
    for ids, dist in zip(rows, steps):
        ids.fill(0)
        inside.fill(True)
        for axis in range(3):
            np.multiply(normals[axis], dist, out=pos)
            pos += centers[axis]
            pos -= domain.origin[axis]
            pos /= domain.gridstep
            np.floor(pos, out=pos)
            inside &= np.greater_equal(pos, 0, out=test)
            inside &= np.less(pos, domain.dims[axis], out=test)
            np.copyto(index, pos, casting="unsafe")
            index *= strides[axis]
            ids += index
        ids[~inside] = -1
    return rows


def _assert_march_matches_rowwise(faces, params):
    res = tx.compute_accumulation(faces, params)
    rows = rowwise_march(faces, params, res.domain)
    ids = _march(faces.centers.T.copy(), faces.normals.T.copy(), params, res.domain)
    assert ids.T.tobytes() == rows.tobytes()
    _, sorted_ids = _group_events(rows.ravel(), res.domain.voxel_count)
    _, keys, counts = _runs(sorted_ids)
    assert res.keys.tobytes() == keys.tobytes()
    assert np.array_equal(res.counts, counts)


def _random_faces(rng, n, box=10.0):
    centers = rng.uniform(0, box, size=(n, 3))
    return tx.OrientedFaceSet(centers, random_unit_vectors(rng, n))


# unit normals pointing out of a box along its axes and its diagonals
_OUTWARD = np.vstack([np.eye(3), -np.eye(3),
                      np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                                for z in (-1, 1)]) / math.sqrt(3.0)])


def _with_faces_on_the_box_extremes(centers, normals):
    """(centers, normals) with faces added on the corners of the centers'
    bounding box, each corner's normals pointing out of the box."""
    lo, hi = centers.min(axis=0), centers.max(axis=0)
    corners = np.array([np.where(np.signbit(n), lo, hi) for n in _OUTWARD])
    return np.vstack([centers, corners]), np.vstack([normals, _OUTWARD])


_RANDOM_SETS = [  # seed, faces, radius, gridstep
    (0, 40, 3.0, 0.8),
    (1, 120, 2.0, 0.5),
    (2, 60, 4.0, 1.3),
]


@pytest.mark.parametrize("seed,n,radius,gridstep", _RANDOM_SETS)
def test_matches_sequential_reference(seed, n, radius, gridstep):
    faces = _random_faces(np.random.default_rng(seed), n)
    res = _assert_matches_sequential_reference(
        faces, tx.AccumulationParams(radius=radius, gridstep=gridstep))
    assert np.count_nonzero(np.any(res.dirs != 0, axis=1)) > 0


def test_duplicate_rays_hit_the_sign_rule():
    # many coincident scans force repeat visits: voxels whose normals all
    # agree (rank-1 tensors, which read 0) and voxels whose kept direction
    # is turned by the sign rule
    rng = np.random.default_rng(9)
    base = _random_faces(rng, 12, box=2.0)
    centers = np.tile(base.centers, (4, 1)) + rng.normal(scale=0.05,
                                                         size=(48, 3))
    normals = np.tile(base.normals, (4, 1))
    faces = tx.OrientedFaceSet(centers, normals)
    res = _assert_matches_sequential_reference(
        faces, tx.AccumulationParams(radius=3.0, gridstep=0.7))
    kept = np.any(res.dirs != 0, axis=1)
    assert 0 < np.count_nonzero(kept) < len(res.keys)


def test_step_count_covers_distance_below_acc_radius():
    p = tx.AccumulationParams(radius=5.0, gridstep=1.0)  # acc = 5.5
    assert p.n_steps == 6  # marched distances 0..5 < 5.5
    p = tx.AccumulationParams(radius=5.0, epsilon=0.0, gridstep=1.0)
    assert p.n_steps == 5  # 0..4 < 5.0, the 5.0 sample is excluded
    p = tx.AccumulationParams(radius=2.0, epsilon=0.0, gridstep=0.5)
    assert p.n_steps == 4


def test_single_ray_marks_a_line_of_voxels():
    faces = tx.OrientedFaceSet(np.array([[0.0, 0.0, 0.0]]),
                               np.array([[1.0, 0.0, 0.0]]))
    params = tx.AccumulationParams(radius=2.0, epsilon=0.0, gridstep=1.0)
    res = tx.compute_accumulation(faces, params)
    assert res.max_acc == 1
    assert int(res.acc.values.sum()) == params.n_steps
    # the two visited voxels are adjacent along +x
    occupied = np.argwhere(res.acc.values > 0)
    assert len(occupied) == 2
    assert np.array_equal(np.diff(occupied, axis=0), [[1, 0, 0]])


def test_epsilon_defaults_to_tenth_of_radius():
    params = tx.AccumulationParams(radius=8.0, gridstep=1.0)
    assert params.epsilon == pytest.approx(0.8)
    assert params.acc_radius == pytest.approx(8.8)


def test_domain_pads_by_acc_radius_plus_one_voxel():
    pts = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    params = tx.AccumulationParams(radius=2.0, epsilon=0.0, gridstep=1.0)
    dom = accumulation_domain(pts, params)
    assert np.allclose(dom.origin, [-3.0, -3.0, -3.0])
    assert dom.dims == (16, 6, 6)


def test_empty_faces_raise():
    faces = tx.OrientedFaceSet(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(tx.EmptyInput):
        tx.compute_accumulation(faces, tx.AccumulationParams(radius=1.0))


def test_scan_without_a_step_raises_too_small():
    faces = tx.OrientedFaceSet(np.zeros((2, 3)), np.eye(3)[:2])
    params = tx.AccumulationParams(radius=1e-12, gridstep=1.0)
    assert params.n_steps == 0
    with pytest.raises(tx.TooSmall, match="acc_radius .* gridstep"):
        tx.compute_accumulation(faces, params)


def test_packed_sort_groups_events_like_a_stable_argsort():
    rng = np.random.default_rng(12)
    for n_voxels in (1, 7, 5000):
        ids = rng.integers(0, n_voxels, size=20_000)
        order, sorted_ids = _group_events(ids.copy(), n_voxels)
        expected = np.argsort(ids, kind="stable")
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_ids, ids[expected])


def test_packed_sort_of_step_rows_follows_the_visit_order():
    # the march's (S, F) rows: face f's step s is event f * S + s
    rows = np.random.default_rng(13).integers(0, 50, size=(4, 300))
    order, sorted_ids = _group_events(rows.copy(), 50)
    events = rows.T.ravel()
    expected = np.argsort(events, kind="stable")
    assert np.array_equal(order, expected)
    assert np.array_equal(sorted_ids, events[expected])


def test_packed_sort_keys_fit_int64_up_to_the_limit():
    int64_max = np.iinfo(np.int64).max
    ids = np.array([3, 0, 3], dtype=np.int64)
    n_voxels = int64_max // len(ids)
    ids[ids == 3] = n_voxels - 1
    order, sorted_ids = _group_events(ids.copy(), n_voxels)
    assert order.tolist() == [1, 0, 2]
    assert sorted_ids.tolist() == [0, n_voxels - 1, n_voxels - 1]
    with pytest.raises(tx.DomainTooLarge, match="overflow"):
        _group_events(ids, n_voxels + 1)


def test_packed_sort_overflow_is_loud():
    # faces this far apart span about 2**62 voxels, which index fine, but
    # 2 faces x 2 steps of events do not fit the packed keys; nothing of
    # the domain's size is allocated
    faces = tx.OrientedFaceSet(np.array([[0.0, 0, 0], [2.0 ** 21, 2.0 ** 21, 2.0 ** 20]]),
                               np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
    params = tx.AccumulationParams(radius=1.0, gridstep=1.0)
    assert 2 ** 62 < accumulation_domain(faces.centers, params).voxel_count < 2 ** 63
    with pytest.raises(tx.DomainTooLarge, match="overflow"):
        tx.compute_accumulation(faces, params)


def test_domain_too_large_to_index_is_loud():
    normals = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    apart = np.array([[0.0, 0, 0], [1e7, 1e7, 1e7]])
    # 1e27 voxels; dims past the int64 range; a few voxels 1e17 from 0,
    # where a rounded scan position can miss its voxel by more than one
    for centers, gridstep in ((apart, 0.01), (apart, 1e-300), (apart[::-1] + 1e17, 1.0)):
        faces = tx.OrientedFaceSet(centers, normals)
        params = tx.AccumulationParams(radius=1.0, gridstep=gridstep)
        with pytest.raises(tx.DomainTooLarge, match="too large to index"):
            tx.compute_accumulation(faces, params)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        tx.AccumulationParams(radius=0.0)
    with pytest.raises(ValueError):
        tx.AccumulationParams(radius=1.0, gridstep=-1.0)
    with pytest.raises(ValueError):
        tx.AccumulationParams(radius=1.0, epsilon=-0.1)


def test_cylinder_votes_concentrate_on_axis(cylinder):
    res = cylinder.result
    center = res.domain.voxel_center(res.max_pt)
    assert cylinder.axis_distance([center])[0] <= math.sqrt(3) / 2
    # the direction at the peak is the axis, a unit vector
    d = res.directions.values[res.max_pt]
    assert abs(d[0]) > 0.99 and np.linalg.norm(d) == pytest.approx(1.0)


def _assert_table_matches_dense(res, faces, params):
    counts, max_acc, max_pt = dense_accumulate(faces, params, res.domain)
    assert res.keys.dtype == np.int64 and res.counts.dtype == np.uint32
    assert np.array_equal(res.keys, np.flatnonzero(counts))
    assert np.array_equal(res.counts, counts.ravel()[res.keys])
    assert res.max_acc == max_acc and res.max_pt == max_pt
    # the dense views scattered from the table: the old count grid byte for
    # byte, and the direction rows at the visited voxels, 0 elsewhere
    assert res.acc.values.dtype == np.uint32
    assert res.acc.values.tobytes() == counts.tobytes()
    dirs = np.zeros((counts.size, 3))
    dirs[res.keys] = res.dirs
    assert res.directions.values.reshape(-1, 3).tobytes() == dirs.tobytes()


def _diagonal_tube(length, radius=3.0):
    """Straight tube laid along the (1, 1, 1) diagonal, normals inward."""
    mesh, _ = tx.gen_tube([tx.Straight(length)], radius=radius, mesh_step=1.0)
    d = np.ones(3) / math.sqrt(3.0)
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rot = np.stack([d, u, np.cross(d, u)], axis=1)  # maps +x onto d
    return tx.face_normals(tx.TriMesh(mesh.vertices @ rot.T, mesh.faces)).flipped()


@pytest.mark.parametrize("seed,n,radius,gridstep", _RANDOM_SETS)
def test_table_matches_dense_grids(seed, n, radius, gridstep):
    faces = _random_faces(np.random.default_rng(seed), n)
    params = tx.AccumulationParams(radius=radius, gridstep=gridstep)
    _assert_table_matches_dense(tx.compute_accumulation(faces, params),
                                faces, params)


def test_table_matches_dense_grids_on_bent_tube(bent_pipe):
    _assert_table_matches_dense(bent_pipe["result"], bent_pipe["faces"],
                                bent_pipe["params"])


def test_table_matches_dense_grids_when_rays_point_out_of_the_box():
    # scans that run from the box's corners away from it reach the
    # domain's margin, and every one of their positions votes
    rng = np.random.default_rng(4)
    centers, normals = _with_faces_on_the_box_extremes(rng.uniform(0, 6.0, size=(80, 3)),
                                                       random_unit_vectors(rng, 80))
    faces = tx.OrientedFaceSet(centers, normals)
    params = tx.AccumulationParams(radius=4.0, gridstep=0.5)
    res = tx.compute_accumulation(faces, params)
    assert res.counts.sum() == len(faces) * params.n_steps
    _assert_table_matches_dense(res, faces, params)


def test_tracking_never_builds_the_dense_grids():
    faces = _diagonal_tube(60.0)
    params = tx.AccumulationParams(radius=3.0, gridstep=1.0)
    res = tx.compute_accumulation(faces, params)
    cl = tx.extract_centerline(res, track_step=3.0, acc_radius=params.acc_radius)
    assert len(cl) > 10
    assert "acc" not in vars(res) and "directions" not in vars(res)
    assert "dirs" not in vars(res)  # only the rows tracking read were computed
    assert res.acc is res.acc  # scattered once, on first read


def test_memory_follows_the_votes_not_the_bounding_box():
    # R=3, L=400 along the diagonal: 15,200 faces whose 60,800 votes
    # land in a 14.5M-voxel box; dense grids would take 32 bytes a voxel
    faces = _diagonal_tube(400.0)
    params = tx.AccumulationParams(radius=3.0, gridstep=1.0)
    domain_voxels = accumulation_domain(faces.centers, params).voxel_count
    assert domain_voxels > 14_000_000
    tracemalloc.start()
    try:
        res = tx.compute_accumulation(faces, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    events = int(res.counts.sum(dtype=np.int64))
    assert events == len(faces) * params.n_steps
    assert peak < 12 * 8 * events
    assert peak < domain_voxels * 8 / 20


@pytest.mark.parametrize("field_name", ["radius", "gridstep", "epsilon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_params_rejected(field_name, value):
    kwargs = {"radius": 2.0, field_name: value}
    with pytest.raises(ValueError, match="finite"):
        tx.AccumulationParams(**kwargs)


@pytest.mark.parametrize("seed", range(4))
def test_columnar_march_matches_the_rowwise_march(seed):
    faces = _random_faces(np.random.default_rng(20 + seed), 150, box=6.0)
    _assert_march_matches_rowwise(faces, tx.AccumulationParams(radius=3.0, gridstep=0.6))


def test_march_edge_cases_match_the_rowwise_march():
    rng = np.random.default_rng(4)
    faces = _random_faces(rng, 80, box=6.0)
    one_step = tx.AccumulationParams(radius=0.5, epsilon=0.0, gridstep=1.0)
    assert one_step.n_steps == 1
    _assert_march_matches_rowwise(faces, one_step)
    _assert_march_matches_rowwise(_random_faces(rng, 1),
                                  tx.AccumulationParams(radius=3.0, gridstep=0.5))


@pytest.mark.parametrize("seed", range(3))
def test_march_tested_at_the_ends_matches_the_stepwise_march(seed):
    # centers on a lattice of step 0.5 (every position is exact in binary),
    # with faces on the corners of their box whose normals point out of it,
    # and rays of every unit kind: random, and axis-aligned of either sign
    # (zeros and negative zeros); every position stays inside the domain on
    # each axis, and the rays from the box's ends reach its last layers
    rng = np.random.default_rng(60 + seed)
    params = tx.AccumulationParams(radius=3.0, gridstep=0.5)
    n = 200
    axis_aligned = np.vstack([np.eye(3), -np.eye(3)])[rng.integers(0, 6, size=n)]
    axis_aligned *= rng.choice([-1.0, 1.0], size=(n, 1))
    centers, normals = _with_faces_on_the_box_extremes(
        rng.integers(0, 21, size=(3 * n, 3)) * 0.5,
        np.vstack([random_unit_vectors(rng, n), axis_aligned, random_unit_vectors(rng, n)]))
    faces = tx.OrientedFaceSet(centers, normals)
    domain = accumulation_domain(faces.centers, params)
    ids = _march(*faces.columns(), params, domain)
    assert ids.tobytes() == stepwise_march(*faces.columns(), params, domain).tobytes()
    index = np.stack(np.unravel_index(ids.ravel(), domain.dims))
    dims = np.array(domain.dims)
    assert np.all(index.min(axis=1) >= 0) and np.all(index.max(axis=1) < dims)
    assert np.all(index.min(axis=1) <= 2) and np.all(index.max(axis=1) >= dims - 3)


_UNIT = st.floats(-1.0, 1.0)
_QUATERNION = st.tuples(_UNIT, _UNIT, _UNIT, _UNIT).filter(lambda q: np.linalg.norm(q) > 0.1)


@given(q=_QUATERNION, shift=st.tuples(*(st.floats(-1e6, 1e6),) * 3),
       radius=st.floats(0.5, 12.0), gridstep=st.floats(0.1, 3.0), probe=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60)
def test_march_of_unit_normals_stays_in_the_domain(q, shift, radius, gridstep, probe, seed):
    # faces in any pose, on the main lattice or the orientation probe's
    # (step R/3, no slack), with faces on the corners of the box whose
    # normals point out of it: every position lands in the domain, as the
    # march with the bounds tested at every step finds
    rng = np.random.default_rng(seed)
    rot = quaternion_rotation(q)
    centers, normals = _with_faces_on_the_box_extremes(
        rng.uniform(-10.0, 10.0, size=(60, 3)) @ rot.T + shift,
        random_unit_vectors(rng, 60) @ rot.T)
    faces = tx.OrientedFaceSet(centers, normals)
    params = (tx.AccumulationParams(radius=radius, epsilon=0.0, gridstep=radius / 3.0)
              if probe else tx.AccumulationParams(radius=radius, gridstep=gridstep))
    domain = accumulation_domain(faces.centers, params)
    ids = _march(*faces.columns(), params, domain)
    assert 0 <= ids.min() and ids.max() < domain.voxel_count
    assert ids.tobytes() == stepwise_march(*faces.columns(), params, domain).tobytes()


def _assert_rows_on_demand_match(faces, params):
    """Each row read alone, as tracking reads it, has the bits of the
    whole table's row."""
    res = tx.compute_accumulation(faces, params)
    rows = np.array([res.direction_at(key) for key in res.keys]).reshape(-1, 3)
    assert "dirs" not in vars(res)  # no row read built the whole table
    assert rows.tobytes() == res.dirs.tobytes()
    assert rows.tobytes() == tx.compute_accumulation(faces, params).dirs.tobytes()
    return res


@pytest.mark.parametrize("seed,n,radius,gridstep", _RANDOM_SETS)
def test_rows_on_demand_match_the_table(seed, n, radius, gridstep):
    _assert_rows_on_demand_match(_random_faces(np.random.default_rng(seed), n),
                                 tx.AccumulationParams(radius=radius, gridstep=gridstep))


def test_rows_on_demand_on_a_capped_voxel_tube():
    res = _assert_rows_on_demand_match(capped_voxel_pipe(),
                                       tx.AccumulationParams(radius=3.0, gridstep=1.0))
    kept = np.any(res.dirs != 0, axis=1)
    assert np.count_nonzero(kept) > 100
    # unit vectors whose largest-magnitude component is positive
    assert np.allclose(np.linalg.norm(res.dirs[kept], axis=1), 1.0)
    big = np.abs(res.dirs[kept]).argmax(axis=1)
    assert np.all(res.dirs[kept][np.arange(len(big)), big] > 0)


def test_voxel_missing_from_the_table_reads_zero():
    res = tx.compute_accumulation(_diagonal_tube(12.0),
                                  tx.AccumulationParams(radius=3.0, gridstep=1.0))
    missing = np.setdiff1d(np.arange(res.keys[-1] + 2), res.keys)
    for key in (missing[0], missing[len(missing) // 2], res.keys[-1] + 1):
        assert res.direction_at(key).tobytes() == np.zeros(3).tobytes()
    assert "dirs" not in vars(res)


@pytest.mark.parametrize("spread,kept", [(0.05, False), (0.14, True)])
def test_gate_wants_the_middle_eigenvalue_at_4_times_the_least(spread, kept):
    # normals in a flat cone about z, all voting in their start voxel: the
    # tensor's eigenvalues are about 0.015 and spread / 2 of the trace
    # besides the large one, so both cases pass the 2% bounds and only the
    # first fails mid >= 4 lo
    theta = np.linspace(0.0, 2 * math.pi, 90, endpoint=False)
    normals = np.stack([math.sqrt(spread) * np.cos(theta),
                        math.sqrt(0.03) * np.sin(theta), np.ones(90)], axis=1)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    faces = tx.OrientedFaceSet(np.full((90, 3), 0.5), normals)
    res = tx.compute_accumulation(faces, tx.AccumulationParams(radius=1.0, gridstep=1.0))
    d = res.direction_at(res.keys[np.argmax(res.counts)])
    assert res.max_acc == 90
    assert np.any(d != 0) == kept
    if kept:
        assert abs(d[1]) > 0.99  # the axis of least spread


@given(q=_QUATERNION,
       shift=st.tuples(*(st.floats(-50.0, 50.0),) * 3),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_axis_voxel_direction_follows_the_axis_in_any_pose_and_face_order(q, shift, seed):
    # a cylinder of radius 3 along x with exactly radial inward normals,
    # moved rigidly; the tensor's null vector is the moved axis
    theta, x = np.meshgrid(np.linspace(0, 2 * math.pi, 48, endpoint=False),
                           np.arange(0.0, 12.0, 0.25))
    theta, x = theta.ravel(), x.ravel()
    radial = np.stack([np.zeros_like(theta), np.cos(theta), np.sin(theta)], axis=1)
    rot = quaternion_rotation(q)
    centers = (np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1)
               + 3.0 * radial) @ rot.T + shift
    axis = rot[:, 0]
    big = np.sort(np.abs(axis))
    assume(big[2] - big[1] > 1e-6)  # the sign rule's pick is not a tie
    expected = axis * np.sign(axis[np.argmax(np.abs(axis))])
    middle = np.array([6.0, 0.0, 0.0]) @ rot.T + shift
    params = tx.AccumulationParams(radius=3.0, gridstep=0.5)
    order = np.random.default_rng(seed).permutation(len(x))
    for index in (np.arange(len(x)), order):
        faces = tx.OrientedFaceSet(centers[index], -radial[index] @ rot.T)
        res = tx.compute_accumulation(faces, params)
        idx, inside = res.domain.index_array(middle)
        assert inside[0]
        d = res.direction_at(idx[0] @ res.domain.strides)
        assert np.linalg.norm(d - expected) < 1e-9
