"""Vote accumulation against a plain sequential reference implementation
and against the dense-grid computation the vote table replaced."""

import math
import tracemalloc

import numpy as np
import pytest

import tubeaxis as tx
import tubeaxis.accumulate as accumulate
from tubeaxis.accumulate import _group_events, _march, _runs, accumulation_domain

from conftest import random_unit_vectors


def sequential_accumulate(faces, params, domain):
    """Literal per-face, per-step replay of the accumulation rules."""
    dims = domain.dims
    counts = {}
    last_normal = {}
    dirs = {}
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
            counts[i] = counts.get(i, 0) + 1
            if counts[i] > best:  # strictly greater: first to reach wins
                best, best_vox = counts[i], i
            if i in last_normal:
                axis = np.cross(last_normal[i], n)
                if np.linalg.norm(axis) > params.min_norm:
                    d = dirs.get(i, np.zeros(3))
                    sign = np.sign(float(np.dot(axis, d)))
                    if sign == 0:
                        sign = 1.0
                    dirs[i] = d + sign * axis
            last_normal[i] = n
    return counts, dirs, best, best_vox


def dense_accumulate(faces, params, domain):
    """Dense bounding-box grids built the way the vote table's
    predecessor built them: (counts, directions, max_acc, max_pt)."""
    nsteps = params.n_steps
    steps = np.arange(nsteps, dtype=float) * params.gridstep
    pos = (faces.centers[:, None, :]
           + steps[None, :, None] * faces.normals[:, None, :])
    idx = np.floor((pos - domain.origin) / domain.gridstep).astype(np.int64)
    dims = np.asarray(domain.dims)
    keep = np.all((idx >= 0) & (idx < dims), axis=2).ravel()
    ev_voxel = np.ravel_multi_index(tuple(np.moveaxis(idx, 2, 0)), domain.dims,
                                    mode="clip").ravel()[keep]
    ev_normal = np.repeat(faces.normals, nsteps, axis=0)[keep]
    nvox = int(dims.prod())
    counts = np.bincount(ev_voxel, minlength=nvox)
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

    sorted_normal = ev_normal[order]
    cross = np.zeros_like(sorted_normal)
    cross[1:] = np.cross(sorted_normal[:-1], sorted_normal[1:])
    eligible = (rank >= 1) & (np.linalg.norm(cross, axis=1) > params.min_norm)
    dir_flat = np.zeros((nvox, 3))
    for r in range(1, max_acc):
        sel = np.flatnonzero(eligible & (rank == r))
        vox = sorted_voxel[sel]
        axis = cross[sel]
        sign = np.sign(np.einsum("ij,ij->i", axis, dir_flat[vox]))
        sign[sign == 0] = 1.0
        dir_flat[vox] += axis * sign[:, None]
    return (counts.reshape(domain.dims).astype(np.uint32),
            dir_flat.reshape(domain.dims + (3,)), max_acc, max_pt)


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


def rank_replay(faces, params, domain):
    """The visit-rank replay the gate-first one replaced, on the row-wise
    march: (keys, counts, dirs)."""
    ids = rowwise_march(faces, params, domain)
    order, sorted_ids = _group_events(ids.ravel(), domain.voxel_count)
    starts, keys, counts = _runs(sorted_ids)
    normals = faces.normals
    dirs = np.zeros((len(keys), 3))
    group = np.arange(len(keys))
    current = normals.take(order[starts] // params.n_steps, axis=0)
    for rank in range(1, int(counts.max())):
        more = counts[group] > rank
        group = group[more]
        previous = current[more]
        current = normals.take(order[starts[group] + rank] // params.n_steps, axis=0)
        axis = np.cross(previous, current)
        ok = np.linalg.norm(axis, axis=1) > params.min_norm
        updated, axis = group[ok], axis[ok]
        sign = np.sign(np.einsum("ij,ij->i", axis, dirs[updated]))
        sign[sign == 0] = 1.0
        dirs[updated] += axis * sign[:, None]
    return keys, counts, dirs


def _assert_matches_rank_replay(faces, params):
    res = tx.compute_accumulation(faces, params)
    ids = _march(faces.centers.T.copy(), faces.normals.T.copy(), params, res.domain)
    assert ids.T.tobytes() == rowwise_march(faces, params, res.domain).tobytes()
    keys, counts, dirs = rank_replay(faces, params, res.domain)
    assert res.keys.tobytes() == keys.tobytes()
    assert np.array_equal(res.counts, counts)
    assert res.dirs.tobytes() == dirs.tobytes()
    return res


def _random_faces(rng, n, box=10.0, length=1.0):
    centers = rng.uniform(0, box, size=(n, 3))
    normals = length * random_unit_vectors(rng, n)
    return tx.OrientedFaceSet(centers, normals, np.ones(n))


@pytest.mark.parametrize("seed,n,radius,gridstep,min_norm", [
    (0, 40, 3.0, 0.8, 0.1),
    (1, 120, 2.0, 0.5, 0.1),
    (2, 60, 4.0, 1.3, 0.3),
])
def test_matches_sequential_reference(seed, n, radius, gridstep, min_norm):
    rng = np.random.default_rng(seed)
    faces = _random_faces(rng, n)
    params = tx.AccumulationParams(radius=radius, gridstep=gridstep,
                                   min_norm=min_norm)
    res = tx.compute_accumulation(faces, params)
    counts, dirs, best, best_vox = sequential_accumulate(faces, params,
                                                         res.domain)
    dense = np.zeros(res.domain.dims, dtype=int)
    for i, v in counts.items():
        dense[i] = v
    assert np.array_equal(res.acc.values, dense)
    assert res.max_acc == best
    assert res.max_pt == best_vox
    dense_dir = np.zeros(res.domain.dims + (3,))
    for i, v in dirs.items():
        dense_dir[i] = v
    assert np.allclose(res.directions.values, dense_dir, atol=1e-12)


def test_duplicate_rays_hit_the_sign_rule():
    # many coincident scans force repeat visits and direction updates
    rng = np.random.default_rng(9)
    base = _random_faces(rng, 12, box=2.0)
    centers = np.tile(base.centers, (4, 1)) + rng.normal(scale=0.05,
                                                         size=(48, 3))
    normals = np.tile(base.normals, (4, 1))
    faces = tx.OrientedFaceSet(centers, normals, np.ones(48))
    params = tx.AccumulationParams(radius=3.0, gridstep=0.7)
    res = tx.compute_accumulation(faces, params)
    counts, dirs, best, best_vox = sequential_accumulate(faces, params,
                                                         res.domain)
    assert res.max_acc == best and res.max_pt == best_vox
    for i, v in dirs.items():
        assert np.allclose(res.directions.values[i], v, atol=1e-12)


def test_step_count_covers_distance_below_acc_radius():
    p = tx.AccumulationParams(radius=5.0, gridstep=1.0)  # acc = 5.5
    assert p.n_steps == 6  # marched distances 0..5 < 5.5
    p = tx.AccumulationParams(radius=5.0, epsilon=0.0, gridstep=1.0)
    assert p.n_steps == 5  # 0..4 < 5.0, the 5.0 sample is excluded
    p = tx.AccumulationParams(radius=2.0, epsilon=0.0, gridstep=0.5)
    assert p.n_steps == 4


def test_single_ray_marks_a_line_of_voxels():
    faces = tx.OrientedFaceSet(np.array([[0.0, 0.0, 0.0]]),
                               np.array([[1.0, 0.0, 0.0]]), np.ones(1))
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
    faces = tx.OrientedFaceSet(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(tx.EmptyInput):
        tx.compute_accumulation(faces, tx.AccumulationParams(radius=1.0))


def test_packed_sort_groups_events_like_a_stable_argsort():
    rng = np.random.default_rng(12)
    for n_voxels in (1, 7, 5000):
        ids = rng.integers(-1, n_voxels, size=20_000)
        order, sorted_ids = _group_events(ids.copy(), n_voxels)
        expected = np.argsort(ids, kind="stable")
        expected = expected[ids[expected] >= 0]
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_ids, ids[expected])


def test_packed_sort_of_step_rows_follows_the_visit_order():
    # the march's (S, F) rows: face f's step s is event f * S + s
    rows = np.random.default_rng(13).integers(-1, 50, size=(4, 300))
    order, sorted_ids = _group_events(rows.copy(), 50)
    events = rows.T.ravel()
    expected = np.argsort(events, kind="stable")
    expected = expected[events[expected] >= 0]
    assert np.array_equal(order, expected)
    assert np.array_equal(sorted_ids, events[expected])


def test_packed_sort_keys_fit_int64_up_to_the_limit():
    int64_max = np.iinfo(np.int64).max
    ids = np.array([3, -1, 0, 3], dtype=np.int64)
    n_voxels = int64_max // len(ids)
    ids[ids == 3] = n_voxels - 1
    order, sorted_ids = _group_events(ids.copy(), n_voxels)
    assert order.tolist() == [2, 0, 3]
    assert sorted_ids.tolist() == [0, n_voxels - 1, n_voxels - 1]
    with pytest.raises(tx.DomainTooLarge, match="overflow"):
        _group_events(ids, n_voxels + 1)


def test_packed_sort_overflow_is_loud():
    # faces this far apart span about 2**62 voxels, which index fine, but
    # 2 faces x 2 steps of events do not fit the packed keys; nothing of
    # the domain's size is allocated
    faces = tx.OrientedFaceSet(np.array([[0.0, 0, 0], [2.0 ** 21, 2.0 ** 21, 2.0 ** 20]]),
                               np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.ones(2))
    params = tx.AccumulationParams(radius=1.0, gridstep=1.0)
    assert 2 ** 62 < accumulation_domain(faces.centers, params).voxel_count < 2 ** 63
    with pytest.raises(tx.DomainTooLarge, match="overflow"):
        tx.compute_accumulation(faces, params)


def test_domain_too_large_to_index_is_loud():
    faces = tx.OrientedFaceSet(np.array([[0.0, 0, 0], [1e7, 1e7, 1e7]]),
                               np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.ones(2))
    for gridstep in (0.01, 1e-300):  # 1e27 voxels; dims past the int64 range
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
    with pytest.raises(ValueError):
        tx.AccumulationParams(radius=1.0, min_norm=0.0)


def test_cylinder_votes_concentrate_on_axis(cylinder):
    res = cylinder.result
    center = res.domain.voxel_center(res.max_pt)
    assert cylinder.axis_distance([center])[0] <= math.sqrt(3) / 2
    # direction at the peak aligns with the axis
    d = res.directions.values[res.max_pt]
    cos = abs(d[0]) / np.linalg.norm(d)
    assert cos > 0.99


def _assert_table_matches_dense(res, faces, params):
    counts, dirs, max_acc, max_pt = dense_accumulate(faces, params, res.domain)
    assert res.keys.dtype == np.int64 and res.counts.dtype == np.uint32
    assert np.array_equal(res.keys, np.flatnonzero(counts))
    assert np.array_equal(res.counts, counts.ravel()[res.keys])
    assert res.dirs.tobytes() == dirs.reshape(-1, 3)[res.keys].tobytes()
    assert res.max_acc == max_acc and res.max_pt == max_pt
    # the dense views scattered from the table are the old grids, byte for byte
    assert res.acc.values.dtype == np.uint32
    assert res.acc.values.tobytes() == counts.tobytes()
    assert res.directions.values.tobytes() == dirs.tobytes()


def _diagonal_tube(length, radius=3.0):
    """Straight tube laid along the (1, 1, 1) diagonal, normals inward."""
    mesh, _ = tx.gen_tube([tx.Straight(length)], radius=radius, mesh_step=1.0)
    d = np.ones(3) / math.sqrt(3.0)
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rot = np.stack([d, u, np.cross(d, u)], axis=1)  # maps +x onto d
    return tx.face_normals(tx.TriMesh(mesh.vertices @ rot.T, mesh.faces)).flipped()


@pytest.mark.parametrize("seed,n,radius,gridstep,min_norm", [
    (0, 40, 3.0, 0.8, 0.1),
    (1, 120, 2.0, 0.5, 0.1),
    (2, 60, 4.0, 1.3, 0.3),
])
def test_table_matches_dense_grids(seed, n, radius, gridstep, min_norm):
    faces = _random_faces(np.random.default_rng(seed), n)
    params = tx.AccumulationParams(radius=radius, gridstep=gridstep,
                                   min_norm=min_norm)
    _assert_table_matches_dense(tx.compute_accumulation(faces, params),
                                faces, params)


def test_table_matches_dense_grids_on_bent_tube(bent_pipe):
    _assert_table_matches_dense(bent_pipe["result"], bent_pipe["faces"],
                                bent_pipe["params"])


def test_table_matches_dense_grids_when_rays_leave_the_domain():
    # normals of length 3 march three times acc_radius, past the padding
    faces = _random_faces(np.random.default_rng(4), 80, box=6.0, length=3.0)
    params = tx.AccumulationParams(radius=4.0, gridstep=0.5)
    res = tx.compute_accumulation(faces, params)
    assert res.counts.sum() < len(faces) * params.n_steps
    _assert_table_matches_dense(res, faces, params)


def test_tracking_never_builds_the_dense_grids():
    faces = _diagonal_tube(60.0)
    params = tx.AccumulationParams(radius=3.0, gridstep=1.0)
    res = tx.compute_accumulation(faces, params)
    cl = tx.extract_centerline(res, track_step=3.0, acc_radius=params.acc_radius)
    assert len(cl) > 10
    assert "acc" not in vars(res) and "directions" not in vars(res)
    assert "dirs" not in vars(res)  # only the rows tracking read were replayed
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
def test_columnar_march_and_gate_first_replay_match_the_rank_replay(seed):
    faces = _random_faces(np.random.default_rng(20 + seed), 150, box=6.0)
    params = tx.AccumulationParams(radius=3.0, gridstep=0.6, min_norm=0.3)
    _assert_matches_rank_replay(faces, params)


def test_gate_is_strict_at_a_pair_cross_norm():
    faces = _random_faces(np.random.default_rng(31), 120, box=5.0)
    params = tx.AccumulationParams(radius=3.0, gridstep=0.6)
    domain = accumulation_domain(faces.centers, params)
    order, sorted_ids = _group_events(rowwise_march(faces, params, domain).ravel(),
                                      domain.voxel_count)
    face = order // params.n_steps
    pair = np.flatnonzero(sorted_ids[1:] == sorted_ids[:-1])
    norms = np.linalg.norm(np.cross(faces.normals[face[pair]],
                                    faces.normals[face[pair + 1]]), axis=1)
    norms = np.sort(norms[(norms > 0) & (norms < 1)])
    for min_norm in norms[[0, len(norms) // 3, len(norms) // 2, -1]]:
        at = tx.AccumulationParams(radius=3.0, gridstep=0.6, min_norm=float(min_norm))
        _assert_matches_rank_replay(faces, at)


def test_duplicated_faces_replay_like_the_rank_replay():
    # exact copies revisit voxels with equal normals (cross 0, gated out)
    # and with pairs whose cross points against the running sum
    base = _random_faces(np.random.default_rng(9), 12, box=2.0)
    faces = tx.OrientedFaceSet(np.tile(base.centers, (4, 1)),
                               np.tile(base.normals, (4, 1)), np.ones(48))
    _assert_matches_rank_replay(faces, tx.AccumulationParams(radius=3.0, gridstep=0.7))


def test_voxel_whose_first_pairs_fail_the_gate():
    # near-parallel visits are gated out; the axis-aligned ones after them
    # pass, with crosses orthogonal to (dot 0) or against the running sum
    tilt = np.array([1.0, 0.01, 0.0]) / math.hypot(1.0, 0.01)
    normals = np.array([[1.0, 0, 0], [1.0, 0, 0], tilt, [1.0, 0, 0],
                        [0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0], [0, -1.0, 0],
                        [0, 0, 1.0]])
    faces = tx.OrientedFaceSet(np.full((len(normals), 3), 0.25), normals,
                               np.ones(len(normals)))
    params = tx.AccumulationParams(radius=1.0, gridstep=1.0)
    res = _assert_matches_rank_replay(faces, params)
    start = res.domain.strides @ res.domain.index_array(faces.centers[:1])[0][0]
    assert res.counts[np.searchsorted(res.keys, start)] == len(normals)
    assert np.any(res.dirs[np.searchsorted(res.keys, start)] != 0)


def test_replay_edge_cases_match_the_rank_replay():
    rng = np.random.default_rng(4)
    # long normals: rays that run out of the domain
    _assert_matches_rank_replay(_random_faces(rng, 80, box=6.0, length=3.0),
                                tx.AccumulationParams(radius=4.0, gridstep=0.5))
    faces = _random_faces(rng, 80, box=6.0)
    one_step = tx.AccumulationParams(radius=0.5, epsilon=0.0, gridstep=1.0)
    assert one_step.n_steps == 1
    _assert_matches_rank_replay(faces, one_step)
    _assert_matches_rank_replay(_random_faces(rng, 1),
                                tx.AccumulationParams(radius=3.0, gridstep=0.5))


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 64])
def test_replay_chunks_hold_whole_voxel_groups(monkeypatch, chunk):
    # small chunks: voxel groups larger than a chunk, and group boundaries
    # on and off the chunk edges
    monkeypatch.setattr(accumulate, "_CHUNK", chunk)
    res = _assert_matches_rank_replay(_diagonal_tube(12.0),
                                      tx.AccumulationParams(radius=3.0, gridstep=1.0))
    assert res.max_acc > 8


def _capped_voxel_tube():
    """A small capped bent pipe the way the voxel path sees it: boundary
    facets with covariance normals, oriented inward."""
    mesh, _ = tx.gen_tube([tx.Straight(10.0), tx.Arc(8.0, math.pi / 2),
                           tx.Straight(10.0)], radius=3.0, mesh_step=1.0,
                          cap_ends=True)
    faces = tx.digital_surface_faces(tx.voxelize(mesh, 1.0))
    faces = tx.estimate_digital_normals(faces, 2.0)
    return tx.orient_inward(faces, mode="auto", radius=3.0)


def _rows_on_demand(res):
    """The direction table read one voxel at a time, as tracking reads it."""
    return np.array([res.direction_at(key) for key in res.keys]).reshape(-1, 3)


def _assert_rows_on_demand_match(faces, params):
    res = tx.compute_accumulation(faces, params)
    rows = _rows_on_demand(res)
    assert "dirs" not in vars(res)  # no row read built the whole table
    _, _, reference = rank_replay(faces, params, res.domain)
    assert rows.tobytes() == reference.tobytes()
    assert tx.compute_accumulation(faces, params).dirs.tobytes() == reference.tobytes()
    # once the table is built, reads go to it, with the same bytes
    assert res.dirs.tobytes() == reference.tobytes()
    assert _rows_on_demand(res).tobytes() == reference.tobytes()
    return res


@pytest.mark.parametrize("seed,n,radius,gridstep,min_norm", [
    (0, 40, 3.0, 0.8, 0.1),
    (1, 120, 2.0, 0.5, 0.1),
    (2, 60, 4.0, 1.3, 0.3),
])
def test_rows_on_demand_match_the_table_and_the_rank_replay(seed, n, radius,
                                                            gridstep, min_norm):
    faces = _random_faces(np.random.default_rng(seed), n)
    _assert_rows_on_demand_match(faces, tx.AccumulationParams(
        radius=radius, gridstep=gridstep, min_norm=min_norm))


def test_rows_on_demand_on_a_capped_voxel_tube():
    res = _assert_rows_on_demand_match(_capped_voxel_tube(),
                                       tx.AccumulationParams(radius=3.0, gridstep=1.0))
    assert np.count_nonzero(np.any(res.dirs != 0, axis=1)) > 100


@pytest.mark.parametrize("chunk", [1, 2, 5, 8])
def test_rows_on_demand_with_small_chunks(monkeypatch, chunk):
    # voxel groups larger than a chunk, read alone and in the whole table
    monkeypatch.setattr(accumulate, "_CHUNK", chunk)
    res = _assert_rows_on_demand_match(_diagonal_tube(12.0),
                                       tx.AccumulationParams(radius=3.0, gridstep=1.0))
    assert res.max_acc > 8


def test_row_reads_are_memoized(monkeypatch):
    res = tx.compute_accumulation(_diagonal_tube(12.0),
                                  tx.AccumulationParams(radius=3.0, gridstep=1.0))
    replays = []
    replay = accumulate._replay_directions

    def counted(*args):
        replays.append(args[-2:])
        return replay(*args)

    monkeypatch.setattr(accumulate, "_replay_directions", counted)
    key = res.keys[np.argmax(res.counts)]
    first = res.direction_at(key)
    assert res.direction_at(key) is first
    row = int(np.searchsorted(res.keys, key))
    assert replays == [(row, row + 1)]
    assert np.any(first != 0)


def test_voxel_missing_from_the_table_reads_zero():
    res = tx.compute_accumulation(_diagonal_tube(12.0),
                                  tx.AccumulationParams(radius=3.0, gridstep=1.0))
    missing = np.setdiff1d(np.arange(res.keys[-1] + 2), res.keys)
    for key in (missing[0], missing[len(missing) // 2], res.keys[-1] + 1):
        assert res.direction_at(key).tobytes() == np.zeros(3).tobytes()
    assert "dirs" not in vars(res)


@pytest.mark.parametrize("normals", [
    [[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1e200], [1.0, 0, 0]],
    [[1.0, 0, 0], [0, 1.0, 0], [1e200, 0, 0], [0, -1e200, 0], [0, 0, 1.0]],
])
def test_nan_dot_poisons_the_sum_like_np_sign(normals):
    # huge normals leave the domain after their first step, where their
    # crosses overflow: the gate passes an infinite norm and the dot of an
    # infinite cross with the running sum is NaN, which np.sign returns
    normals = np.array(normals)
    faces = tx.OrientedFaceSet(np.full((len(normals), 3), 0.25), normals,
                               np.ones(len(normals)))
    params = tx.AccumulationParams(radius=1.0, gridstep=1.0)
    with np.errstate(all="ignore"):
        res = _assert_rows_on_demand_match(faces, params)
    assert np.isnan(res.dirs).any()


@pytest.mark.parametrize("wide", [1, 3, 1 << 30])
def test_vectorized_and_pair_by_pair_replays_agree(monkeypatch, wide):
    # every pair rank in vectorized steps, a mix, and every pair alone
    monkeypatch.setattr(accumulate, "_WIDE", wide)
    _assert_rows_on_demand_match(_capped_voxel_tube(),
                                 tx.AccumulationParams(radius=3.0, gridstep=1.0))
