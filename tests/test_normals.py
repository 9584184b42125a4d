"""Face normals, digital surface facets and inward orientation."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

import tubeaxis as tx
from tubeaxis import normals
from tubeaxis.normals import _FACET_DIRS, _ball_neighbourhoods


def _facets_by_set_lookup(points):
    """Reference: probe a set of tuples for each voxel's six neighbours."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 3)
    occupied = set(map(tuple, pts))
    centers, normals = [], []
    for p in pts:
        for d in _FACET_DIRS:
            if tuple(p + d) not in occupied:
                centers.append(p + 0.5 + 0.5 * d)
                normals.append(d)
    return (np.asarray(centers, dtype=float).reshape(-1, 3),
            np.asarray(normals, dtype=float).reshape(-1, 3))


def _normals_by_facet_cov(faces, radius):
    """Reference: one np.cov and one eigh per facet."""
    centers = faces.centers
    neighborhoods = cKDTree(centers).query_ball_point(centers, r=float(radius))
    normals = -faces.normals
    for i, idx in enumerate(neighborhoods):
        if len(idx) < 3:
            continue
        w, v = np.linalg.eigh(np.cov(centers[idx].T, bias=True))
        n = v[:, 0]
        if np.dot(n, faces.normals[i]) < 0:
            n = -n
        normals[i] = -n
    return normals


def _assert_facets_match_reference(points):
    fs = tx.digital_surface_faces(tx.VoxelSet(points))
    centers, normals = _facets_by_set_lookup(points)
    assert np.array_equal(fs.centers, centers)
    assert np.array_equal(fs.normals, normals)
    assert np.array_equal(fs.areas, np.ones(len(centers)))
    return fs


def test_triangle_normal_area_center():
    verts = np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 2, 0]])
    mesh = tx.TriMesh(verts, np.array([[0, 1, 2]]))
    fs = tx.face_normals(mesh)
    assert np.allclose(fs.normals[0], [0, 0, 1], atol=1e-12)
    assert fs.areas[0] == pytest.approx(2.0)
    assert np.allclose(fs.centers[0], [2 / 3, 2 / 3, 0])


def test_winding_flips_normal():
    verts = np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 2, 0]])
    mesh = tx.TriMesh(verts, np.array([[0, 2, 1]]))
    fs = tx.face_normals(mesh)
    assert np.allclose(fs.normals[0], [0, 0, -1], atol=1e-12)


def test_degenerate_face_raises():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    mesh = tx.TriMesh(verts, np.array([[0, 1, 2]]))
    with pytest.raises(tx.DegenerateFace):
        tx.face_normals(mesh)


def test_flipped_negates_normals():
    rng = np.random.default_rng(2)
    fs = tx.OrientedFaceSet(rng.normal(size=(5, 3)),
                            rng.normal(size=(5, 3)), np.ones(5))
    assert np.array_equal(fs.flipped().normals, -fs.normals)


def test_single_voxel_has_six_facets():
    fs = _assert_facets_match_reference(np.array([[4, 5, 6]]))
    assert len(fs) == 6
    # outward unit axis normals, one per cube side
    assert sorted(map(tuple, fs.normals.astype(int))) == sorted(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    # facet centers sit half a step outside the voxel center along the normal
    center = np.array([4.5, 5.5, 6.5])
    assert np.allclose(fs.centers - center, 0.5 * fs.normals)


def test_solid_block_facet_count():
    pts = np.array([(i, j, k) for i in range(2) for j in range(2)
                    for k in range(2)])
    vol = tx.VoxelSet(points=pts, origin=np.zeros(3), gridstep=1.0)
    fs = tx.digital_surface_faces(vol)
    assert len(fs) == 24  # 6 sides x 4 unit facets


def test_facets_match_set_lookup_on_random_blobs():
    rng = np.random.default_rng(5)
    for _ in range(5):
        pts = rng.integers(-4, 5, size=(rng.integers(1, 120), 3))
        _assert_facets_match_reference(pts)


def test_facets_with_duplicate_points():
    # VoxelSet keeps duplicates; each copy yields its own facets
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0], [5, 5, 5], [5, 5, 5]])
    fs = _assert_facets_match_reference(pts)
    assert len(fs) == 10 + 5 + 6 + 6


def test_facets_with_negative_coordinates():
    pts = np.array([(i, j, k) for i in range(-3, 1) for j in range(-2, 2)
                    for k in range(-7, -5) if (i + j + k) % 3])
    _assert_facets_match_reference(pts)


def test_facets_with_coordinates_spread_past_2_pow_21():
    # wider than 2^21 per axis: a bounding-box key of 3 x 21 bits would alias
    far = 2 ** 22 + 3
    pts = np.array([[0, 0, 0], [1, 0, 0], [far, 0, 0], [far, far, far],
                    [far, far, far + 1], [-far, 5, -far], [0, far, 0],
                    [2 ** 62, -2 ** 62, 7], [2 ** 62 + 1, -2 ** 62, 7]])
    fs = _assert_facets_match_reference(pts)
    assert len(fs) == 9 * 6 - 3 * 2


@pytest.mark.parametrize("bad", [2 ** 63 - 1, -2 ** 63])
def test_facets_reject_int64_extremes(bad):
    with pytest.raises(ValueError, match="int64"):
        tx.digital_surface_faces(tx.VoxelSet(np.array([[0, 0, 0], [bad, 1, 2]])))


def test_facets_reject_key_space_beyond_int64():
    # 700,000 voxels spaced 3 apart along the diagonal need 2.1M distinct
    # values per axis, and 2.1M^3 keys do not fit in int64
    pts = np.repeat(3 * np.arange(700_000, dtype=np.int64)[:, None], 3, axis=1)
    with pytest.raises(ValueError, match="too spread out"):
        tx.digital_surface_faces(tx.VoxelSet(pts))


def test_facets_of_empty_set_raise():
    with pytest.raises(tx.EmptyInput):
        tx.digital_surface_faces(tx.VoxelSet(np.empty((0, 3), dtype=np.int64)))


def _mixed_voxels():
    """A slab, an isolated voxel and a short rod: small and large
    neighbourhoods side by side."""
    slab = [(i, j, 0) for i in range(6) for j in range(5)]
    rod = [(20, 20, k) for k in range(3)]
    return np.array(slab + [(-10, 4, 4)] + rod)


@pytest.mark.parametrize("radius", [0.6, 0.9, 1.0, 1.6, 2.5])
def test_estimated_normals_match_per_facet_cov_with_mixed_sizes(radius):
    fs = tx.digital_surface_faces(tx.VoxelSet(_mixed_voxels()))
    est = tx.estimate_digital_normals(fs, radius)
    assert np.array_equal(est.normals, _normals_by_facet_cov(fs, radius))
    assert np.array_equal(est.centers, fs.centers)


def test_mixed_voxels_give_mixed_neighbourhood_sizes():
    fs = tx.digital_surface_faces(tx.VoxelSet(_mixed_voxels()))
    sizes = {r: set(_ball_neighbourhoods(fs.centers, r)[0].tolist())
             for r in (0.6, 0.9, 1.6, 2.5)}
    assert sizes[0.6] == {1}
    assert min(sizes[0.9]) < 3 < max(sizes[0.9])
    assert len(sizes[1.6]) > 5 and len(sizes[2.5]) > 10


@pytest.mark.parametrize("radius", [2.0, 3.0])
def test_estimated_normals_match_per_facet_cov_on_capped_tube(radius):
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:12,A:8:60,S:6"), 3.0, 1.0,
                          cap_ends=True)
    fs = _assert_facets_match_reference(tx.voxelize(mesh, 1.0).points)
    est = tx.estimate_digital_normals(fs, radius)
    assert np.array_equal(est.normals, _normals_by_facet_cov(fs, radius))


@pytest.mark.parametrize("radius", [0.6, 1.0, 2 ** 0.5, 2.5])
def test_ball_neighbourhoods_match_query_ball_point(radius):
    fs = tx.digital_surface_faces(tx.VoxelSet(_mixed_voxels()))
    counts, members = _ball_neighbourhoods(fs.centers, radius)
    ref = cKDTree(fs.centers).query_ball_point(fs.centers, r=radius)
    assert counts.tolist() == [len(i) for i in ref]
    assert members.tolist() == [j for i in ref for j in i]


@pytest.mark.parametrize("radius", [0.6, 1.0, 2 ** 0.5, 2.5, 3.0, 4.0])
def test_ball_neighbourhoods_match_query_ball_point_on_a_tube(radius):
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:12,A:8:60,S:6"), 3.0, 1.0,
                          cap_ends=True)
    centers = tx.digital_surface_faces(tx.voxelize(mesh, 1.0)).centers
    # off the half-integer lattice too, where d^2 is rounded
    rng = np.random.default_rng(11)
    for pts in (centers, centers * 0.7 + rng.normal(size=centers.shape) * 0.3):
        counts, members = _ball_neighbourhoods(pts, radius)
        ref = cKDTree(pts).query_ball_point(pts, r=radius)
        assert counts.tolist() == [len(i) for i in ref]
        assert members.tolist() == [j for i in ref for j in sorted(i)]


def _assert_ball_neighbourhoods_match_query_ball_point(pts, radius):
    counts, members = _ball_neighbourhoods(pts, radius)
    ref = cKDTree(pts).query_ball_point(pts, r=radius)
    assert counts.tolist() == [len(i) for i in ref]
    assert members.tolist() == [j for i in ref for j in sorted(i)]
    return counts


def test_ball_neighbourhoods_with_64_bit_keys():
    # n * n > 2**32 - 1 from 65,536 centers on: the keys i*n + j are int64
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.0, 60.0, size=(70_000, 3))
    pts[-50:] = pts[:50]  # coincident centers among them
    counts = _assert_ball_neighbourhoods_match_query_ball_point(pts, 1.0)
    assert len(pts) ** 2 > np.iinfo(np.uint32).max
    assert counts.sum() > 2 * len(pts)


@pytest.mark.parametrize("pts", [
    np.array([(x, y, z) for x in range(4) for y in range(3) for z in range(2)]) * 2.0,
    np.repeat([[1.5, -2.0, 3.0], [1.5, -2.0, 3.25]], [4, 3], axis=0),
    np.zeros((6, 3)),
    np.array([[7.0, 8.0, 9.0]]),
], ids=["no-pairs", "coincident", "all-coincident", "single"])
def test_ball_neighbourhoods_without_pairs_and_with_coincident_centers(pts):
    _assert_ball_neighbourhoods_match_query_ball_point(pts, 1.0)


def test_covariance_normals_memory_follows_the_pairs():
    # a solid voxel rod of radius 8 and length 260 at the CLI's normal
    # radius for R=8: 17,056 facets, about 1.06M ordered pairs. Building
    # the CSR from int64 pair copies takes about 46 bytes a pair, from one
    # key array about 20; the bound lies between them
    grid = np.indices((18, 18, 260)).reshape(3, -1).T - [9, 9, 0]
    pts = grid[np.hypot(grid[:, 0] + 0.5, grid[:, 1] + 0.5) <= 8]
    fs = tx.digital_surface_faces(tx.VoxelSet(pts))
    tracemalloc.start()
    try:
        tx.estimate_digital_normals(fs, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = int(_ball_neighbourhoods(fs.centers, 4.0)[0].sum())
    assert pairs > 1_000_000
    assert peak < 32 * pairs


def test_covariance_normals_memory_on_a_flat_surface():
    # the surface of a 60^3 voxel cube at radius 4: 21,600 facets, about
    # 1.1M ordered pairs, most facets in one neighbourhood size; gathering
    # that group at once took about 39 bytes a pair, batches about 21
    pts = np.indices((60, 60, 60)).reshape(3, -1).T
    fs = tx.digital_surface_faces(tx.VoxelSet(pts))
    tracemalloc.start()
    try:
        tx.estimate_digital_normals(fs, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts = _ball_neighbourhoods(fs.centers, 4.0)[0]
    pairs = int(counts.sum())
    assert pairs > 1_000_000
    assert np.bincount(counts).max() > len(fs) // 2
    assert peak < 32 * pairs


@pytest.mark.parametrize("chunk", [40, 500, 2000, 1 << 40])
def test_covariance_batches_keep_the_bits(monkeypatch, chunk):
    # every facet's mean, product and eigh are its own, whatever batch
    # its size group is cut into
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:12,A:8:60,S:6"), 3.0, 1.0,
                          cap_ends=True)
    fs = tx.digital_surface_faces(tx.voxelize(mesh, 1.0))
    want = tx.estimate_digital_normals(fs, 3.0).normals
    monkeypatch.setattr(normals, "_CHUNK_PAIRS", chunk)
    assert tx.estimate_digital_normals(fs, 3.0).normals.tobytes() == want.tobytes()


def test_estimated_normals_point_inward_below_three_neighbours():
    # at radius 0.9 flat slab facets see fewer than 3 neighbours
    pts = np.array([(i, j, 0) for i in range(12) for j in range(12)])
    fs = tx.digital_surface_faces(tx.VoxelSet(pts))
    est = tx.estimate_digital_normals(fs, radius=0.9)
    counts, _ = _ball_neighbourhoods(fs.centers, 0.9)
    assert counts.min() < 3
    assert np.all(np.einsum("ij,ij->i", est.normals, fs.normals) <= 0)


def test_estimated_normals_on_digital_plane():
    # a flat slab: smoothed normals on the big faces must be +-z
    pts = np.array([(i, j, 0) for i in range(12) for j in range(12)])
    vol = tx.VoxelSet(points=pts, origin=np.zeros(3), gridstep=1.0)
    fs = tx.digital_surface_faces(vol)
    est = tx.estimate_digital_normals(fs, radius=2.5)
    assert np.allclose(np.linalg.norm(est.normals, axis=1), 1.0, atol=1e-9)
    top = fs.normals[:, 2] == 1
    # estimate points inward: top facets must look along -z
    interior = top & (fs.centers[:, 0] > 2) & (fs.centers[:, 0] < 10) \
        & (fs.centers[:, 1] > 2) & (fs.centers[:, 1] < 10)
    assert np.allclose(est.normals[interior], [0, 0, -1], atol=1e-6)


def test_orient_keep_and_flip():
    rng = np.random.default_rng(3)
    fs = tx.OrientedFaceSet(rng.normal(size=(4, 3)),
                            rng.normal(size=(4, 3)), np.ones(4))
    assert tx.orient_inward(fs, mode="keep") is fs
    assert np.array_equal(tx.orient_inward(fs, mode="flip").normals,
                          -fs.normals)
    with pytest.raises(ValueError):
        tx.orient_inward(fs, mode="sideways")


def test_orient_auto_fixes_outward_cylinder(cylinder):
    outward = cylinder.faces.flipped()  # fixture normals are inward
    fixed = tx.orient_inward(outward, mode="auto", radius=cylinder.radius)
    # inward means pointing toward the axis
    toward = cylinder.truth.points.mean(axis=0) - fixed.centers
    toward[:, 0] = 0.0  # axis is +x; compare radially
    agree = np.einsum("ij,ij->i", fixed.normals, toward) > 0
    assert agree.mean() > 0.99


def test_orient_auto_keeps_inward_cylinder(cylinder):
    kept = tx.orient_inward(cylinder.faces, mode="auto",
                            radius=cylinder.radius)
    assert np.allclose(kept.normals, cylinder.faces.normals)


@pytest.mark.parametrize("length,radius", [(200.0, 3.0), (400.0, 6.0)])
def test_orient_auto_fixes_outward_long_tubes(length, radius):
    # once extent/48 >= radius a probe lattice of that step gives one-voxel
    # scans and both orientations tie; the probe step is radius/3 instead
    mesh, _ = tx.gen_tube([tx.Straight(length)], radius=radius, mesh_step=1.0)
    fixed = tx.orient_inward(tx.face_normals(mesh), mode="auto", radius=radius)
    toward = -fixed.centers
    toward[:, 0] = 0.0  # axis is the x axis; compare radially
    agree = np.einsum("ij,ij->i", fixed.normals, toward) > 0
    assert agree.mean() > 0.99


def test_orient_auto_tie_raises():
    # a flat sheet votes the same way up and down: the probe cannot choose
    xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij")
    centers = np.stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)], axis=1)
    normals = np.tile([0.0, 0.0, 1.0], (len(centers), 1))
    sheet = tx.OrientedFaceSet(centers, normals, np.ones(len(centers)))
    with pytest.raises(tx.SeedInvalid, match="tie"):
        tx.orient_inward(sheet, mode="auto", radius=3.0)
