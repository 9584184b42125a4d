"""Face normals, digital surface facets and inward orientation."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import tubeaxis as tx
from tubeaxis import accumulate, ingest, normals
from tubeaxis.accumulate import accumulation_domain, count_peak
from tubeaxis.core import CellHash
from tubeaxis.normals import _FACET_DIRS, _ball_neighbourhoods

from conftest import capped_voxel_pipe, quaternion_rotation, random_unit_vectors


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


def _facet_covariances(faces, radius):
    """(n, 3, 3) np.cov (bias=True) of each facet's neighbour centers, and
    the facets with 3 or more neighbours."""
    centers = faces.centers
    neighborhoods = cKDTree(centers).query_ball_point(centers, r=float(radius))
    rows = np.array([i for i, idx in enumerate(neighborhoods) if len(idx) >= 3],
                    dtype=np.intp)
    cov = np.array([np.cov(centers[neighborhoods[i]].T, bias=True) for i in rows])
    return cov.reshape(-1, 3, 3), rows


def _signed_inward(faces, rows, n):
    """Negated provisional normals, with row i's vector n[i] signed to
    match its provisional normal, then flipped inward."""
    normals = -faces.normals
    for i, v in zip(rows, n):
        normals[i] = v if np.dot(v, faces.normals[i]) < 0 else -v
    return normals


def _normals_by_facet_cov(faces, radius):
    """Reference: one np.cov per facet and one closed-form solve of them all."""
    cov, rows = _facet_covariances(faces, radius)
    return _signed_inward(faces, rows, normals._least_eigenvector(cov))


def _normals_by_facet_eigh(faces, radius):
    """Reference: one np.cov and one eigh per facet, as LAPACK solves it."""
    cov, rows = _facet_covariances(faces, radius)
    return _signed_inward(faces, rows, [np.linalg.eigh(c)[1][:, 0] for c in cov])


def _assert_facets_match_reference(points):
    fs = tx.digital_surface_faces(tx.VoxelSet(points))
    centers, normals = _facets_by_set_lookup(points)
    assert np.array_equal(fs.centers, centers)
    assert np.array_equal(fs.normals, normals)
    return fs


def test_triangle_normal_area_center():
    verts = np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 2, 0]])
    mesh = tx.TriMesh(verts, np.array([[0, 1, 2]]))
    fs = tx.face_normals(mesh)
    assert np.allclose(fs.normals[0], [0, 0, 1], atol=1e-12)
    # the area, from the face geometry that face_normals reads
    assert 0.5 * mesh.geometry().norms[0] == pytest.approx(2.0)
    assert np.allclose(fs.centers[0], [2 / 3, 2 / 3, 0])


def test_winding_flips_normal():
    verts = np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 2, 0]])
    mesh = tx.TriMesh(verts, np.array([[0, 2, 1]]))
    fs = tx.face_normals(mesh)
    assert np.allclose(fs.normals[0], [0, 0, -1], atol=1e-12)


def test_degenerate_face_raises():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    mesh = tx.TriMesh(verts, np.array([[0, 1, 2]]))
    with pytest.raises(tx.DegenerateFace, match="face 0 has an area that is zero"):
        tx.face_normals(mesh)
    # finite vertices whose cross product overflows, which would give the
    # face set a NaN normal
    mesh = tx.TriMesh(np.array([[0.0, 0, 0], [1e200, 0, 0], [0, 1e200, 0]]),
                      np.array([[0, 1, 2]]))
    with np.errstate(over="ignore"), pytest.raises(tx.DegenerateFace, match="face 0"):
        tx.face_normals(mesh)


def test_flipped_negates_normals():
    rng = np.random.default_rng(2)
    fs = tx.OrientedFaceSet(rng.normal(size=(5, 3)),
                            random_unit_vectors(rng, 5))
    assert np.array_equal(fs.flipped().normals, -fs.normals)


def test_columns_are_made_once_and_flipped_negates_them():
    rng = np.random.default_rng(3)
    fs = tx.OrientedFaceSet(rng.normal(size=(7, 3)), random_unit_vectors(rng, 7))
    centers, normals_ = fs.columns()
    assert centers.flags.c_contiguous and normals_.flags.c_contiguous
    assert centers.tobytes() == fs.centers.T.copy().tobytes()
    assert normals_.tobytes() == fs.normals.T.copy().tobytes()
    assert fs.columns()[0] is centers
    flipped_centers, flipped_normals = fs.flipped().columns()
    assert flipped_centers is centers
    assert flipped_normals.tobytes() == (-fs.normals).T.copy().tobytes()


@pytest.mark.parametrize("field,value", [
    pytest.param("normals", [np.nan, 0.0, 0.0], id="nan-normal"),
    pytest.param("normals", [0.0, -np.inf, 0.0], id="inf-normal"),
    pytest.param("normals", [0.0, 0.0, 0.0], id="zero-normal"),
    pytest.param("normals", [0.0, 3.0, 0.0], id="length-3-normal"),
    pytest.param("normals", [1.0 + 6e-13, 0.0, 0.0], id="normal-past-tolerance"),
    pytest.param("centers", [0.0, np.nan, 0.0], id="nan-center"),
    pytest.param("centers", [np.inf, 0.0, 0.0], id="inf-center"),
])
def test_face_set_names_the_first_face_that_breaks_the_contract(field, value):
    faces = {"centers": np.arange(12.0).reshape(4, 3),
             "normals": np.tile([0.0, 0.0, 1.0], (4, 1))}
    faces[field][2] = faces[field][3] = value
    center, normal = faces["centers"][2], faces["normals"][2]
    want = (f"face 2 has center {center} and normal {normal}, not a finite center "
            "and a unit normal (|n . n - 1| <= 1e-12)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as error:
            tx.OrientedFaceSet(**faces)
    assert str(error.value) == want


def test_face_set_takes_normals_within_the_tolerance():
    normals = np.array([[1.0 + 4e-13, 0.0, 0.0], [0.0, 1.0 - 4e-13, 0.0]])
    faces = tx.OrientedFaceSet(np.zeros((2, 3)), normals)
    assert faces.normals.tobytes() == normals.tobytes()


def test_nan_normals_fail_where_the_faces_are_built():
    # three faces on the x axis with NaN normals, which the radius 2 scan
    # once met only after a numpy cast warning, as a bare reduction error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^face 0 has center \[0\. 0\. 0\.\] and "
                           r"normal \[nan nan nan\]"):
            tx.OrientedFaceSet(np.arange(3.0)[:, None] * [1.0, 0.0, 0.0],
                               np.full((3, 3), np.nan))


def test_orientation_probe_transposes_the_faces_once(monkeypatch):
    # both probe scans and the returned set read the columns made for
    # the input, whichever orientation wins
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:20"), 3.0, 1.0)
    made = []
    columns = tx.OrientedFaceSet.columns

    def spy(self):
        if self._columns is None:
            made.append(len(self))
        return columns(self)

    monkeypatch.setattr(tx.OrientedFaceSet, "columns", spy)
    for flip in (False, True):
        made.clear()
        faces = tx.face_normals(mesh).flipped() if flip else tx.face_normals(mesh)
        oriented = tx.orient_inward(faces, mode="auto", radius=3.0)
        res = tx.compute_accumulation(oriented, tx.AccumulationParams(radius=3.0))
        assert made == [len(faces)]
        fresh = tx.OrientedFaceSet(oriented.centers, oriented.normals)
        assert np.array_equal(res.counts, tx.compute_accumulation(
            fresh, tx.AccumulationParams(radius=3.0)).counts)


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


def test_facets_match_set_lookup_with_shuffled_points():
    # voxelize (like load_volume) gives the points in key order, which
    # skips the key sort; shuffled points take it
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:12,A:8:60,S:6"), 3.0, 1.0,
                          cap_ends=True)
    pts = tx.voxelize(mesh, 1.0).points
    keys = ingest._lattice_keys(np.asarray(pts, dtype=np.int64))[0]
    assert np.all(keys[1:] > keys[:-1])
    rng = np.random.default_rng(8)
    for _ in range(3):
        shuffled = pts[rng.permutation(len(pts))]
        keys = ingest._lattice_keys(np.asarray(shuffled, dtype=np.int64))[0]
        assert not np.all(keys[1:] >= keys[:-1])
        _assert_facets_match_reference(shuffled)


def test_facets_with_duplicate_points():
    # VoxelSet keeps duplicates; each copy yields its own facets
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0], [5, 5, 5], [5, 5, 5]])
    fs = _assert_facets_match_reference(pts)
    assert len(fs) == 10 + 5 + 6 + 6


def _voxel_columns(rng, columns, height, spread):
    """Runs of voxels along z, one per (x, y) column, from random starts:
    a column's top voxel is the last key of its run."""
    base = rng.integers(-spread, spread + 1, size=(columns, 3))
    return np.concatenate([b + np.column_stack([np.zeros((n, 2), dtype=np.int64),
                                                np.arange(n)])
                           for b, n in zip(base, rng.integers(1, height + 1, columns))])


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), columns=st.integers(1, 12),
       height=st.integers(1, 6), spread=st.sampled_from([1, 3, 2 ** 40]),
       arrange=st.sampled_from(["sorted", "shuffled", "duplicated",
                                "duplicated, shuffled"]))
def test_facets_above_and_below_match_set_lookup(seed, columns, height, spread,
                                                  arrange):
    # the +-z neighbours come from the sorted keys, the others from
    # searchsorted: columns stacked on each other and side by side, in
    # key order, shuffled, or with repeated voxels
    rng = np.random.default_rng(seed)
    pts = _voxel_columns(rng, columns, height, spread)
    if "duplicated" in arrange:
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), size=len(pts) // 2 + 1)]])
    pts = pts[np.argsort(ingest._lattice_keys(pts)[0], kind="stable")]
    if "shuffled" in arrange:
        pts = pts[rng.permutation(len(pts))]
    _assert_facets_match_reference(pts)


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
    # a ParseError, which the command line reports as an input error
    with pytest.raises(tx.ParseError, match="int64"):
        tx.digital_surface_faces(tx.VoxelSet(np.array([[0, 0, 0], [bad, 1, 2]])))


def test_facets_reject_key_space_beyond_int64():
    # 700,000 voxels spaced 3 apart along the diagonal need 2.1M distinct
    # values per axis, and 2.1M^3 keys do not fit in int64
    pts = np.repeat(3 * np.arange(700_000, dtype=np.int64)[:, None], 3, axis=1)
    with pytest.raises(tx.ParseError, match="too spread out"):
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


def _capped_tube_facets():
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:12,A:8:60,S:6"), 3.0, 1.0,
                          cap_ends=True)
    return tx.digital_surface_faces(tx.voxelize(mesh, 1.0))


def _assert_equal_up_to_sign(v, w, tol):
    err = np.minimum(np.abs(v - w).max(axis=1), np.abs(v + w).max(axis=1))
    assert err.max() <= tol


@pytest.fixture()
def eigh_rows(monkeypatch):
    """The number of matrices of each np.linalg.eigh call, in call order."""
    rows, eigh = [], np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        rows.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return rows


@pytest.mark.parametrize("facets,radius,fallback", [
    # the tube's two smallest eigenvalues are always apart; the mixed
    # voxels' rods and corners give rank-deficient covariances too
    *(pytest.param(_capped_tube_facets, r, False, id=f"tube-{r}") for r in (2.0, 3.0)),
    *(pytest.param(lambda: tx.digital_surface_faces(tx.VoxelSet(_mixed_voxels())), r,
                   None, id=f"mixed-{r}") for r in (0.9, 1.0, 1.6, 2.5)),
])
def test_closed_form_eigenvectors_agree_with_eigh(eigh_rows, facets, radius, fallback):
    fs = facets()
    est = tx.estimate_digital_normals(fs, radius)
    if fallback is False:
        assert eigh_rows == []
    cov, _ = _facet_covariances(fs, radius)
    _assert_equal_up_to_sign(normals._least_eigenvector(cov),
                             np.linalg.eigh(cov)[1][:, :, 0], 1e-12)
    _assert_equal_up_to_sign(est.normals, _normals_by_facet_eigh(fs, radius), 1e-12)


def _line_of_facets(direction, n=5):
    centers = np.arange(n)[:, None] * np.asarray(direction, dtype=float)
    return tx.OrientedFaceSet(centers, np.tile([0.0, 0.0, 1.0], (n, 1)))


@pytest.mark.parametrize("faces,radius", [
    # every facet sees all the others: rank-1, isotropic and zero covariances
    (_line_of_facets([1, 0, 0]), 10.0),
    (_line_of_facets([0.3, -1.7, 2.9]), 20.0),
    (tx.OrientedFaceSet(np.vstack([np.eye(3), -np.eye(3)]),
                        np.vstack([np.eye(3), -np.eye(3)])), 2.5),
    (tx.OrientedFaceSet(np.tile([1.5, -2.0, 3.0], (4, 1)),
                        np.tile([0.0, 1.0, 0.0], (4, 1))), 1.0),
], ids=["collinear", "collinear-oblique", "isotropic", "zero"])
def test_rank_deficient_covariances_take_eigh(eigh_rows, faces, radius):
    est = tx.estimate_digital_normals(faces, radius)
    assert eigh_rows == [len(faces)]
    assert np.array_equal(est.normals, _normals_by_facet_eigh(faces, radius))


# past about 1e+-77 the squared lengths of the cross products overflow or
# underflow, and eigh must take the row
_PSD_SCALES = (1e-90, 1e-6, 1.0, 1e6, 1e90)
_GAPS = (0.0, 1e-15, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 1.0)


@settings(max_examples=300)
@given(quaternion=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       smallest=st.floats(0.0, 1.0),
       gap=st.one_of(st.sampled_from(_GAPS), st.floats(0.0, 1.0)),
       spread=st.one_of(st.sampled_from(_GAPS), st.floats(0.0, 1.0)),
       scale=st.sampled_from(_PSD_SCALES))
def test_closed_form_eigenvector_of_random_psd_matrices(quaternion, smallest, gap,
                                                        spread, scale):
    # rotated diag(l1, l2, l3), with l2 - l1 down to 0 and l3 - l2 as well
    if np.linalg.norm(quaternion) < 1e-3:
        quaternion = (1.0, 0.0, 0.0, 0.0)
    rot = quaternion_rotation(quaternion)
    values = scale * np.array([smallest, smallest + gap, smallest + gap + spread])
    cov = rot @ np.diag(values) @ rot.T
    cov = 0.5 * (cov + cov.T)
    v = normals._least_eigenvector(cov[None])[0]
    lam, vecs = np.linalg.eigh(cov)
    top = np.abs(lam).max()
    assert np.all(np.isfinite(v))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert np.linalg.norm(cov @ v - lam[0] * v) <= 1e-12 * top
    rel_gap = (lam[1] - lam[0]) / top if top > 0 else 0.0
    if rel_gap < 0.5 * normals._MIN_GAP:
        assert np.array_equal(v, vecs[:, 0])  # eigh's own vector
    elif rel_gap > 2 * normals._MIN_GAP:
        _assert_equal_up_to_sign(v[None], vecs[:, :1].T, 1e-13 / rel_gap)


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


def _ball_neighbourhoods_by_brute_force(pts, radius):
    """Reference: every pair tested as d^2 <= radius^2, O(n^2), in the
    arithmetic of _ball_neighbourhoods (coordinate differences squared,
    summed over x, y, z from zero)."""
    d2 = np.zeros((len(pts), len(pts)))
    for axis in range(3):
        delta = pts[None, :, axis] - pts[:, None, axis]
        d2 += delta * delta
    near = d2 <= radius * radius
    return near.sum(axis=1), np.nonzero(near)[1]


def _posed_voxel_surfaces(rng):
    """Facet centers of random voxel blobs, each moved by a random proper
    axis rotation and an integer translation of up to 1e6 per axis."""
    for _ in range(4):
        pts = rng.integers(-3, 4, size=(rng.integers(20, 120), 3))
        rot = np.eye(3, dtype=np.int64)[rng.permutation(3)] * rng.choice([-1, 1], size=3)
        rot[0] *= round(np.linalg.det(rot))
        shift = rng.integers(-10 ** 6, 10 ** 6 + 1, size=3)
        yield tx.digital_surface_faces(tx.VoxelSet(pts @ rot.T + shift)).centers


def _ball_layouts(layout):
    """(centers, radius) pairs of one layout for the brute-force check."""
    rng = np.random.default_rng(30)
    if layout == "posed-voxels":
        return [(c, r) for c in _posed_voxel_surfaces(rng) for r in (0.6, 1.0, 2.5, 4.0)]
    if layout == "mesh-centers":
        # the --normals estimate path: exact face centers at max(2, R/2),
        # at their place and moved by a float translation of up to 1e6
        mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:6,A:5:60"), 2.0, 0.8)
        centers = tx.face_normals(mesh).centers
        return [(centers, 2.0), (centers + rng.uniform(-1e6, 1e6, size=3), 2.0)]
    if layout == "one-cell":
        pts = rng.uniform(0.0, 1.9, size=(300, 3))
        return [(np.vstack([pts, pts[:20]]), 4.0)]
    # one point per cell: lattice steps of 1 are longer than the cells
    pts = np.indices((9, 8, 7)).reshape(3, -1).T + rng.uniform(-0.02, 0.02, size=(504, 3))
    return [(pts, 1.9)]


@pytest.mark.parametrize("layout", ["posed-voxels", "mesh-centers", "one-cell",
                                    "one-point-per-cell"])
def test_ball_neighbourhoods_match_brute_force(layout):
    for pts, radius in _ball_layouts(layout):
        counts, members = _ball_neighbourhoods(pts, radius)
        want_counts, want_members = _ball_neighbourhoods_by_brute_force(pts, radius)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(members, want_members)
        cells = len(np.unique(CellHash(pts, 0.5 * radius * (1 + normals._CELL_MARGIN)).keys))
        assert cells == {"one-cell": 1, "one-point-per-cell": len(pts)}.get(layout, cells)


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
                            random_unit_vectors(rng, 4))
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
    sheet = tx.OrientedFaceSet(centers, normals)
    params = _probe_params(3.0)
    votes = [count_peak(f, params).max_acc for f in (sheet, sheet.flipped())]
    assert votes == [tx.compute_accumulation(sheet, params).max_acc] * 2
    with pytest.raises(tx.SeedInvalid, match="ties at .* votes at radius 3; the tube "
                       "radius may be wrong"):
        tx.orient_inward(sheet, mode="auto", radius=3.0)


def _probe_params(radius):
    """The lattice orient_inward probes on."""
    return tx.AccumulationParams(radius=radius, epsilon=0.0, gridstep=radius / 3.0)


def _conftest_tube(name, request):
    """(faces, radius) of a conftest tube, oriented inward."""
    if name == "capped_voxel_pipe":
        return capped_voxel_pipe(), 3.0
    if name == "cylinder":
        case = request.getfixturevalue("cylinder")
        return case.faces, case.radius
    case = request.getfixturevalue(name)
    return case["faces"], case["radius"]


@pytest.mark.parametrize("tube", ["cylinder", "bent_pipe", "capped_voxel_pipe"])
def test_probe_count_is_the_accumulation_maximum(tube, request):
    faces, radius = _conftest_tube(tube, request)
    for params in (_probe_params(radius), tx.AccumulationParams(radius=radius)):
        for f in (faces, faces.flipped()):
            want = tx.compute_accumulation(f, params).max_acc
            assert count_peak(f, params).max_acc == want


def test_probe_count_with_ids_past_int32():
    # a face at the origin and two alike at the far corner of a domain of
    # more than 2**31 voxels: the fullest voxel's id does not fit int32
    centers = np.array([[0.0, 0.0, 0.0], [2000.0, 2000.0, 1000.0],
                        [2000.0, 2000.0, 1000.0]])
    faces = tx.OrientedFaceSet(centers, np.tile([0.0, 0.0, -1.0], (3, 1)))
    params = tx.AccumulationParams(radius=3.0, gridstep=1.0)
    assert accumulation_domain(faces.centers, params).voxel_count > 2 ** 31
    assert count_peak(faces, params).max_acc == 2
    assert tx.compute_accumulation(faces, params).max_acc == 2


@pytest.fixture()
def group_events_calls(monkeypatch):
    """The number of events of each accumulate._group_events call, in
    call order."""
    calls, group_events = [], accumulate._group_events

    def counting_group_events(ids, voxel_count):
        calls.append(np.size(ids))
        return group_events(ids, voxel_count)

    monkeypatch.setattr(accumulate, "_group_events", counting_group_events)
    return calls


def test_orientation_probe_groups_no_events(group_events_calls, bent_pipe):
    faces, radius = bent_pipe["faces"], bent_pipe["radius"]
    for f in (faces, faces.flipped()):
        oriented = tx.orient_inward(f, mode="auto", radius=radius)
        assert oriented.normals.tobytes() == faces.normals.tobytes()
    assert group_events_calls == []
    tx.compute_accumulation(faces, bent_pipe["params"])
    assert len(group_events_calls) == 1


def test_orient_auto_needs_the_radius():
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:20"), 3.0, 1.0)
    with pytest.raises(ValueError, match="needs the tube radius"):
        tx.orient_inward(tx.face_normals(mesh), mode="auto")
