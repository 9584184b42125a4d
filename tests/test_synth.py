"""Ground-truth tube generation, degradation, voxelization, height maps."""

import math
import tracemalloc

import numpy as np
import pytest

import tubeaxis as tx
from tubeaxis import synth


def _scan_per_face(depth, u, v, origin, step, shape, offset):
    """Reference for synth._scan_triangles: the per-face loop voxelize and
    render_heightmap each ran, with the same formulas in the same order,
    so either scan must give them the same bits."""
    eps_u, eps_v = step * 1.000000173e-4, step * 1.000000311e-4
    hits = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    for td, tu, tv in zip(depth, u, v):
        i0 = max(0, int(np.floor((tu.min() - origin[0]) / step - offset)))
        i1 = min(shape[0] - 1, int(np.ceil((tu.max() - origin[0]) / step - offset)))
        j0 = max(0, int(np.floor((tv.min() - origin[1]) / step - offset)))
        j1 = min(shape[1] - 1, int(np.ceil((tv.max() - origin[1]) / step - offset)))
        if i1 < i0 or j1 < j0:
            continue
        ii, jj = np.meshgrid(np.arange(i0, i1 + 1), np.arange(j0, j1 + 1), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        pu = origin[0] + (ii + offset) * step + eps_u
        pv = origin[1] + (jj + offset) * step + eps_v
        det = (tu[1] - tu[0]) * (tv[2] - tv[0]) - (tu[2] - tu[0]) * (tv[1] - tv[0])
        if abs(det) < 1e-30:
            continue
        w1 = ((pu - tu[0]) * (tv[2] - tv[0]) - (tu[2] - tu[0]) * (pv - tv[0])) / det
        w2 = ((tu[1] - tu[0]) * (pv - tv[0]) - (pu - tu[0]) * (tv[1] - tv[0])) / det
        inside = (w1 >= 0) & (w2 >= 0) & (w1 + w2 <= 1)
        z = td[0] + w1[inside] * (td[1] - td[0]) + w2[inside] * (td[2] - td[0])
        hits.append((ii[inside], jj[inside], z))
    return tuple(np.concatenate(x) for x in zip(*hits))


def _rings_per_ring(points, us, vs, radius, nsides):
    """Reference for synth._ring_vertices: one ring at a time."""
    theta = 2 * math.pi * np.arange(nsides) / nsides
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    return np.concatenate([p + radius * (np.outer(cos_t, u) + np.outer(sin_t, v))
                           for p, u, v in zip(points, us, vs)])


def _bands_per_ring(nrings, nsides, closed):
    """Reference for synth._band_faces: one band of quads at a time."""
    j = np.arange(nsides)
    jn = (j + 1) % nsides
    faces = []
    for k in range(nrings if closed else nrings - 1):
        k2 = (k + 1) % nrings
        a, b, c, d = k * nsides + j, k * nsides + jn, k2 * nsides + jn, k2 * nsides + j
        faces += [np.column_stack([a, b, d]), np.column_stack([b, c, d])]
    return np.concatenate(faces)


def _small_capped_tube():
    segs = tx.parse_tube_spec("S:12,A:9:100:40,S:8")
    return tx.gen_tube(segs, radius=3.0, mesh_step=0.7, cap_ends=True)[0]


def test_gen_tube_counts_and_truth():
    mesh, truth = tx.gen_tube([tx.Straight(12.0)], radius=2.0, mesh_step=1.0)
    nsides = round(2 * math.pi * 2.0 / 1.0)  # 13
    nrings = 13  # start ring + 12 steps
    assert mesh.n_vertices == nrings * nsides
    assert mesh.n_faces == 2 * (nrings - 1) * nsides
    assert len(truth.points) == nrings
    assert truth.junctions == []
    assert np.allclose(truth.tangents, [1.0, 0, 0])


def test_vertices_lie_on_the_tube_surface():
    segs = [tx.Straight(10.0), tx.Arc(8.0, math.pi / 2), tx.Straight(5.0)]
    mesh, truth = tx.gen_tube(segs, radius=2.0, mesh_step=0.7)
    nsides = round(2 * math.pi * 2.0 / 0.7)
    rings = mesh.vertices.reshape(len(truth.points), nsides, 3)
    for k in range(len(truth.points)):
        rel = rings[k] - truth.points[k]
        assert np.allclose(np.linalg.norm(rel, axis=1), 2.0, atol=1e-9)
        assert np.allclose(rel @ truth.tangents[k], 0.0, atol=1e-9)


def test_junction_indices_split_kinds():
    segs = [tx.Straight(9.0), tx.Arc(6.0, math.pi / 2), tx.Straight(9.0)]
    _, truth = tx.gen_tube(segs, radius=1.5, mesh_step=1.0)
    j0, j1 = truth.junctions
    assert truth.kinds[j0] == "S" and truth.kinds[j0 + 1] == "A"
    assert truth.kinds[j1] == "A" and truth.kinds[j1 + 1] == "S"


@pytest.mark.parametrize("spec, cap_ends", [
    ("S:12", False), ("S:12", True), ("S:10,A:8:90,S:5", True), ("A:10:120:40,S:6", False)])
def test_gen_tube_matches_the_per_ring_mesher(monkeypatch, spec, cap_ends):
    segs = tx.parse_tube_spec(spec)
    mesh, _ = tx.gen_tube(segs, radius=2.0, mesh_step=0.7, cap_ends=cap_ends)
    monkeypatch.setattr(synth, "_ring_vertices", _rings_per_ring)
    monkeypatch.setattr(synth, "_band_faces", _bands_per_ring)
    ref, _ = tx.gen_tube(segs, radius=2.0, mesh_step=0.7, cap_ends=cap_ends)
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.faces.tobytes() == ref.faces.tobytes()


def test_arc_radius_must_exceed_tube_radius():
    with pytest.raises(tx.SelfIntersecting):
        tx.gen_tube([tx.Arc(2.0, math.pi)], radius=2.0, mesh_step=0.5)


def test_empty_spec_rejected():
    with pytest.raises(tx.TooSmall):
        tx.gen_tube([], radius=1.0, mesh_step=0.5)


def test_cap_ends_adds_two_fans():
    open_mesh, _ = tx.gen_tube([tx.Straight(6.0)], radius=2.0, mesh_step=1.0)
    capped, _ = tx.gen_tube([tx.Straight(6.0)], radius=2.0, mesh_step=1.0,
                            cap_ends=True)
    nsides = round(2 * math.pi * 2.0 / 1.0)
    assert capped.n_vertices == open_mesh.n_vertices + 2
    assert capped.n_faces == open_mesh.n_faces + 2 * nsides


def test_turn_rotates_the_bending_plane():
    _, flat = tx.gen_tube([tx.Arc(10.0, math.pi / 2)], radius=1.0,
                          mesh_step=0.5)
    _, turned = tx.gen_tube([tx.Arc(10.0, math.pi / 2, turn=math.pi / 2)],
                            radius=1.0, mesh_step=0.5)
    assert np.allclose(flat.points[:, 2], 0.0, atol=1e-9)    # bends in xy
    assert np.allclose(turned.points[:, 1], 0.0, atol=1e-9)  # bends in xz
    assert turned.points[-1][2] > 5.0


def test_noise_is_seeded_and_scaled():
    mesh, _ = tx.gen_tube([tx.Straight(8.0)], radius=2.0, mesh_step=1.0)
    a = tx.degrade(mesh, "noise", seed=5, sigma=0.1)
    b = tx.degrade(mesh, "noise", seed=5, sigma=0.1)
    c = tx.degrade(mesh, "noise", seed=6, sigma=0.1)
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)
    assert np.array_equal(a.faces, mesh.faces)
    zero = tx.degrade(mesh, "noise", seed=5, sigma=0.0)
    assert np.array_equal(zero.vertices, mesh.vertices)


def test_partial_scan_keeps_roughly_half():
    mesh, _ = tx.gen_tube([tx.Straight(30.0)], radius=3.0, mesh_step=1.0)
    part = tx.degrade(mesh, "partial-scan", view_dir=np.array([0.0, 0, -1.0]))
    frac = part.n_faces / mesh.n_faces
    assert 0.4 <= frac <= 0.6
    # every kept face looks toward the viewer
    fs = tx.face_normals(part)
    assert np.all(fs.centers[:, 2] >= -0.5)


def test_sector_removal_cuts_angular_range():
    mesh, _ = tx.gen_tube([tx.Straight(20.0)], radius=3.0, mesh_step=1.0)
    cut = tx.degrade(mesh, "sector-removal", angle_range=(0.0, math.pi / 2),
                     axis_point=np.zeros(3), axis_dir=np.array([1.0, 0, 0]))
    assert cut.n_faces < mesh.n_faces
    fs = tx.face_normals(cut)
    frame = tx.frame_from_direction(np.array([1.0, 0, 0]))
    ang = np.arctan2(fs.centers @ frame.v, fs.centers @ frame.u) % (2 * math.pi)
    inside = (ang > 0.1) & (ang < math.pi / 2 - 0.1)
    assert not inside.any()


def test_holes_remove_patches():
    mesh, _ = tx.gen_tube([tx.Straight(30.0)], radius=3.0, mesh_step=1.0)
    holed = tx.degrade(mesh, "holes", seed=2, count=4, radius=2.0)
    assert holed.n_faces < mesh.n_faces
    again = tx.degrade(mesh, "holes", seed=2, count=4, radius=2.0)
    assert np.array_equal(holed.faces, again.faces)


def test_degrade_rejects_unknown_mode_and_missing_args():
    mesh, _ = tx.gen_tube([tx.Straight(5.0)], radius=1.0, mesh_step=0.5)
    with pytest.raises(ValueError):
        tx.degrade(mesh, "smudge")
    with pytest.raises(ValueError):
        tx.degrade(mesh, "noise")  # sigma missing


def test_voxelize_fills_the_tube_volume():
    mesh, _ = tx.gen_tube([tx.Straight(60.0)], radius=6.0, mesh_step=2.0,
                          cap_ends=True)
    vol = tx.voxelize(mesh, gridstep=1.0)
    expected = math.pi * 36.0 * 60.0  # pi r^2 L / g^3
    assert abs(len(vol.points) - expected) / expected < 0.05
    world = vol.to_world(vol.points + 0.5)  # voxel centers
    assert np.all(np.linalg.norm(world[:, 1:], axis=1) < 6.0 + 1.0)


def test_voxelize_requires_watertight_mesh():
    mesh, _ = tx.gen_tube([tx.Straight(20.0)], radius=4.0, mesh_step=1.0)
    with pytest.raises(tx.NotClosed):
        tx.voxelize(mesh, gridstep=1.0)


def _same_voxels(a, b):
    return (a.points.tobytes() == b.points.tobytes()
            and a.origin.tobytes() == b.origin.tobytes())


@pytest.mark.parametrize("spec, radius, mesh_step, gridstep", [
    ("S:240,A:40:90,S:240", 8.0, 1.0, 1.0),  # the voxel_pipe benchmark input
    ("S:12,A:9:100:40,S:8", 3.0, 0.7, 0.6)])
def test_voxelize_matches_the_per_face_scan(monkeypatch, spec, radius, mesh_step, gridstep):
    mesh, _ = tx.gen_tube(tx.parse_tube_spec(spec), radius, mesh_step, cap_ends=True)
    vol = tx.voxelize(mesh, gridstep)
    monkeypatch.setattr(synth, "_scan_triangles", _scan_per_face)
    assert _same_voxels(vol, tx.voxelize(mesh, gridstep))


def test_voxelize_parity_takes_a_byte_per_lattice_voxel():
    # the voxel_pipe benchmark tube: a 290 x 290 x 18 lattice box; int64
    # crossing deltas, their cumsum and its parity took 24 bytes a voxel
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:240,A:40:90,S:240"), 8.0, 1.0,
                          cap_ends=True)
    tracemalloc.start()
    try:
        vol = tx.voxelize(mesh, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    box = 290 * 290 * 18
    assert len(vol.points) == 112_520
    assert peak < 12 * box


def test_voxelize_skips_faces_seen_edge_on():
    mesh = _small_capped_tube()
    # a face in the y = z plane containing the x direction: det is exactly 0
    extra = np.array([[1.0, 0.0, 0.0], [5.0, 0.0, 0.0], [2.0, 1.0, 1.0]])
    n = mesh.n_vertices
    edge_on = tx.TriMesh(np.vstack([mesh.vertices, extra]),
                         np.vstack([mesh.faces, [[n, n + 1, n + 2]]]))
    assert _same_voxels(tx.voxelize(edge_on, 0.6), tx.voxelize(mesh, 0.6))


def test_scan_chunks_do_not_change_the_bits(monkeypatch):
    mesh = _small_capped_tube()
    vol = tx.voxelize(mesh, 0.6)
    maps = [tx.render_heightmap(mesh, axis, 0.45) for axis in "xyz"]
    monkeypatch.setattr(synth, "_SCAN_PAIRS", 5)
    assert _same_voxels(vol, tx.voxelize(mesh, 0.6))
    for axis, hm in zip("xyz", maps):
        assert hm.heights.tobytes() == tx.render_heightmap(mesh, axis, 0.45).heights.tobytes()


@pytest.mark.parametrize("axis", "xyz")
def test_heightmap_matches_the_per_face_scan(monkeypatch, axis):
    mesh = _small_capped_tube()
    hm = tx.render_heightmap(mesh, axis, 0.45)
    monkeypatch.setattr(synth, "_scan_triangles", _scan_per_face)
    ref = tx.render_heightmap(mesh, axis, 0.45)
    assert hm.heights.tobytes() == ref.heights.tobytes()
    assert (hm.width, hm.height, hm.origin) == (ref.width, ref.height, ref.origin)


def test_heightmap_of_a_face_seen_edge_on_is_too_small():
    # projected along z the triangle is a segment: it covers no pixel
    verts = np.array([[0.0, 0, 0], [3.0, 0, 0], [0.0, 0, 2.0]])
    with pytest.raises(tx.TooSmall):
        tx.render_heightmap(tx.TriMesh(verts, [[0, 1, 2]]), view_axis="z")


def test_heightmap_of_flat_square():
    verts = np.array([[0.0, 0, 2.5], [8.0, 0, 2.5], [8.0, 8.0, 2.5],
                      [0.0, 8.0, 2.5]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    hm = tx.render_heightmap(tx.TriMesh(verts, faces), resolution=1.0)
    inner = hm.heights[2:-2, 2:-2]
    assert np.allclose(inner, 2.5, atol=1e-9)


def test_heightmap_sees_only_the_top():
    mesh, _ = tx.gen_tube([tx.Straight(20.0)], radius=4.0, mesh_step=0.5)
    hm = tx.render_heightmap(mesh, view_axis="z", resolution=1.0)
    assert hm.heights.max() == pytest.approx(4.0, abs=0.2)
    # the visible surface is the upper half: minimum stays near the equator
    assert hm.heights.min() >= -4.1


def test_parse_tube_spec_roundtrip():
    segs = tx.parse_tube_spec("S:30,A:15:90,S:30")
    assert segs == [tx.Straight(30.0), tx.Arc(15.0, math.pi / 2),
                    tx.Straight(30.0)]
    segs = tx.parse_tube_spec("A:10:180:90")
    assert segs[0].turn == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        tx.parse_tube_spec("Q:10")
    with pytest.raises(ValueError):
        tx.parse_tube_spec("S:")
