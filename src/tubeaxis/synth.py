"""Synthetic tube generation, degradation and resampling.

gen_tube builds ground-truth tubes from piecewise straight/arc specs with a
tangent-continuous centerline, so every downstream stage can be checked
against known geometry. degrade simulates acquisition defects (noise,
one-sided scans, missing sectors, holes); voxelize and render_heightmap
turn meshes into the other two supported input kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import frame_from_direction, normalize
from .errors import NotClosed, SelfIntersecting, TooSmall, check_setting
from .ingest import HeightMap, TriMesh, VoxelSet

_SCAN_PAIRS = 1 << 16  # pixel-face pairs one chunk of _scan_triangles tests
# pixel-centre offsets, in steps, that keep the centres off exact edge and
# vertex alignments
_JITTER = (1.000000173e-4, 1.000000311e-4)


@dataclass(frozen=True)
class Straight:
    length: float


@dataclass(frozen=True)
class Arc:
    """Circular bend of given radius and angle; turn rotates the bending
    plane about the incoming tangent (0 keeps bending toward the current
    first frame normal)."""

    radius: float
    angle: float
    turn: float = 0.0


@dataclass
class TubeTruth:
    """Analytic centerline shipped with a generated tube."""

    points: np.ndarray      # ring centers
    tangents: np.ndarray    # unit tangents at the rings
    kinds: list             # per-point "S" or "A"
    junctions: list         # point indices at internal segment boundaries


def _rodrigues(vec, axis, angle):
    axis = normalize(axis)
    c, s = math.cos(angle), math.sin(angle)
    return (vec * c + np.cross(axis, vec) * s + axis * np.dot(axis, vec) * (1 - c))


def gen_tube(segments, radius, mesh_step, cap_ends=False):
    """Generate a tube mesh plus its ground truth.

    Parameters
    ----------
    segments : sequence of Straight / Arc specs
    radius : tube (cross-section) radius
    mesh_step : target spacing of rings and of vertices around each ring
    cap_ends : close both ends with triangle fans (needed for voxelization,
        which requires a watertight surface)

    Returns
    -------
    (TriMesh, TubeTruth)
    """
    if not segments:
        raise TooSmall("tube spec is empty")
    check_setting("radius", radius)
    check_setting("mesh_step", mesh_step)
    for seg in segments:
        if isinstance(seg, Arc) and seg.radius <= radius:
            raise SelfIntersecting(
                f"arc radius {seg.radius} must exceed tube radius {radius}")

    # the axis starts at the origin along +x, with +y/+z ring normals
    p = np.zeros(3)
    t = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])

    points = [p.copy()]
    tangents = [t.copy()]
    frames_u = [u.copy()]
    frames_v = [v.copy()]
    kinds = [("S" if isinstance(segments[0], Straight) else "A")]
    junctions = []

    for si, seg in enumerate(segments):
        if isinstance(seg, Straight):
            n = max(1, round(seg.length / mesh_step))
            for i in range(1, n + 1):
                points.append(p + t * (seg.length * i / n))
                tangents.append(t.copy())
                frames_u.append(u.copy())
                frames_v.append(v.copy())
                kinds.append("S")
            p = points[-1]
        else:
            m = math.cos(seg.turn) * u + math.sin(seg.turn) * v
            center = p + seg.radius * m
            rot_axis = np.cross(t, m)
            n = max(2, round(seg.radius * abs(seg.angle) / mesh_step))
            for i in range(1, n + 1):
                phi = seg.angle * i / n
                points.append(center + seg.radius * (-m * math.cos(phi) + t * math.sin(phi)))
                tangents.append(_rodrigues(t, rot_axis, phi))
                frames_u.append(_rodrigues(u, rot_axis, phi))
                frames_v.append(_rodrigues(v, rot_axis, phi))
                kinds.append("A")
            p = points[-1]
            t = tangents[-1]
            u = frames_u[-1]
            v = frames_v[-1]
        if si < len(segments) - 1:
            junctions.append(len(points) - 1)

    points = np.asarray(points)
    tangents = np.asarray(tangents)
    truth = TubeTruth(points, tangents, kinds, junctions)

    nsides = max(3, round(2 * math.pi * radius / mesh_step))
    nrings = len(points)
    vertices = _ring_vertices(points, np.asarray(frames_u), np.asarray(frames_v), radius,
                              nsides)
    faces = _band_faces(nrings, nsides, closed=False)

    if cap_ends:
        c0 = len(vertices)
        c1 = c0 + 1
        vertices = np.vstack([vertices, points[0], points[-1]])
        last = (nrings - 1) * nsides
        j = np.arange(nsides)
        jn = (j + 1) % nsides
        start_cap = np.column_stack([np.full(nsides, c0), jn, j])
        end_cap = np.column_stack([np.full(nsides, c1), last + j, last + jn])
        faces = np.concatenate([faces, start_cap, end_cap])
    return TriMesh(vertices, faces), truth


def _ring_vertices(points, us, vs, radius, nsides):
    """Vertices of one circle of nsides per ring, ring-major: ring k is
    points[k] + radius (cos theta u[k] + sin theta v[k])."""
    theta = 2 * math.pi * np.arange(nsides) / nsides
    rings = (np.cos(theta)[:, None] * us[:, None, :]
             + np.sin(theta)[:, None] * vs[:, None, :])
    return (points[:, None, :] + radius * rings).reshape(-1, 3)


def _band_faces(nrings, nsides, closed):
    """Two triangles per quad between consecutive rings of _ring_vertices,
    wound so cross products face outward; closed also joins the last ring
    to the first. Each band lists its (a, b, d) triangles, then (b, c, d)."""
    j = np.arange(nsides)
    k = np.arange(nrings if closed else nrings - 1)[:, None]
    here = k * nsides
    there = (k + 1) % nrings * nsides
    a, b = here + j, here + (j + 1) % nsides
    c, d = there + (j + 1) % nsides, there + j
    return np.stack([np.stack([a, b, d], axis=-1), np.stack([b, c, d], axis=-1)],
                    axis=1).reshape(-1, 3)


def degrade(mesh, mode, seed=0, sigma=None, view_dir=None, angle_range=None,
            axis_point=None, axis_dir=None, count=None, radius=None):
    """Apply one acquisition defect to a mesh; deterministic given seed.

    Modes: "noise" (per-vertex Gaussian displacement of scale sigma),
    "partial-scan" (keep faces whose outward normal opposes view_dir),
    "sector-removal" (drop faces whose angular coordinate about the given
    axis falls inside angle_range, radians), "holes" (remove all faces
    within radius of count random face centers).
    """
    rng = np.random.default_rng(seed)
    if mode == "noise":
        if sigma is None:
            raise ValueError("noise mode needs sigma")
        if sigma == 0:
            return TriMesh(mesh.vertices.copy(), mesh.faces.copy())
        verts = mesh.vertices + rng.normal(0.0, sigma, mesh.vertices.shape)
        return TriMesh(verts, mesh.faces.copy())

    if mode == "partial-scan":
        if view_dir is None:
            raise ValueError("partial-scan mode needs view_dir")
        view = normalize(np.asarray(view_dir, dtype=float))
        keep = mesh.geometry().cross @ view < 0
        return _submesh(mesh, keep)

    if mode == "sector-removal":
        if angle_range is None or axis_point is None or axis_dir is None:
            raise ValueError("sector-removal needs angle_range, axis_point, axis_dir")
        axis = normalize(np.asarray(axis_dir, dtype=float))
        frame = frame_from_direction(axis)
        rel = mesh.geometry().centers - np.asarray(axis_point, dtype=float)
        rel -= np.outer(rel @ axis, axis)
        ang = np.arctan2(rel @ frame.v, rel @ frame.u) % (2 * math.pi)
        lo, hi = (angle_range[0] % (2 * math.pi), angle_range[1] % (2 * math.pi))
        if lo <= hi:
            drop = (ang >= lo) & (ang <= hi)
        else:
            drop = (ang >= lo) | (ang <= hi)
        return _submesh(mesh, ~drop)

    if mode == "holes":
        if count is None or radius is None:
            raise ValueError("holes mode needs count and radius")
        centers = mesh.geometry().centers
        picks = rng.choice(len(centers), size=min(count, len(centers)), replace=False)
        keep = np.ones(len(centers), dtype=bool)
        for pi in picks:
            keep &= np.linalg.norm(centers - centers[pi], axis=1) > radius
        return _submesh(mesh, keep)

    raise ValueError(f"unknown degradation mode {mode!r}")


def _submesh(mesh, face_mask):
    """Faces under the mask, with unreferenced vertices dropped."""
    faces = mesh.faces[face_mask]
    used = np.unique(faces)
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriMesh(mesh.vertices[used], remap[faces])


def _scan_triangles(depth, u, v, origin, step, shape, offset):
    """Every lattice pixel centre that a triangle covers, as (i, j, depth).

    depth, u and v are the (F, 3) corner coordinates of the faces along
    the view axis and the two plane axes. Pixel (i, j), 0 <= (i, j) < shape,
    has its centre at origin + ((i, j) + offset) step, moved by _JITTER
    steps off exact edge and vertex alignments. Each face tests the pixel
    centres of its bounding box by a barycentric solve and gives one hit
    per centre inside, with its depth interpolated; a face whose projection
    has |det| < 1e-30 covers nothing. Faces are taken in chunks of about
    _SCAN_PAIRS pixel-face pairs.
    """
    (u0, u1, u2), (v0, v1, v2), (d0, d1, d2) = u.T, v.T, depth.T
    det = (u1 - u0) * (v2 - v0) - (u2 - u0) * (v1 - v0)
    box = []  # per axis, the first pixel of each face's box and its size
    for c0, c1, c2, o, n in ((u0, u1, u2, origin[0], shape[0]),
                             (v0, v1, v2, origin[1], shape[1])):
        first = np.maximum(np.floor((np.minimum(np.minimum(c0, c1), c2) - o) / step - offset), 0)
        last = np.minimum(np.ceil((np.maximum(np.maximum(c0, c1), c2) - o) / step - offset), n - 1)
        box += [first.astype(np.int64), (last - first + 1).astype(np.int64)]
    i0, ni, j0, nj = box
    faces = np.flatnonzero((ni > 0) & (nj > 0) & ~(np.abs(det) < 1e-30))
    count = ni[faces] * nj[faces]
    end = np.cumsum(count)
    eps_u, eps_v = step * _JITTER[0], step * _JITTER[1]
    hits = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    start = 0
    while start < len(faces):
        stop = np.searchsorted(end, end[start] - count[start] + _SCAN_PAIRS, side="right")
        stop = max(start + 1, int(stop))
        n = count[start:stop]
        f = np.repeat(faces[start:stop], n)
        r = np.arange(len(f)) - np.repeat(np.cumsum(n) - n, n)
        ii = i0[f] + r // nj[f]
        jj = j0[f] + r % nj[f]
        a_u, a_v = u0[f], v0[f]
        # the pixel centre relative to corner 0
        pu = origin[0] + (ii + offset) * step + eps_u - a_u
        pv = origin[1] + (jj + offset) * step + eps_v - a_v
        w1 = (pu * (v2[f] - a_v) - (u2[f] - a_u) * pv) / det[f]
        w2 = ((u1[f] - a_u) * pv - pu * (v1[f] - a_v)) / det[f]
        inside = (w1 >= 0) & (w2 >= 0) & (w1 + w2 <= 1)
        f, w1, w2 = f[inside], w1[inside], w2[inside]
        hits.append((ii[inside], jj[inside],
                     d0[f] + w1 * (d1[f] - d0[f]) + w2 * (d2[f] - d0[f])))
        start = stop
    return tuple(np.concatenate(x) for x in zip(*hits))


def voxelize(mesh, gridstep) -> VoxelSet:
    """Interior voxels of a closed mesh by parity ray casting along x.

    Every voxel row (fixed y, z) shoots a ray through the mesh; voxels whose
    centers lie behind an odd number of surface crossings are interior. Rows
    with an odd total crossing count indicate an open surface; more than
    0.1% of such rows raises NotClosed.

    The returned set lives on its own lattice; its origin/gridstep fields
    map lattice coordinates back to mesh world coordinates.
    """
    lo, hi = mesh.bounding_box()
    origin = lo - gridstep
    dims = np.ceil((hi - lo + 2 * gridstep) / gridstep).astype(int)
    nx, ny, nz = (int(d) for d in dims)

    x, y, z = (mesh.vertices[:, axis][mesh.faces] for axis in range(3))
    jj, kk, xhit = _scan_triangles(x, y, z, origin[1:], gridstep, (ny, nz), 0.5)
    rows = jj * nz + kk
    # first voxel center strictly beyond the crossing
    i0 = np.clip(np.floor((xhit - origin[0]) / gridstep - 0.5).astype(int) + 1, 0, nx)
    # parity needs one bit: uint8 sums wrap at 256, which is even
    hit_delta = np.zeros((nx + 1, ny * nz), dtype=np.uint8)
    hit_count = np.zeros(ny * nz, dtype=np.int64)
    np.add.at(hit_delta, (i0, rows), 1)
    np.add.at(hit_count, rows, 1)

    active = hit_count > 0
    odd_rows = int(((hit_count % 2 == 1) & active).sum())
    if active.any() and odd_rows > 0.001 * int(active.sum()):
        raise NotClosed(f"{odd_rows} of {int(active.sum())} rows have odd crossing parity")

    parity = np.cumsum(hit_delta[:nx], axis=0, dtype=np.uint8)
    parity &= 1
    idx = np.argwhere(parity.reshape(nx, ny, nz))
    if len(idx) == 0:
        raise NotClosed("parity casting found no enclosed volume")
    return VoxelSet(idx, origin=origin, gridstep=gridstep)


def render_heightmap(mesh, view_axis="z", resolution=1.0) -> HeightMap:
    """Top-surface height field of a mesh seen along an axis.

    view_axis in {"x","y","z"}: heights are the maximal coordinate along
    that axis per pixel; pixels the mesh never covers take the minimum
    height (a flat floor).
    """
    axis = {"x": 0, "y": 1, "z": 2}[view_axis]
    others = [i for i in range(3) if i != axis]
    verts2 = mesh.vertices[:, others]
    lo = verts2.min(axis=0)
    hi = verts2.max(axis=0)
    w = int(np.ceil((hi[0] - lo[0]) / resolution)) + 1
    h = int(np.ceil((hi[1] - lo[1]) / resolution)) + 1

    depth, u, v = (mesh.vertices[:, c][mesh.faces] for c in [axis] + others)
    ii, jj, z = _scan_triangles(depth, u, v, lo, resolution, (w, h), 0.0)
    heights = np.full((w, h), -np.inf)
    np.maximum.at(heights, (ii, jj), z)

    covered = np.isfinite(heights)
    if not covered.any():
        raise TooSmall("mesh projects onto no pixel")
    floor = heights[covered].min()
    heights = np.where(covered, heights, floor)
    return HeightMap(w, h, heights, spacing=resolution, origin=(float(lo[0]), float(lo[1])))


def parse_tube_spec(text):
    """Parse compact tube specs like "S:30,A:15:90,S:30".

    S:<length> is a straight run; A:<radius>:<angle_deg>[:<turn_deg>] is an
    arc. Angles are degrees in the text, radians in the result.
    """
    segments = []
    for part in text.split(","):
        fields = part.strip().split(":")
        tag = fields[0].upper()
        if tag == "S" and len(fields) == 2:
            segments.append(Straight(float(fields[1])))
        elif tag == "A" and len(fields) in (3, 4):
            turn = math.radians(float(fields[3])) if len(fields) == 4 else 0.0
            segments.append(Arc(float(fields[1]), math.radians(float(fields[2])), turn))
        else:
            raise ValueError(f"bad tube segment spec {part!r}")
    return segments
