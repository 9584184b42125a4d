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
from .errors import NotClosed, SelfIntersecting, TooSmall
from .ingest import HeightMap, TriMesh, VoxelSet


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


def gen_tube(segments, radius, mesh_step, start=None, cap_ends=False):
    """Generate a tube mesh plus its ground truth.

    Parameters
    ----------
    segments : sequence of Straight / Arc specs
    radius : tube (cross-section) radius
    mesh_step : target spacing of rings and of vertices around each ring
    start : optional (point, tangent, normal1, normal2) start frame;
        defaults to origin, +x tangent, +y/+z normals
    cap_ends : close both ends with triangle fans (needed for voxelization,
        which requires a watertight surface)

    Returns
    -------
    (TriMesh, TubeTruth)
    """
    if not segments:
        raise TooSmall("tube spec is empty")
    if radius <= 0 or mesh_step <= 0:
        raise ValueError("radius and mesh_step must be positive")
    for seg in segments:
        if isinstance(seg, Arc) and seg.radius <= radius:
            raise SelfIntersecting(
                f"arc radius {seg.radius} must exceed tube radius {radius}")

    if start is None:
        p = np.zeros(3)
        t = np.array([1.0, 0.0, 0.0])
        u = np.array([0.0, 1.0, 0.0])
        v = np.array([0.0, 0.0, 1.0])
    else:
        p, t, u, v = (np.asarray(x, dtype=float) for x in start)

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
    theta = 2 * math.pi * np.arange(nsides) / nsides
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    nrings = len(points)
    vertices = np.empty((nrings * nsides, 3))
    for k in range(nrings):
        ring = (points[k]
                + radius * (np.outer(cos_t, frames_u[k]) + np.outer(sin_t, frames_v[k])))
        vertices[k * nsides:(k + 1) * nsides] = ring

    # quads between consecutive rings, wound so cross products face outward
    j = np.arange(nsides)
    jn = (j + 1) % nsides
    faces = []
    for k in range(nrings - 1):
        a = k * nsides + j
        b = k * nsides + jn
        c = (k + 1) * nsides + jn
        d = (k + 1) * nsides + j
        faces.append(np.column_stack([a, b, d]))
        faces.append(np.column_stack([b, c, d]))
    faces = np.concatenate(faces)

    if cap_ends:
        c0 = len(vertices)
        c1 = c0 + 1
        vertices = np.vstack([vertices, points[0], points[-1]])
        last = (nrings - 1) * nsides
        start_cap = np.column_stack([np.full(nsides, c0), jn, j])
        end_cap = np.column_stack([np.full(nsides, c1), last + j, last + jn])
        faces = np.concatenate([faces, start_cap, end_cap])
    return TriMesh(vertices, faces), truth


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
        a, b, c = mesh.corners()
        normals = np.cross(b - a, c - a)
        keep = normals @ view < 0
        return _submesh(mesh, keep)

    if mode == "sector-removal":
        if angle_range is None or axis_point is None or axis_dir is None:
            raise ValueError("sector-removal needs angle_range, axis_point, axis_dir")
        axis = normalize(np.asarray(axis_dir, dtype=float))
        frame = frame_from_direction(axis)
        a, b, c = mesh.corners()
        centers = (a + b + c) / 3.0
        rel = centers - np.asarray(axis_point, dtype=float)
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
        a, b, c = mesh.corners()
        centers = (a + b + c) / 3.0
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

    # jitter row coordinates off exact edge/vertex alignments
    eps_y = gridstep * 1.000000173e-4
    eps_z = gridstep * 1.000000311e-4

    a, b, c = mesh.corners()
    hit_delta = np.zeros((nx + 1, ny * nz), dtype=np.int64)
    hit_count = np.zeros(ny * nz, dtype=np.int64)

    for fa, fb, fc in zip(a, b, c):
        ys = np.array([fa[1], fb[1], fc[1]])
        zs = np.array([fa[2], fb[2], fc[2]])
        j0 = max(0, int(np.floor((ys.min() - origin[1]) / gridstep - 0.5)))
        j1 = min(ny - 1, int(np.ceil((ys.max() - origin[1]) / gridstep - 0.5)))
        k0 = max(0, int(np.floor((zs.min() - origin[2]) / gridstep - 0.5)))
        k1 = min(nz - 1, int(np.ceil((zs.max() - origin[2]) / gridstep - 0.5)))
        if j1 < j0 or k1 < k0:
            continue
        jj, kk = np.meshgrid(np.arange(j0, j1 + 1), np.arange(k0, k1 + 1), indexing="ij")
        jj, kk = jj.ravel(), kk.ravel()
        py = origin[1] + (jj + 0.5) * gridstep + eps_y
        pz = origin[2] + (kk + 0.5) * gridstep + eps_z

        # barycentric solve in the (y, z) projection
        det = (fb[1] - fa[1]) * (fc[2] - fa[2]) - (fc[1] - fa[1]) * (fb[2] - fa[2])
        if abs(det) < 1e-30:
            continue
        w1 = ((py - fa[1]) * (fc[2] - fa[2]) - (fc[1] - fa[1]) * (pz - fa[2])) / det
        w2 = ((fb[1] - fa[1]) * (pz - fa[2]) - (py - fa[1]) * (fb[2] - fa[2])) / det
        inside = (w1 >= 0) & (w2 >= 0) & (w1 + w2 <= 1)
        if not inside.any():
            continue
        xhit = fa[0] + w1[inside] * (fb[0] - fa[0]) + w2[inside] * (fc[0] - fa[0])
        rows = jj[inside] * nz + kk[inside]
        # first voxel center strictly beyond the crossing
        i0 = np.clip(np.floor((xhit - origin[0]) / gridstep - 0.5).astype(int) + 1, 0, nx)
        np.add.at(hit_delta, (i0, rows), 1)
        np.add.at(hit_count, rows, 1)

    active = hit_count > 0
    odd_rows = int(((hit_count % 2 == 1) & active).sum())
    if active.any() and odd_rows > 0.001 * int(active.sum()):
        raise NotClosed(f"{odd_rows} of {int(active.sum())} rows have odd crossing parity")

    parity = np.cumsum(hit_delta[:nx], axis=0) % 2
    interior = parity.astype(bool).reshape(nx, ny, nz)
    idx = np.argwhere(interior)
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
    depth = mesh.vertices[:, axis]
    lo = verts2.min(axis=0)
    hi = verts2.max(axis=0)
    w = int(np.ceil((hi[0] - lo[0]) / resolution)) + 1
    h = int(np.ceil((hi[1] - lo[1]) / resolution)) + 1

    heights = np.full((w, h), -np.inf)
    eps_u = resolution * 1.000000173e-4
    eps_v = resolution * 1.000000311e-4
    for f in mesh.faces:
        tri2 = verts2[f]
        td = depth[f]
        i0 = max(0, int(np.floor((tri2[:, 0].min() - lo[0]) / resolution)))
        i1 = min(w - 1, int(np.ceil((tri2[:, 0].max() - lo[0]) / resolution)))
        j0 = max(0, int(np.floor((tri2[:, 1].min() - lo[1]) / resolution)))
        j1 = min(h - 1, int(np.ceil((tri2[:, 1].max() - lo[1]) / resolution)))
        if i1 < i0 or j1 < j0:
            continue
        ii, jj = np.meshgrid(np.arange(i0, i1 + 1), np.arange(j0, j1 + 1), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        pu = lo[0] + ii * resolution + eps_u
        pv = lo[1] + jj * resolution + eps_v
        det = ((tri2[1, 0] - tri2[0, 0]) * (tri2[2, 1] - tri2[0, 1])
               - (tri2[2, 0] - tri2[0, 0]) * (tri2[1, 1] - tri2[0, 1]))
        if abs(det) < 1e-30:
            continue
        w1 = ((pu - tri2[0, 0]) * (tri2[2, 1] - tri2[0, 1])
              - (tri2[2, 0] - tri2[0, 0]) * (pv - tri2[0, 1])) / det
        w2 = ((tri2[1, 0] - tri2[0, 0]) * (pv - tri2[0, 1])
              - (pu - tri2[0, 0]) * (tri2[1, 1] - tri2[0, 1])) / det
        inside = (w1 >= 0) & (w2 >= 0) & (w1 + w2 <= 1)
        if not inside.any():
            continue
        z = td[0] + w1[inside] * (td[1] - td[0]) + w2[inside] * (td[2] - td[0])
        np.maximum.at(heights, (ii[inside], jj[inside]), z)

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
