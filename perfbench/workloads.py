"""Seeded benchmark inputs, built with tubeaxis.synth's public functions.

Each workload fixes a tube class (spec, radius, sampling) and the seed
only chooses a pose inside it: one of 8 axis-aligned rotations plus a
translation, applied to the generated tube and to its truth axis alike.
Face and voxel counts therefore do not depend on the seed, and the
bounding-box domain only swaps its x and y sizes (and, for meshes, moves
by rounding).
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Imported from the checkout's src/ (run.py puts it on sys.path first).
from tubeaxis import (AccumulationParams, TriMesh, accumulation_domain,
                      gen_tube, parse_tube_spec, voxelize, write_off)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str          # tube spec in tubeaxis synth syntax
    radius: float
    mesh_step: float
    kind: str          # "mesh" or "voxels": the file handed to the CLI
    kinds: str         # decomposition the CLI must report

    @property
    def input_name(self):
        return "input.off" if self.kind == "mesh" else "input.xyz"


# Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
WORKLOADS = {w.name: w for w in (
    # the C8 acceptance tube, 149,504 faces, passed as OFF
    Workload("bent_mesh", "S:240,A:30:90,S:240", 6.0, 0.515, "mesh", "SAS"),
    # a capped pipe voxelized at 1: 112,520 voxels, 35,698 facets
    Workload("voxel_pipe", "S:240,A:40:90,S:240", 8.0, 1.0, "voxels", "SAS"),
)}


def _pose_rotations():
    """The 8 axis-aligned proper rotations that keep the z axis on itself.

    gen_tube bends in the xy plane, so these keep the domain's thin axis
    on z. Peak RSS depends on which axis is thin (on bent_mesh, 369 MB
    with a thin x axis and 466 MB with a thin y or z axis), and a seed
    that could pick the axis would make peak_rss_mb vary by that much
    from run to run.
    """
    rots = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = np.zeros((3, 3), dtype=np.int64)
            m[np.arange(3), perm] = signs
            if round(np.linalg.det(m)) == 1 and abs(m[2, 2]) == 1:
                rots.append(m)
    return rots


POSE_ROTATIONS = _pose_rotations()


@dataclass
class Case:
    """One posed input: the file written for the CLI plus what the gate
    and the report need to know about it."""

    workload: Workload
    input_path: Path
    truth: np.ndarray        # truth axis polyline in the CLI's input frame
    stated: dict             # input size: faces, voxels, domain voxels


def _rng(workload, seed):
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode())])


def build_case(workload: Workload, seed: int, directory: Path) -> Case:
    """Generate and write the input for (workload, seed) under directory."""
    rng = _rng(workload, seed)
    mesh, truth = gen_tube(parse_tube_spec(workload.spec), workload.radius,
                           workload.mesh_step,
                           cap_ends=workload.kind == "voxels")
    path = Path(directory) / workload.input_name

    rot = POSE_ROTATIONS[rng.integers(len(POSE_ROTATIONS))]
    if workload.kind == "mesh":
        shift = rng.uniform(-100.0, 100.0, size=3)
        posed = TriMesh(mesh.vertices @ rot.T + shift, mesh.faces)
        write_off(posed, path)
        truth_pts = truth.points @ rot.T + shift
        # the CLI's default gridstep rule for meshes
        params = AccumulationParams(radius=workload.radius,
                                    gridstep=posed.median_face_size())
        a, b, c = posed.corners()
        domain = accumulation_domain((a + b + c) / 3.0, params)
        stated = {"faces": posed.n_faces, "vertices": posed.n_vertices,
                  "domain_voxels": domain.voxel_count}
    else:
        # voxelize once in the generated frame, then move the lattice
        # rigidly, so the voxel set is the same up to the motion
        volume = voxelize(mesh, 1.0)
        shift = rng.integers(-100, 101, size=3)
        points = volume.points @ rot.T + shift
        np.savetxt(path, points, fmt="%d")
        lattice = (truth.points - volume.origin) / volume.gridstep
        truth_pts = move_lattice_points(lattice, rot, shift)
        params = AccumulationParams(radius=workload.radius, gridstep=1.0)
        lo, hi = points.min(axis=0), points.max(axis=0) + 1
        domain = accumulation_domain(np.stack([lo, hi]), params)
        stated = {"voxels": len(points), "facets": _count_facets(points),
                  "domain_voxels": domain.voxel_count}
    return Case(workload, path, truth_pts, stated)


def move_lattice_points(coords, rot, shift):
    """Lattice coordinates after the voxel motion p -> rot p + shift.

    Voxel p covers the cube [p, p+1]^3, so the motion takes the cube
    center p + 0.5 to the center of voxel rot p + shift, not to
    rot (p + 0.5) + shift.
    """
    return (np.asarray(coords, dtype=float) - 0.5) @ np.asarray(rot).T + shift + 0.5


def _count_facets(points):
    """Number of voxel faces that border an empty voxel (the CLI's facets)."""
    lo = points.min(axis=0) - 1
    dims = points.max(axis=0) - lo + 2
    key = lambda p: ((p[:, 0] - lo[0]) * dims[1] + (p[:, 1] - lo[1])) * dims[2] + (p[:, 2] - lo[2])
    occupied = np.sort(key(points))
    total = 0
    for d in np.vstack([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)]):
        total += int((~np.isin(key(points + d), occupied, assume_unique=False)).sum())
    return total
