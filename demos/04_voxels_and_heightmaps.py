"""
One tube, three acquisition modalities
======================================

The pipeline only ever sees oriented surface points, so the same bent
tube can come in as a triangle mesh, as a voxelized volume, or as a
height map covering the visible half: run_pipeline gives each its
oriented faces, and the chain after that is the same. All three
centerlines should agree to within a voxel.
"""

import math

import numpy as np

import tubeaxis as tx

R, g = 3.0, 1.0
segs = [tx.Straight(30.0), tx.Arc(15.0, math.pi / 2), tx.Straight(30.0)]
mesh, truth = tx.gen_tube(segs, radius=R, mesh_step=1.0)


def extract(surface, radius, gridstep):
    """The run through refine: its faces and refined centerline points."""
    run = tx.run_pipeline(surface, radius, gridstep=gridstep,
                          stages=("accumulate", "track", "refine"))
    return run.faces, run.centerline.points


# 1) plain triangle mesh, with its exact face normals
_, line_mesh = extract(mesh, R, g)
print(f"mesh:      {mesh.n_faces} faces -> {len(line_mesh)} centerline points")

# 2) voxelized volume: parity ray casting needs a closed surface, so cap
# the ends first; boundary facets get covariance-smoothed normals. The
# volume lives on its own lattice, in whose units the radius is given;
# map the result back to world
capped, _ = tx.gen_tube(segs, radius=R, mesh_step=1.0, cap_ends=True)
vol = tx.voxelize(capped, gridstep=g)
faces, line_vox = extract(vol, R / g, 1.0)
print(f"voxels:    {len(vol)} interior voxels, {len(faces)} boundary facets")
line_vox = vol.to_world(line_vox)

# 3) height map: the top surface as seen from +z, one sample per voxel
hm = tx.render_heightmap(mesh, view_axis="z", resolution=g)
hmesh = tx.heightmap_to_mesh(hm)
print(f"heightmap: {hm.width} x {hm.height} samples -> {hmesh.n_faces} faces")
_, line_hm = extract(hmesh, R, g)

# score all three against the generating axis
for name, line in (("mesh", line_mesh), ("voxels", line_vox),
                   ("heightmap", line_hm)):
    d = tx.distance_to_polyline(line, truth.points)
    print(f"{name:10s} RMS to true axis: {np.sqrt(np.mean(d**2)):.3f}")

# and against each other (the voxel and height-map lines never saw the
# original mesh coordinates, only resampled surfaces)
d = tx.distance_to_polyline(line_vox, line_mesh)
print(f"voxel line vs mesh line:     RMS {np.sqrt(np.mean(d**2)):.3f}")
d = tx.distance_to_polyline(line_hm, line_mesh)
print(f"heightmap line vs mesh line: RMS {np.sqrt(np.mean(d**2)):.3f}")
