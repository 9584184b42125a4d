"""
Centerline of a straight cylinder, end to end
=============================================

The shortest possible tour: synthesize a tube, pile up surface-normal
votes on a voxel lattice, walk the vote ridge, then refine each point as
the least-squares center of its cross-section. run_pipeline turns the
mesh into oriented faces, runs those three stages in one call and keeps
each stage's output.
"""

import numpy as np

import tubeaxis as tx

# a cylinder of radius 5 and length 100, triangulated at unit mesh step;
# gen_tube also returns the exact axis for scoring
mesh, truth = tx.gen_tube([tx.Straight(100.0)], radius=5.0, mesh_step=1.0)
print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_faces} faces")

# the front: per-face centers and unit normals, flipped to point into the
# tube, where orient="auto" (the default) probes which side concentrates
# votes; accumulate: every face shoots a ray along its inward normal, one vote
# per visited voxel, while closer than radius + 10% to the start;
# track: walk the vote ridge both ways from the best voxel, one step per
# radius; refine: slide each point to the center whose distance to the
# nearby surface points best matches the known radius
run = tx.run_pipeline(mesh, radius=5.0, gridstep=1.0,
                      stages=("accumulate", "track", "refine"))
res, raw, refined = run.accumulation, run.raw, run.centerline
print(f"accumulation: max {res.max_acc} votes at voxel {res.max_pt}")

# votes concentrate on the axis: the best voxel should be mid-tube
print("  world position:", np.round(res.domain.voxel_center(res.max_pt), 2))

print(f"raw centerline: {len(raw.points)} points, closed={raw.closed}")

for label, line in (("raw", raw), ("refined", refined)):
    d = tx.distance_to_polyline(line.points, truth.points)
    print(f"{label:8s} RMS distance to the true axis: {np.sqrt(np.mean(d**2)):.4f}")
