"""
Rebuilding the tube and mapping where it deviates
=================================================

Once the centerline is refined, sweeping a circular cross-section along
it reconstructs an ideal tube. Scoring every input face against that
ideal surface gives a per-face error map. On a synthetic pipe the map
shows where the model stops matching the data: the open ends, where the
tracked polyline stops about half a step short of the rim, and (for
tight bends) the corners a polyline cuts.
"""

import math
import pathlib

import numpy as np

import tubeaxis as tx

R = 4.0
segs = [tx.Straight(30 * R), tx.Arc(5 * R, math.pi / 2), tx.Straight(30 * R),
        tx.Arc(5 * R, math.pi), tx.Straight(30 * R)]
mesh, truth = tx.gen_tube(segs, radius=R, mesh_step=1.0)

# the chain without decompose, on the mesh's own gridstep: reconstruct
# sweeps a 24-sided ring along the refined centerline with a
# rotation-minimizing frame, and error_map scores every input face
# against that ideal tube
run = tx.run_pipeline(mesh, radius=R,
                      stages=("accumulate", "track", "refine", "reconstruct",
                              "error_map"))
faces, tube = run.faces, run.tube
out = pathlib.Path(__file__).parent / "output"
out.mkdir(exist_ok=True)
tx.write_off(tube, out / "reconstructed.off")
print(f"reconstructed tube: {tube.n_vertices} vertices, {tube.n_faces} faces"
      f" -> {out / 'reconstructed.off'}")

# per input face: squared difference between its distance to the
# centerline and the nominal radius
errors = run.errors
stats = tx.error_summary(errors)
print(f"error map over {stats['count']} faces: "
      f"mean {stats['mean']:.4f}  rms {stats['rms']:.4f}  max {stats['max']:.4f}")

# split the map by region: open ends, bend neighborhoods, and the rest;
# with bends this gentle (5R) the ends dominate by almost 5x
ends = np.array([truth.points[0], truth.points[-1]])
junctions = truth.points[truth.junctions]
dist_end = np.linalg.norm(faces.centers[:, None, :] - ends[None, :, :],
                          axis=2).min(axis=1)
dist_j = np.linalg.norm(faces.centers[:, None, :] - junctions[None, :, :],
                        axis=2).min(axis=1)
m_end = dist_end < 2 * R
m_bend = ~m_end & (dist_j < 2 * R)
m_bulk = ~m_end & ~m_bend
for name, m in (("open ends", m_end), ("near bends", m_bend),
                ("elsewhere", m_bulk)):
    print(f"mean error {name:11s} {errors[m].mean():.4f} ({int(m.sum())} faces)")
