"""
Holding up under scanner-like damage
====================================

Real surface scans are noisy, one-sided and full of holes. Votes from
surviving faces still pile up near the axis, so the centerline degrades
gracefully. This demo damages one cylinder four ways and scores each
result against the exact axis.
"""

import numpy as np

import tubeaxis as tx

R = 5.0
mesh, truth = tx.gen_tube([tx.Straight(100.0)], radius=R, mesh_step=1.0)

cases = {
    "clean": mesh,
    # keep only faces visible from above, as a single-view scan would
    "partial scan": tx.degrade(mesh, "partial-scan",
                               view_dir=np.array([0.0, 0.0, -1.0])),
    # gaussian vertex jitter, one fifth of a voxel
    "noise 0.2": tx.degrade(mesh, "noise", sigma=0.2, seed=7),
    # a 120 degree wedge of the surface removed along the whole length
    "sector cut": tx.degrade(mesh, "sector-removal",
                             axis_point=np.zeros(3),
                             axis_dir=np.array([1.0, 0.0, 0.0]),
                             angle_range=(0.0, 2 * np.pi / 3)),
    # a handful of circular holes punched through the surface
    "holes": tx.degrade(mesh, "holes", count=12, radius=3.0, seed=7),
}

print(f"{'case':14s} {'faces':>6s} {'raw RMS':>8s} {'refined RMS':>12s}")
for name, damaged in cases.items():
    run = tx.run_pipeline(damaged, radius=R, gridstep=1.0,
                          stages=("accumulate", "track", "refine"))
    d_raw = tx.distance_to_polyline(run.raw.points, truth.points)
    d_ref = tx.distance_to_polyline(run.centerline.points, truth.points)
    print(f"{name:14s} {len(run.faces):6d} {np.sqrt(np.mean(d_raw**2)):8.3f} "
          f"{np.sqrt(np.mean(d_ref**2)):12.3f}")

print("\nall RMS values are in voxel units (gridstep 1)")
