"""
Splitting a bent pipe into straights and arcs
=============================================

A centerline is more useful once labeled: which spans are straight, which
are circular bends, and with what radius. Each span is the longest run
that a line, or a circle, fits within one RMS tolerance in world units.
The tangent-space transform shows the same split: arcs become sloped
line segments and straights flat ones.
"""

import math

import numpy as np

import tubeaxis as tx

# straight - 90 degree bend - straight - 180 degree bend - straight
R = 4.0
segs = [tx.Straight(30 * R), tx.Arc(5 * R, math.pi / 2), tx.Straight(30 * R),
        tx.Arc(5 * R, math.pi), tx.Straight(30 * R)]
mesh, truth = tx.gen_tube(segs, radius=R, mesh_step=1.0)
print(f"pipe mesh: {mesh.n_faces} faces, ground-truth junctions at "
      f"{list(truth.junctions)}")

# the chain through decompose, on the mesh's own gridstep (its median
# longest edge); the fit tolerance defaults to 0.05 radius
run = tx.run_pipeline(mesh, radius=R,
                      stages=("accumulate", "track", "refine", "decompose"))
line, dec = run.centerline, run.decomposition

# the tangent-space polygon: x is arclength, y is accumulated turn angle;
# straights are horizontal runs, arcs climb at slope 1/r
tsp = tx.tangent_space_transform(line.points)
print(f"total length {tsp.lengths.sum():.1f}, total turn "
      f"{math.degrees(tsp.alphas.sum()):.0f} degrees")

print(f"decomposition: {dec.kinds()}")
for s in dec.segments:
    if s.kind == "ARC":
        print(f"  arc      [{s.start:3d},{s.end:3d}]  radius {s.radius:6.2f} "
              f"extent {math.degrees(s.extent):6.1f} deg  residual {s.residual:.3f}")
    else:
        d = s.direction
        print(f"  straight [{s.start:3d},{s.end:3d}]  direction "
              f"({d[0]:+.2f}, {d[1]:+.2f}, {d[2]:+.2f})  residual {s.residual:.3f}")

# both fitted bend radii should sit near the generating value 5R = 20
radii = [s.radius for s in dec.segments if s.kind == "ARC"]
print("fitted bend radii:", np.round(radii, 2), "(generated with 20.0)")
