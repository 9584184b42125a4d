"""Acceptance suite: one test per shipping criterion.

Each test measures a quantitative bound on a full run of the library (or
CLI) and records a single [PASS]/[FAIL] line, echoed in the terminal
summary. The bounds are deliberately end-to-end: they exercise synthesis,
normal orientation, accumulation, tracking, refinement, decomposition and
reconstruction together rather than any one stage in isolation.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

import tubeaxis as tx

RNG_SEED = 20813


def _rms(values):
    return math.sqrt(float(np.mean(np.square(values))))


def _extract_refined(surface, radius, gridstep=None, *later):
    """Accumulate -> track -> refine, then any later stages, in one run on
    the surface's oriented faces (the surface's own gridstep if None)."""
    return tx.run_pipeline(surface, radius, gridstep=gridstep,
                           stages=("accumulate", "track", "refine", *later))


def _cli(args, cwd=None):
    """Run the command line in a subprocess; returns (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tubeaxis.cli", *args],
                          capture_output=True, text=True, cwd=cwd)
    dt = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    return dt, proc.stdout


def test_c1_energy_gradient_matches_finite_differences(acceptance_report):
    # 100 random center/surface-point/radius instances: the analytic
    # gradient must match central finite differences to 1e-5 relative,
    # and the force must equal -gradient/2 to 1e-12 relative.
    rng = np.random.default_rng(RNG_SEED)
    h = 1e-6
    worst_fd = 0.0
    worst_force = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(4, 40))
        c = rng.normal(scale=5.0, size=3)
        points = c + rng.normal(scale=10.0, size=(n, 3))
        radius = float(rng.uniform(0.5, 5.0))
        e, g, f = tx.energy_and_gradient(c, points, radius)
        fd = np.empty(3)
        for k in range(3):
            dc = np.zeros(3)
            dc[k] = h
            ep = tx.energy_and_gradient(c + dc, points, radius)[0]
            em = tx.energy_and_gradient(c - dc, points, radius)[0]
            fd[k] = (ep - em) / (2 * h)
        gn = np.linalg.norm(g)
        worst_fd = max(worst_fd, float(np.linalg.norm(g - fd)) / max(gn, 1.0))
        worst_force = max(worst_force,
                          float(np.linalg.norm(f - (-g / 2))) / max(gn / 2, 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst_fd < 1e-5 and worst_force < 1e-12 and elapsed < 1.0
    acceptance_report(
        "C1 gradient correctness",
        ok,
        f"FD rel err {worst_fd:.2e} < 1e-5, force rel err {worst_force:.2e}"
        f" < 1e-12, {elapsed:.2f}s < 1s (100 instances)")


def test_c2_clean_cylinder_centerline_accuracy(acceptance_report):
    # straight cylinder, radius 5 voxels, length 100 voxels, mesh step =
    # gridstep: raw centerline within 1 voxel of the axis, refined within
    # 0.2 voxels, all under 10 seconds.
    t0 = time.perf_counter()
    mesh, truth = tx.gen_tube([tx.Straight(100.0)], radius=5.0, mesh_step=1.0)
    run = _extract_refined(mesh, radius=5.0, gridstep=1.0)
    raw, refined = run.raw, run.centerline
    elapsed = time.perf_counter() - t0
    raw_rms = _rms(tx.distance_to_polyline(raw.points, truth.points))
    ref_rms = _rms(tx.distance_to_polyline(refined.points, truth.points))
    ok = ref_rms < 0.2 and raw_rms < 1.0 and elapsed < 10.0
    acceptance_report(
        "C2 clean cylinder accuracy",
        ok,
        f"refined RMS {ref_rms:.3f} < 0.2, raw RMS {raw_rms:.3f} < 1.0,"
        f" {elapsed:.1f}s < 10s")


def test_c3_degraded_cylinder_robustness(acceptance_report):
    # the same cylinder seen from a single viewing direction, and with
    # sigma = 0.2 vertex noise: refined RMS < 0.4 voxels in both cases and
    # the accumulation argmax stays within one voxel of the axis.
    mesh, truth = tx.gen_tube([tx.Straight(100.0)], radius=5.0, mesh_step=1.0)
    cases = {
        "partial-scan": tx.degrade(mesh, "partial-scan",
                                   view_dir=np.array([0.0, 0.0, -1.0])),
        "noise": tx.degrade(mesh, "noise", sigma=0.2, seed=RNG_SEED),
    }
    details = []
    ok = True
    for name, degraded in cases.items():
        run = _extract_refined(degraded, radius=5.0, gridstep=1.0)
        res = run.accumulation
        rms = _rms(tx.distance_to_polyline(run.centerline.points, truth.points))
        # voxel-index distance between the argmax and the axis point at the
        # same abscissa
        mp = res.domain.voxel_center(res.max_pt)
        vi, _ = res.domain.index_array(np.array([mp]))
        va, _ = res.domain.index_array(np.array([[mp[0], 0.0, 0.0]]))
        cheb = int(np.abs(vi - va).max())
        ok = ok and rms < 0.4 and cheb <= 1
        details.append(f"{name}: RMS {rms:.3f} < 0.4, argmax off axis by"
                       f" {cheb} <= 1 voxel")
    acceptance_report("C3 degraded cylinder robustness", ok, "; ".join(details))


def test_c4_five_segment_pipe_decomposition(acceptance_report):
    # straight(30R) arc(5R, 90deg) straight(30R) arc(5R, 180deg)
    # straight(30R): exactly the five segments S,A,S,A,S, junction indices
    # within 2 of ground truth, arc radii within 5 percent of 5R.
    R = 4.0
    segs = [tx.Straight(30 * R), tx.Arc(5 * R, math.pi / 2),
            tx.Straight(30 * R), tx.Arc(5 * R, math.pi), tx.Straight(30 * R)]
    mesh, truth = tx.gen_tube(segs, radius=R, mesh_step=1.0)
    run = _extract_refined(mesh, R, None, "decompose")
    refined, dec = run.centerline, run.decomposition

    kinds = dec.kinds()
    radii = [s.radius for s in dec.segments if s.kind == "ARC"]
    rad_err = max(abs(r - 5 * R) / (5 * R) for r in radii) if radii else 1.0

    # detected junctions are segment boundaries; ground-truth junction
    # positions map to their nearest centerline index
    bounds = [s.start for s in dec.segments[1:]]
    expect = [int(np.argmin(np.linalg.norm(refined.points - p, axis=1)))
              for p in truth.points[truth.junctions]]
    jmax = (max(abs(b - e) for b, e in zip(bounds, expect))
            if len(bounds) == len(expect) else 99)

    ok = kinds == "SASAS" and jmax <= 2 and rad_err <= 0.05
    acceptance_report(
        "C4 five-segment decomposition",
        ok,
        f"kinds {kinds} == SASAS, junction offset {jmax} <= 2, arc radius"
        f" err {rad_err * 100:.1f}% <= 5%")


def test_c5_tangent_space_slope_convergence(acceptance_report):
    # regular N-gons on a circle of radius 10: the midpoint-line slope
    # tends to 1/r with second-order error (ratio about 4 per doubling of
    # N), and at N = 72 the slope-implied radius is within 0.5 percent.
    r = 10.0
    errs = []
    for n in (18, 36, 72):
        theta = 2 * math.pi * np.arange(n + 1) / n
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta),
                               np.zeros(n + 1)])
        tsp = tx.tangent_space_transform(pts)
        slope = np.polyfit(tsp.midpoints[:, 0], tsp.midpoints[:, 1], 1)[0]
        errs.append(abs(slope * r - 1.0))
    r01, r12 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 3.8 < r01 < 4.2 and 3.8 < r12 < 4.2 and errs[2] < 0.005
    acceptance_report(
        "C5 tangent-space slope convergence",
        ok,
        f"error ratios {r01:.2f}, {r12:.2f} in (3.8, 4.2), N=72 radius err"
        f" {errs[2] * 100:.3f}% < 0.5%")


def test_c6_cross_input_consistency(acceptance_report):
    # one bent tube processed from a triangle mesh, from its voxelization
    # (smoothed digital-surface normals) and from a height map of the
    # visible half: pairwise centerline RMS < 1 voxel on the common span.
    R, g = 3.0, 1.0
    segs = [tx.Straight(30.0), tx.Arc(15.0, math.pi / 2), tx.Straight(30.0)]
    mesh, truth = tx.gen_tube(segs, radius=R, mesh_step=1.0)

    line_mesh = _extract_refined(mesh, R, g).centerline.points

    capped, _ = tx.gen_tube(segs, radius=R, mesh_step=1.0, cap_ends=True)
    vol = tx.voxelize(capped, gridstep=g)
    line_vox = vol.to_world(_extract_refined(vol, R / g).centerline.points)

    hm = tx.render_heightmap(mesh, view_axis="z", resolution=g)
    line_hm = _extract_refined(tx.heightmap_to_mesh(hm), R, g).centerline.points

    # arclength of the nearest ground-truth point, used to clip each pair
    # to the span both lines actually covered
    s_truth = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(truth.points, axis=0), axis=1))])

    def arcs(points):
        d = np.linalg.norm(points[:, None, :] - truth.points[None, :, :], axis=2)
        return s_truth[d.argmin(axis=1)]

    lines = {"mesh": line_mesh, "voxels": line_vox, "heightmap": line_hm}
    spans = {k: arcs(v) for k, v in lines.items()}
    details = []
    ok = True
    for a, b in (("mesh", "voxels"), ("mesh", "heightmap"),
                 ("voxels", "heightmap")):
        lo = max(spans[a].min(), spans[b].min())
        hi = min(spans[a].max(), spans[b].max())
        da = tx.distance_to_polyline(lines[a][(spans[a] >= lo) & (spans[a] <= hi)],
                                     lines[b])
        db = tx.distance_to_polyline(lines[b][(spans[b] >= lo) & (spans[b] <= hi)],
                                     lines[a])
        rms = _rms(np.concatenate([da, db]))
        ok = ok and rms < 1.0 * g
        details.append(f"{a}/{b} RMS {rms:.3f}")
    acceptance_report("C6 cross-input consistency", ok,
                      "; ".join(details) + " all < 1.0 voxel")


def test_c7_accumulation_scales_linearly(acceptance_report, tmp_path):
    # halving the mesh step quadruples the face count; the time of
    # compute_accumulation (single thread, fixed gridstep) must grow by a
    # factor in [3, 6]. Both sizes are timed in this process: one warm-up
    # call each, then 7 calls each, alternating sizes so a slow stretch of
    # the host falls on both, and the minimum of each, since noise only
    # ever adds time. The small case runs about 10 ms, where a few
    # milliseconds of jitter in a fresh process moved the factor by +-0.5.
    fronts = {}
    for tag, step in (("h", "0.5"), ("h2", "0.25")):
        _cli(["synth", "--spec", "S:100", "--radius", "5",
              "--mesh-step", step, "--out-dir", str(tmp_path / tag)])
        fronts[tag] = tx.run_pipeline(tx.load_mesh(tmp_path / tag / "tube.off"), 5.0,
                                      gridstep=0.5, stages=())
        tx.compute_accumulation(fronts[tag].faces, fronts[tag].acc_params)
    times = {tag: [] for tag in fronts}
    for _ in range(7):
        for tag, front in fronts.items():
            t0 = time.perf_counter()
            tx.compute_accumulation(front.faces, front.acc_params)
            times[tag].append(time.perf_counter() - t0)
    best = {tag: min(t) for tag, t in times.items()}
    factor = best["h2"] / best["h"]
    ok = 3.0 <= factor <= 6.0
    acceptance_report(
        "C7 linear-time accumulation",
        ok,
        f"{len(fronts['h'].faces)} -> {len(fronts['h2'].faces)} faces: min of 7 "
        f"{best['h'] * 1e3:.0f}ms -> {best['h2'] * 1e3:.0f}ms, factor {factor:.2f} in [3, 6]")


def test_c8_large_tube_pipeline_runtime(acceptance_report, tmp_path):
    # full pipeline on a ~150k-face tube of radius 6, single thread,
    # under 60 seconds wall time (a ceiling, not a target).
    _cli(["synth", "--spec", "S:240,A:30:90,S:240", "--radius", "6",
          "--mesh-step", "0.515", "--out-dir", str(tmp_path / "tube")])
    wall, _ = _cli(["pipeline", "--input", str(tmp_path / "tube" / "tube.off"),
                    "--radius", "6", "--out-dir", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    n_faces = summary["input"]["n_faces"]
    ok = wall < 60.0 and n_faces > 120000
    acceptance_report(
        "C8 pipeline runtime",
        ok,
        f"{n_faces} faces in {wall:.1f}s < 60s (kinds"
        f" {summary['results']['kinds']})")


def test_c9_reconstruction_error_away_from_junctions(acceptance_report):
    # squared radial deviation of the reconstructed tube against its own
    # generating mesh, excluding faces within 2R of segment junctions,
    # stays below (0.3 * gridstep)^2 in RMS.
    R = 4.0
    segs = [tx.Straight(30 * R), tx.Arc(5 * R, math.pi / 2),
            tx.Straight(30 * R), tx.Arc(5 * R, math.pi), tx.Straight(30 * R)]
    mesh, truth = tx.gen_tube(segs, radius=R, mesh_step=1.0)
    run = _extract_refined(mesh, R, None, "error_map")
    faces, errors, g = run.faces, run.errors, run.acc_params.gridstep

    junctions = truth.points[truth.junctions]
    dist_j = np.linalg.norm(faces.centers[:, None, :] - junctions[None, :, :],
                            axis=2).min(axis=1)
    kept = errors[dist_j >= 2 * R]
    rms = _rms(kept)
    bound = (0.3 * g) ** 2
    ok = rms < bound and len(kept) > 0
    acceptance_report(
        "C9 reconstruction fidelity",
        ok,
        f"error-map RMS {rms:.4f} < {bound:.4f} on {len(kept)}/{len(errors)}"
        f" faces outside junction zones")
