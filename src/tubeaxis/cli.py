"""Command line driver exposing every pipeline stage.

Subcommands: accumulate, centerline, refine, decompose, reconstruct,
error-map, synth and pipeline (everything end to end). Exit codes: 0 on
success, 1 on input problems (missing file, parse error, bad arguments),
2 when a stage fails on valid input (weak accumulation seed, open surface
where a closed one is required, and so on).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .accumulate import AccumulationParams, compute_accumulation
from .core import save_grid
from .decompose import decompose_centerline
from .errors import (EmptyInput, ParseError, TooSmall, TubeAxisError,
                     UnsupportedFormat)
from .ingest import (heightmap_to_mesh, load_heightmap, load_mesh, load_volume,
                     read_centerline_csv, write_artifacts, write_off)
from .normals import (digital_surface_faces, estimate_digital_normals,
                      face_normals, orient_inward)
from .rebuild import error_map, error_summary, sweep_tube
from .refine import RefineParams, optimize_centerline
from .synth import degrade, gen_tube, parse_tube_spec
from .track import Centerline, extract_centerline

_INPUT_ERRORS = (ParseError, UnsupportedFormat, EmptyInput, TooSmall,
                 FileNotFoundError, IsADirectoryError, PermissionError)

_MESH_SUFFIXES = {".off", ".obj"}
_VOXEL_SUFFIXES = {".vox", ".txt", ".xyz", ".pts"}
_HEIGHTMAP_SUFFIXES = {".pgm"}


class UsageError(ValueError):
    pass


def _detect_type(path: Path):
    s = path.suffix.lower()
    if s in _MESH_SUFFIXES:
        return "mesh"
    if s in _VOXEL_SUFFIXES:
        return "voxels"
    if s in _HEIGHTMAP_SUFFIXES:
        return "heightmap"
    raise UnsupportedFormat(f"cannot infer input type from {path.name!r}; "
                            "pass --input-type")


class _Timer:
    def __init__(self, timings, key):
        self.timings = timings
        self.key = key

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.timings[self.key] = round(time.perf_counter() - self.t0, 6)
        return False


def _positive_finite(flag, value):
    """The value as a float; a UsageError unless it is positive and finite."""
    try:
        value = float(value)
    except ValueError:
        raise UsageError(f"{flag} must be a number, got {value!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"{flag} must be positive and finite")
    return value


def _load_input(args, timings):
    """Load the input into an oriented face set; returns a context dict.

    Explicit numeric options are checked before anything is loaded.
    """
    if args.input is None:
        raise UsageError("--input is required")
    gridstep = (None if args.gridstep == "auto"
                else _positive_finite("--gridstep", args.gridstep))
    normal_radius = args.normal_radius
    if normal_radius is None:
        normal_radius = max(2.0, 0.5 * args.radius)
    else:
        normal_radius = _positive_finite("--normal-radius", normal_radius)
    path = Path(args.input)
    if not path.exists():
        raise FileNotFoundError(f"input file {path} does not exist")
    kind = args.input_type if args.input_type != "auto" else _detect_type(path)

    ctx = {"input_path": str(path), "input_type": kind}
    with _Timer(timings, "load"):
        if kind == "mesh":
            mesh = load_mesh(path)
            faces = face_normals(mesh)
            native_step = mesh.median_face_size()
            ctx["n_faces"] = mesh.n_faces
            ctx["n_vertices"] = mesh.n_vertices
        elif kind == "voxels":
            volume = load_volume(path)
            faces = digital_surface_faces(volume)
            native_step = 1.0
            ctx["n_voxels"] = len(volume)
            ctx["n_faces"] = len(faces)
        elif kind == "heightmap":
            hm = load_heightmap(path, scale=args.hm_scale, spacing=args.hm_spacing)
            mesh = heightmap_to_mesh(hm)
            faces = face_normals(mesh)
            native_step = mesh.median_face_size()
            ctx["n_faces"] = mesh.n_faces
            ctx["heightmap_size"] = [hm.width, hm.height]
        else:
            raise UsageError(f"unknown input type {kind!r}")

    # staircase face normals vote poorly, so voxel inputs default to smoothed
    normals_mode = args.normals
    if normals_mode is None:
        normals_mode = "estimate" if kind == "voxels" else "faces"
    ctx["normals_mode"] = normals_mode
    if normals_mode == "estimate":
        with _Timer(timings, "normals"):
            faces = estimate_digital_normals(faces, normal_radius)

    with _Timer(timings, "orient"):
        faces = orient_inward(faces, mode=args.orient, radius=args.radius)

    if gridstep is None:
        gridstep = _positive_finite("--gridstep auto (the median face size)",
                                    native_step)
    ctx["faces"] = faces
    ctx["gridstep"] = gridstep
    return ctx


def _acc_params(args, gridstep):
    return AccumulationParams(radius=args.radius, epsilon=args.epsilon_acc,
                              gridstep=gridstep, min_norm=args.min_norm)


def _stage_accumulate(ctx, args, timings):
    params = _acc_params(args, ctx["gridstep"])
    with _Timer(timings, "accumulate"):
        res = compute_accumulation(ctx["faces"], params)
    ctx["acc_params"] = params
    ctx["acc_result"] = res
    return res


def _stage_centerline(ctx, args, timings):
    params = ctx["acc_params"]
    track_step = args.track_step if args.track_step is not None else args.radius
    ctx["track_step"] = track_step
    with _Timer(timings, "track"):
        cl = extract_centerline(ctx["acc_result"], track_step, params.acc_radius,
                                inside_threshold=args.inside_threshold,
                                max_angle=args.max_angle)
    ctx["raw_centerline"] = cl
    return cl


def _stage_refine(ctx, args, timings):
    params = ctx["acc_params"]
    rp = RefineParams(radius=args.radius, acc_radius=params.acc_radius,
                      track_step=ctx["track_step"],
                      epsilon_o=args.epsilon_o, max_iter=args.max_iter,
                      area_weighting=args.area_weighting)
    with _Timer(timings, "refine"):
        cl = optimize_centerline(ctx["raw_centerline"], ctx["faces"], rp)
    ctx["centerline"] = cl
    return cl


def _stage_decompose(ctx, args, timings):
    resid_tol = args.resid_tol
    if resid_tol is None:
        resid_tol = 0.3 * ctx["gridstep"]
    with _Timer(timings, "decompose"):
        dec = decompose_centerline(ctx["centerline"], alpha_flat=args.alpha_flat,
                                   nu=args.nu, min_len=args.min_len,
                                   resid_tol=resid_tol)
    ctx["decomposition"] = dec
    return dec


def _load_centerline_arg(args, ctx):
    """Use a previously written centerline CSV instead of tracking."""
    points, directions = read_centerline_csv(args.centerline)
    closed = len(points) > 2 and (np.linalg.norm(points[0] - points[-1])
                                  < 1.5 * np.linalg.norm(points[1] - points[0]))
    cl = Centerline(points=points, directions=directions, closed=closed)
    ctx["raw_centerline"] = cl
    ctx["centerline"] = cl
    ctx["track_step"] = (args.track_step if args.track_step is not None
                         else args.radius)
    ctx.setdefault("acc_params", _acc_params(args, ctx["gridstep"]))
    return cl


def _params_dict(args, ctx):
    out = {
        "radius": args.radius,
        "epsilon_acc": (args.epsilon_acc if args.epsilon_acc is not None
                        else 0.1 * args.radius),
        "gridstep": ctx.get("gridstep"),
        "min_norm": args.min_norm,
        "normals": ctx.get("normals_mode"),
        "orient": args.orient,
        "seed": args.seed,
        "threads": args.threads,
    }
    if hasattr(args, "track_step"):
        out.update({
            "track_step": ctx.get("track_step"),
            "inside_threshold": args.inside_threshold,
            "max_angle": args.max_angle,
        })
    if hasattr(args, "epsilon_o"):
        out.update({
            "epsilon_o": args.epsilon_o,
            "max_iter": args.max_iter,
            "area_weighting": args.area_weighting,
        })
    if hasattr(args, "alpha_flat"):
        out.update({
            "alpha_flat": args.alpha_flat,
            "nu": args.nu,
            "min_len": args.min_len,
            "resid_tol": (args.resid_tol if args.resid_tol is not None
                          else 0.3 * ctx.get("gridstep", 1.0)),
        })
    if hasattr(args, "sides"):
        out["sides"] = args.sides
    return out


def _write_summary(args, command, ctx, timings, results, outputs):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "command": command,
        "input": {k: ctx[k] for k in
                  ("input_path", "input_type", "n_faces", "n_vertices",
                   "n_voxels", "heightmap_size") if k in ctx},
        "params": _params_dict(args, ctx),
        "results": results,
        "outputs": outputs,
        "timings": timings,
    }
    path = Path(args.json_summary) if args.json_summary else out_dir / "summary.json"
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _centerline_results(cl):
    spacing = cl.segment_lengths()
    return {
        "points": len(cl),
        "closed": bool(cl.closed),
        "mean_spacing": float(spacing.mean()) if len(spacing) else 0.0,
        "refined_points": (int(cl.refined.sum()) if cl.refined is not None else 0),
    }


# --- subcommand handlers ------------------------------------------------------


def cmd_accumulate(args):
    timings = {}
    ctx = _load_input(args, timings)
    res = _stage_accumulate(ctx, args, timings)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _Timer(timings, "write"):
        acc_paths = save_grid(res.acc, out_dir / "accumulation")
        dir_paths = save_grid(res.directions, out_dir / "directions")
    outputs = {"accumulation": [str(p) for p in acc_paths],
               "directions": [str(p) for p in dir_paths]}
    results = {"max_acc": res.max_acc, "max_pt": list(res.max_pt),
               "domain_dims": list(res.domain.dims)}
    _write_summary(args, "accumulate", ctx, timings, results, outputs)
    return 0


def cmd_centerline(args):
    timings = {}
    ctx = _load_input(args, timings)
    _stage_accumulate(ctx, args, timings)
    cl = _stage_centerline(ctx, args, timings)
    with _Timer(timings, "write"):
        outputs = write_artifacts(args.out_dir, cl)
    results = _centerline_results(cl)
    results["max_acc"] = ctx["acc_result"].max_acc
    _write_summary(args, "centerline", ctx, timings, results, outputs)
    return 0


def cmd_refine(args):
    timings = {}
    ctx = _load_input(args, timings)
    if args.centerline:
        _load_centerline_arg(args, ctx)
    else:
        _stage_accumulate(ctx, args, timings)
        _stage_centerline(ctx, args, timings)
    cl = _stage_refine(ctx, args, timings)
    with _Timer(timings, "write"):
        outputs = write_artifacts(args.out_dir, cl)
    _write_summary(args, "refine", ctx, timings, _centerline_results(cl), outputs)
    return 0


def cmd_decompose(args):
    timings = {}
    ctx = _load_input(args, timings)
    if args.centerline:
        _load_centerline_arg(args, ctx)
    else:
        _stage_accumulate(ctx, args, timings)
        _stage_centerline(ctx, args, timings)
        _stage_refine(ctx, args, timings)
    dec = _stage_decompose(ctx, args, timings)
    with _Timer(timings, "write"):
        outputs = write_artifacts(args.out_dir, ctx["centerline"], decomposition=dec)
    results = _centerline_results(ctx["centerline"])
    results["segments"] = len(dec)
    results["kinds"] = dec.kinds()
    _write_summary(args, "decompose", ctx, timings, results, outputs)
    return 0


def cmd_reconstruct(args):
    timings = {}
    ctx = _load_input(args, timings)
    if args.centerline:
        _load_centerline_arg(args, ctx)
    else:
        _stage_accumulate(ctx, args, timings)
        _stage_centerline(ctx, args, timings)
        _stage_refine(ctx, args, timings)
    with _Timer(timings, "reconstruct"):
        tube = sweep_tube(ctx["centerline"], args.radius, sides=args.sides)
    with _Timer(timings, "write"):
        outputs = write_artifacts(args.out_dir, ctx["centerline"],
                                  meshes={"reconstructed": tube})
    results = _centerline_results(ctx["centerline"])
    results["reconstructed_faces"] = tube.n_faces
    _write_summary(args, "reconstruct", ctx, timings, results, outputs)
    return 0


def cmd_error_map(args):
    timings = {}
    ctx = _load_input(args, timings)
    if args.centerline:
        _load_centerline_arg(args, ctx)
    else:
        _stage_accumulate(ctx, args, timings)
        _stage_centerline(ctx, args, timings)
        _stage_refine(ctx, args, timings)
    with _Timer(timings, "error_map"):
        errors = error_map(ctx["faces"], ctx["centerline"], args.radius)
    with _Timer(timings, "write"):
        outputs = write_artifacts(args.out_dir, ctx["centerline"],
                                  face_scalars={"error_map": errors})
    results = _centerline_results(ctx["centerline"])
    results["error"] = error_summary(errors)
    _write_summary(args, "error-map", ctx, timings, results, outputs)
    return 0


def cmd_pipeline(args):
    timings = {}
    ctx = _load_input(args, timings)
    _stage_accumulate(ctx, args, timings)
    _stage_centerline(ctx, args, timings)
    cl = _stage_refine(ctx, args, timings)
    dec = _stage_decompose(ctx, args, timings)
    with _Timer(timings, "reconstruct"):
        tube = sweep_tube(cl, args.radius, sides=args.sides) if len(cl) >= 2 else None
    with _Timer(timings, "error_map"):
        errors = error_map(ctx["faces"], cl, args.radius)
    with _Timer(timings, "write"):
        meshes = {"reconstructed": tube} if tube is not None else None
        outputs = write_artifacts(args.out_dir, cl, decomposition=dec,
                                  meshes=meshes, face_scalars={"error_map": errors})
    results = _centerline_results(cl)
    results.update({
        "max_acc": ctx["acc_result"].max_acc,
        "max_pt": list(ctx["acc_result"].max_pt),
        "segments": len(dec),
        "kinds": dec.kinds(),
        "error": error_summary(errors),
    })
    _write_summary(args, "pipeline", ctx, timings, results, outputs)
    return 0


def cmd_synth(args):
    timings = {}
    try:
        segments = parse_tube_spec(args.spec)
    except ValueError as exc:
        raise UsageError(str(exc))
    mesh_step = args.mesh_step if args.mesh_step is not None else args.radius / 3.0
    with _Timer(timings, "synth"):
        mesh, truth = gen_tube(segments, args.radius, mesh_step,
                               cap_ends=args.cap_ends)
        if args.degrade == "noise":
            mesh = degrade(mesh, "noise", seed=args.seed, sigma=args.sigma)
        elif args.degrade == "partial-scan":
            try:
                view = np.array([float(t) for t in args.view_dir.split(",")])
            except ValueError:
                raise UsageError(f"bad --view-dir {args.view_dir!r}; "
                                 "expected three comma-separated numbers")
            mesh = degrade(mesh, "partial-scan", seed=args.seed, view_dir=view)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mesh_path = out_dir / "tube.off"
    truth_path = out_dir / "truth.csv"
    with _Timer(timings, "write"):
        write_off(mesh, mesh_path)
        junctions = set(truth.junctions)
        with open(truth_path, "w") as fh:
            fh.write("index,x,y,z,tx,ty,tz,kind,junction\n")
            for i, (p, t, k) in enumerate(zip(truth.points, truth.tangents,
                                              truth.kinds)):
                fh.write(f"{i},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g},"
                         f"{t[0]:.9g},{t[1]:.9g},{t[2]:.9g},{k},"
                         f"{1 if i in junctions else 0}\n")

    ctx = {"input_path": args.spec, "input_type": "synthetic",
           "n_faces": mesh.n_faces, "gridstep": mesh_step}
    results = {"n_faces": mesh.n_faces, "n_vertices": mesh.n_vertices,
               "truth_points": len(truth.points),
               "junctions": list(truth.junctions)}
    outputs = {"mesh_off": str(mesh_path), "truth_csv": str(truth_path)}
    _write_summary(args, "synth", ctx, timings, results, outputs)
    return 0


# --- argument plumbing --------------------------------------------------------


def _add_io_args(p, radius_help="tube radius in input units"):
    p.add_argument("--input", help="input file (mesh, voxel list or height map)")
    p.add_argument("--input-type", choices=["mesh", "voxels", "heightmap", "auto"],
                   default="auto")
    p.add_argument("--radius", type=float, default=None, help=radius_help)
    p.add_argument("--gridstep", default="auto",
                   help="lattice step; 'auto' uses the median longest face edge "
                        "(meshes) or the native resolution (voxels, height maps)")
    p.add_argument("--normals", choices=["faces", "estimate"], default=None,
                   help="face normals as given, or covariance-smoothed "
                        "(default: estimate for voxel inputs, faces otherwise)")
    p.add_argument("--normal-radius", type=float, default=None,
                   help="smoothing ball radius for --normals estimate "
                        "(default radius/2, at least 2)")
    p.add_argument("--orient", choices=["auto", "keep", "flip"], default="auto",
                   help="inward normal resolution mode")
    p.add_argument("--hm-scale", type=float, default=1.0,
                   help="height per gray level for PGM height maps")
    p.add_argument("--hm-spacing", type=float, default=1.0,
                   help="pixel pitch in world units for PGM height maps")
    p.add_argument("--epsilon-acc", type=float, default=None,
                   help="scan slack beyond the radius (default 0.1*radius)")
    p.add_argument("--min-norm", type=float, default=0.1,
                   help="minimal cross product norm kept in the direction image")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-summary", default=None,
                   help="summary path (default <out-dir>/summary.json)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker count; only 1 (the sequential reference) is "
                        "implemented, other values fall back to 1 with a warning")


def _add_track_args(p):
    p.add_argument("--track-step", type=float, default=None,
                   help="centerline sampling step (default: radius)")
    p.add_argument("--inside-threshold", type=float, default=0.5,
                   help="fraction of the seed accumulation required to continue")
    p.add_argument("--max-angle", type=float, default=math.pi / 3,
                   help="max turning angle per step, radians")


def _add_refine_args(p):
    p.add_argument("--epsilon-o", type=float, default=0.001,
                   help="energy-drop convergence threshold")
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--area-weighting", action="store_true",
                   help="weight each surface point force by its face area")


def _add_decompose_args(p):
    p.add_argument("--alpha-flat", type=float, default=0.05,
                   help="max per-vertex turn, radians, still considered straight")
    p.add_argument("--nu", type=float, default=0.15,
                   help="max midpoint deviation from the arc line, tangent-space units")
    p.add_argument("--min-len", type=int, default=3,
                   help="ranges spanning fewer indices merge into their neighbor")
    p.add_argument("--resid-tol", type=float, default=None,
                   help="arc planarity gate, world units (default 0.3*gridstep)")


def _add_centerline_input(p):
    p.add_argument("--centerline", default=None,
                   help="reuse a centerline CSV instead of tracking")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tubeaxis",
        description="Centerline extraction and straight/arc analysis of 3D "
                    "tubular shapes")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("accumulate", help="write the vote and direction grids")
    _add_io_args(p)
    p.set_defaults(func=cmd_accumulate, needs_radius=True)

    p = sub.add_parser("centerline", help="track the raw centerline")
    _add_io_args(p)
    _add_track_args(p)
    p.set_defaults(func=cmd_centerline, needs_radius=True)

    p = sub.add_parser("refine", help="optimize centerline point positions")
    _add_io_args(p)
    _add_track_args(p)
    _add_refine_args(p)
    _add_centerline_input(p)
    p.set_defaults(func=cmd_refine, needs_radius=True)

    p = sub.add_parser("decompose", help="label straight and arc sections")
    _add_io_args(p)
    _add_track_args(p)
    _add_refine_args(p)
    _add_decompose_args(p)
    _add_centerline_input(p)
    p.set_defaults(func=cmd_decompose, needs_radius=True)

    p = sub.add_parser("reconstruct", help="sweep an ideal tube along the centerline")
    _add_io_args(p)
    _add_track_args(p)
    _add_refine_args(p)
    _add_centerline_input(p)
    p.add_argument("--sides", type=int, default=24,
                   help="vertices per reconstructed ring")
    p.set_defaults(func=cmd_reconstruct, needs_radius=True)

    p = sub.add_parser("error-map", help="per-face squared distance to the ideal tube")
    _add_io_args(p)
    _add_track_args(p)
    _add_refine_args(p)
    _add_centerline_input(p)
    p.set_defaults(func=cmd_error_map, needs_radius=True)

    p = sub.add_parser("synth", help="generate a ground-truth tube")
    _add_io_args(p, radius_help="tube cross-section radius")
    p.add_argument("--spec", required=True,
                   help="segments like 'S:30,A:15:90,S:30' "
                        "(S:<len> or A:<radius>:<angle_deg>[:<turn_deg>])")
    p.add_argument("--mesh-step", type=float, default=None,
                   help="surface sampling step (default radius/3)")
    p.add_argument("--cap-ends", action="store_true",
                   help="close the tube ends (required before voxelization)")
    p.add_argument("--degrade", choices=["none", "noise", "partial-scan"],
                   default="none")
    p.add_argument("--sigma", type=float, default=0.0, help="noise displacement scale")
    p.add_argument("--view-dir", default="0,0,-1",
                   help="partial-scan view direction 'x,y,z'")
    p.set_defaults(func=cmd_synth, needs_radius=True)

    p = sub.add_parser("pipeline", help="run every stage and write all artifacts")
    _add_io_args(p)
    _add_track_args(p)
    _add_refine_args(p)
    _add_decompose_args(p)
    p.add_argument("--sides", type=int, default=24)
    p.set_defaults(func=cmd_pipeline, needs_radius=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    if getattr(args, "needs_radius", False) and args.radius is None:
        print(f"usage: tubeaxis {args.command} --input FILE --radius R [options]\n"
              f"tubeaxis {args.command}: error: --radius is required",
              file=sys.stderr)
        return 1
    if getattr(args, "threads", 1) != 1:
        print("warning: --threads > 1 is not implemented; running sequentially",
              file=sys.stderr)
    try:
        if getattr(args, "needs_radius", False):
            _positive_finite("--radius", args.radius)
        return args.func(args)
    except UsageError as exc:
        print(f"tubeaxis {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"tubeaxis {args.command}: input error: {exc}", file=sys.stderr)
        return 1
    except TubeAxisError as exc:
        print(f"tubeaxis {args.command}: pipeline failure: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
