"""Command line driver: load an input, run the stage chain, write its outputs.

Each file subcommand is one row of COMMANDS: the stages it runs (through
tubeaxis.pipeline.run_pipeline) and the results it reports. accumulate,
centerline, refine, decompose, reconstruct and error-map run the chain up
to their own stage; with --centerline, the last four run only their own
stage on a centerline read from a CSV. pipeline runs every stage; synth
writes a ground-truth tube. Exit codes: 0 on success, 1 on input problems
(bad flags or option values, missing file, parse error), 2 when a stage
fails on valid input (weak accumulation seed, open surface where a closed
one is required, and so on).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import save_grid
from .errors import (EmptyInput, ParseError, TooSmall, TubeAxisError,
                     UnsupportedFormat)
from .ingest import (heightmap_to_mesh, load_heightmap, load_mesh, load_volume,
                     read_centerline_csv, write_artifacts, write_off)
from .normals import (digital_surface_faces, estimate_digital_normals,
                      face_normals, orient_inward)
from .pipeline import SETTINGS, STAGES, run_pipeline, timed
from .rebuild import error_summary
from .synth import degrade, gen_tube, parse_tube_spec
from .track import Centerline

_INPUT_ERRORS = (ParseError, UnsupportedFormat, EmptyInput, TooSmall,
                 FileNotFoundError, IsADirectoryError, PermissionError)

_INPUT_TYPES = {".off": "mesh", ".obj": "mesh", ".vox": "voxels", ".txt": "voxels",
                ".xyz": "voxels", ".pts": "voxels", ".pgm": "heightmap"}


class UsageError(ValueError):
    pass


class _StageFailure(Exception):
    """A stage's error on input that loaded: exit 2, whatever its type."""


class _Command(NamedTuple):
    about: str
    stages: tuple
    reports: tuple = ()       # result keys besides the centerline's (_REPORTS)
    centerline: bool = False  # takes --centerline in place of accumulate + track


_CHAIN = ("accumulate", "track", "refine")

COMMANDS = {
    "accumulate": _Command("write the vote and direction grids", _CHAIN[:1],
                           ("max_acc", "max_pt", "domain_dims")),
    "centerline": _Command("track the raw centerline", _CHAIN[:2], ("max_acc",)),
    "refine": _Command("optimize centerline point positions", _CHAIN, (), True),
    "decompose": _Command("label straight and arc sections",
                          _CHAIN + ("decompose",), ("segments", "kinds"), True),
    "reconstruct": _Command("sweep an ideal tube along the centerline",
                            _CHAIN + ("reconstruct",), ("reconstructed_faces",),
                            True),
    "error-map": _Command("per-face squared distance to the ideal tube",
                          _CHAIN + ("error_map",), ("error",), True),
    "pipeline": _Command("run every stage and write all artifacts", STAGES,
                         ("max_acc", "max_pt", "segments", "kinds", "error")),
}

_REPORTS = {
    "max_acc": lambda r: r.accumulation.max_acc,
    "max_pt": lambda r: list(r.accumulation.max_pt),
    "domain_dims": lambda r: list(r.accumulation.domain.dims),
    "segments": lambda r: len(r.decomposition),
    "kinds": lambda r: r.decomposition.kinds(),
    "reconstructed_faces": lambda r: r.tube.n_faces,
    "error": lambda r: error_summary(r.errors),
}

# the options of each stage as (flag, help); a flag's dest is the
# run_pipeline keyword it sets and its key in the summary's params, and its
# default and type come from the function that owns it (_setting)
_STAGE_OPTIONS = {
    "track": (
        ("--track-step", "centerline sampling step (default: radius)"),
        ("--inside-threshold",
         "fraction of the run's reference vote level (lower quartile of the "
         "accepted points) required to continue"),
        ("--max-angle", "max turning angle per step, radians"),
    ),
    "refine": (
        ("--epsilon-o", "energy-drop convergence threshold"),
        ("--max-iter", "iteration cap per point"),
        ("--area-weighting", "weight each surface point force by its face area"),
    ),
    "decompose": (
        ("--alpha-flat", "max per-vertex turn, radians, still considered straight"),
        ("--nu", "max midpoint deviation from the arc line, tangent-space units"),
        ("--min-len", "ranges spanning fewer indices merge into their neighbor"),
        ("--resid-tol", "arc planarity gate, world units (default 0.3*gridstep)"),
    ),
    "reconstruct": (
        ("--sides", "vertices per reconstructed ring"),
    ),
}

_POSITIVE = (lambda v: v > 0, "positive and finite")
_NON_NEGATIVE = (lambda v: v >= 0, "non-negative and finite")
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")

# every numeric option with what it must be, checked before anything loads
_LIMITS = {
    "radius": _POSITIVE, "normal_radius": _POSITIVE, "hm_scale": _POSITIVE,
    "hm_spacing": _POSITIVE, "epsilon_acc": _NON_NEGATIVE,
    "min_norm": (lambda v: 0 < v < 1, "in (0, 1)"),
    "track_step": _POSITIVE, "max_angle": _POSITIVE,
    "inside_threshold": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "epsilon_o": _NON_NEGATIVE, "max_iter": _AT_LEAST_1,
    "alpha_flat": _NON_NEGATIVE, "nu": _NON_NEGATIVE, "min_len": _AT_LEAST_1,
    "resid_tol": _NON_NEGATIVE, "sides": (lambda v: v >= 3, "at least 3"),
    "mesh_step": _POSITIVE, "sigma": _NON_NEGATIVE,
}


def _dest(flag):
    return flag[2:].replace("-", "_")


_signature = functools.cache(inspect.signature)  # one per owner, not per flag


def _setting(stage, name):
    """add_argument's keywords for a stage setting: the default that its
    owner's signature declares (SETTINGS; run_pipeline derives track_step
    and resid_tol), typed as that default (None: float); a bool is a switch."""
    owner, names = SETTINGS[stage]
    default = _signature(owner if name in names else run_pipeline).parameters[name].default
    if isinstance(default, bool):
        return {"action": "store_true", "default": default}
    return {"type": float if default is None else type(default), "default": default}


def _checked(flag, value, limit=_POSITIVE):
    """The value as a float; a UsageError unless it is finite and in limit."""
    test, must = limit
    try:
        value = float(value)
    except ValueError:
        raise UsageError(f"{flag} must be a number, got {value!r}") from None
    if not (math.isfinite(value) and test(value)):
        raise UsageError(f"{flag} must be {must}")
    return value


def _check_options(args):
    """Range-check every numeric option; --gridstep becomes a float or None."""
    for dest, limit in _LIMITS.items():
        if getattr(args, dest, None) is not None:
            _checked("--" + dest.replace("_", "-"), getattr(args, dest), limit)
    if hasattr(args, "gridstep"):
        args.gridstep = (None if args.gridstep == "auto"
                         else _checked("--gridstep", args.gridstep))


def _load_input(args, timings):
    """Load the input into an oriented face set.

    Returns (faces, gridstep, normals mode, input facts for the summary).
    """
    path = Path(args.input)
    if not path.exists():
        raise FileNotFoundError(f"input file {path} does not exist")
    kind = args.input_type
    if kind == "auto":
        kind = _INPUT_TYPES.get(path.suffix.lower())
        if kind is None:
            raise UnsupportedFormat(f"cannot infer input type from {path.name!r}; "
                                    "pass --input-type")

    info = {"input_path": str(path), "input_type": kind}
    with timed(timings, "load"):
        if kind == "mesh":
            mesh = load_mesh(path)
            faces = face_normals(mesh)
            native_step = mesh.median_face_size()
            info.update(n_faces=mesh.n_faces, n_vertices=mesh.n_vertices)
        elif kind == "voxels":
            volume = load_volume(path)
            faces = digital_surface_faces(volume)
            native_step = 1.0
            info.update(n_voxels=len(volume), n_faces=len(faces))
        else:
            hm = load_heightmap(path, scale=args.hm_scale, spacing=args.hm_spacing)
            mesh = heightmap_to_mesh(hm)
            faces = face_normals(mesh)
            native_step = mesh.median_face_size()
            info.update(n_faces=mesh.n_faces, heightmap_size=[hm.width, hm.height])

    # staircase face normals vote poorly, so voxel inputs default to smoothed
    normals = args.normals or ("estimate" if kind == "voxels" else "faces")
    if normals == "estimate":
        radius = (max(2.0, 0.5 * args.radius) if args.normal_radius is None
                  else args.normal_radius)
        with timed(timings, "normals"):
            faces = estimate_digital_normals(faces, radius)

    with timed(timings, "orient"):
        faces = orient_inward(faces, mode=args.orient, radius=args.radius)

    gridstep = args.gridstep
    if gridstep is None:
        gridstep = _checked("--gridstep auto (the median face size)", native_step)
    return faces, gridstep, normals, info


def _read_centerline(path):
    """A previously written centerline CSV, closed if its ends meet."""
    points, directions = read_centerline_csv(path)
    closed = len(points) > 2 and (np.linalg.norm(points[0] - points[-1])
                                  < 1.5 * np.linalg.norm(points[1] - points[0]))
    return Centerline(points=points, directions=directions, closed=closed)


def _write_summary(args, info, params, timings, results, outputs):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"command": args.command, "input": info, "params": params,
               "results": results, "outputs": outputs, "timings": timings}
    path = Path(args.json_summary) if args.json_summary else out_dir / "summary.json"
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _centerline_results(cl):
    spacing = cl.segment_lengths()
    return {
        "points": len(cl),
        "closed": bool(cl.closed),
        "mean_spacing": float(spacing.mean()) if len(spacing) else 0.0,
        "refined_points": (int(cl.refined.sum()) if cl.refined is not None else 0),
    }


# --- subcommand handlers ------------------------------------------------------


def _run(args):
    """Load the input, run the subcommand's stages, write and report."""
    command = COMMANDS[args.command]
    timings = {}
    faces, gridstep, normals, info = _load_input(args, timings)
    stages, centerline = command.stages, None
    if getattr(args, "centerline", None):
        centerline = _read_centerline(args.centerline)
        stages = stages[-1:]
    options = {_dest(flag): getattr(args, _dest(flag))
               for stage in command.stages
               for flag, _ in _STAGE_OPTIONS.get(stage, ())}
    try:
        r = run_pipeline(faces, args.radius, gridstep=gridstep,
                         epsilon=args.epsilon_acc, min_norm=args.min_norm,
                         stages=stages, centerline=centerline, **options)
    except TubeAxisError as exc:
        raise _StageFailure() from exc
    timings.update(r.timings)

    out_dir = Path(args.out_dir)
    with timed(timings, "write"):
        if r.centerline is None:
            out_dir.mkdir(parents=True, exist_ok=True)
            outputs = {name: [str(p) for p in save_grid(getattr(r.accumulation, attr),
                                                        out_dir / name)]
                       for name, attr in (("accumulation", "acc"),
                                          ("directions", "directions"))}
        else:
            outputs = write_artifacts(
                out_dir, r.centerline, decomposition=r.decomposition,
                meshes=None if r.tube is None else {"reconstructed": r.tube},
                face_scalars=None if r.errors is None else {"error_map": r.errors})
    results = {} if r.centerline is None else _centerline_results(r.centerline)
    results.update((key, _REPORTS[key](r)) for key in command.reports)

    params = dict(options, radius=args.radius, epsilon_acc=r.acc_params.epsilon,
                  gridstep=gridstep, min_norm=args.min_norm, normals=normals,
                  orient=args.orient)
    for key in ("track_step", "resid_tol"):
        if key in params:
            params[key] = getattr(r, key)
    _write_summary(args, info, params, timings, results, outputs)
    return 0


def _synth(args):
    timings = {}
    try:
        segments = parse_tube_spec(args.spec)
    except ValueError as exc:
        raise UsageError(str(exc))
    mesh_step = args.mesh_step if args.mesh_step is not None else args.radius / 3.0
    with timed(timings, "synth"):
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
    with timed(timings, "write"):
        write_off(mesh, mesh_path)
        junctions = set(truth.junctions)
        with open(truth_path, "w") as fh:
            fh.write("index,x,y,z,tx,ty,tz,kind,junction\n")
            for i, (p, t, k) in enumerate(zip(truth.points, truth.tangents,
                                              truth.kinds)):
                fh.write(f"{i},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g},"
                         f"{t[0]:.9g},{t[1]:.9g},{t[2]:.9g},{k},"
                         f"{1 if i in junctions else 0}\n")

    info = {"input_path": args.spec, "input_type": "synthetic",
            "n_faces": mesh.n_faces}
    params = {"radius": args.radius, "mesh_step": mesh_step, "seed": args.seed}
    results = {"n_faces": mesh.n_faces, "n_vertices": mesh.n_vertices,
               "truth_points": len(truth.points),
               "junctions": list(truth.junctions)}
    outputs = {"mesh_off": str(mesh_path), "truth_csv": str(truth_path)}
    _write_summary(args, info, params, timings, results, outputs)
    return 0


# --- argument plumbing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 here; a bad flag is an input problem, exit 1
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: error: {message}")


def _add_common_args(p, radius_help):
    p.add_argument("--radius", type=float, required=True, help=radius_help)
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--json-summary", default=None,
                   help="summary path (default <out-dir>/summary.json)")


def _add_input_args(p):
    p.add_argument("--input", required=True,
                   help="input file (mesh, voxel list or height map)")
    p.add_argument("--input-type", choices=["mesh", "voxels", "heightmap", "auto"],
                   default="auto")
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
    p.add_argument("--epsilon-acc", **_setting("accumulate", "epsilon"),
                   help="scan slack beyond the radius (default 0.1*radius)")
    p.add_argument("--min-norm", **_setting("accumulate", "min_norm"),
                   help="minimal cross product norm kept in the direction image")


def build_parser():
    parser = _Parser(
        prog="tubeaxis",
        description="Centerline extraction and straight/arc analysis of 3D "
                    "tubular shapes")
    sub = parser.add_subparsers(dest="command")

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.about)
        _add_common_args(p, "tube radius in input units")
        _add_input_args(p)
        for stage in command.stages:
            for flag, help in _STAGE_OPTIONS.get(stage, ()):
                p.add_argument(flag, **_setting(stage, _dest(flag)), help=help)
        if command.centerline:
            p.add_argument("--centerline", default=None,
                           help="reuse a centerline CSV instead of tracking")
        p.set_defaults(func=_run)

    p = sub.add_parser("synth", help="generate a ground-truth tube")
    _add_common_args(p, "tube cross-section radius")
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
    p.add_argument("--seed", type=int, default=0, help="degradation seed")
    p.set_defaults(func=_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        _check_options(args)
        return args.func(args)
    except UsageError as exc:
        print(f"tubeaxis {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"tubeaxis {args.command}: input error: {exc}", file=sys.stderr)
        return 1
    except (TubeAxisError, _StageFailure) as exc:
        exc = exc.__cause__ if isinstance(exc, _StageFailure) else exc
        print(f"tubeaxis {args.command}: pipeline failure: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
