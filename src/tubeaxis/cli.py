"""Command line driver: load an input, run the stage chain, write its outputs.

Each file subcommand is one row of COMMANDS: the stages it runs (through
tubeaxis.pipeline.run_pipeline) and the results it reports. accumulate,
centerline, refine, decompose, reconstruct and error-map run the chain up
to their own stage; with --centerline, the last four run only their own
stage on a centerline read from a CSV. A run takes and records the settings
its stages read (pipeline.READS). pipeline runs every stage; synth
writes a ground-truth tube. Exit codes: 0 on success, 1 on input problems
(bad flags or option values, missing file, parse error), 2 when a stage
fails on valid input (weak accumulation seed, open surface where a closed
one is required, and so on).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (LIMITS, EmptyInput, OutOfRange, ParseError, TooSmall, TubeAxisError,
                     UnsupportedFormat, check_setting)
from .ingest import (heightmap_to_mesh, load_heightmap, load_mesh, load_volume,
                     read_centerline_csv, write_artifacts, write_off,
                     write_truth_csv)
from .pipeline import READS, STAGES, run_pipeline, timed
from .rebuild import error_summary
from .synth import degrade, gen_tube, parse_tube_spec
from .track import INSIDE_THRESHOLD, Centerline

_INPUT_ERRORS = (ParseError, UnsupportedFormat, EmptyInput, TooSmall, FileNotFoundError,
                 FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError)

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
    "accumulate": _Command("write the vote table (accumulation.npz)", _CHAIN[:1],
                           ("max_acc", "max_pt", "domain_dims")),
    "centerline": _Command("track the raw centerline", _CHAIN[:2], ("max_acc",)),
    "refine": _Command("optimize centerline point positions", _CHAIN, (), True),
    "decompose": _Command("label straight and arc sections",
                          _CHAIN + ("decompose",), ("segments", "kinds"), True),
    "reconstruct": _Command("sweep an ideal tube along the centerline",
                            _CHAIN + ("reconstruct",), ("reconstructed_faces",),
                            True),
    "error-map": _Command("per-face squared deviation (d - R)^2, in length^2, "
                          "d the face center's distance to the centerline",
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

def _reads(stages):
    return {name for stage in stages for name in READS[stage]}


def _check_options(args):
    """Check that no output path runs through a file, then every numeric option
    (errors.check_setting, a UsageError naming the flag); --gridstep becomes None or a float."""
    out = Path(args.out_dir)
    for part in (out, *out.parents, *Path(args.json_summary or out).parents):
        if part.exists() and not part.is_dir():
            raise NotADirectoryError(f"output path {part} is not a directory")
    if getattr(args, "gridstep", None) is not None:
        try:
            args.gridstep = None if args.gridstep == "auto" else float(args.gridstep)
        except ValueError:
            raise UsageError(f"--gridstep must be 'auto' or a number, "
                             f"got {args.gridstep!r}") from None
    for dest, value in vars(args).items():
        if dest in LIMITS and value is not None:
            try:
                check_setting(dest, value)
            except OutOfRange as exc:
                raise UsageError(str(exc).replace(dest, "--" + dest.replace("_", "-"), 1)) from None


def _load_input(args, timings):
    """Read the input file into a surface: (TriMesh or VoxelSet, input facts
    for the summary, which the run adds its face count to)."""
    path = Path(args.input)
    if not path.exists():
        raise FileNotFoundError(f"input file {path} does not exist")
    kind = args.input_type
    if kind == "auto":
        kind = _INPUT_TYPES.get(path.suffix.lower())
        if kind is None:
            raise UnsupportedFormat(f"cannot infer input type from {path.name!r}; "
                                    "pass --input-type")

    calibration = {name: value for name in ("scale", "spacing")
                   if (value := getattr(args, "hm_" + name)) is not None}
    if calibration and kind != "heightmap":
        raise UsageError(f"--hm-{min(calibration)} applies to height maps, not to {kind}")
    info = {"input_path": str(path), "input_type": kind}
    with timed(timings, "load"):
        if kind == "mesh":
            surface = load_mesh(path)
            info.update(n_vertices=surface.n_vertices)
        elif kind == "voxels":
            surface = load_volume(path)
            info.update(n_voxels=len(surface))
        else:
            hm = load_heightmap(path, **calibration)
            surface = heightmap_to_mesh(hm)
            info.update(heightmap_size=[hm.width, hm.height])
    return surface, info


def _read_centerline(path):
    """A previously written centerline CSV, closed if its ends meet. A
    breach of the Centerline contract is a ParseError naming the file."""
    points, directions = read_centerline_csv(path)
    try:
        centerline = Centerline(points=points, directions=directions)
    except TubeAxisError as exc:
        raise ParseError(str(exc), path=path) from None
    centerline.closed = len(points) > 2 and (np.linalg.norm(points[0] - points[-1])
                                             < 1.5 * np.linalg.norm(points[1] - points[0]))
    return centerline


def _write_summary(args, info, params, timings, results, outputs):
    summary = {"command": args.command, "input": info, "params": params,
               "results": results, "outputs": outputs, "timings": timings}
    path = Path(args.json_summary or Path(args.out_dir) / "summary.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _centerline_results(cl):
    return {
        "points": len(cl),
        "closed": bool(cl.closed),
        "mean_spacing": float(cl.segment_lengths().mean()),
        "refined_points": (int(cl.refined.sum()) if cl.refined is not None else 0),
    }


# --- subcommand handlers ------------------------------------------------------


def _run(args):
    """Check the options, load the input, run the stages, write and report."""
    command = COMMANDS[args.command]
    csv = getattr(args, "centerline", None)
    stages = command.stages[-1:] if csv else command.stages
    read = _reads(stages)
    for dest in sorted(_reads(command.stages) - read):  # read by accumulate or track alone
        if getattr(args, dest) is not None:
            raise UsageError(f"--{dest.replace('_', '-')} has no effect with --centerline, "
                             "which takes the place of accumulate and track")
    _check_options(args)
    timings = {}
    surface, info = _load_input(args, timings)
    centerline = _read_centerline(csv) if csv else None
    settings = {dest: value for dest in read if (value := getattr(args, dest)) is not None}
    try:
        r = run_pipeline(surface, args.radius, stages=stages, centerline=centerline,
                         **settings)
    except EmptyInput:  # an empty voxel set, an input error as an empty mesh file is
        raise
    except TubeAxisError as exc:
        raise _StageFailure() from exc
    timings.update(r.timings)
    info["n_faces"] = len(r.faces)

    with timed(timings, "write"):
        outputs = write_artifacts(args.out_dir, r.centerline, decomposition=r.decomposition,
                                  tube=r.tube, errors=r.errors, accumulation=r.accumulation)
    results = {} if r.centerline is None else _centerline_results(r.centerline)
    results.update((key, _REPORTS[key](r)) for key in command.reports)

    params = {name: r.settings[name] for name in ("radius", *read)}
    _write_summary(args, info, params, timings, results, outputs)
    return 0


def _synth(args):
    _check_options(args)
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
        write_truth_csv(truth, truth_path)

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


def _add_input_args(p, stages):
    def setting(dest, **spec):  # a run_pipeline keyword; None stands for its default
        if dest in _reads(stages):
            p.add_argument("--" + dest.replace("_", "-"), **spec)

    p.add_argument("--input", required=True,
                   help="input file (mesh, voxel list or height map)")
    p.add_argument("--input-type", choices=["mesh", "voxels", "heightmap", "auto"],
                   default="auto")
    p.add_argument("--hm-scale", type=float,
                   help="height per gray level for PGM height maps (default 1)")
    p.add_argument("--hm-spacing", type=float,
                   help="pixel pitch in world units for PGM height maps (default 1)")
    setting("gridstep", help="lattice step; 'auto' (default) is the median longest "
                             "triangle edge (sqrt(2) * --hm-spacing on a flat height "
                             "map), 1 for voxels")
    setting("normals", choices=["faces", "estimate"],
            help="face normals as given, or covariance-smoothed "
                 "(default: estimate for voxel inputs, faces otherwise)")
    setting("orient", choices=["auto", "keep", "flip"],
            help="inward normal resolution mode (default: auto)")
    setting("track_step", type=float, help="centerline sampling step (default: radius)")
    setting("inside_threshold", type=float,
            help="fraction of the run's reference vote level (lower quartile of the "
                 f"accepted points) required to continue (default: {INSIDE_THRESHOLD})")
    setting("resid_tol", type=float,
            help="RMS distance, world units, within which a line fits a straight and "
                 "a circle an arc (default 0.05*radius)")


def build_parser(commands=None):
    """The tubeaxis parser. Every subcommand is listed, but only those in
    ``commands`` (default: all) get their options; a subcommand's parser
    is only read when it runs, or when its help is asked for."""
    parser = _Parser(
        prog="tubeaxis",
        description="Centerline extraction and straight/arc analysis of 3D "
                    "tubular shapes")
    sub = parser.add_subparsers(dest="command")

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.about)
        if commands is not None and name not in commands:
            continue
        _add_common_args(p, "tube radius in input units")
        _add_input_args(p, command.stages)
        if command.centerline:
            p.add_argument("--centerline", default=None,
                           help="reuse a centerline CSV instead of tracking")
        p.set_defaults(func=_run)

    p = sub.add_parser("synth", help="generate a ground-truth tube")
    if commands is not None and "synth" not in commands:
        return parser
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
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser takes no option with a value, so the subcommand
    # that argparse runs, if any, is the first argument that names one
    names = [*COMMANDS, "synth"]
    parser = build_parser(commands=[next((a for a in argv if a in names), None)])
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
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
