"""The stage chain from a surface to its outputs, run once.

The front gives a mesh its face normals, a voxel set smoothed facet
normals, and orients them inward. Then accumulate -> track -> refine,
then any of decompose, reconstruct and error_map on the refined
centerline. The command line, the tests and the demos all run their
chains here, so every derived default is set in one place: run_pipeline
(whose docstring lists them) and AccumulationParams (epsilon = 0.1 R).
Every other stage setting is its stage's own default.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .accumulate import AccumulationParams, AccumulationResult, compute_accumulation
from .decompose import Decomposition, decompose_centerline
from .errors import check_setting
from .ingest import TriMesh, VoxelSet
from .normals import (OrientedFaceSet, digital_surface_faces, estimate_digital_normals,
                      face_normals, orient_inward)
from .rebuild import error_map, sweep_tube
from .refine import optimize_centerline
from .track import INSIDE_THRESHOLD, Centerline, extract_centerline

STAGES = ("accumulate", "track", "refine", "decompose", "reconstruct", "error_map")

# the settings besides radius that each stage reads (the normals only cast votes)
READS = {"accumulate": ("gridstep", "normals", "orient"),
         "track": ("track_step", "inside_threshold"), "refine": ("track_step",),
         "decompose": ("resid_tol",), "reconstruct": (), "error_map": ()}

# the stage whose output each stage reads
_NEEDS = {"track": "accumulate", "refine": "track", "decompose": "track",
          "reconstruct": "track", "error_map": "track"}


@contextmanager
def timed(timings, key):
    """Record the wall time of the block as timings[key], in seconds."""
    t0 = time.perf_counter()
    yield
    timings[key] = round(time.perf_counter() - t0, 6)


@dataclass
class PipelineResult:
    """Resolved settings, the front's faces and the stage outputs; a stage
    that did not run leaves its output None and has no key in timings."""

    acc_params: AccumulationParams
    faces: OrientedFaceSet  # oriented by the front; as built if a centerline was given
    settings: dict          # radius and the six settings, given or derived
    accumulation: AccumulationResult | None = None
    raw: Centerline | None = None         # tracked, or the given centerline
    centerline: Centerline | None = None  # refined if refine ran, else raw
    decomposition: Decomposition | None = None
    tube: TriMesh | None = None
    errors: np.ndarray | None = None
    timings: dict = field(default_factory=dict)


def run_pipeline(surface, radius, *, gridstep=None, normals=None, orient="auto",
                 track_step=None, inside_threshold=INSIDE_THRESHOLD, resid_tol=None,
                 stages=STAGES, centerline=None) -> PipelineResult:
    """Give a TriMesh, or a VoxelSet in its lattice units, faces (face_normals
    or digital_surface_faces) that, unless a centerline is given, are smoothed
    (estimate_digital_normals when normals is "estimate") and oriented
    (orient_inward) for the votes alone. Then run the named stages.

    stages is any subset of STAGES whose inputs it contains: STAGES[:k]
    stops after the k-th stage, () after the front. A given centerline
    takes the place of accumulate and track; refine, if asked for, then
    refines it. Defaults: gridstep the surface's step (median_face_size, 1
    for voxels), normals "estimate" for voxels, "faces" otherwise,
    track_step R, inside_threshold track.INSIDE_THRESHOLD, resid_tol
    0.05 * R. The normals' smoothing radius is max(2, R/2); every other
    stage setting is its stage's own default. Another surface is a
    TypeError; a setting, given or derived, outside errors.LIMITS an
    OutOfRange (a ValueError), raised before the front runs.
    """
    voxels = isinstance(surface, VoxelSet)
    if not (voxels or isinstance(surface, TriMesh)):
        raise TypeError(f"run_pipeline() takes a TriMesh or a VoxelSet, not a "
                        f"{type(surface).__name__}")
    normals = normals or ("estimate" if voxels else "faces")  # facet staircases vote poorly
    if normals not in ("faces", "estimate"):
        raise ValueError(f"unknown normals mode {normals!r}")
    if gridstep is None:
        gridstep = 1.0 if voxels else surface.median_face_size()
    stages = set(stages)
    given = {"accumulate", "track"} if centerline is not None else set()
    for stage in stages:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; the stages are {STAGES}")
        if stage in given:
            raise ValueError(f"a given centerline replaces the {stage} stage")
        if _NEEDS.get(stage, stage) not in stages | given:
            raise ValueError(f"stage {stage!r} needs stage {_NEEDS[stage]!r}")

    track_step = radius if track_step is None else track_step
    resid_tol = 0.05 * radius if resid_tol is None else resid_tol
    settings = dict(radius=radius, gridstep=gridstep, track_step=track_step,
                    inside_threshold=inside_threshold, resid_tol=resid_tol)
    for name, value in settings.items():
        check_setting(name, value)
    settings.update(normals=normals, orient=orient)
    acc = AccumulationParams(radius=radius, gridstep=gridstep)

    t = {}
    with timed(t, "normals"):
        faces = (digital_surface_faces if voxels else face_normals)(surface)
        if centerline is None and normals == "estimate":
            faces = estimate_digital_normals(faces, max(2.0, 0.5 * radius))
    if centerline is None:
        with timed(t, "orient"):
            faces = orient_inward(faces, mode=orient, radius=radius)
    out = PipelineResult(acc_params=acc, faces=faces, settings=settings,
                         raw=centerline, centerline=centerline, timings=t)
    if "accumulate" in stages:
        with timed(t, "accumulate"):
            out.accumulation = compute_accumulation(faces, acc)
    if "track" in stages:
        with timed(t, "track"):
            out.raw = out.centerline = extract_centerline(
                out.accumulation, track_step, acc.acc_radius, inside_threshold)
    if "refine" in stages:
        with timed(t, "refine"):
            out.centerline = optimize_centerline(out.raw, faces, radius, acc.acc_radius,
                                                 track_step)
    if "decompose" in stages:
        with timed(t, "decompose"):
            out.decomposition = decompose_centerline(out.centerline, resid_tol=resid_tol)
    if "reconstruct" in stages:
        with timed(t, "reconstruct"):
            out.tube = sweep_tube(out.centerline, radius)
    if "error_map" in stages:
        with timed(t, "error_map"):
            out.errors = error_map(faces, out.centerline, radius)
    return out
