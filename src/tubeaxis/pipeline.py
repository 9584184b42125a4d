"""The stage chain on oriented faces, run once.

accumulate -> track -> refine, then any of decompose, reconstruct and
error_map on the refined centerline. The command line, the tests and the
demos all run their chains here, so every derived default is set in one
place: the scan slack epsilon = 0.1 R (AccumulationParams), the tracking
step R, the scan radius R + epsilon for both tracking and refinement, and
the arc planarity gate 0.3 gridstep.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .accumulate import AccumulationParams, AccumulationResult, compute_accumulation
from .decompose import Decomposition, decompose_centerline
from .ingest import TriMesh
from .rebuild import error_map, sweep_tube
from .refine import RefineParams, optimize_centerline
from .track import Centerline, extract_centerline

STAGES = ("accumulate", "track", "refine", "decompose", "reconstruct", "error_map")

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
    """Resolved settings and stage outputs; a stage that did not run
    leaves its output None and has no key in timings."""

    acc_params: AccumulationParams
    track_step: float
    resid_tol: float
    accumulation: AccumulationResult | None = None
    raw: Centerline | None = None         # tracked, or the given centerline
    centerline: Centerline | None = None  # refined if refine ran, else raw
    decomposition: Decomposition | None = None
    tube: TriMesh | None = None
    errors: np.ndarray | None = None
    timings: dict = field(default_factory=dict)


def run_pipeline(faces, radius, *, gridstep=1.0, epsilon=None, min_norm=0.1,
                 track_step=None, inside_threshold=0.5, max_angle=math.pi / 3,
                 epsilon_o=0.001, max_iter=1000, area_weighting=False,
                 alpha_flat=0.05, nu=0.15, min_len=3, resid_tol=None, sides=24,
                 stages=STAGES, centerline=None) -> PipelineResult:
    """Run the named stages, in chain order, on oriented faces.

    stages is any subset of STAGES whose inputs it contains: STAGES[:k]
    stops after the k-th stage. A given centerline takes the place of
    accumulate and track; refine, if asked for, then refines it.
    """
    stages = set(stages)
    given = {"accumulate", "track"} if centerline is not None else set()
    for stage in stages:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; the stages are {STAGES}")
        if stage in given:
            raise ValueError(f"a given centerline replaces the {stage} stage")
        if _NEEDS.get(stage, stage) not in stages | given:
            raise ValueError(f"stage {stage!r} needs stage {_NEEDS[stage]!r}")

    acc = AccumulationParams(radius=radius, epsilon=epsilon, gridstep=gridstep,
                             min_norm=min_norm)
    out = PipelineResult(
        acc_params=acc, track_step=radius if track_step is None else track_step,
        resid_tol=0.3 * gridstep if resid_tol is None else resid_tol,
        raw=centerline, centerline=centerline)
    t = out.timings
    if "accumulate" in stages:
        with timed(t, "accumulate"):
            out.accumulation = compute_accumulation(faces, acc)
            if "track" not in stages:  # the whole direction table is the output
                out.accumulation.dirs
    if "track" in stages:
        with timed(t, "track"):
            out.raw = out.centerline = extract_centerline(
                out.accumulation, out.track_step, acc.acc_radius,
                inside_threshold=inside_threshold, max_angle=max_angle)
    if "refine" in stages:
        params = RefineParams(radius=radius, acc_radius=acc.acc_radius,
                              track_step=out.track_step, epsilon_o=epsilon_o,
                              max_iter=max_iter, area_weighting=area_weighting)
        with timed(t, "refine"):
            out.centerline = optimize_centerline(out.raw, faces, params)
    if "decompose" in stages:
        with timed(t, "decompose"):
            out.decomposition = decompose_centerline(
                out.centerline, alpha_flat=alpha_flat, nu=nu, min_len=min_len,
                resid_tol=out.resid_tol)
    if "reconstruct" in stages:
        with timed(t, "reconstruct"):
            out.tube = sweep_tube(out.centerline, radius, sides=sides)
    if "error_map" in stages:
        with timed(t, "error_map"):
            out.errors = error_map(faces, out.centerline, radius)
    return out
