"""Span tracing of tubeaxis's public functions, installed from outside.

Tracer.install() wraps every public function defined in the traced modules
and rebinds the wrapper wherever a tubeaxis module holds the original:
cli.py and __init__.py keep `from .x import f` copies, and orient_inward
imports compute_accumulation from its module when it is called, so
rebinding by identity in every module catches all call paths. Nothing
under src/ changes.

Each call is a span with a parent. A span's self time is its duration
minus its direct children's durations. `<layer>.s` sums the self time of
every span of a layer; `<layer>.<part>_s` sums the spans that PARTS
assigns to that part. Helpers called only inside a part (patch_size,
energy_and_gradient, load_off, write_off, ...) belong to that part, so a
part's time is the time its public entry point takes. Accumulations run
inside orient_inward are the orientation probe and count as
normals.orient_probe, not as accumulate.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("ingest", "normals", "accumulate", "track", "refine", "decompose",
          "rebuild", "cli")

PARTS = {
    "ingest.load_mesh": "load", "ingest.load_off": "load",
    "ingest.load_obj": "load", "ingest.load_volume": "load",
    "ingest.load_pgm": "load", "ingest.load_heightmap": "load",
    "ingest.heightmap_to_mesh": "load", "ingest.read_centerline_csv": "load",
    "ingest.write_artifacts": "write", "ingest.write_off": "write",
    "ingest.write_centerline_obj": "write", "ingest.write_centerline_csv": "write",
    "ingest.write_decomposition_csv": "write",
    "ingest.write_face_scalar_csv": "write",
    "normals.face_normals": "face_normals",
    "normals.digital_surface_faces": "digital_faces",
    "normals.estimate_digital_normals": "estimate",
    "normals.orient_inward": "orient",
    "track.extract_patch": "patch", "track.patch_size": "patch",
    "track.is_inside_tube": "inside",
    "refine.section_points": "section",
    "refine.optimize_point": "optimize", "refine.energy_and_gradient": "optimize",
    "rebuild.sweep_tube": "sweep",
    "rebuild.error_map": "error_map", "rebuild.distance_to_polyline": "error_map",
    "rebuild.error_summary": "error_map",
}

# Groups of top-level stages (spans the cli layer calls directly); the peak
# RSS after the last span of a group is reported as <group>.rss_hwm_mb.
RSS_GROUPS = ("ingest.load", "normals", "accumulate", "track", "refine",
              "decompose", "rebuild.sweep", "rebuild.error_map", "ingest.write")

_COMMON = ("cli.main", "normals.orient_inward", "normals.orient_probe",
           "accumulate.compute_accumulation", "track.extract_centerline",
           "track.track_direction", "track.extract_patch",
           "track.is_inside_tube", "refine.optimize_centerline",
           "refine.section_points", "refine.optimize_point",
           "refine.energy_and_gradient", "decompose.decompose_centerline",
           "rebuild.sweep_tube", "rebuild.error_map",
           "rebuild.distance_to_polyline", "ingest.write_artifacts")
_MESH = ("ingest.load_mesh", "normals.face_normals")
_VOXELS = ("ingest.load_volume", "normals.digital_surface_faces",
           "normals.estimate_digital_normals")

# Spans that must fire on each workload; a traced run fails without them.
EXPECTED = {
    "bent_mesh": _COMMON + _MESH + ("decompose.fit_circle_3d",),
    "voxel_pipe": _COMMON + _VOXELS + ("decompose.fit_circle_3d",),
}

# Top-level results the counters read after the invocation.
_KEPT = ("accumulate.compute_accumulation", "track.extract_centerline",
         "refine.optimize_centerline", "decompose.decompose_centerline")

PER_LAYER = (
    "ingest.load_s", "ingest.write_s",
    "normals.face_normals_s", "normals.digital_faces_s", "normals.estimate_s",
    "normals.orient_s", "normals.orient_probe_s", "normals.orient_probe_ratio",
    "accumulate.s", "accumulate.domain_voxels", "accumulate.vote_events",
    "accumulate.occupied_frac", "accumulate.grid_mb",
    "track.s", "track.patch_s", "track.inside_s", "track.patches", "track.points",
    "refine.s", "refine.section_s", "refine.optimize_s", "refine.energy_evals",
    "refine.refined_frac",
    "decompose.s", "decompose.segments", "decompose.circle_fits",
    "rebuild.sweep_s", "rebuild.error_map_s", "rebuild.distance_pairs",
    "cli.self_s",
) + tuple(f"{g}.rss_hwm_mb" for g in RSS_GROUPS)


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == module.__name__):
            yield f"{short}.{name}", obj


class Tracer:
    """In-memory span table for one process; see the module docstring."""

    def __init__(self, rss_mb):
        self.rss_mb = rss_mb
        self.stack = []         # open spans: [name, start, child_time]
        self.self_s = {}        # bucket -> summed self time
        self.calls = {}         # span name -> call count
        self.rss = {}           # rss group -> peak RSS after its last span
        self.results = {}       # _KEPT span name -> result; distance_pairs
        self.probes = []        # max_acc of each orientation probe
        self.probe_keep = None  # did orient_inward keep its input?

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"tubeaxis.{layer}"]
            for name, fn in _public_functions(module):
                originals[id(fn)] = self._wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "tubeaxis" and not modname.startswith("tubeaxis."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _bucket(self, name):
        """(layer, part) a span's self time is summed into."""
        parent = self.stack[-1][0] if self.stack else None
        if name.startswith("accumulate.") and parent in (
                "normals.orient_inward", "normals.orient_probe"):
            return "normals", "orient_probe"
        return name.split(".", 1)[0], PARTS.get(name)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            layer, part = tracer._bucket(name)
            label = "normals.orient_probe" if part == "orient_probe" else name
            frame = [label, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - frame[1]
                self_time = duration - frame[2]
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                for key in (layer, f"{layer}.{part}" if part else None):
                    if key:
                        tracer.self_s[key] = tracer.self_s.get(key, 0.0) + self_time
                tracer.calls[label] = tracer.calls.get(label, 0) + 1
            tracer._observe(label, layer, part, args, kwargs, result)
            return result

        return span

    def _observe(self, label, layer, part, args, kwargs, result):
        """Keep what the counters need; the heavy reductions run later,
        outside every span, in layer_metrics()."""
        top_level = bool(self.stack) and self.stack[-1][0].startswith("cli.")
        if label == "normals.orient_probe":
            if hasattr(result, "max_acc"):
                self.probes.append(int(result.max_acc))
        elif label == "normals.orient_inward":
            self.probe_keep = result is args[0]
        elif label == "rebuild.distance_to_polyline":
            points, polyline = args[:2]
            closed = args[2] if len(args) > 2 else kwargs.get("closed", False)
            segments = max(len(np.atleast_2d(polyline)) - 1 + bool(closed), 1)
            self.results["distance_pairs"] = (self.results.get("distance_pairs", 0)
                                              + len(np.atleast_2d(points)) * segments)
        elif top_level and label in _KEPT:
            self.results[label] = result
        if top_level:
            group = f"{layer}.{part}"
            self.rss[group if group in RSS_GROUPS else layer] = self.rss_mb()

    def missing(self, workload):
        return [name for name in EXPECTED[workload] if not self.calls.get(name)]

    def layer_metrics(self):
        s = self.self_s
        m = {f"{layer}.s": s.get(layer, 0.0) for layer in
             ("accumulate", "track", "refine", "decompose")}
        for key in ("ingest.load", "ingest.write", "normals.face_normals",
                    "normals.digital_faces", "normals.estimate", "normals.orient",
                    "normals.orient_probe", "track.patch", "track.inside",
                    "refine.section", "refine.optimize", "rebuild.sweep",
                    "rebuild.error_map"):
            m[f"{key}_s"] = s.get(key, 0.0)
        m["cli.self_s"] = s.get("cli", 0.0)

        if len(self.probes) == 2:
            first, second = self.probes
            chosen, rejected = (first, second) if self.probe_keep else (second, first)
            m["normals.orient_probe_ratio"] = chosen / max(rejected, 1)
        else:
            m["normals.orient_probe_ratio"] = 0.0

        acc = self.results.get("accumulate.compute_accumulation")
        m.update(dict.fromkeys(("accumulate.domain_voxels", "accumulate.vote_events",
                                "accumulate.occupied_frac", "accumulate.grid_mb"), 0))
        if acc is not None:
            counts = acc.acc.values
            m["accumulate.domain_voxels"] = int(counts.size)
            m["accumulate.vote_events"] = int(counts.sum(dtype=np.int64))
            m["accumulate.occupied_frac"] = float(np.count_nonzero(counts)) / counts.size
            m["accumulate.grid_mb"] = (counts.nbytes + acc.directions.values.nbytes) / 1e6
        raw = self.results.get("track.extract_centerline")
        m["track.patches"] = self.calls.get("track.extract_patch", 0)
        m["track.points"] = len(raw) if raw is not None else 0
        m["refine.energy_evals"] = self.calls.get("refine.energy_and_gradient", 0)
        line = self.results.get("refine.optimize_centerline")
        m["refine.refined_frac"] = (float(line.refined.mean())
                                    if line is not None and len(line) else 0.0)
        dec = self.results.get("decompose.decompose_centerline")
        m["decompose.segments"] = len(dec) if dec is not None else 0
        m["decompose.circle_fits"] = self.calls.get("decompose.fit_circle_3d", 0)
        m["rebuild.distance_pairs"] = self.results.get("distance_pairs", 0)
        for group in RSS_GROUPS:
            m[f"{group}.rss_hwm_mb"] = self.rss.get(group, 0.0)
        return m
