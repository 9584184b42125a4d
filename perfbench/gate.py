"""Correctness gate and result digest for one CLI invocation.

The gate compares the centerline the CLI wrote against the seeded truth
axis. It is written against the files the CLI produces, not against
library objects, so it checks exactly what a CLI user receives.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Accuracy bounds, as fractions of the tube radius / of the truth length.
# A centerline shifted by R off the axis has an RMS of about R and fails.
MAX_RMS_PER_RADIUS = 0.1
MIN_COVERAGE = 0.9


def project_on_polyline(points, polyline):
    """Closest points on a polyline: returns (distances, arclength params)."""
    points = np.atleast_2d(points)
    a, b = polyline[:-1], polyline[1:]
    ab = b - a
    seg_len = np.linalg.norm(ab, axis=1)
    t = np.einsum("pjk,jk->pj", points[:, None, :] - a[None], ab)
    t = np.clip(t / np.maximum(seg_len ** 2, 1e-300), 0.0, 1.0)
    closest = a[None] + t[..., None] * ab[None]
    d = np.linalg.norm(points[:, None, :] - closest, axis=2)
    j = np.argmin(d, axis=1)
    rows = np.arange(len(points))
    start = np.concatenate([[0.0], np.cumsum(seg_len)])
    return d[rows, j], start[j] + t[rows, j] * seg_len[j]


def read_centerline(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 1:4]


def axis_metrics(centerline, truth):
    """(axis_rms, axis_coverage) of a centerline against the truth axis."""
    dist, s = project_on_polyline(centerline, truth)
    total = float(np.linalg.norm(np.diff(truth, axis=0), axis=1).sum())
    return float(np.sqrt(np.mean(dist ** 2))), float((s.max() - s.min()) / total)


def check(exit_code, out_dir, truth, radius, kinds):
    """Gate one invocation; returns (passed, facts, reasons)."""
    facts, reasons = {"exit_code": exit_code}, []
    if exit_code != 0:
        return False, facts, [f"exit code {exit_code}"]
    out_dir = Path(out_dir)
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        centerline = read_centerline(out_dir / "centerline.csv")
    except (OSError, ValueError) as exc:
        return False, facts, [f"unreadable output: {exc}"]
    facts["kinds"] = summary.get("results", {}).get("kinds")
    facts["points"] = len(centerline)
    if facts["kinds"] != kinds:
        reasons.append(f"kinds {facts['kinds']!r} != {kinds!r}")
    if len(centerline) < 2:
        reasons.append(f"{len(centerline)} centerline point(s)")
        return False, facts, reasons
    facts["axis_rms"], facts["axis_coverage"] = axis_metrics(centerline, truth)
    if not facts["axis_rms"] <= MAX_RMS_PER_RADIUS * radius:
        reasons.append(f"axis_rms {facts['axis_rms']:.4g} > "
                       f"{MAX_RMS_PER_RADIUS * radius:.4g}")
    if not facts["axis_coverage"] >= MIN_COVERAGE:
        reasons.append(f"axis_coverage {facts['axis_coverage']:.4g} < {MIN_COVERAGE}")
    return not reasons, facts, reasons


def digest(out_dir):
    """Hash of summary.json without timings and paths, plus centerline.csv.

    Two runs of the same input agree on it exactly when the CLI's
    deterministic outputs agree.
    """
    out_dir = Path(out_dir)
    summary = json.loads((out_dir / "summary.json").read_text())
    summary.pop("timings", None)
    summary.pop("outputs", None)
    summary.get("input", {}).pop("input_path", None)
    h = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    h.update((out_dir / "centerline.csv").read_bytes())
    return h.hexdigest()[:16]
