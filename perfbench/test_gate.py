"""Self-test of the benchmark's correctness gate and input poses.

    python3 -m pytest perfbench/test_gate.py    (or: python3 perfbench/test_gate.py)

The gate must pass a centerline on the truth axis and reject one shifted
by the tube radius, a wrong decomposition, and a nonzero exit code.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import workloads  # noqa: E402

RADIUS = 6.0


def _truth():
    """S:100 then a quarter circle of radius 30, sampled densely."""
    straight = np.column_stack([np.linspace(0, 100, 101), np.zeros(101), np.zeros(101)])
    phi = np.linspace(0, math.pi / 2, 60)[1:]
    arc = np.column_stack([100 + 30 * np.sin(phi), 30 - 30 * np.cos(phi),
                           np.zeros(len(phi))])
    return np.vstack([straight, arc])


def _write_outputs(directory, centerline, kinds="SA"):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = ["index,x,y,z,dx,dy,dz"]
    rows += [f"{i},{p[0]},{p[1]},{p[2]},1,0,0" for i, p in enumerate(centerline)]
    (directory / "centerline.csv").write_text("\n".join(rows) + "\n")
    summary = {"results": {"kinds": kinds}, "timings": {"load": 1.0},
               "outputs": {"centerline_csv": str(directory / "centerline.csv")}}
    (directory / "summary.json").write_text(json.dumps(summary))
    return directory


def _on_axis(truth):
    return np.vstack([truth[::6], truth[-1:]])


def test_gate_passes_centerline_on_the_axis():
    truth = _truth()
    with tempfile.TemporaryDirectory() as d:
        out = _write_outputs(d, _on_axis(truth))
        passed, facts, reasons = gate.check(0, out, truth, RADIUS, "SA")
    assert passed, reasons
    assert facts["axis_rms"] < 1e-9
    assert facts["axis_coverage"] > 0.99


def test_gate_rejects_centerline_shifted_by_radius():
    truth = _truth()
    with tempfile.TemporaryDirectory() as d:
        out = _write_outputs(d, _on_axis(truth) + [0.0, 0.0, RADIUS])
        passed, facts, reasons = gate.check(0, out, truth, RADIUS, "SA")
    assert not passed
    assert facts["axis_rms"] > 0.9 * RADIUS
    assert any("axis_rms" in r for r in reasons)


def test_gate_rejects_nonzero_exit():
    truth = _truth()
    with tempfile.TemporaryDirectory() as d:
        out = _write_outputs(d, _on_axis(truth))
        for code in (1, 2):
            passed, _, reasons = gate.check(code, out, truth, RADIUS, "SA")
            assert not passed and reasons == [f"exit code {code}"]


def test_gate_rejects_wrong_kinds_and_short_coverage():
    truth = _truth()
    with tempfile.TemporaryDirectory() as d:
        out = _write_outputs(d, _on_axis(truth), kinds="S")
        assert not gate.check(0, out, truth, RADIUS, "SA")[0]
        out = _write_outputs(d, truth[:80], kinds="SA")
        passed, facts, reasons = gate.check(0, out, truth, RADIUS, "SA")
    assert not passed and facts["axis_coverage"] < gate.MIN_COVERAGE


def test_digest_ignores_timings_and_paths():
    truth = _truth()
    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
        a = _write_outputs(d1, _on_axis(truth))
        b = _write_outputs(d2, _on_axis(truth))
        summary = json.loads((b / "summary.json").read_text())
        summary["timings"]["load"] = 2.0
        (b / "summary.json").write_text(json.dumps(summary))
        assert gate.digest(a) == gate.digest(b)
        _write_outputs(d2, _on_axis(truth) + 1e-6)
        assert gate.digest(a) != gate.digest(b)


def test_pose_rotations_are_proper_and_keep_z():
    rots = workloads.POSE_ROTATIONS
    assert len({r.tobytes() for r in rots}) == len(rots) == 8
    for r in rots:
        assert np.array_equal(r @ r.T, np.eye(3, dtype=np.int64))
        assert round(np.linalg.det(r)) == 1
        assert abs(r[2, 2]) == 1


def test_voxel_truth_follows_the_lattice_motion():
    """The truth transform maps each voxel's center onto its moved voxel's."""
    rng = np.random.default_rng(0)
    p = rng.integers(-20, 20, size=(50, 3))
    for rot in workloads.POSE_ROTATIONS:
        shift = rng.integers(-5, 5, size=3)
        moved = workloads.move_lattice_points(p + 0.5, rot, shift)
        assert np.allclose(moved, p @ rot.T + shift + 0.5)


def test_benchmark_json_names_what_run_prints():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER)
    for m in spec["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.spans.EXPECTED) == set(workloads.WORKLOADS)


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
