"""Command line interface: exit codes, artifacts, summary determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubeaxis as tx
from tubeaxis.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def tube_off(tmp_path):
    out = tmp_path / "synth"
    rc = run(["synth", "--spec", "S:40", "--radius", 4, "--mesh-step", 1.0,
              "--out-dir", out])
    assert rc == 0
    return out / "tube.off"


def test_synth_writes_mesh_truth_summary(tmp_path):
    out = tmp_path / "s"
    rc = run(["synth", "--spec", "S:15,A:10:90,S:15", "--radius", 2.5,
              "--mesh-step", 1.0, "--out-dir", out])
    assert rc == 0
    assert (out / "tube.off").exists()
    assert (out / "summary.json").exists()
    truth = (out / "truth.csv").read_text().splitlines()
    assert truth[0] == "index,x,y,z,tx,ty,tz,kind,junction"
    kinds = {row.split(",")[7] for row in truth[1:]}
    assert kinds == {"S", "A"}
    assert any(row.split(",")[8] == "1" for row in truth[1:])


def test_radius_is_required(tmp_path, capsys):
    rc = run(["centerline", "--input", tmp_path / "missing.off",
              "--out-dir", tmp_path])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--radius" in err


@pytest.mark.parametrize("value", ["0", "-6", "nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["pipeline", "accumulate", "error-map",
                                     "synth"])
def test_bad_radius_is_exit_1_before_loading(tmp_path, capsys, command, value):
    # the input does not exist: the radius is checked before any loading
    args = ([command, "--spec", "S:10"] if command == "synth"
            else [command, "--input", tmp_path / "missing.off"])
    rc = run(args + [f"--radius={value}", "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert "--radius must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_input_is_exit_1(tmp_path):
    rc = run(["centerline", "--input", tmp_path / "nope.off", "--radius", 3,
              "--out-dir", tmp_path])
    assert rc == 1


def test_unsupported_format_is_exit_1(tmp_path):
    bad = tmp_path / "mesh.stl"
    bad.write_text("solid nope\n")
    rc = run(["centerline", "--input", bad, "--radius", 3,
              "--out-dir", tmp_path])
    assert rc == 1


def test_pipeline_failure_is_exit_2(tmp_path):
    one = tmp_path / "one.off"
    one.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    rc = run(["centerline", "--input", one, "--radius", 2,
              "--out-dir", tmp_path / "out"])
    assert rc == 2


@pytest.mark.parametrize("value", ["0", "-1.5", "nan", "inf"])
def test_bad_normal_radius_is_exit_1(tmp_path, capsys, value):
    vox = tmp_path / "v.xyz"
    vox.write_text("".join(f"{i} {j} 0\n" for i in range(6) for j in range(6)))
    rc = run(["accumulate", "--input", vox, "--radius", 2,
              "--normal-radius", value, "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert "--normal-radius must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
def test_bad_gridstep_is_exit_1(tube_off, tmp_path, capsys, value):
    rc = run(["pipeline", "--input", tube_off, "--radius", 4,
              f"--gridstep={value}", "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert "--gridstep must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("value", ["0", "nan", "abc"])
def test_bad_gridstep_is_exit_1_before_loading(tmp_path, capsys, value):
    rc = run(["pipeline", "--input", tmp_path / "missing.off", "--radius", 4,
              f"--gridstep={value}", "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert "--gridstep must be" in capsys.readouterr().err


@pytest.mark.parametrize("length,radius", [(200, 3), (400, 6)])
def test_long_thin_tube_gives_a_straight_centerline(tmp_path, length, radius):
    # both once went wrong in the orientation probe: S:200/R=3 exited 0
    # with 3 points and an error-map RMS of 15,355, S:400/R=6 exited 2
    rc = run(["synth", "--spec", f"S:{length}", "--radius", radius,
              "--mesh-step", 1, "--out-dir", tmp_path / "tube"])
    assert rc == 0
    out = tmp_path / "out"
    rc = run(["pipeline", "--input", tmp_path / "tube" / "tube.off",
              "--radius", radius, "--out-dir", out])
    assert rc == 0
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["kinds"] == "S"
    assert results["error"]["rms"] < 0.1 * radius
    pts, _ = tx.read_centerline_csv(out / "centerline.csv")
    # the generated axis is the x axis from 0 to length
    assert np.all(np.hypot(pts[:, 1], pts[:, 2]) < 0.25 * radius)
    assert np.ptp(pts[:, 0]) > 0.9 * length


def test_accumulate_writes_grids(tube_off, tmp_path):
    out = tmp_path / "acc"
    rc = run(["accumulate", "--input", tube_off, "--radius", 4,
              "--gridstep", 1.0, "--out-dir", out])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "accumulate"
    assert summary["results"]["max_acc"] >= 2
    grid = tx.load_grid(out / "accumulation")
    assert int(grid.values.max()) == summary["results"]["max_acc"]
    dirs = tx.load_grid(out / "directions")
    assert dirs.values.shape == tuple(summary["results"]["domain_dims"]) + (3,)


def test_pipeline_end_to_end(tube_off, tmp_path):
    out = tmp_path / "pipe"
    rc = run(["pipeline", "--input", tube_off, "--radius", 4,
              "--out-dir", out, "--json-summary", out / "s.json"])
    assert rc == 0
    summary = json.loads((out / "s.json").read_text())
    for key in ("command", "input", "params", "results", "outputs", "timings"):
        assert key in summary
    assert summary["results"]["kinds"] == "S"
    assert summary["results"]["error"]["rms"] < 1.0
    for artifact in ("centerline.csv", "centerline.obj", "decomposition.csv",
                     "reconstructed.off", "error_map.csv"):
        assert (out / artifact).exists()
    pts, dirs = tx.read_centerline_csv(out / "centerline.csv")
    assert len(pts) == summary["results"]["points"]
    recon = tx.load_mesh(out / "reconstructed.off")
    assert recon.n_faces > 0


def test_summary_is_deterministic_up_to_timings(tube_off, tmp_path):
    out = tmp_path / "det"
    rc1 = run(["pipeline", "--input", tube_off, "--radius", 4, "--seed", 7,
               "--out-dir", out, "--json-summary", out / "s1.json"])
    first_csv = (out / "centerline.csv").read_bytes()
    rc2 = run(["pipeline", "--input", tube_off, "--radius", 4, "--seed", 7,
               "--out-dir", out, "--json-summary", out / "s2.json"])
    assert rc1 == rc2 == 0
    s1 = json.loads((out / "s1.json").read_text())
    s2 = json.loads((out / "s2.json").read_text())
    s1.pop("timings")
    s2.pop("timings")
    assert s1 == s2
    assert (out / "centerline.csv").read_bytes() == first_csv


def test_refine_accepts_centerline_csv(tube_off, tmp_path):
    out = tmp_path / "c"
    rc = run(["centerline", "--input", tube_off, "--radius", 4,
              "--out-dir", out])
    assert rc == 0
    out2 = tmp_path / "r"
    rc = run(["refine", "--input", tube_off, "--radius", 4,
              "--centerline", out / "centerline.csv", "--out-dir", out2])
    assert rc == 0
    summary = json.loads((out2 / "summary.json").read_text())
    raw_pts, _ = tx.read_centerline_csv(out / "centerline.csv")
    assert summary["results"]["points"] == len(raw_pts)
    assert summary["results"]["refined_points"] > 0


def test_error_map_subcommand(tube_off, tmp_path):
    out = tmp_path / "em"
    rc = run(["error-map", "--input", tube_off, "--radius", 4,
              "--out-dir", out])
    assert rc == 0
    rows = (out / "error_map.csv").read_text().splitlines()
    mesh = tx.load_mesh(tube_off)
    assert len(rows) == mesh.n_faces + 1


def test_threads_fallback_warns(tube_off, tmp_path, capsys):
    out = tmp_path / "t"
    rc = run(["accumulate", "--input", tube_off, "--radius", 4,
              "--threads", 4, "--out-dir", out])
    assert rc == 0
    assert "sequential" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["params"]["threads"] == 4


def test_gridstep_auto_uses_median_face_edge(tube_off, tmp_path):
    out = tmp_path / "g"
    rc = run(["accumulate", "--input", tube_off, "--radius", 4,
              "--out-dir", out])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    mesh = tx.load_mesh(tube_off)
    assert summary["params"]["gridstep"] == pytest.approx(
        mesh.median_face_size())


def test_console_module_entrypoint(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tubeaxis.cli", "synth", "--spec", "S:10",
         "--radius", "2", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "tube.off").exists()


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # from here on, any scipy import raises
from tubeaxis.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_pipeline_runs_without_scipy(tube_off, tmp_path):
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:30"), 4.0, 1.0, cap_ends=True)
    voxels = tmp_path / "tube.xyz"
    voxels.write_text("".join(f"{x} {y} {z}\n" for x, y, z in
                              tx.voxelize(mesh, 1.0).points))
    env = dict(os.environ, PYTHONPATH=str(Path(tx.__file__).parents[1]))
    for source in (tube_off, voxels):
        out = tmp_path / source.stem
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, "pipeline", "--input",
             str(source), "--radius", "4", "--out-dir", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (out / "error_map.csv").exists()


_MODULES_AFTER = """
import sys
from tubeaxis.cli import main
code = main(sys.argv[1:])
print("numpy.ma imported:", "numpy.ma" in sys.modules)
sys.exit(code)
"""


def test_pipeline_does_not_import_numpy_ma(tube_off, tmp_path):
    # np.median's and np.percentile's first calls import numpy.ma, about
    # 10 ms of every CLI run; the median and the tracking quartile avoid them
    mesh, _ = tx.gen_tube(tx.parse_tube_spec("S:30"), 4.0, 1.0, cap_ends=True)
    voxels = tmp_path / "tube.xyz"
    voxels.write_text("".join(f"{x} {y} {z}\n" for x, y, z in
                              tx.voxelize(mesh, 1.0).points))
    env = dict(os.environ, PYTHONPATH=str(Path(tx.__file__).parents[1]))
    for source in (tube_off, voxels):
        out = tmp_path / source.stem
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_AFTER, "pipeline", "--input",
             str(source), "--radius", "4", "--out-dir", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "numpy.ma imported: False" in proc.stdout
