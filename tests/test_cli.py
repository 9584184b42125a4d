"""Command line interface: exit codes, artifacts, summary determinism."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubeaxis as tx
from tubeaxis.cli import build_parser, main


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
    # mesh_step is the surface sampling step, not an accumulation gridstep
    summary = json.loads((out / "summary.json").read_text())
    assert summary["params"] == {"radius": 2.5, "mesh_step": 1.0, "seed": 0}
    assert set(summary["results"]) == {"n_faces", "n_vertices", "truth_points",
                                       "junctions"}
    assert set(summary["timings"]) == {"synth", "write"}


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


@pytest.fixture(params=["far-triangles", "huge-radius"])
def domain_too_large_args(request, tmp_path):
    """Inputs whose accumulation lattice has more voxels than int64 ids."""
    if request.param == "far-triangles":
        far = tmp_path / "far.off"
        far.write_text("OFF\n6 2 0\n0 0 0\n1 0 0\n0 1 0\n"
                       "10000000 10000000 10000000\n10000001 10000000 10000000\n"
                       "10000000 10000001 10000000\n3 0 1 2\n3 3 4 5\n")
        return ["--input", far, "--radius", 1, "--gridstep", 0.01]
    assert run(["synth", "--spec", "S:20", "--radius", 2,
                "--out-dir", tmp_path / "synth"]) == 0
    return ["--input", tmp_path / "synth" / "tube.off", "--radius", 1e12]


@pytest.mark.parametrize("orient", ["auto", "keep"])
def test_domain_too_large_is_exit_2(domain_too_large_args, tmp_path, capsys,
                                    orient):
    # each once ended in a ValueError traceback; the far triangles fail
    # in the orientation probe under auto, the rest in the accumulate stage
    rc = run(["pipeline", *domain_too_large_args, "--orient", orient,
              "--out-dir", tmp_path / "out"])
    assert rc == 2
    assert "pipeline failure: DomainTooLarge" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("value", ["0", "-1.5", "nan", "inf"])
def test_bad_normal_radius_is_exit_1(tmp_path, capsys, value):
    vox = tmp_path / "v.xyz"
    vox.write_text("".join(f"{i} {j} 0\n" for i in range(6) for j in range(6)))
    rc = run(["accumulate", "--input", vox, "--radius", 2,
              "--normal-radius", value, "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert "--normal-radius must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("flag,value", [
    *(pytest.param("--gridstep", v, id=v) for v in ("0", "-1", "nan", "inf", "-inf")),
    # each of these once exited 0 with a meaningless result or a traceback
    ("--track-step", "0"), ("--track-step", "-3"), ("--max-angle", "-1"),
    ("--sides", "0"), ("--sides", "-2"), ("--min-norm", "2"),
    ("--epsilon-acc", "-1"), ("--inside-threshold", "2"), ("--max-iter", "0"),
    ("--hm-spacing", "0")])
def test_bad_gridstep_is_exit_1(tube_off, tmp_path, capsys, flag, value):
    # the same holds for every range-checked stage option
    rc = run(["pipeline", "--input", tube_off, "--radius", 4,
              f"{flag}={value}", "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert f"{flag} must be" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


_PIPE = ["pipeline", "--input", "missing.off", "--radius", "2"]


@pytest.mark.parametrize("args", [
    pytest.param(_PIPE + ["--bogus", "1"], id="unknown-flag"),
    pytest.param(_PIPE + ["--radius", "abc"], id="not-a-number"),
    pytest.param(_PIPE + ["--orient", "sideways"], id="bad-choice"),
    pytest.param(_PIPE + ["--seed", "1"], id="seed-outside-synth"),
    pytest.param(_PIPE[1:], id="no-subcommand"),
    pytest.param(["synth", "--spec", "S:10", "--radius", "2", "--input", "x.off"],
                 id="input-to-synth")])
def test_usage_errors_are_exit_1(capsys, args):
    # argparse's own exit code is 2, which here means a stage failed
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


@pytest.mark.parametrize("value", ["0", "nan", "abc"])
def test_bad_gridstep_is_exit_1_before_loading(tmp_path, capsys, value):
    rc = run(["pipeline", "--input", tmp_path / "missing.off", "--radius", 4,
              f"--gridstep={value}", "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert "--gridstep must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pipeline", "reconstruct"])
def test_one_point_centerline_cannot_be_reconstructed(tube_off, tmp_path,
                                                      capsys, command):
    # at inside threshold 1 tracking stops at the seed; pipeline once
    # exited 0 here, writing no tube and an error-map RMS over 1000. The
    # input is valid, so the stage's TooSmall is a pipeline failure
    rc = run([command, "--input", tube_off, "--radius", 4,
              "--inside-threshold", 1, "--out-dir", tmp_path / "out"])
    assert rc == 2
    assert ("pipeline failure: TooSmall: sweep needs at least 2 centerline points"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "summary.json").exists()


def test_too_small_input_is_exit_1(tmp_path, capsys):
    # the same error type raised while loading is an input error
    path = tmp_path / "strip.pgm"
    path.write_text("P2\n1 3\n255\n1 2 3\n")
    rc = run(["pipeline", "--input", path, "--radius", 4, "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert ("input error: height map needs at least 2 samples per axis"
            in capsys.readouterr().err)


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
    rc1 = run(["pipeline", "--input", tube_off, "--radius", 4,
               "--out-dir", out, "--json-summary", out / "s1.json"])
    first_csv = (out / "centerline.csv").read_bytes()
    rc2 = run(["pipeline", "--input", tube_off, "--radius", 4,
               "--out-dir", out, "--json-summary", out / "s2.json"])
    assert rc1 == rc2 == 0
    s1 = json.loads((out / "s1.json").read_text())
    s2 = json.loads((out / "s2.json").read_text())
    s1.pop("timings")
    s2.pop("timings")
    assert s1 == s2
    assert (out / "centerline.csv").read_bytes() == first_csv


_PARAMS = {"radius", "epsilon_acc", "gridstep", "min_norm", "normals", "orient"}
_TRACK = {"track_step", "inside_threshold", "max_angle"}
_REFINE = {"epsilon_o", "max_iter", "area_weighting"}
_DECOMPOSE = {"alpha_flat", "nu", "min_len", "resid_tol"}
_LINE = {"points", "closed", "mean_spacing", "refined_points"}
_CHAIN = {"accumulate", "track", "refine"}

# subcommand -> (params, results, timings besides load/orient/write, the
# same timings with --centerline or None when the flag does not exist)
_SUMMARY_KEYS = {
    "accumulate": (_PARAMS, {"max_acc", "max_pt", "domain_dims"},
                   {"accumulate"}, None),
    "centerline": (_PARAMS | _TRACK, _LINE | {"max_acc"},
                   {"accumulate", "track"}, None),
    "refine": (_PARAMS | _TRACK | _REFINE, _LINE, _CHAIN, {"refine"}),
    "decompose": (_PARAMS | _TRACK | _REFINE | _DECOMPOSE,
                  _LINE | {"segments", "kinds"}, _CHAIN | {"decompose"},
                  {"decompose"}),
    "reconstruct": (_PARAMS | _TRACK | _REFINE | {"sides"},
                    _LINE | {"reconstructed_faces"}, _CHAIN | {"reconstruct"},
                    {"reconstruct"}),
    "error-map": (_PARAMS | _TRACK | _REFINE, _LINE | {"error"},
                  _CHAIN | {"error_map"}, {"error_map"}),
    "pipeline": (_PARAMS | _TRACK | _REFINE | _DECOMPOSE | {"sides"},
                 _LINE | {"max_acc", "max_pt", "segments", "kinds", "error"},
                 _CHAIN | {"decompose", "reconstruct", "error_map"}, None),
}


@pytest.mark.parametrize("command,with_centerline", [
    *((c, False) for c in _SUMMARY_KEYS),
    *((c, True) for c, keys in _SUMMARY_KEYS.items() if keys[3] is not None)])
def test_summary_key_sets(tube_off, tmp_path, command, with_centerline):
    params, results, timings, cl_timings = _SUMMARY_KEYS[command]
    extra = []
    if with_centerline:
        assert run(["centerline", "--input", tube_off, "--radius", 4,
                    "--out-dir", tmp_path / "cl"]) == 0
        extra = ["--centerline", tmp_path / "cl" / "centerline.csv"]
        timings = cl_timings
    out = tmp_path / "out"
    assert run([command, "--input", tube_off, "--radius", 4, *extra,
                "--out-dir", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["params"]) == params
    assert set(summary["results"]) == results
    assert set(summary["timings"]) == timings | {"load", "orient", "write"}


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


@pytest.mark.parametrize("name,data", [
    pytest.param("neg.off", b"OFF\n-1 0 0\n", id="off-negative-vertices"),
    pytest.param("neg.off", b"OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n",
                 id="off-negative-faces"),
    pytest.param("short.pgm", b"P5\n4 4 255\n\x01\x02", id="pgm-short-body")])
def test_malformed_header_is_an_input_error(tmp_path, capsys, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    assert run(["pipeline", "--input", path, "--radius", 2,
                "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and str(path) in err
    assert "Traceback" not in err


# the function whose signature owns each stage flag's default, by dest
_OWNERS = {
    "epsilon_acc": (tx.AccumulationParams, "epsilon"),
    "min_norm": (tx.AccumulationParams, "min_norm"),
    "track_step": (tx.run_pipeline, "track_step"),
    "inside_threshold": (tx.extract_centerline, "inside_threshold"),
    "max_angle": (tx.extract_centerline, "max_angle"),
    "epsilon_o": (tx.optimize_centerline, "epsilon_o"),
    "max_iter": (tx.optimize_centerline, "max_iter"),
    "area_weighting": (tx.optimize_centerline, "area_weighting"),
    "alpha_flat": (tx.decompose_centerline, "alpha_flat"),
    "nu": (tx.decompose_centerline, "nu"),
    "min_len": (tx.decompose_centerline, "min_len"),
    "resid_tol": (tx.run_pipeline, "resid_tol"),
    "sides": (tx.sweep_tube, "sides"),
}


@pytest.mark.parametrize("command", list(_SUMMARY_KEYS))
def test_stage_flag_defaults_are_their_owners_defaults(command):
    args = build_parser().parse_args([command, "--input", "x.off", "--radius", "1"])
    dests = _SUMMARY_KEYS[command][0] - {"radius", "gridstep", "normals", "orient"}
    for dest in dests:
        owner, name = _OWNERS[dest]
        default = inspect.signature(owner).parameters[name].default
        value = getattr(args, dest)
        assert value == default and type(value) is type(default), dest


def test_pipeline_without_flags_records_the_default_params(tube_off, tmp_path):
    out = tmp_path / "p"
    assert run(["pipeline", "--input", tube_off, "--radius", 4, "--out-dir", out]) == 0
    params = json.loads((out / "summary.json").read_text())["params"]
    gridstep = params["gridstep"]
    assert params == {
        "radius": 4.0, "epsilon_acc": 0.4, "gridstep": gridstep, "min_norm": 0.1,
        "normals": "faces", "orient": "auto", "track_step": 4.0,
        "inside_threshold": 0.5, "max_angle": math.pi / 3, "epsilon_o": 0.001,
        "max_iter": 1000, "area_weighting": False, "alpha_flat": 0.05, "nu": 0.15,
        "min_len": 3, "resid_tol": 0.3 * gridstep, "sides": 24}
