"""Command line interface: exit codes, artifacts, summary determinism."""

import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tubeaxis as tx
from tubeaxis import cli
from tubeaxis.cli import build_parser, main
from tubeaxis.errors import LIMITS


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


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_vertex_is_exit_1(tube_off, tmp_path, capsys, token):
    # one coordinate of vertex 7 of an S:40 tube; the loader names it
    # before any face geometry is computed
    lines = tube_off.read_text().splitlines(keepends=True)
    x, y, z = lines[2 + 7].split()
    lines[2 + 7] = f"{x} {token} {z}\n"
    bad = tmp_path / "bad.off"
    bad.write_text("".join(lines))
    out = tmp_path / "out"
    rc = run(["pipeline", "--input", bad, "--radius", 4, "--out-dir", out])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "input error:" in err[0] and "vertex 7 has a non-finite coordinate" in err[0]
    assert not (out / "summary.json").exists()


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


def test_scan_without_a_step_is_exit_2(tmp_path, capsys):
    # acc_radius below 1e-9 gridstep leaves no scan step; this once ended
    # in a ValueError traceback from the vote count
    assert run(["synth", "--spec", "S:20", "--radius", 2,
                "--out-dir", tmp_path / "synth"]) == 0
    rc = run(["pipeline", "--input", tmp_path / "synth" / "tube.off",
              "--radius", 1e-12, "--orient", "keep", "--out-dir", tmp_path / "out"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pipeline failure: TooSmall: acc_radius" in err
    assert "gridstep" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "summary.json").exists()


# the flags of the stage settings that became their stages' constants
_REMOVED = ("--epsilon-acc", "--normal-radius", "--max-angle", "--epsilon-o",
            "--max-iter", "--sides")


@pytest.mark.parametrize("flag,value", [
    *(pytest.param("--gridstep", v, id=v) for v in ("0", "-1", "nan", "inf", "-inf")),
    # each of these once exited 0 with a meaningless result or a traceback
    ("--track-step", "0"), ("--track-step", "-3"), ("--max-angle", "-1"),
    ("--sides", "0"), ("--sides", "-2"), ("--epsilon-acc", "-1"), ("--inside-threshold", "2"), ("--max-iter", "0"),
    ("--hm-spacing", "0")])
def test_bad_gridstep_is_exit_1(tube_off, tmp_path, capsys, flag, value):
    # the same holds for every range-checked stage option; a removed flag
    # takes no value at all
    rc = run(["pipeline", "--input", tube_off, "--radius", 4,
              f"{flag}={value}", "--out-dir", tmp_path / "out"])
    assert rc == 1
    want = (f"unrecognized arguments: {flag}={value}" if flag in _REMOVED
            else f"{flag} must be")
    assert want in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


_PIPE = ["pipeline", "--input", "missing.off", "--radius", "2"]


@pytest.mark.parametrize("args", [
    pytest.param(_PIPE + ["--bogus", "1"], id="unknown-flag"),
    # the direction image's setting, gone with it
    pytest.param(_PIPE + ["--min-norm", "0.1"], id="removed-min-norm"),
    # the stage settings that became constants, on every subcommand
    *(pytest.param([command, *(["--spec", "S:10"] if command == "synth"
                               else ["--input", "missing.off"]), "--radius", "2", flag, "1"],
                   id=f"removed{flag}-{command}")
      for flag in _REMOVED for command in [*cli.COMMANDS, "synth"]),
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


@pytest.mark.parametrize("dest", [name for name in LIMITS if name not in ("epsilon", "sides")])
def test_every_numeric_flag_is_range_checked_before_loading(tmp_path, capsys, dest):
    # -1 is outside every limit; the input does not exist, so the check
    # comes first. Each key of LIMITS but the library's epsilon
    # (AccumulationParams) and sides (sweep_tube) is the dest of a flag,
    # whose message is check_setting's with the flag
    test, must = LIMITS[dest]
    assert not test(-1)
    flag = "--" + dest.replace("_", "-")
    args = (["synth", "--spec", "S:10"] if dest in ("mesh_step", "sigma")
            else ["pipeline", "--input", tmp_path / "missing.off"])
    rc = run(args + ["--radius", 2, f"{flag}=-1", "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert capsys.readouterr().err.endswith(f"error: {flag} must be {must}, got -1.0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "reconstruct"])
def test_one_point_centerline_cannot_be_reconstructed(tube_off, tmp_path,
                                                      capsys, command):
    # at inside threshold 1 tracking stops at the seed; pipeline once
    # exited 0 here, writing no tube and an error-map RMS over 1000. The
    # input is valid, so tracking's TooFewPoints is a pipeline failure
    rc = run([command, "--input", tube_off, "--radius", 4,
              "--inside-threshold", 1, "--out-dir", tmp_path / "out"])
    assert rc == 2
    assert ("pipeline failure: TooFewPoints: tracking stopped at the seed in both "
            "directions" in capsys.readouterr().err)
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("spacing", [1.0, 0.5, 2.0])
def test_auto_gridstep_of_a_height_map_is_the_cell_diagonal(tmp_path, spacing):
    # each cell splits along a diagonal, so a flat map's longest edges are
    # sqrt(2) * --hm-spacing, not the pixel pitch
    path = tmp_path / "flat.pgm"
    path.write_text("P2\n5 4\n255\n" + "7 7 7 7 7\n" * 4)
    out = tmp_path / "out"
    assert run(["accumulate", "--input", path, "--radius", 3, "--hm-spacing", spacing,
                "--orient", "keep", "--out-dir", out]) == 0
    params = json.loads((out / "summary.json").read_text())["params"]
    assert params["gridstep"] == math.sqrt(2) * spacing


@pytest.mark.parametrize("spec, true_radius, mesh_step, radius, message", [
    # tracking finds no direction at the seed when scanning to 3.3
    ("S:60,A:30:90,S:60", 6, 0.515, 3,
     "neither the voxel nor the count ridge fixes a direction at the tracking seed, "
     "scanning to 3.3 (tube radius + epsilon); the tube radius may be wrong"),
    # the orientation probe ties
    ("S:30,A:15:90,S:30", 3, 1, 1,
     "orientation probe ties at 2 votes at radius 1; the tube radius may be wrong, "
     "or pass the orientation explicitly"),
])
def test_seed_failures_name_the_radius(tmp_path, capsys, spec, true_radius, mesh_step,
                                       radius, message):
    assert run(["synth", "--spec", spec, "--radius", true_radius, "--mesh-step", mesh_step,
                "--out-dir", tmp_path / "tube"]) == 0
    capsys.readouterr()
    rc = run(["pipeline", "--input", tmp_path / "tube" / "tube.off", "--radius", radius,
              "--out-dir", tmp_path / "out"])
    assert rc == 2
    assert capsys.readouterr().err == (f"tubeaxis pipeline: pipeline failure: "
                                       f"SeedInvalid: {message}\n")


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
    assert summary["outputs"] == {"accumulation_npz": str(out / "accumulation.npz")}
    table = np.load(out / "accumulation.npz")
    assert int(table["counts"].max()) == summary["results"]["max_acc"]
    assert table["dims"].tolist() == summary["results"]["domain_dims"]
    # one lattice index per voted voxel, inside the domain, none repeated
    index = table["index"]
    assert index.shape == (len(table["counts"]), 3)
    assert np.all((index >= 0) & (index < table["dims"]))
    assert len(np.unique(index, axis=0)) == len(index)
    # unit vectors where the normals fix a direction, zeros elsewhere
    lengths = np.linalg.norm(table["directions"], axis=-1)
    assert np.all((lengths == 0) | (np.abs(lengths - 1) < 1e-12))
    assert np.any(lengths > 0)


def test_accumulate_npz_is_the_vote_table(tube_off, tmp_path):
    out = tmp_path / "acc"
    assert run(["accumulate", "--input", tube_off, "--radius", 4,
                "--gridstep", 1.0, "--out-dir", out]) == 0
    res = tx.run_pipeline(tx.load_mesh(tube_off), 4.0, gridstep=1.0,
                          stages=("accumulate",)).accumulation
    table = np.load(out / "accumulation.npz")
    assert set(table.files) == {"index", "counts", "directions", "origin",
                                "gridstep", "dims"}
    index, counts, dirs = table["index"], table["counts"], table["directions"]
    assert index.dtype == np.int64 and counts.dtype == np.uint32
    assert dirs.dtype == np.float64
    assert np.array_equal(index, np.column_stack(np.unravel_index(res.keys,
                                                                  res.domain.dims)))
    assert counts.tobytes() == res.counts.tobytes()
    assert dirs.tobytes() == res.dirs.tobytes()
    assert table["origin"].tobytes() == res.domain.origin.tobytes()
    assert float(table["gridstep"]) == res.domain.gridstep
    assert tuple(table["dims"]) == res.domain.dims
    # scattered into dense grids, the table is the dense accumulation
    dims = tuple(table["dims"])
    acc = np.zeros(dims, dtype=np.uint32)
    acc[tuple(index.T)] = counts
    directions = np.zeros(dims + (3,))
    directions[tuple(index.T)] = dirs
    assert acc.tobytes() == res.acc.values.tobytes()
    assert directions.tobytes() == res.directions.values.tobytes()


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


_PARAMS = {"radius", "gridstep", "normals", "orient"}
_TRACK = {"track_step", "inside_threshold"}
_DECOMPOSE = {"resid_tol"}
_LINE = {"points", "closed", "mean_spacing", "refined_points"}
_CHAIN = {"accumulate", "track", "refine"}

# subcommand -> (params, results, timings besides load/normals/orient/write, the
# same timings with --centerline or None when the flag does not exist)
_SUMMARY_KEYS = {
    "accumulate": (_PARAMS, {"max_acc", "max_pt", "domain_dims"},
                   {"accumulate"}, None),
    "centerline": (_PARAMS | _TRACK, _LINE | {"max_acc"},
                   {"accumulate", "track"}, None),
    "refine": (_PARAMS | _TRACK, _LINE, _CHAIN, {"refine"}),
    "decompose": (_PARAMS | _TRACK | _DECOMPOSE,
                  _LINE | {"segments", "kinds"}, _CHAIN | {"decompose"},
                  {"decompose"}),
    "reconstruct": (_PARAMS | _TRACK, _LINE | {"reconstructed_faces"},
                    _CHAIN | {"reconstruct"}, {"reconstruct"}),
    "error-map": (_PARAMS | _TRACK, _LINE | {"error"},
                  _CHAIN | {"error_map"}, {"error_map"}),
    "pipeline": (_PARAMS | _TRACK | _DECOMPOSE,
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
    assert set(summary["timings"]) == timings | {"load", "normals", "orient", "write"}


@pytest.fixture(scope="module")
def s30_run(tmp_path_factory):
    """An S:30 tube (R=3) and the pipeline run on it: (tube, run's out dir)."""
    tmp = tmp_path_factory.mktemp("s30")
    assert run(["synth", "--spec", "S:30", "--radius", 3, "--out-dir", tmp]) == 0
    assert run(["pipeline", "--input", tmp / "tube.off", "--radius", 3,
                "--out-dir", tmp / "result"]) == 0
    return tmp / "tube.off", tmp / "result"


@pytest.mark.parametrize("token", ["nan", "inf"])
@pytest.mark.parametrize("command", ["refine", "decompose", "reconstruct", "error-map"])
def test_a_non_finite_centerline_field_is_an_input_error(s30_run, tmp_path, capsys,
                                                         command, token):
    # refine, reconstruct and error-map once exited 0 with NaN in the
    # summary (refine after a RuntimeWarning), decompose exited 1 with an
    # SVD traceback
    tube, result = s30_run
    lines = (result / "centerline.csv").read_text().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[1] = token
    lines[3] = ",".join(fields)
    path = tmp_path / "centerline.csv"
    path.write_text("".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run([command, "--input", tube, "--radius", 3, "--centerline", path,
                  "--out-dir", tmp_path / "out"])
    assert rc == 1
    assert capsys.readouterr().err == (f"tubeaxis {command}: input error: {path}:4: "
                                       "non-finite field\n")
    assert not (tmp_path / "out").exists()


def _cli_warnings_as_errors(*args):
    """The command line in a subprocess under python -W error."""
    return subprocess.run([sys.executable, "-W", "error", "-m", "tubeaxis.cli",
                           *map(str, args)], capture_output=True, text=True)


@pytest.mark.parametrize("case,message", [
    ("one-point", "a centerline needs at least 2 points, got 1"),
    ("times-1e300", "centerline point 0 has a coordinate that is not finite or above "
                    "1e+150 in magnitude"),
    ("direction-1000", "centerline direction 0 is not a unit vector within 1e-06"),
    ("direction-0", "centerline direction 0 is not a unit vector within 1e-06")])
@pytest.mark.parametrize("command", ["refine", "decompose", "reconstruct", "error-map"])
def test_a_centerline_outside_its_contract_is_an_input_error(s30_run, tmp_path, command,
                                                             case, message):
    # one point once gave refine, decompose and error-map exit 0; at 1e300
    # numpy warned, and under -W error every command ended in a traceback.
    # Directions 1000,0,0 once gave refine exit 0 with no point refined,
    # and 0,0,0 let every slab test pass
    tube, result = s30_run
    header, *rows = (result / "centerline.csv").read_text().splitlines()
    if case == "one-point":
        rows = rows[:1]
    elif case == "times-1e300":
        rows = [",".join([f[0], *("%.9g" % (float(x) * 1e300) for x in f[1:4]), *f[4:]])
                for f in (row.split(",") for row in rows)]
    else:
        direction = "1000,0,0" if case == "direction-1000" else "0,0,0"
        rows = [",".join([*row.split(",")[:4], direction]) for row in rows]
    path = tmp_path / "centerline.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    proc = _cli_warnings_as_errors(command, "--input", tube, "--radius", 3,
                                   "--centerline", path, "--out-dir", tmp_path / "out")
    assert proc.returncode == 1
    assert proc.stderr == f"tubeaxis {command}: input error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,factor", [("refine", 1e100), ("error-map", 1e100),
                                            ("decompose", 1e148)])
def test_a_far_centerline_runs_without_a_warning(s30_run, tmp_path, command, factor):
    # inside the contract's bound but far from every face: refine's cells of
    # its points must stay in int64 range, and the error map's RMS must not
    # square its errors near 1e200 unscaled. Decompose's tolerance, 0.15,
    # lies far below the rounding of coordinates near 1e149: it once gave
    # 19 straights with exit 0, and is a pipeline failure
    tube, result = s30_run
    header, *rows = (result / "centerline.csv").read_text().splitlines()
    rows = [",".join([f[0], *("%.9g" % (float(x) * factor) for x in f[1:4]), *f[4:]])
            for f in (row.split(",") for row in rows)]
    path = tmp_path / "centerline.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    proc = _cli_warnings_as_errors(command, "--input", tube, "--radius", 3,
                                   "--centerline", path, "--out-dir", out)
    if command == "decompose":
        assert proc.returncode == 2
        assert proc.stderr.startswith("tubeaxis decompose: pipeline failure: TooSmall: "
                                      "resid_tol 0.15 is below the rounding of the "
                                      "centerline's coordinates")
        assert proc.stderr.count("\n") == 1 and not out.exists()
        return
    assert (proc.returncode, proc.stderr) == (0, "")
    if command == "error-map":
        error = json.loads((out / "summary.json").read_text())["results"]["error"]
        assert error["max"] > 1e200
        assert error["rms"] == pytest.approx(error["max"], rel=1e-9)


@pytest.mark.parametrize("command", ["centerline", "pipeline"])
def test_tracking_that_stops_at_the_seed_is_a_pipeline_failure(s30_run, tmp_path, command):
    # at inside threshold 1 both runs stop at the seed; centerline once
    # exited 0 with that one point
    tube, _ = s30_run
    proc = _cli_warnings_as_errors(command, "--input", tube, "--radius", 3,
                                   "--inside-threshold", 1, "--out-dir", tmp_path / "out")
    assert proc.returncode == 2
    assert proc.stderr == (f"tubeaxis {command}: pipeline failure: TooFewPoints: tracking "
                           "stopped at the seed in both directions (inside_threshold 1, "
                           "max_angle 1.0472)\n")
    assert not (tmp_path / "out" / "summary.json").exists()


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


def _int64_extreme_voxels():
    return "0 0 0\n9223372036854775807 1 2\n"


def _spread_out_voxels():
    # 2.1M distinct values per axis: 2.1M^3 lattice keys do not fit in int64
    i = 3 * np.arange(700_000)
    return "".join(f"{v} {v} {v}\n" for v in i.tolist())


@pytest.mark.parametrize("text,message", [
    pytest.param(_int64_extreme_voxels, "int64 range", id="int64-extreme"),
    pytest.param(_spread_out_voxels, "too spread out", id="too-spread-out")])
def test_voxels_the_lattice_cannot_index_are_an_input_error(tmp_path, capsys,
                                                            text, message):
    # these once ended in a ValueError traceback from the facet lattice
    path = tmp_path / "voxels.xyz"
    path.write_text(text())
    assert run(["pipeline", "--input", path, "--radius", 2,
                "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tubeaxis pipeline: input error: {path}: ")
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_vertices_whose_faces_overflow_are_one_degenerate_face_line(tmp_path):
    # an S:20 tube scaled by 1e200: finite vertices whose squared edges and
    # cross products overflow. This once printed four numpy overflow
    # warnings before the failure, and a traceback under -W error
    mesh, _ = tx.gen_tube([tx.Straight(20.0)], radius=2.0, mesh_step=1.0)
    path = tmp_path / "huge.off"
    tx.write_off(tx.TriMesh(mesh.vertices * 1e200, mesh.faces), path)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tubeaxis.cli", "pipeline", "--input",
         str(path), "--radius", "3e200", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == ("tubeaxis pipeline: pipeline failure: DegenerateFace: face 0 "
                           "has an area or an edge that overflows\n")
    assert not (tmp_path / "out").exists()


def test_heights_that_overflow_are_an_input_error(tmp_path):
    # gray 255 at scale 1e307 overflows; this once printed a numpy warning
    # and ended in a ValueError traceback from HeightMap
    path = tmp_path / "map.pgm"
    path.write_text("P2\n3 3\n255\n0 0 0\n0 255 0\n0 0 0\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tubeaxis.cli", "pipeline", "--input",
         str(path), "--radius", "2", "--hm-scale", "1e307",
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == (f"tubeaxis pipeline: input error: {path}: pixel at row 1, "
                           "column 1 (gray 255) has a non-finite height at scale 1e+307\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,text,message", [
    ("empty.xyz", "", "voxel set is empty"),
    ("empty.off", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "no faces to accumulate"),
    # its one face has no area and is dropped
    ("flat.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n", "no faces to accumulate")])
@pytest.mark.parametrize("orient", ["auto", "keep"])
def test_an_input_without_a_surface_is_an_input_error(tmp_path, capsys, name, text,
                                                      message, orient):
    path = tmp_path / name
    path.write_text(text)
    assert run(["pipeline", "--input", path, "--radius", 2, "--orient", orient,
                "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"tubeaxis pipeline: input error: {message}\n")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv); --help exits by SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_NAMES = [*cli.COMMANDS, "synth"]


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0), (["-h", "pipeline"], 0), ([], 1), (["bogus"], 1),
    (["bogus", "pipeline"], 1), (["--", "pipeline"], 1), (["pipeline"], 1),
    (["pipeline", "--bogus", "1"], 1), (["-x", "synth", "--radius", "1"], 1),
    (["synth", "--spec", "S:1"], 1),
    *(([name, "--help"], 0) for name in _NAMES)],
    ids=lambda v: (" ".join(v) or "no-arguments") if isinstance(v, list) else f"exit-{v}")
def test_help_and_usage_errors_match_the_parser_of_every_subcommand(monkeypatch, capsys,
                                                                    argv, code):
    # main gives options only to the subcommand it runs; what it prints and
    # returns is what the parser with every subcommand's options gives
    lazy = _outcome(argv, capsys)
    assert lazy[0] == code and (lazy[1] if code == 0 else lazy[2]).startswith("usage: ")
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda commands=None: full())
    assert _outcome(argv, capsys) == lazy


def test_main_builds_only_the_options_of_the_subcommand_it_runs(monkeypatch, tmp_path):
    built = []
    add = cli._add_common_args
    monkeypatch.setattr(cli, "_add_common_args",
                        lambda p, *rest: (built.append(p.prog), add(p, *rest)))
    assert run(["synth", "--spec", "S:10", "--radius", 2, "--out-dir", tmp_path]) == 0
    assert run(["centerline", "--input", tmp_path / "tube.off", "--radius", 2,
                "--out-dir", tmp_path / "c"]) == 0
    assert built == ["tubeaxis synth", "tubeaxis centerline"]
    built.clear()
    build_parser()
    assert built == [f"tubeaxis {name}" for name in _NAMES]


@pytest.mark.parametrize("command", list(_SUMMARY_KEYS))
def test_stage_flag_defaults_are_their_owners_defaults(command):
    # each stage flag sets the run_pipeline keyword of its name, and its
    # default is that keyword's (None: run_pipeline derives it)
    args = build_parser().parse_args([command, "--input", "x.off", "--radius", "1"])
    dests = _SUMMARY_KEYS[command][0] - {"radius", "gridstep", "normals", "orient"}
    for dest in dests:
        default = inspect.signature(tx.run_pipeline).parameters[dest].default
        value = getattr(args, dest)
        assert value == default and type(value) is type(default), dest


def test_pipeline_without_flags_records_the_default_params(tube_off, tmp_path):
    out = tmp_path / "p"
    assert run(["pipeline", "--input", tube_off, "--radius", 4, "--out-dir", out]) == 0
    params = json.loads((out / "summary.json").read_text())["params"]
    gridstep = params["gridstep"]
    assert params == {
        "radius": 4.0, "gridstep": gridstep, "normals": "faces", "orient": "auto",
        "track_step": 4.0, "inside_threshold": 0.5, "resid_tol": 0.05 * 4.0}
