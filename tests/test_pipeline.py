"""run_pipeline against the explicit front and stage chain it replaces."""

import math

import numpy as np
import pytest
from conftest import capped_voxels

import tubeaxis as tx
from tubeaxis import pipeline
from tubeaxis.cli import main
from tubeaxis.errors import LIMITS
from tubeaxis.pipeline import STAGES


def _front(surface, radius, normals=None, orient="auto"):
    """(oriented faces, gridstep) written out with the defaults run_pipeline
    derives: a mesh's exact face normals and median face size, a voxel
    set's facet normals smoothed over max(2, R/2) and step 1."""
    voxels = isinstance(surface, tx.VoxelSet)
    faces = tx.digital_surface_faces(surface) if voxels else tx.face_normals(surface)
    if (normals or ("estimate" if voxels else "faces")) == "estimate":
        faces = tx.estimate_digital_normals(faces, max(2.0, radius / 2))
    gridstep = 1.0 if voxels else surface.median_face_size()
    return tx.orient_inward(faces, mode=orient, radius=radius), gridstep


def _explicit_chain(case):
    """front -> accumulate -> track -> refine -> decompose -> reconstruct ->
    error_map, written out stage by stage with the defaults run_pipeline
    derives."""
    radius = case["radius"]
    faces, gridstep = _front(case["surface"], radius)
    params = tx.AccumulationParams(radius=radius, gridstep=gridstep)
    res = tx.compute_accumulation(faces, params)
    raw = tx.extract_centerline(res, track_step=radius, acc_radius=params.acc_radius)
    refined = tx.optimize_centerline(raw, faces, radius, params.acc_radius, radius)
    return {"faces": faces, "gridstep": gridstep, "accumulation": res, "raw": raw,
            "centerline": refined,
            "decomposition": tx.decompose_centerline(refined, resid_tol=0.05 * radius),
            "tube": tx.sweep_tube(refined, radius, sides=24),
            "errors": tx.error_map(faces, refined, radius)}


def _heightmap_case(bent_pipe):
    """bent_pipe's top half seen from +z, one sample per unit."""
    hm = tx.render_heightmap(bent_pipe["mesh"], view_axis="z", resolution=1.0)
    return {"radius": bent_pipe["radius"], "surface": tx.heightmap_to_mesh(hm)}


@pytest.fixture(scope="module", params=["cylinder", "bent_pipe", "voxels", "heightmap"])
def case(request):
    if request.param == "cylinder":
        cylinder = request.getfixturevalue("cylinder")
        case = {"radius": cylinder.radius, "surface": cylinder.mesh}
    elif request.param == "bent_pipe":
        bent_pipe = request.getfixturevalue("bent_pipe")
        case = {"radius": bent_pipe["radius"], "surface": bent_pipe["mesh"]}
    elif request.param == "voxels":
        case = {"radius": 3.0, "surface": capped_voxels()}
    else:
        case = _heightmap_case(request.getfixturevalue("bent_pipe"))
    return dict(case, reference=_explicit_chain(case))


def _same(output, expected):
    """Byte-for-byte equality of one stage output."""
    if isinstance(expected, tx.AccumulationResult):
        return (output.max_pt == expected.max_pt
                and output.keys.tobytes() == expected.keys.tobytes()
                and output.counts.tobytes() == expected.counts.tobytes()
                and output.dirs.tobytes() == expected.dirs.tobytes())
    if isinstance(expected, tx.Centerline):
        same_mask = (output.refined is None if expected.refined is None
                     else output.refined.tobytes() == expected.refined.tobytes())
        return (output.points.tobytes() == expected.points.tobytes()
                and output.directions.tobytes() == expected.directions.tobytes()
                and output.closed == expected.closed and same_mask)
    if isinstance(expected, tx.Decomposition):
        return (output.kinds() == expected.kinds()
                and [(s.start, s.end) for s in output.segments]
                == [(s.start, s.end) for s in expected.segments])
    if isinstance(expected, tx.OrientedFaceSet):
        return all(getattr(output, name).tobytes() == getattr(expected, name).tobytes()
                   for name in ("centers", "normals"))
    if isinstance(expected, tx.TriMesh):
        return (output.vertices.tobytes() == expected.vertices.tobytes()
                and output.faces.tobytes() == expected.faces.tobytes())
    return np.asarray(output).tobytes() == np.asarray(expected).tobytes()


# the PipelineResult field each stage fills
_OUTPUT = {"accumulate": "accumulation", "track": "raw", "refine": "centerline",
           "decompose": "decomposition", "reconstruct": "tube", "error_map": "errors"}
_FRONT = ["normals", "orient"]  # the front's timings, which every run has


def test_full_run_matches_the_explicit_chain(case):
    r = tx.run_pipeline(case["surface"], case["radius"])
    ref = case["reference"]
    assert _same(r.faces, ref["faces"])
    for name in _OUTPUT.values():
        assert _same(getattr(r, name), ref[name]), name
    assert set(r.timings) == {*_FRONT, *STAGES}
    assert r.normals == ("estimate" if isinstance(case["surface"], tx.VoxelSet) else "faces")
    assert r.acc_params.gridstep == ref["gridstep"]
    assert r.track_step == case["radius"]
    assert r.acc_params.epsilon == 0.1 * case["radius"]
    assert r.resid_tol == 0.05 * case["radius"]


@pytest.mark.parametrize("k", range(0, len(STAGES) + 1))
def test_stop_after_each_stage(case, k):
    ran = STAGES[:k]
    r = tx.run_pipeline(case["surface"], case["radius"], stages=ran)
    assert _same(r.faces, case["reference"]["faces"])
    for stage, name in _OUTPUT.items():
        if stage in ran:
            assert _same(getattr(r, name), case["reference"][name]), name
        elif stage == "refine" and "track" in ran:
            assert r.centerline is r.raw  # tracked, not refined
        else:
            assert getattr(r, name) is None, name
    assert list(r.timings) == _FRONT + list(ran)


def test_given_centerline_takes_the_place_of_accumulate_and_track(case):
    ref = case["reference"]
    r = tx.run_pipeline(case["surface"], case["radius"], stages=STAGES[2:],
                        centerline=ref["raw"])
    assert r.accumulation is None and r.raw is ref["raw"]
    for name in ("centerline", "decomposition", "tube", "errors"):
        assert _same(getattr(r, name), ref[name]), name
    assert set(r.timings) == {*_FRONT, *STAGES[2:]}

    # without refine, the later stages read the given centerline as it is
    r = tx.run_pipeline(case["surface"], case["radius"], stages=["error_map"],
                        centerline=ref["centerline"])
    assert r.centerline is ref["centerline"]
    assert _same(r.errors, ref["errors"])


def test_the_auto_gridstep_is_the_surfaces_own_step(cylinder, bent_pipe):
    for mesh in (cylinder.mesh, bent_pipe["mesh"], _heightmap_case(bent_pipe)["surface"]):
        r = tx.run_pipeline(mesh, 3.0, stages=())
        assert r.acc_params.gridstep == mesh.median_face_size()
    assert tx.run_pipeline(capped_voxels(), 3.0, stages=()).acc_params.gridstep == 1.0


@pytest.mark.parametrize("kind,settings", [
    ("mesh", {"normals": "estimate"}), ("mesh", {"normals": "estimate", "orient": "keep"}),
    ("mesh", {"orient": "flip"}), ("voxels", {"normals": "faces"}),
    ("voxels", {"normals": "estimate", "orient": "flip"}), ("voxels", {"orient": "keep"})])
def test_the_front_settings_reach_the_written_out_front(bent_pipe, kind, settings):
    surface = bent_pipe["mesh"] if kind == "mesh" else capped_voxels()
    r = tx.run_pipeline(surface, 3.0, stages=(), **settings)
    assert _same(r.faces, _front(surface, 3.0, **settings)[0])
    assert r.normals == settings.get("normals", "faces" if kind == "mesh" else "estimate")


def test_a_surface_that_is_not_a_mesh_or_voxels_is_a_type_error(cylinder):
    # oriented faces, which run_pipeline took before it built them itself
    with pytest.raises(TypeError, match="TriMesh or a VoxelSet, not a OrientedFaceSet"):
        tx.run_pipeline(cylinder.faces, cylinder.radius)
    with pytest.raises(ValueError, match="unknown normals mode 'smooth'"):
        tx.run_pipeline(cylinder.mesh, cylinder.radius, normals="smooth")


@pytest.mark.parametrize("stages,given", [
    (["track"], False), (["accumulate", "refine"], False),
    (["decompose"], False), (["accumulate"], True), (["smooth"], False),
])
def test_a_stage_without_its_input_is_rejected(cylinder, stages, given):
    centerline = tx.Centerline(points=np.array([[0.0, 0, 0], [1, 0, 0]]),
                               directions=np.array([[1.0, 0, 0], [1, 0, 0]]))
    with pytest.raises(ValueError):
        tx.run_pipeline(cylinder.mesh, cylinder.radius, stages=stages,
                        centerline=centerline if given else None)


def test_a_misspelt_setting_is_a_type_error(cylinder):
    # min_norm was the direction image's setting, which the normal tensor
    # does without; area_weighting weighted the refine fit by face area.
    # The last six are their stages' constants now
    for name, value in (("inside_treshold", 0.4), ("min_norm", 0.1),
                        ("area_weighting", True), ("epsilon", 0.7), ("normal_radius", 3.5),
                        ("max_angle", 1.2), ("epsilon_o", 0.01), ("max_iter", 7),
                        ("sides", 8)):
        with pytest.raises(TypeError, match=name):
            tx.run_pipeline(cylinder.mesh, cylinder.radius, **{name: value})


# a value outside its limits for every range-checked setting
_OUT_OF_RANGE = {"radius": 0.0, "gridstep": math.nan, "track_step": -1.0,
                 "inside_threshold": 1.5, "resid_tol": -1.0}


def _no_work(monkeypatch):
    """Make the front and the first stage fail the test if they run."""
    def work(*args, **kwargs):
        raise AssertionError("the front or a stage ran")

    for name in ("face_normals", "digital_surface_faces", "compute_accumulation"):
        monkeypatch.setattr(pipeline, name, work)


@pytest.mark.parametrize("name", _OUT_OF_RANGE)
def test_an_out_of_range_setting_fails_before_any_stage(cylinder, monkeypatch, name):
    # the rest of LIMITS is the command line's synth and height map settings,
    # AccumulationParams' epsilon and sweep_tube's sides
    assert _OUT_OF_RANGE.keys() == LIMITS.keys() - {"mesh_step", "sigma", "hm_scale",
                                                     "hm_spacing", "epsilon", "sides"}
    _no_work(monkeypatch)
    settings = {"radius": cylinder.radius, name: _OUT_OF_RANGE[name]}
    with pytest.raises(tx.OutOfRange, match=f"^{name} must be"):
        tx.run_pipeline(cylinder.mesh, **settings)
    assert issubclass(tx.OutOfRange, ValueError)


@pytest.mark.parametrize("value", [0.0, -2.0, math.nan, math.inf])
def test_every_entry_point_words_a_bad_radius_alike(cylinder, tmp_path, capsys, value):
    # one limits table and one check: the library's entry points raise its
    # words, and the command line prints them with the flag's name
    want = f"radius must be positive and finite, got {value!r}"
    line = tx.Centerline([[0.0, 0, 0], [1, 0, 0]], [[1.0, 0, 0], [1, 0, 0]])
    for call in (lambda: tx.run_pipeline(cylinder.mesh, value),
                 lambda: tx.AccumulationParams(radius=value),
                 lambda: tx.sweep_tube(line, value),
                 lambda: tx.gen_tube([tx.Straight(10.0)], value, 1.0)):
        with pytest.raises(tx.OutOfRange) as error:
            call()
        assert str(error.value) == want
    assert main(["pipeline", "--input", str(tmp_path / "missing.off"),
                 "--radius", str(value)]) == 1
    assert capsys.readouterr().err == f"tubeaxis pipeline: error: --{want}\n"


@pytest.mark.parametrize("vertices,faces,got", [
    # no faces: the median of nothing
    (np.zeros((3, 3)), np.empty((0, 3), dtype=np.int64), "nan"),
    # every face collapsed to a point
    (np.ones((3, 3)), [[0, 1, 2], [2, 1, 0]], "0.0"),
    # edges whose squares overflow
    ([[0.0, 0, 0], [1e200, 0, 0], [0, 1e200, 0]], [[0, 1, 2]], "inf")])
def test_an_out_of_range_auto_gridstep_fails_before_the_front(monkeypatch, vertices,
                                                              faces, got):
    _no_work(monkeypatch)
    with pytest.raises(tx.OutOfRange, match=f"^gridstep must be positive and finite, got {got}$"):
        tx.run_pipeline(tx.TriMesh(vertices, faces), 3.0)


# a value for every stage setting, none of them its default, and the
# stages that read it
_GIVEN = {"track_step": (4.5, ["track", "refine"]), "inside_threshold": (0.4, ["track"]),
          "resid_tol": (0.3, ["decompose"])}


def test_each_setting_reaches_only_its_stage(cylinder, monkeypatch):
    seen = {}

    def spy(stage, fn):
        def call(*args, **kwargs):
            seen[stage] = [*args, *kwargs.values()]
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, fn.__name__, call)

    for stage, fn in (("accumulate", pipeline.AccumulationParams),
                      ("track", pipeline.extract_centerline),
                      ("refine", pipeline.optimize_centerline),
                      ("decompose", pipeline.decompose_centerline),
                      ("reconstruct", pipeline.sweep_tube)):
        spy(stage, fn)
    r = tx.run_pipeline(cylinder.mesh, cylinder.radius, gridstep=cylinder.gridstep,
                        **{name: value for name, (value, _) in _GIVEN.items()})
    for name, (value, stages) in _GIVEN.items():
        assert [stage for stage, args in seen.items()
                if any(isinstance(a, float) and a == value for a in args)] == stages, name
    assert (r.track_step, r.resid_tol) == (4.5, 0.3)


def test_every_public_name_resolves_once():
    assert [name for name in tx.__all__ if not hasattr(tx, name)] == []
    assert sorted(tx.__all__) == sorted(set(tx.__all__))
