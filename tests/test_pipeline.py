"""run_pipeline against the explicit stage chain it replaces."""

import numpy as np
import pytest

import tubeaxis as tx
from tubeaxis.pipeline import STAGES


def _explicit_chain(case):
    """accumulate -> track -> refine -> decompose -> reconstruct -> error_map,
    written out stage by stage with the defaults run_pipeline derives."""
    radius, faces = case["radius"], case["faces"]
    params = tx.AccumulationParams(radius=radius, gridstep=1.0)
    res = tx.compute_accumulation(faces, params)
    raw = tx.extract_centerline(res, track_step=radius, acc_radius=params.acc_radius)
    refined = tx.optimize_centerline(raw, faces, radius, params.acc_radius, radius)
    return {"accumulation": res, "raw": raw, "centerline": refined,
            "decomposition": tx.decompose_centerline(refined, resid_tol=0.3),
            "tube": tx.sweep_tube(refined, radius, sides=24),
            "errors": tx.error_map(faces, refined, radius)}


@pytest.fixture(scope="module", params=["cylinder", "bent_pipe"])
def case(request):
    fixture = request.getfixturevalue(request.param)
    if request.param == "cylinder":
        fixture = {"radius": fixture.radius, "faces": fixture.faces}
    return dict(fixture, reference=_explicit_chain(fixture))


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
    if isinstance(expected, tx.TriMesh):
        return (output.vertices.tobytes() == expected.vertices.tobytes()
                and output.faces.tobytes() == expected.faces.tobytes())
    return np.asarray(output).tobytes() == np.asarray(expected).tobytes()


# the PipelineResult field each stage fills
_OUTPUT = {"accumulate": "accumulation", "track": "raw", "refine": "centerline",
           "decompose": "decomposition", "reconstruct": "tube", "error_map": "errors"}


def test_full_run_matches_the_explicit_chain(case):
    r = tx.run_pipeline(case["faces"], case["radius"])
    for name, expected in case["reference"].items():
        assert _same(getattr(r, name), expected), name
    assert set(r.timings) == set(STAGES)
    assert r.track_step == case["radius"]
    assert r.acc_params.epsilon == 0.1 * case["radius"]
    assert r.resid_tol == 0.3


@pytest.mark.parametrize("k", range(1, len(STAGES) + 1))
def test_stop_after_each_stage(case, k):
    ran = STAGES[:k]
    r = tx.run_pipeline(case["faces"], case["radius"], stages=ran)
    for stage, name in _OUTPUT.items():
        if stage in ran:
            assert _same(getattr(r, name), case["reference"][name]), name
        elif stage == "refine" and "track" in ran:
            assert r.centerline is r.raw  # tracked, not refined
        else:
            assert getattr(r, name) is None, name
    assert list(r.timings) == list(ran)


def test_given_centerline_takes_the_place_of_accumulate_and_track(case):
    ref = case["reference"]
    r = tx.run_pipeline(case["faces"], case["radius"], stages=STAGES[2:],
                        centerline=ref["raw"])
    assert r.accumulation is None and r.raw is ref["raw"]
    for name in ("centerline", "decomposition", "tube", "errors"):
        assert _same(getattr(r, name), ref[name]), name
    assert set(r.timings) == set(STAGES[2:])

    # without refine, the later stages read the given centerline as it is
    r = tx.run_pipeline(case["faces"], case["radius"], stages=["error_map"],
                        centerline=ref["centerline"])
    assert r.centerline is ref["centerline"]
    assert _same(r.errors, ref["errors"])


@pytest.mark.parametrize("stages,given", [
    (["track"], False), (["accumulate", "refine"], False),
    (["decompose"], False), (["accumulate"], True), (["smooth"], False),
])
def test_a_stage_without_its_input_is_rejected(cylinder, stages, given):
    centerline = tx.Centerline(points=np.array([[0.0, 0, 0], [1, 0, 0]]),
                               directions=np.array([[1.0, 0, 0], [1, 0, 0]]))
    with pytest.raises(ValueError):
        tx.run_pipeline(cylinder.faces, cylinder.radius, stages=stages,
                        centerline=centerline if given else None)


def test_only_an_accumulate_run_replays_the_whole_direction_table(cylinder):
    # the table is that run's output, so its accumulate timing includes it;
    # tracking replays only the rows it reads
    alone = tx.run_pipeline(cylinder.faces, cylinder.radius, stages=STAGES[:1])
    assert "dirs" in vars(alone.accumulation)
    tracked = tx.run_pipeline(cylinder.faces, cylinder.radius, stages=STAGES[:2])
    assert "dirs" not in vars(tracked.accumulation)
    assert alone.accumulation.dirs.tobytes() == tracked.accumulation.dirs.tobytes()


def test_a_misspelt_setting_is_a_type_error(cylinder):
    with pytest.raises(TypeError, match="inside_treshold"):
        tx.run_pipeline(cylinder.faces, cylinder.radius, inside_treshold=0.4)


# a value for every setting, none of them its default
_GIVEN = {"accumulate": {"epsilon": 0.7, "min_norm": 0.3},
          "track": {"inside_threshold": 0.4, "max_angle": 1.2},
          "refine": {"epsilon_o": 0.01, "max_iter": 7, "area_weighting": True},
          "decompose": {"alpha_flat": 0.1, "nu": 0.2, "min_len": 4},
          "reconstruct": {"sides": 8}}


def test_each_setting_reaches_only_its_stage(cylinder, monkeypatch):
    from tubeaxis import pipeline

    seen = {}

    def spy(stage, fn):
        def call(*args, **kwargs):
            seen[stage] = kwargs
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, fn.__name__, call)

    for stage, fn in (("accumulate", pipeline.AccumulationParams),
                      ("track", pipeline.extract_centerline),
                      ("refine", pipeline.optimize_centerline),
                      ("decompose", pipeline.decompose_centerline),
                      ("reconstruct", pipeline.sweep_tube)):
        spy(stage, fn)
    settings = {k: v for given in _GIVEN.values() for k, v in given.items()}
    r = tx.run_pipeline(cylinder.faces, cylinder.radius, **settings)
    assert {stage: {k: v for k, v in kw.items() if k in settings}
            for stage, kw in seen.items()} == _GIVEN
    assert r.acc_params.min_norm == 0.3 and r.acc_params.epsilon == 0.7
    # sides=8 gives 8-vertex rings
    assert r.tube.n_vertices == 8 * len(r.centerline)


def test_every_public_name_resolves_once():
    assert [name for name in tx.__all__ if not hasattr(tx, name)] == []
    assert sorted(tx.__all__) == sorted(set(tx.__all__))
