"""Frames, grid domains, the cell hash and raw grid serialization."""

import json
import math

import numpy as np
import pytest

from tubeaxis import (GridDomain, ScalarGrid3, VectorGrid3, ZeroDirection,
                      digitize, frame_from_direction, load_grid, normalize,
                      save_grid)
from tubeaxis.core import CellHash, concat_ranges


def test_normalize_unit_length():
    rng = np.random.default_rng(7)
    for v in rng.normal(size=(20, 3)) * 10:
        assert abs(np.linalg.norm(normalize(v)) - 1.0) < 1e-12


def test_normalize_rejects_zero():
    with pytest.raises(ZeroDirection):
        normalize(np.zeros(3))
    with pytest.raises(ZeroDirection):
        normalize(np.array([1e-13, 0.0, 0.0]))


def test_frame_is_right_handed_orthonormal():
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(25, 3))
    dirs = np.vstack([dirs, np.eye(3), -np.eye(3)])
    for d in dirs:
        w = normalize(d)
        fr = frame_from_direction(w)
        m = np.column_stack([fr.u, fr.v, fr.w])
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) > 0.999
        assert np.allclose(fr.w, w, atol=1e-12)


def test_frame_axis_choice_is_deterministic():
    # ties on the smallest |w| component resolve to the first axis
    w = normalize(np.array([1.0, 1.0, 1.0]))
    fr = frame_from_direction(w)
    expected_u = normalize(np.cross(w, np.array([1.0, 0.0, 0.0])))
    assert np.allclose(fr.u, expected_u, atol=1e-12)


def test_domain_voxel_center_roundtrip():
    dom = GridDomain(origin=np.array([-1.0, 2.0, 0.5]), gridstep=0.25,
                     dims=(8, 5, 6))
    for idx in [(0, 0, 0), (7, 4, 5), (3, 2, 1)]:
        c = dom.voxel_center(idx)
        assert digitize(c, dom) == idx
    # centers of the index grid land back on their own indices
    pts = np.array([dom.voxel_center((i, j, k))
                    for i in range(8) for j in range(5) for k in range(6)])
    idx, inb = dom.index_array(pts)
    expect = np.array([(i, j, k)
                       for i in range(8) for j in range(5) for k in range(6)])
    assert inb.all()
    assert np.array_equal(idx, expect)


def test_digitize_outside_returns_none():
    dom = GridDomain(origin=np.zeros(3), gridstep=1.0, dims=(4, 4, 4))
    assert digitize(np.array([-0.1, 1.0, 1.0]), dom) is None
    assert digitize(np.array([4.0, 1.0, 1.0]), dom) is None
    assert digitize(np.array([3.999, 3.999, 3.999]), dom) == (3, 3, 3)


def test_contains_point_boundaries():
    dom = GridDomain(origin=np.zeros(3), gridstep=0.5, dims=(4, 4, 4))
    assert dom.contains_point(np.array([0.0, 0.0, 0.0]))
    assert dom.contains_point(np.array([1.999, 1.0, 1.0]))
    assert not dom.contains_point(np.array([2.001, 1.0, 1.0]))


@pytest.mark.parametrize("gridstep", [math.nan, math.inf, 0.0, -1.0])
def test_domain_rejects_a_bad_gridstep(gridstep):
    with pytest.raises(ValueError, match="gridstep"):
        GridDomain(origin=np.zeros(3), gridstep=gridstep, dims=(4, 4, 4))


@pytest.mark.parametrize("origin", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                    [0.0, 0.0, -math.inf]])
def test_domain_rejects_a_non_finite_origin(origin):
    with pytest.raises(ValueError, match="origin"):
        GridDomain(origin=np.array(origin), gridstep=1.0, dims=(4, 4, 4))


@pytest.mark.parametrize("field,value", [("gridstep", math.nan),
                                         ("origin", [0.0, math.nan, 0.0]),
                                         ("origin", [math.inf, 0.0, 0.0])])
def test_load_grid_rejects_a_non_finite_header(tmp_path, field, value):
    dom = GridDomain(origin=np.zeros(3), gridstep=1.0, dims=(2, 2, 2))
    stem = tmp_path / "acc"
    save_grid(ScalarGrid3.zeros(dom), stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    header[field] = value
    stem.with_suffix(".json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=field):
        load_grid(stem)


def test_scalar_grid_roundtrip(tmp_path):
    dom = GridDomain(origin=np.array([0.5, -1.0, 2.0]), gridstep=0.75,
                     dims=(3, 4, 2))
    rng = np.random.default_rng(3)
    values = rng.integers(0, 1000, size=(3, 4, 2)).astype(np.uint32)
    stem = tmp_path / "acc"
    save_grid(ScalarGrid3(dom, values), stem)
    back = load_grid(stem)
    assert np.array_equal(back.values, values)
    assert back.domain.dims == dom.dims
    assert back.domain.gridstep == dom.gridstep
    assert np.allclose(back.domain.origin, dom.origin)


def test_vector_grid_roundtrip(tmp_path):
    dom = GridDomain(origin=np.zeros(3), gridstep=1.0, dims=(2, 3, 4))
    rng = np.random.default_rng(4)
    values = rng.normal(size=(2, 3, 4, 3))
    stem = tmp_path / "dir"
    save_grid(VectorGrid3(dom, values), stem)
    back = load_grid(stem)
    assert np.array_equal(back.values, values)


def test_raw_layout_is_x_fastest(tmp_path):
    # a 2x1x1 grid must serialize as [v(0,0,0), v(1,0,0)]
    dom = GridDomain(origin=np.zeros(3), gridstep=1.0, dims=(2, 1, 1))
    values = np.array([[[5]], [[9]]], dtype=np.uint32)
    stem = tmp_path / "tiny"
    save_grid(ScalarGrid3(dom, values), stem)
    raw = np.fromfile(f"{stem}.raw", dtype="<u4")
    assert raw.tolist() == [5, 9]
    meta = json.loads(open(f"{stem}.json").read())
    assert meta["dims"] == [2, 1, 1]


@pytest.mark.parametrize("cell, r", [(1.0, 1.0), (0.5, 1.3), (2.0, 0.7),
                                     (0.25, 2.0)])
def test_cell_hash_ball_query_holds_the_ball(cell, r):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(500, 3)) * 3
    grid = CellHash(pts, cell)
    # query points inside, on and far outside the box of the points
    queries = np.vstack([rng.normal(size=(40, 3)) * 4, pts[:10],
                         [[50.0, 0, 0], [-9.0, -9.0, -9.0]]])
    for q in queries:
        got = grid.query_ball_point(q, r * (1 + 1e-9))
        assert np.all(np.diff(got) > 0)
        dist = np.linalg.norm(pts - q, axis=1)
        assert set(np.flatnonzero(dist <= r)) <= set(got.tolist())
        assert np.all(dist[got] <= r * (1 + 1e-6))


def test_cell_hash_forward_stencil_is_half_of_the_stencil():
    grid = CellHash(np.zeros((1, 3)), 1.0)
    for r in (0.5, 1.0, 2.0, 2.5):
        def cells(columns):
            return {(ox, oy, oz) for ox, oy, lo, hi in columns.tolist()
                    for oz in range(lo, hi + 1)}
        full, forward = cells(grid.stencil(r)), cells(grid.stencil(r, forward=True))
        backward = {(-x, -y, -z) for x, y, z in forward}
        assert forward | backward == full
        assert forward & backward == {(0, 0, 0)}
        # every cell whose box gap is at most r, and no other
        gap = lambda o: max(abs(o) - 1, 0)
        reach = int(np.ceil(r)) + 1
        assert full == {(x, y, z) for x in range(-reach, reach + 1)
                        for y in range(-reach, reach + 1)
                        for z in range(-reach, reach + 1)
                        if gap(x) ** 2 + gap(y) ** 2 + gap(z) ** 2 <= r * r}


def test_concat_ranges_equals_the_loop():
    start = np.array([3, 0, 5, 7, 2])
    stop = np.array([6, 0, 4, 9, 3])
    expected = np.concatenate([np.arange(a, b) for a, b in zip(start, stop)])
    assert np.array_equal(concat_ranges(start, stop), expected)
    assert concat_ranges(start[:0], stop[:0]).size == 0
