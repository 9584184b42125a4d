"""Frames, grid domains and the cell hash."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubeaxis import (GridDomain, ZeroDirection, digitize, frame_from_direction,
                      normalize)
from tubeaxis.core import CellHash, column_max, column_min, concat_ranges


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


def test_normalize_and_frame_equal_linalg_norm_and_np_cross_bit_for_bit():
    # the frame's cross products and norms run on Python floats; they must
    # be numpy's, signed zeros included
    rng = np.random.default_rng(12)
    dirs = np.vstack([rng.normal(size=(200, 3)) * rng.uniform(1e-3, 1e3, (200, 1)),
                      np.eye(3), -np.eye(3), [[0.0, -0.0, 2.0], [-0.0, 3.0, 0.0],
                                              [1.0, 1.0, 1.0], [-1.0, 1.0, -1.0]]])
    for d in dirs:
        assert normalize(d).tobytes() == (d / np.linalg.norm(d)).tobytes()
        w = d / np.linalg.norm(d)
        u = np.cross(w, np.eye(3)[int(np.argmin(np.abs(w)))])
        u = u / np.linalg.norm(u)
        fr = frame_from_direction(d, center=d)
        assert fr.w.tobytes() == w.tobytes()
        assert fr.u.tobytes() == u.tobytes()
        assert fr.v.tobytes() == np.cross(w, u).tobytes()
        assert fr.center.tobytes() == d.tobytes()


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


def test_digitize_boundaries():
    dom = GridDomain(origin=np.zeros(3), gridstep=0.5, dims=(4, 4, 4))
    assert digitize(np.array([0.0, 0.0, 0.0]), dom) == (0, 0, 0)
    assert digitize(np.array([-0.0, 1.0, 1.0]), dom) == (0, 2, 2)
    assert digitize(np.array([1.999, 1.0, 1.0]), dom) == (3, 2, 2)
    assert digitize(np.array([2.0, 1.0, 1.0]), dom) is None  # a face at dims
    assert digitize(np.array([2.001, 1.0, 1.0]), dom) is None
    assert digitize(np.array([[1.0, 1.0, math.nan]]), dom) is None
    # (p - origin) overflows to inf
    far = GridDomain(origin=np.array([-1e308, 0.0, 0.0]), gridstep=0.5, dims=(4, 4, 4))
    assert digitize([1e308, 0.0, 0.0], far) is None


def _voxel_units(n):
    """A coordinate in voxel units on an axis of n voxels: in or just
    around the domain, on a voxel face (0 and n among them), far outside,
    or not a number."""
    return st.one_of(
        st.floats(-2.0, n + 2.0),
        st.integers(-1, n + 1).map(float),
        st.sampled_from([1e300, -1e300, 2.0 ** 63, -2.0 ** 63, math.nan, math.inf,
                         -math.inf]),
    )


@st.composite
def _domains_and_points(draw):
    dims = tuple(draw(st.lists(st.integers(1, 50), min_size=3, max_size=3)))
    dom = GridDomain(origin=np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=3,
                                                   max_size=3))),
                     gridstep=draw(st.one_of(st.floats(1e-3, 1e3),
                                             st.sampled_from([0.1, 0.25, 1.0, 1 / 3]))),
                     dims=dims)
    units = draw(st.lists(st.tuples(*map(_voxel_units, dims)), min_size=1, max_size=20))
    return dom, dom.origin + np.array(units) * dom.gridstep


@given(_domains_and_points())
def test_digitize_is_index_array_row_for_row(domain_and_points):
    dom, pts = domain_and_points
    with np.errstate(invalid="ignore"):  # NaN and inf cast to int
        idx, inb = dom.index_array(pts)
    for p, i, inside in zip(pts, idx, inb):
        assert digitize(p, dom) == (tuple(i.tolist()) if inside else None)


@pytest.mark.parametrize("gridstep", [math.nan, math.inf, 0.0, -1.0])
def test_domain_rejects_a_bad_gridstep(gridstep):
    with pytest.raises(ValueError, match="gridstep"):
        GridDomain(origin=np.zeros(3), gridstep=gridstep, dims=(4, 4, 4))


@pytest.mark.parametrize("origin", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                    [0.0, 0.0, -math.inf]])
def test_domain_rejects_a_non_finite_origin(origin):
    with pytest.raises(ValueError, match="origin"):
        GridDomain(origin=np.array(origin), gridstep=1.0, dims=(4, 4, 4))


@pytest.mark.parametrize("cell, r", [(1.0, 1.0), (0.5, 1.3), (2.0, 0.7),
                                     (0.25, 2.0)])
def test_cell_hash_ball_query_holds_the_ball(cell, r):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(500, 3)) * 3
    grid = CellHash(pts, cell)
    # query points inside, on and far outside the box of the points
    queries = np.vstack([rng.normal(size=(40, 3)) * 4, pts[:10],
                         [[50.0, 0, 0], [-9.0, -9.0, -9.0]]])
    for q, got in zip(queries, grid.query_ball_points(queries, r * (1 + 1e-9))):
        assert np.all(np.diff(got) > 0)
        dist = np.linalg.norm(pts - q, axis=1)
        assert set(np.flatnonzero(dist <= r)) <= set(got.tolist())
        assert np.all(dist[got] <= r * (1 + 1e-6))


def _one_ball(grid, point, r):
    """The single-point ball query as the hash first served it."""
    p = np.asarray(point, dtype=float)
    start, stop = grid.ranges(grid.cells(p.reshape(1, 3)), grid.stencil(r))
    pos = concat_ranges(start.ravel(), stop.ravel())
    d2 = np.zeros(len(pos))
    for coord, c in zip(grid.coords, p):
        delta = coord[pos] - c
        d2 += delta * delta
    return np.sort(grid.order[pos[d2 <= r * r]])


@pytest.mark.parametrize("chunk", [1, 2, 7, 100, 1 << 18])
def test_cell_hash_batched_ball_queries_equal_single_queries(chunk, monkeypatch):
    monkeypatch.setattr(CellHash, "_CHUNK_CANDIDATES", chunk)
    rng = np.random.default_rng(11)
    # five points at the origin and one exactly 1.7 from it
    pts = np.vstack([rng.normal(size=(400, 3)) * 3, np.zeros((5, 3)), [[0.0, 1.7, 0.0]]])
    grid = CellHash(pts, 0.8)
    # inside, on the points, coincident points, far outside the box
    queries = np.vstack([rng.normal(size=(30, 3)) * 4, pts[:5], np.zeros((2, 3)),
                         [[50.0, 0, 0], [-9.0, -9.0, -9.0]], pts[200:203]])
    for r in (0.3, 1.7):
        got = list(grid.query_ball_points(queries, r))
        assert len(got) == len(queries)
        for q, ids in zip(queries, got):
            expected = _one_ball(grid, q, r)
            assert ids.dtype == expected.dtype
            assert np.array_equal(ids, expected)
    assert list(grid.query_ball_points(np.empty((0, 3)), 1.0)) == []


@pytest.mark.parametrize("dtype", [float, np.int64])
def test_column_reductions_equal_numpy_axis_reductions(dtype):
    rng = np.random.default_rng(4)
    a = (rng.normal(size=(1000, 3)) * 1e3).astype(dtype)
    for values in (a, a[::3], a[:1], np.asfortranarray(a)):
        for ours, theirs in ((column_min, np.min), (column_max, np.max)):
            got, expected = ours(values), theirs(values, axis=0)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
    with_nan = rng.normal(size=(50, 3))
    with_nan[7, 1] = np.nan
    assert np.array_equal(column_min(with_nan), with_nan.min(axis=0), equal_nan=True)
    assert np.array_equal(column_max(with_nan), with_nan.max(axis=0), equal_nan=True)


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
