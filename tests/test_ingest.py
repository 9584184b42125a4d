"""Mesh, voxel and height-map parsing plus artifact writers."""

import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubeaxis as tx
import tubeaxis.ingest as ingest
from tubeaxis.ingest import (_load_off_lines, _load_volume_lines,
                             _parse_off_triangles, _parse_voxel_list, _fmt,
                             load_obj, load_off, load_pgm,
                             write_centerline_csv, write_decomposition_csv,
                             write_face_scalar_csv, write_off)


_I64 = np.iinfo(np.int64)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_off_parses_vertices_and_faces(tmp_path):
    p = _write(tmp_path / "t.off", """OFF
# a comment
4 2 0
0 0 0
1 0 0
1 1 0
0 1 0
3 0 1 2
3 0 2 3
""")
    v, f = load_off(p)
    assert v.shape == (4, 3)
    assert f.shape == (2, 3)
    assert np.array_equal(f, [[0, 1, 2], [0, 2, 3]])


def test_off_fan_triangulates_quads(tmp_path):
    p = _write(tmp_path / "q.off",
               "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    _, f = load_off(p)
    assert np.array_equal(f, [[0, 1, 2], [0, 2, 3]])


def test_off_reports_bad_line(tmp_path):
    p = _write(tmp_path / "bad.off", "OFF\n1 0 0\n0 0 nope\n")
    with pytest.raises(tx.ParseError) as err:
        load_off(p)
    assert err.value.line is not None


def test_off_rejects_wrong_magic(tmp_path):
    p = _write(tmp_path / "x.off", "PLY\n0 0 0\n")
    with pytest.raises(tx.ParseError):
        load_off(p)


_SQUARE = "0 0 0\n1 0 0\n1 1 0\n0 1 0\n"


@pytest.mark.parametrize("text, bulk", [
    ("OFF\n4 2 0\n" + _SQUARE + "3 0 1 2\n3 0 2 3\n", True),
    ("OFF 4 2 0\n" + _SQUARE + "3 0 1 2\n3 0 2 3\n", True),
    ("OFF\r\n4 2 0\r\n" + _SQUARE.replace("\n", "\r\n") + "3 0 1 2\r\n3 0 2 3\r\n", True),
    ("OFF\n4 2 0\n" + _SQUARE + "3 0 1 2\n3 0 2 3\n\n\ntrailing text\n", True),
    ("OFF\n# made by hand\n4 2 0\n" + _SQUARE + "3 0 1 2  # first\n3 0 2 3\n", False),
    ("OFF\n4 2 0\n" + _SQUARE + "4 0 1 2 3\n5 0 1 2 3 0\n", False),
    ("OFF\n4 1 0\n0 0 0 255 0 0\n1 0 0 255 0 0\n1 1 0\n0 1 0\n3 0 1 2 7\n", False),
    ("OFF\n\n4 2 0\n" + _SQUARE + "\n3 0 1 2\n\n3 0 2 3\n", False),
    ("4 2 0\n" + _SQUARE + "3 0 1 2\n3 0 2 3\n", False),
    # line endings, separators, blank and trailing lines
    ("OFF\r4 2 0\r" + _SQUARE.replace("\n", "\r") + "3 0 1 2\r3 0 2 3", True),
    ("OFF\t\n4\t2 \t0\n" + _SQUARE.replace(" ", "\t") + "\t3 0\t1 2 \n3\t0 2\t3\t\n", True),
    ("OFF\n4 2 0\n0 0 0\n \t\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n", False),
    ("OFF\n4 2 0\n" + _SQUARE + "3 0 1 2\n\n3 0 2 3\n", False),
    ("OFF\n4 2 0\n" + _SQUARE + "3 0 1 2\n3 0 2 3\n1 2 3 4 5\nx\n", True),
    ("OFF\n4 2 0\n" + _SQUARE + "3 0 1 2\n3 0 2 3", True),
    # counts on the magic line, and empty blocks
    ("OFF 4 2\n" + _SQUARE + "3 0 1 2\n3 0 2 3\n", True),
    ("OFF\n0 0 0\n", True),
    ("OFF 0 0\n\n\n", True),
    ("OFF\n4 0 0\n" + _SQUARE, True),
    ("OFF\n4 0 0\n" + _SQUARE + "\n", True),
    ("OFF\n0 1 0\n3 0 1 2\n", False),
    # a 4-token vertex line, a 5-token face line
    ("OFF\n4 2 0\n0 0 0\n1 0 0 1\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n", False),
    ("OFF\n4 2 0\n" + _SQUARE + "3 0 1 2\n3 0 2 3 1\n", False),
    ("OFF\n4 2 0\n" + _SQUARE + "3 0 1 2\n4 0 2 3\n", False),
    # tokens int() and float() accept but numpy rejects
    ("OFF\n4 2 0\n1_000 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n", False),
    ("OFF\n4 2 0\n" + _SQUARE + "3 0 1 0_2\n3 0 2 3\n", False),
    ("OFF\n4 2 0\n" + _SQUARE + "３ 0 1 2\n3 0 2 3\n", False),
    ("OFF\n4 2 0\n0 0 ３\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n", False),
    ("OFF\n4 2 0\n" + _SQUARE + "3 0 1 2\n3 0 2 9223372036854775808\n", False),
    ("OFF\n4 2 0\n9223372036854775808 0 0\n" + _SQUARE[6:] + "3 0 1 2\n3 0 2 3\n", True),
    ("OFF\n4 2 0\n0 0 0 1\n1 0 0 1\n1 1 0 1\n0 1 0 1\n3 0 1 2\n3 0 2 3\n", False),
    # numpy reads a byte \xa0 as a space; the line reader cannot decode it
    (b"OFF\n4 2 0\n0\xa00 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n", False),
    # vertex tokens numpy and float() read alike
    ("OFF\n4 2 0\nnan -nan .5\n1e400 -1e400 +3\n1. -0 inf\n0 1 -Infinity\n"
     "3 0 1 2\n3 0 2 3\n", True),
])
@pytest.mark.filterwarnings("error")
def test_off_bulk_and_line_parsers_agree(tmp_path, text, bulk):
    p = tmp_path / "m.off"
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
    try:
        expected = _load_off_lines(p)
    except (tx.ParseError, UnicodeDecodeError) as err:
        with pytest.raises(type(err)) as got:
            load_off(p)
        assert str(got.value) == str(err)  # the path and line included
    else:
        for got, ref in zip(load_off(p), expected):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
    # the plain files really take the bulk path, the others fall back
    assert (_parse_off_triangles(p.read_bytes()) is not None) == bulk


def test_off_bulk_parser_matches_line_parser_on_a_tube(tmp_path):
    mesh, _ = tx.gen_tube([tx.Straight(20.0), tx.Arc(15.0, 1.2)], radius=3.0,
                          mesh_step=0.7)
    path = tmp_path / "tube.off"
    write_off(mesh, path)
    bulk = _parse_off_triangles(path.read_bytes())
    assert bulk is not None
    v_ref, f_ref = _load_off_lines(path)
    assert np.array_equal(bulk[0], v_ref)
    assert np.array_equal(bulk[1], f_ref)


@pytest.mark.parametrize("text, line", [
    ("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", 4),        # short vertex line
    ("OFF\n3 1 0\n0 0 0\n1 0\n0 0 1 0\n3 0 1 2\n", 4),      # 2 + 4 tokens
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n", 6),      # index == nv
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 -1 0 1\n", 6),     # negative index
    ("OFF\n# c\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 -1 0 1\n", 7),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 -3\n", 6),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1.5\n", 6),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n", 6),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n", None),             # truncated
])
def test_off_errors_keep_their_line_numbers(tmp_path, text, line):
    p = _write(tmp_path / "bad.off", text)
    with pytest.raises(tx.ParseError) as err:
        load_off(p)
    assert err.value.line == line


@pytest.mark.parametrize("text", ["OFF\n-1 0 0\n", "OFF -1 0 0\n",
                                  "OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n"])
def test_off_negative_count_names_the_count_line(tmp_path, text):
    p = _write(tmp_path / "neg.off", text)
    for reader in (load_off, tx.load_mesh):
        with pytest.raises(tx.ParseError, match="bad count line") as err:
            reader(p)
        assert str(err.value.path) == p
        assert err.value.line == text.count("\n", 0, text.index("-")) + 1


@pytest.mark.parametrize("data", [
    pytest.param(b"P5\n4 4 255\n\x01\x02", id="8-bit-short"),
    pytest.param(b"P5\n4 4 65535\n\x01\x02\x03", id="16-bit-short"),
    pytest.param(b"P5\n4 4 255\n", id="no-body"),
    pytest.param(b"P5\n-4 4 255\n\x01\x02", id="negative-width"),
    pytest.param(b"P2\n-2 -2 255\n1 2 3 4\n", id="negative-ascii")])
def test_pgm_header_beyond_its_body_is_a_parse_error(tmp_path, data):
    p = tmp_path / "bad.pgm"
    p.write_bytes(data)
    with pytest.raises(tx.ParseError) as err:
        load_pgm(p)
    assert err.value.path == p


_SPECIAL_VALUES = [0.0, -0.0, 1e-300, 1e12, -2.5, -1e-7, 0.1, 123456789.123,
                   np.inf, -np.inf, np.nan, 5e-324, 1e300, -1.7976931348623157e308]


@pytest.mark.parametrize("values", [
    np.array(_SPECIAL_VALUES),
    np.array([]),
    # one block of rows exactly, and one row past it
    np.resize(_SPECIAL_VALUES, 2 ** 16) * np.linspace(0.5, 1, 2 ** 16),
    np.resize(_SPECIAL_VALUES, 2 ** 16 + 1) * np.linspace(0.5, 1, 2 ** 16 + 1),
], ids=["special", "empty", "block", "block+1"])
def test_write_face_scalar_csv_matches_row_by_row_writer(tmp_path, values):
    path = tmp_path / "error_map.csv"
    write_face_scalar_csv(values, path)
    expected = "face,value\n" + "".join(f"{i},{_fmt(v)}\n" for i, v in enumerate(values))
    assert path.read_bytes() == expected.encode()
    # the bytes % of the writer gives the text of the str % it replaced
    fields = tuple(x for row in enumerate(values.tolist()) for x in row)
    assert path.read_bytes() == ("face,value\n" + ("%d,%.9g\n" * len(values)) % fields).encode()


@pytest.mark.parametrize("suffix", ["off", "obj"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_load_mesh_rejects_a_non_finite_vertex(tmp_path, suffix, token):
    verts = f"0 0 0\n1 0 0\n0 {token} 0\n0 0 1\n"
    if suffix == "off":
        text = "OFF\n4 2 0\n" + verts + "3 0 1 2\n3 0 1 3\n"
    else:
        text = "".join("v " + line + "\n" for line in verts.splitlines()) + "f 1 2 3\nf 1 2 4\n"
    path = tmp_path / f"bad.{suffix}"
    path.write_text(text)
    with pytest.raises(tx.ParseError, match="vertex 2 has a non-finite coordinate") as err:
        tx.load_mesh(path)
    assert err.value.path == path


def test_obj_parses_and_ignores_normals(tmp_path):
    p = _write(tmp_path / "t.obj", """# comment
v 0 0 0
v 1 0 0
v 0 1 0
vn 0 0 1
f 1//1 2//1 3//1
""")
    v, f = load_obj(p)
    assert v.shape == (3, 3)
    assert np.array_equal(f, [[0, 1, 2]])


def test_obj_negative_indices(tmp_path):
    p = _write(tmp_path / "n.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    _, f = load_obj(p)
    assert np.array_equal(f, [[0, 1, 2]])


def test_load_mesh_drops_degenerate_faces(tmp_path, caplog):
    p = _write(tmp_path / "d.off", """OFF
3 2 0
0 0 0
1 0 0
0 1 0
3 0 1 2
3 0 1 1
""")
    with caplog.at_level("WARNING"):
        mesh = tx.load_mesh(p)
    assert mesh.n_faces == 1
    assert any("degenerate" in r.message for r in caplog.records)


# the row-by-row writers that _write_rows replaced, kept as references


def _rowwise_off(mesh):
    """OFF text as the line-by-line writer formatted it."""
    return ("OFF\n" + f"{mesh.n_vertices} {mesh.n_faces} 0\n"
            + "".join(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n" for v in mesh.vertices)
            + "".join(f"3 {f[0]} {f[1]} {f[2]}\n" for f in mesh.faces))


def _rowwise_obj(centerline):
    ids = list(range(1, len(centerline.points) + 1))
    if centerline.closed:
        ids.append(1)
    return ("".join(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n" for p in centerline.points)
            + "l " + " ".join(str(i) for i in ids) + "\n")


def _rowwise_centerline_csv(centerline):
    return "index,x,y,z,dx,dy,dz\n" + "".join(
        f"{i},{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])},{_fmt(d[0])},{_fmt(d[1])},{_fmt(d[2])}\n"
        for i, (p, d) in enumerate(zip(centerline.points, centerline.directions)))


def _rowwise_truth_csv(truth):
    junctions = set(truth.junctions)
    return "index,x,y,z,tx,ty,tz,kind,junction\n" + "".join(
        f"{i},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g},{t[0]:.9g},{t[1]:.9g},{t[2]:.9g},{k},"
        f"{1 if i in junctions else 0}\n"
        for i, (p, t, k) in enumerate(zip(truth.points, truth.tangents, truth.kinds)))


def _rowwise_face_scalar_csv(values):
    return "face,value\n" + "".join(f"{i},{_fmt(v)}\n" for i, v in enumerate(values))


def _unchecked_centerline(points, directions, closed=False):
    """What the centerline writers read of a Centerline, unchecked: the
    writers format any values, which the Centerline contract rejects."""
    return types.SimpleNamespace(points=points, directions=directions, closed=closed)


def _special_rows(n, shift):
    """(n, 3) rows cycling through _SPECIAL_VALUES from index shift."""
    return np.resize(np.roll(_SPECIAL_VALUES, -shift), 3 * n).reshape(n, 3)


_ROW_WRITERS = {
    "off": lambda n: (write_off, _rowwise_off,
                      tx.TriMesh(_special_rows(max(n, 3), 0),
                                 np.arange(3 * n).reshape(n, 3) % max(n, 3))),
    "obj": lambda n: (ingest.write_centerline_obj, _rowwise_obj,
                      _unchecked_centerline(_special_rows(n, 1), _special_rows(n, 2))),
    "obj-closed": lambda n: (ingest.write_centerline_obj, _rowwise_obj,
                             _unchecked_centerline(_special_rows(n, 3), _special_rows(n, 0),
                                                   closed=True)),
    "centerline-csv": lambda n: (write_centerline_csv, _rowwise_centerline_csv,
                                 _unchecked_centerline(_special_rows(n, 4), _special_rows(n, 7))),
    "truth-csv": lambda n: (ingest.write_truth_csv, _rowwise_truth_csv,
                            tx.TubeTruth(_special_rows(n, 5), _special_rows(n, 6),
                                         ["S", "A", "A"][:n] + ["S"] * (n - 3),
                                         [i for i in (1, 3) if i < n])),
    "error-map-csv": lambda n: (write_face_scalar_csv, _rowwise_face_scalar_csv,
                                np.resize(_SPECIAL_VALUES, n)),
}


@pytest.mark.parametrize("rows", [1, 2, 3, None])
@pytest.mark.parametrize("n", [0, 1, 7, 15])
@pytest.mark.parametrize("kind", list(_ROW_WRITERS))
def test_writers_match_their_row_by_row_writers(tmp_path, monkeypatch, kind, n, rows):
    # 1, 2 and 3 rows per % put rows on and off the block edges; None keeps
    # the default; the values hold +-0.0, +-inf, NaN, 5e-324 and 1e300
    if rows is not None:
        monkeypatch.setattr(ingest, "_ROWS", rows)
    write, rowwise, data = _ROW_WRITERS[kind](n)
    path = tmp_path / "out"
    write(data, path)
    assert path.read_bytes() == rowwise(data).encode()


@pytest.mark.parametrize("block", [1, 2, 4, 1 << 12])
@pytest.mark.parametrize("n_faces", [0, 1, 3])
def test_write_off_matches_row_by_row_writer(tmp_path, monkeypatch, block, n_faces):
    # block sizes of 1 and 2 put rows on and off the block edges
    monkeypatch.setattr(ingest, "_ROWS", block)
    vertices = np.reshape(_SPECIAL_VALUES + [7.0], (5, 3))
    faces = np.array([[0, 1, 2], [4, 3, 2], [1, 4, 0]])[:n_faces].reshape(-1, 3)
    mesh = tx.TriMesh(vertices, faces)
    path = tmp_path / "mesh.off"
    write_off(mesh, path)
    assert path.read_bytes() == _rowwise_off(mesh).encode()


def test_write_off_roundtrip(tmp_path):
    mesh, _ = tx.gen_tube([tx.Straight(6.0)], radius=2.0, mesh_step=1.0)
    path = tmp_path / "tube.off"
    write_off(mesh, path)
    back = tx.load_mesh(str(path))
    assert back.n_vertices == mesh.n_vertices
    assert np.allclose(back.vertices, mesh.vertices, atol=1e-7)
    assert np.array_equal(back.faces, mesh.faces)


def test_load_volume_dedupes(tmp_path):
    p = _write(tmp_path / "v.csv", "1 2 3\n4 5 6\n1 2 3\n")
    vol = tx.load_volume(p)
    assert len(vol.points) == 2


@pytest.mark.parametrize("text, bulk", [
    ("1 2 3\n4 5 6\n", True),
    ("1 2 3\n4 5 6", True),
    ("", True),
    ("1 2 3\r\n-4 +5 6\r\n", True),
    ("1 2 3\r4 5 6\r", True),
    ("\n1 2 3\n\n   \n4\t5\t6\n\n", True),
    ("+1 -2 +0\n-0 3 -4\n-9223372036854775808 9223372036854775807 0\n", True),
    ("1 2 3\n4 5 6\n1 2 3\n1 2 3\n", True),
    ("# x y z\n1 2 3  # first\n4 5 6\n1 2 3\n", False),
    ("1 2 3\r\n# c\r\n\r\n-4 +5 6\r\n", False),
    (" \t\n\n  \n", True),
    ("1 2 3\n4 5 6\n\t", True),
    ("1 2 3\n4 5 6 7\n", False),
    ("1 2 3\n4 5\n", False),
    ("1 2 3 4\n5 6 7 8\n", False),
    (b"1 2 3\n4\xa05 6\n", False),
    # tokens int() accepts but numpy rejects
    ("1 2 3\n1_000 5 6\n", False),
    ("1 2 3\n４ 5 6\n", False),
    ("1 2 3\n9223372036854775808 5 6\n", False),
    ("1 2 3\n-9223372036854775809 5 6\n", False),
    ("1 2 3\nnan 5 6\n", False),
    ("1 2 3\n1.0 5 6\n", False),
])
@pytest.mark.filterwarnings("error")
def test_volume_bulk_and_line_parsers_agree(tmp_path, text, bulk):
    p = tmp_path / "v.xyz"
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
    fast = _parse_voxel_list(p.read_bytes())
    # the plain files really take the bulk path, the others fall back
    assert (fast is not None) == bulk
    try:
        ref = _load_volume_lines(p)
    except (tx.ParseError, UnicodeDecodeError) as err:
        with pytest.raises(type(err)) as got:
            tx.load_volume(p)
        assert str(got.value) == str(err)  # the path and line included
        return
    assert ref.dtype == np.int64 and ref.shape[1:] == (3,)
    if bulk:
        assert fast.dtype == ref.dtype and fast.shape == ref.shape
        assert fast.tobytes() == ref.tobytes()
    if np.isin(ref, [_I64.min, _I64.max]).any():
        # read alike by both parsers, then refused by the facet lattice
        with pytest.raises(tx.ParseError, match="int64 range") as got:
            tx.load_volume(p)
        assert got.value.path == p
        return
    vol = tx.load_volume(p)
    assert np.array_equal(vol.points, np.unique(ref, axis=0))



@pytest.mark.parametrize("rows", [
    [(1, 2, 3), (4, 5, 6), (1, 2, 3), (1, 2, 3), (0, 9, 9)],
    [(-1, 0, 0), (0, -1, 0), (-1, -1, 0), (0, -1, 0), (-1, 0, -5), (2, -3, 1)],
    [(_I64.max, _I64.min, 0), (_I64.min, _I64.max, 0), (_I64.min, _I64.min, 0),
     (_I64.max, _I64.min, 0), (0, 0, _I64.max), (0, 0, _I64.min)],
    [(7, -8, 9)],
], ids=["duplicates", "negative", "int64-extremes", "one-voxel"])
def test_volume_dedup_equals_numpy_unique(tmp_path, rows, caplog):
    pts = np.array(rows, dtype=np.int64)
    expected = np.unique(pts, axis=0)
    text = "".join(f"{x} {y} {z}\n" for x, y, z in rows)
    # the same voxels through the bulk parser and through the line reader
    for p in (_write(tmp_path / "plain.xyz", text),
              _write(tmp_path / "commented.xyz", "# x y z\n" + text)):
        if np.isin(pts, [_I64.min, _I64.max]).any():
            # the int64 extremes have no neighbours the facet lattice can key
            with pytest.raises(tx.ParseError, match="int64 range") as err:
                tx.load_volume(p)
            assert err.value.path == p
            continue
        caplog.clear()
        with caplog.at_level("WARNING", logger="tubeaxis.ingest"):
            vol = tx.load_volume(p)
        assert np.array_equal(vol.points, expected)
        assert vol.points.dtype == np.int64
        removed = len(pts) - len(expected)
        assert (f"removed {removed} duplicate voxel(s)" in caplog.text) == (removed > 0)


def test_loaded_voxels_keep_their_lattice_keys(tmp_path):
    # load_volume sorts and dedupes by the keys, and hands them on
    rng = np.random.default_rng(30)
    rows = rng.integers(-4, 5, size=(400, 3)) * [1, 7, 2 ** 40]
    p = _write(tmp_path / "v.xyz", "".join(f"{x} {y} {z}\n" for x, y, z in rows))
    vol = tx.load_volume(p)
    assert vol._lattice is not None and len(vol) < len(rows)
    keys, strides = vol.lattice()
    want_keys, want_strides = ingest._lattice_keys(vol.points)
    assert np.array_equal(keys, want_keys) and np.array_equal(strides, want_strides)
    assert np.all(keys[1:] > keys[:-1])


def test_a_hand_built_voxel_set_makes_its_keys_on_first_use():
    pts = np.random.default_rng(31).integers(-3, 4, size=(50, 3))
    vol = tx.VoxelSet(pts)
    assert vol._lattice is None
    keys, strides = vol.lattice()
    want_keys, want_strides = ingest._lattice_keys(vol.points)
    assert np.array_equal(keys, want_keys) and np.array_equal(strides, want_strides)
    assert vol.lattice()[0] is keys  # made once


@pytest.mark.parametrize("points, message", [
    (lambda: [(0, 0, 0), (_I64.max, 1, 2)], "int64 range"),
    (lambda: [(0, 0, 0), (0, _I64.min, 0)], "int64 range"),
    # 2.1M distinct values per axis: 2.1M^3 lattice keys do not fit in int64
    (lambda: np.repeat(3 * np.arange(700_000), 3).reshape(-1, 3), "too spread out"),
], ids=["int64-max", "int64-min", "too-spread-out"])
def test_voxels_the_lattice_cannot_index_fail_at_load(tmp_path, points, message):
    p = tmp_path / "v.xyz"
    np.savetxt(p, np.asarray(points(), dtype=np.int64), fmt="%d")
    with pytest.raises(tx.ParseError, match=message) as err:
        tx.load_volume(p)
    assert err.value.path == p and str(err.value).startswith(f"{p}: ")


@pytest.mark.parametrize("text", ["1 2 3\n4 5 6\n1 2 3\n",
                                  "# c\n1 2 3\n4 5 6\n1 2 3\n"])
def test_volume_duplicates_warn_on_both_paths(tmp_path, text, caplog):
    p = _write(tmp_path / "v.xyz", text)
    with caplog.at_level("WARNING", logger="tubeaxis.ingest"):
        vol = tx.load_volume(p)
    assert len(vol) == 2
    assert "removed 1 duplicate voxel(s)" in caplog.text


@pytest.mark.parametrize("text, line", [
    ("1 2 3\n4 5\n6 7 8\n", 2),                        # 2 tokens
    ("1 2 3\n\n4 5 6 7\n", 3),                          # 4 tokens
    ("1 2 3 4\n5 6\n", 1),                              # 4 + 2 tokens
    ("1 2 3\n1.5 2 3\n", 2),
    ("# c\n1 2 3\n1 2 x\n", 3),
    ("1 2 3\n9223372036854775808 0 0\n", 2),           # int64 overflow
    ("# c\n1 2 3\n0 -9223372036854775809 0\n", 3),
    ("1 2 3\n4 5 6 # trailing\n7 8\n", 3),
])
def test_volume_errors_keep_their_line_numbers(tmp_path, text, line):
    p = _write(tmp_path / "bad.xyz", text)
    with pytest.raises(tx.ParseError) as err:
        tx.load_volume(p)
    assert err.value.line == line


def test_pgm_ascii_and_binary_agree(tmp_path):
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
    ascii_p = tmp_path / "a.pgm"
    ascii_p.write_text("P2\n# cmt\n4 3\n255\n" +
                       "\n".join(" ".join(str(x) for x in row) for row in gray))
    bin_p = tmp_path / "b.pgm"
    with open(bin_p, "wb") as fh:
        fh.write(b"P5\n4 3\n255\n")
        fh.write(gray.tobytes())
    ga = load_pgm(str(ascii_p))
    gb = load_pgm(str(bin_p))
    assert np.array_equal(ga, gb)
    assert ga.shape == (3, 4)


def test_heightmap_mesh_shape(tmp_path):
    gray = np.full((5, 7), 3, dtype=np.uint8)
    p = tmp_path / "h.pgm"
    with open(p, "wb") as fh:
        fh.write(b"P5\n7 5\n255\n")
        fh.write(gray.tobytes())
    hm = tx.load_heightmap(str(p), scale=2.0, spacing=0.5)
    assert (hm.width, hm.height) == (7, 5)
    mesh = tx.heightmap_to_mesh(hm)
    assert mesh.n_vertices == 35
    assert mesh.n_faces == 2 * 6 * 4
    # constant height 3*2 at pixel pitch 0.5
    assert np.allclose(mesh.vertices[:, 2], 6.0)
    assert mesh.vertices[:, 0].max() == pytest.approx(6 * 0.5)


@pytest.mark.parametrize("scale", [1e307, math.inf, math.nan])
def test_heightmap_names_the_first_height_that_is_not_finite(tmp_path, scale):
    # 255 * 1e307 overflows; this once printed a numpy warning before a
    # ValueError from HeightMap. Gray 0 gives 0 * inf = NaN at scale inf
    p = tmp_path / "h.pgm"
    p.write_text("P2\n3 2\n255\n0 7 255\n255 1 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tx.ParseError) as error:
            tx.load_heightmap(p, scale=scale)
    row, col, gray = (0, 2, 255) if scale == 1e307 else (0, 0, 0)
    assert str(error.value) == (f"{p}: pixel at row {row}, column {col} (gray {gray}) "
                                f"has a non-finite height at scale {scale:g}")


def test_centerline_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(9, 3)) * 10
    dirs = rng.normal(size=(9, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    path = tmp_path / "c.csv"
    write_centerline_csv(tx.Centerline(pts, dirs), path)
    p2, d2 = tx.read_centerline_csv(path)
    assert np.allclose(p2, pts, atol=1e-7)
    assert np.allclose(d2, dirs, atol=1e-7)


def test_centerline_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,x,y,z,dx,dy,dz\n0,1,2\n")
    with pytest.raises(tx.ParseError):
        tx.read_centerline_csv(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_centerline_csv_rejects_a_non_finite_field(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"index,x,y,z,dx,dy,dz\n0,0,0,0,1,0,0\n1,1,0,0,1,0,0\n"
                    f"2,2,0,0,{token},0,0\n")
    with pytest.raises(tx.ParseError) as error:
        tx.read_centerline_csv(path)
    assert str(error.value) == f"{path}:4: non-finite field"


def test_decomposition_csv_columns(tmp_path):
    from tubeaxis.decompose import Decomposition, Segment
    dec = Decomposition(segments=[
        Segment(start=0, end=4, kind="STRAIGHT", point=np.zeros(3),
                direction=np.array([1.0, 0, 0])),
        Segment(start=4, end=9, kind="ARC", center=np.array([1.0, 2, 3]),
                radius=15.0, axis=np.array([0.0, 0, 1]), extent=1.5),
    ])
    path = tmp_path / "dec.csv"
    write_decomposition_csv(dec, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("startIdx,endIdx,kind")
    srow = lines[1].split(",")
    arow = lines[2].split(",")
    assert srow[2] == "STRAIGHT" and srow[6] == "" and srow[10] == ""
    assert arow[2] == "ARC" and float(arow[6]) == 15.0


def test_write_artifacts_manifest(tmp_path, cylinder):
    cl = tx.extract_centerline(cylinder.result, track_step=cylinder.radius,
                               acc_radius=cylinder.params.acc_radius)
    manifest = tx.write_artifacts(tmp_path / "out", cl)
    for key in ("centerline_obj", "centerline_csv"):
        assert key in manifest
    pts, _ = tx.read_centerline_csv(manifest["centerline_csv"])
    assert len(pts) == len(cl)


def test_write_artifacts_names_each_file_in_the_manifest(tmp_path, cylinder):
    run = tx.run_pipeline(cylinder.mesh, cylinder.radius, gridstep=cylinder.gridstep)
    out = tmp_path / "out"
    manifest = tx.write_artifacts(out, run.centerline, decomposition=run.decomposition,
                                  tube=run.tube, errors=run.errors,
                                  accumulation=run.accumulation)
    # every file once, keyed by its name with the dot as an underscore; a
    # run with a centerline does not write its accumulation
    names = {"centerline.obj", "centerline.csv", "decomposition.csv",
             "reconstructed.off", "error_map.csv"}
    assert {p.name for p in out.iterdir()} == names
    assert manifest == {name.replace(".", "_"): str(out / name) for name in names}
    assert (out / "error_map.csv").read_bytes().count(b"\n") == len(run.errors) + 1
    # outputs not given are not written
    partial = tmp_path / "partial"
    assert set(tx.write_artifacts(partial, run.centerline, errors=run.errors)) == {
        "centerline_obj", "centerline_csv", "error_map_csv"}
    assert {p.name for p in partial.iterdir()} == {"centerline.obj", "centerline.csv",
                                                   "error_map.csv"}


def test_write_artifacts_writes_the_accumulation_without_a_centerline(tmp_path, cylinder):
    out = tmp_path / "out"
    manifest = tx.write_artifacts(out, None, accumulation=cylinder.result)
    assert manifest == {"accumulation_npz": str(out / "accumulation.npz")}
    assert [p.name for p in out.iterdir()] == ["accumulation.npz"]
    table = np.load(out / "accumulation.npz")
    assert table["counts"].tobytes() == cylinder.result.counts.tobytes()


def test_write_artifacts_empty_centerline_is_empty_input(tmp_path):
    # no Centerline is empty (it holds at least two points); none at all,
    # and no accumulation either, writes nothing
    with pytest.raises(tx.TooFewPoints):
        tx.Centerline(np.empty((0, 3)), np.empty((0, 3)))
    with pytest.raises(tx.EmptyInput, match="centerline is empty"):
        tx.write_artifacts(tmp_path / "out", None)
    assert not (tmp_path / "out").exists()


def test_load_mesh_geometry_equals_separate_passes(tmp_path):
    # corners, cross products and edges as drop-degenerate, face_normals and
    # median_face_size each computed them before they shared one pass
    mesh, _ = tx.gen_tube([tx.Straight(20.0), tx.Arc(15.0, 1.2)], radius=3.0,
                          mesh_step=0.7)
    faces = np.vstack([mesh.faces[:40], [[0, 0, 1], [2, 5, 2]], mesh.faces[40:],
                       [[7, 7, 7]]])
    path = tmp_path / "tube.off"
    write_off(tx.TriMesh(mesh.vertices, faces), path)
    loaded = tx.load_mesh(path)
    v = loaded.vertices
    f = faces[[i for i in range(len(faces)) if len(set(faces[i])) == 3]]
    assert np.array_equal(loaded.faces, f)
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    cross = np.cross(b - a, c - a)
    norms = np.linalg.norm(cross, axis=1)
    longest = np.maximum.reduce([np.linalg.norm(b - a, axis=1),
                                 np.linalg.norm(c - b, axis=1),
                                 np.linalg.norm(a - c, axis=1)])
    for mesh in (loaded, tx.TriMesh(v, f)):
        fs = tx.face_normals(mesh)
        assert fs.normals.tobytes() == (cross / norms[:, None]).tobytes()
        assert fs.centers.tobytes() == ((a + b + c) / 3.0).tobytes()
        assert mesh.geometry().norms.tobytes() == norms.tobytes()
        assert mesh.median_face_size() == float(np.median(longest))


def _geometry_by_rows(vertices, faces):
    """Reference: np.cross and np.linalg.norm on (F, 3) rows, as
    TriMesh.geometry computed the face geometry before its columns."""
    v, f = vertices, faces
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    ab, ac = b - a, c - a
    cross = np.cross(ab, ac)
    longest = np.maximum.reduce([np.linalg.norm(ab, axis=1),
                                 np.linalg.norm(c - b, axis=1),
                                 np.linalg.norm(ac, axis=1)])
    return cross, np.linalg.norm(cross, axis=1), (a + b + c) / 3.0, longest


@settings(max_examples=200)
@given(n_vertices=st.integers(3, 40), n_faces=st.integers(0, 60),
       offset=st.sampled_from([0.0, 1.0, -3e11, 1e12]),
       scale=st.sampled_from([1e-6, 1.0, 1e3, 1e12]),
       degenerate=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_geometry_by_columns_equals_np_cross_and_norm_bit_for_bit(
        n_vertices, n_faces, offset, scale, degenerate, seed):
    # random triangles, some zero-area (a repeated corner or three
    # collinear ones), with coordinates up to about 1e12
    rng = np.random.default_rng(seed)
    vertices = offset + scale * rng.normal(size=(n_vertices, 3))
    vertices[1] = 0.5 * (vertices[0] + vertices[2])  # collinear with 0 and 2
    special = np.array([[0, 1, 2], [3, 3, 4], [5, 6, 5], [0, 0, 0]]) % n_vertices
    faces = np.vstack([special[:degenerate],
                       rng.integers(0, n_vertices, size=(n_faces, 3))])
    geometry = tx.TriMesh(vertices, faces).geometry()
    for got, want in zip(geometry, _geometry_by_rows(vertices, faces)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("faces, message", [([[0, 1, -1]], "negative"),
                                             ([[0, 1, 3]], "exceeds")])
def test_trimesh_rejects_face_indices_outside_the_vertices(faces, message):
    # -1 would otherwise wrap around to the last vertex
    verts = np.array([[0.0, 0, 0], [3.0, 0, 0], [0.0, 4, 0]])
    with pytest.raises(ValueError, match=message):
        tx.TriMesh(verts, faces)


def test_median_face_size_is_longest_edge_median():
    verts = np.array([[0.0, 0, 0], [3.0, 0, 0], [0.0, 4, 0]])
    mesh = tx.TriMesh(verts, np.array([[0, 1, 2]]))
    assert mesh.median_face_size() == pytest.approx(5.0)


def test_median_face_size_equals_np_median_bit_for_bit():
    # a partition and the mean of the middle one or two values, as
    # np.median takes them, on odd and even counts, ties and a NaN
    rng = np.random.default_rng(31)
    for n in list(range(1, 30)) + [1000, 1001]:
        for ties in (False, True):
            verts = rng.normal(size=(3 * n, 3)) * 4.0
            if ties:
                verts = np.round(verts * 2.0) / 2.0
            mesh = tx.TriMesh(verts, np.arange(3 * n).reshape(n, 3))
            want = np.float64(np.median(mesh.geometry().longest))
            assert np.float64(mesh.median_face_size()).tobytes() == want.tobytes()
    verts = rng.normal(size=(9, 3))
    verts[4, 1] = np.nan
    mesh = tx.TriMesh(verts, np.arange(9).reshape(3, 3))
    assert np.isnan(mesh.median_face_size())
    assert np.isnan(np.median(mesh.geometry().longest))
