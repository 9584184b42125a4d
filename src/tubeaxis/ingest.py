"""Input loading (meshes, voxel sets, height maps) and artifact writing.

Supported formats: ASCII OFF, the v/f/l subset of OBJ (polygon faces are
fan-triangulated), plain "x y z" voxel lists, PGM (P2/P5) height maps and
CSV tables with a header row and '.' decimals.

OFF files and voxel lists have two readers each. Plain files (ASCII, no
comments, all-triangle OFF) go through numpy's C text reader, block by
block; it reads every number to the bits the line reader gives. Every
other file, and every malformed one, goes through the line reader, which
reports the line that is wrong. A loaded mesh keeps the face geometry
(cross products, centers, longest edges) computed to drop its zero-area
faces, for face_normals and median_face_size to reuse.

Every text writer formats its rows by _write_rows, one bytes % per _ROWS
rows; write_artifacts names a run's files and keys its manifest by them.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFace, EmptyInput, ParseError, TooSmall, UnsupportedFormat

logger = logging.getLogger(__name__)

_AREA_EPS = 1e-12
_ROWS = 1 << 12  # text rows formatted by one %; their Python values stay small


class FaceGeometry(NamedTuple):
    """Per-face quantities of a triangle mesh with corners a, b, c."""

    cross: np.ndarray    # (F, 3) (b - a) x (c - a)
    norms: np.ndarray    # (F,) |cross|, twice the face area
    centers: np.ndarray  # (F, 3) (a + b + c) / 3
    longest: np.ndarray  # (F,) longest edge length


@dataclass
class TriMesh:
    """Indexed triangle surface.

    Parameters
    ----------
    vertices : (V, 3) float array
    faces : (F, 3) int array of vertex indices

    The face geometry is computed on first use and kept, so vertices and
    faces must not be modified in place after it.
    """

    vertices: np.ndarray
    faces: np.ndarray
    _geometry: FaceGeometry | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.faces.size and self.faces.max() >= len(self.vertices):
            raise ValueError("face index exceeds vertex count")
        if self.faces.size and self.faces.min() < 0:
            raise ValueError("face index is negative")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    def corners(self):
        """The three (F, 3) corner arrays of every face."""
        v, f = self.vertices, self.faces
        return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]

    def geometry(self) -> FaceGeometry:
        """Cross products, centers and longest edges of all faces, from one
        gathering of the corners.

        The three edge vectors are taken once; the cross products and
        squared lengths are then built column by column, with the bits of
        np.cross (a1 b2 - a2 b1, ...) and np.linalg.norm(axis=1)
        (sqrt((x^2 + y^2) + z^2)), which are several times slower on
        (F, 3) rows. The longest edge is the root of the largest square,
        as sqrt is monotonic. Overflows give inf or NaN, without a warning.
        """
        if self._geometry is None:
            # one contiguous row of vertex ids per corner, which take
            # gathers several times faster than a column of the faces
            a, b, c = (self.vertices.take(ids, axis=0) for ids in self.faces.T.copy())
            ab, ac, bc = b - a, c - a, c - b  # a - c is -(c - a) exactly
            centers = a + b
            centers += c
            centers /= 3.0
            del a, b, c  # freed before the cross products, which set the peak
            cross = np.empty_like(ab)
            with np.errstate(over="ignore", invalid="ignore"):
                for axis, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
                    np.subtract(ab[:, j] * ac[:, k], ab[:, k] * ac[:, j], out=cross[:, axis])
                longest = np.maximum(_squared_lengths(ab), _squared_lengths(bc))
                np.maximum(longest, _squared_lengths(ac), out=longest)
                norms = np.sqrt(_squared_lengths(cross))
            self._geometry = FaceGeometry(cross, norms, centers, np.sqrt(longest))
        return self._geometry

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def median_face_size(self):
        """Median over faces of the longest edge (the default gridstep rule).

        np.median's value, from np.partition and numpy's mean of the middle
        one or two values: np.median's NaN check imports numpy.ma, which
        takes longer than the median itself.
        """
        longest = self.geometry().longest
        n = len(longest)
        if n == 0:
            return math.nan
        half = n // 2
        lo = half - 1 if n % 2 == 0 else half
        part = np.partition(longest, [lo, half, n - 1])
        if np.isnan(part[-1]):  # NaN sorts last
            return math.nan
        return float(part[lo:half + 1].mean())


def _squared_lengths(rows):
    """(x^2 + y^2) + z^2 of each (F, 3) row, by columns."""
    total = rows[:, 0] * rows[:, 0]
    total += rows[:, 1] * rows[:, 1]
    total += rows[:, 2] * rows[:, 2]
    return total


@dataclass
class VoxelSet:
    """Set of integer lattice points with implicit gridstep 1.

    ``origin``/``gridstep`` are optional bookkeeping describing how the
    lattice maps back into some source world frame; processing always
    happens in lattice units.
    """

    points: np.ndarray
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gridstep: float = 1.0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.int64).reshape(-1, 3)
        self.origin = np.asarray(self.origin, dtype=float)

    def __len__(self):
        return len(self.points)

    def to_world(self, lattice_coords):
        """Lift lattice-unit coordinates back to the source world frame."""
        return self.origin + self.gridstep * np.asarray(lattice_coords, dtype=float)


@dataclass
class HeightMap:
    """Regular grid of surface heights; ``heights[i, j]`` sits at
    ``(origin_x + i*spacing, origin_y + j*spacing)``."""

    width: int
    height: int
    heights: np.ndarray  # (width, height), world units
    spacing: float = 1.0
    origin: tuple = (0.0, 0.0)

    def __post_init__(self):
        self.heights = np.asarray(self.heights, dtype=float).reshape(self.width, self.height)
        if not np.all(np.isfinite(self.heights)):
            raise ValueError("heights must be finite")


def _fan_triangulate(poly):
    return [(poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1)]


def _tokens(path):
    """Yield (line_number, token_list) for non-empty, non-comment lines."""
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                yield ln, stripped.split()


def load_off(path):
    """Read an ASCII OFF file; returns (vertices, faces), polygons
    fan-triangulated.

    A plain all-triangle file (ASCII, no comments, exactly "x y z" vertex
    lines and "3 i j k" face lines) has its vertex and face blocks parsed
    by numpy's C text reader. Every other file, including every malformed
    one, goes through the line-by-line reader, which also reports where a
    file is broken.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    parsed = _parse_off_triangles(data)
    if parsed is not None:
        return parsed
    return _load_off_lines(path)


def _plain_text(data):
    """The bytes of a file with the line reader's newlines (\\r\\n and \\r
    read as \\n), or None when the file is not plain ASCII without '#'."""
    if not data.isascii() or b"#" in data:
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _read_table(block, dtype, shape):
    """The array of whitespace-separated numbers in block, if it has shape
    ``shape`` (rows None: any number of rows), else None.

    numpy's reader skips blank lines, as the line reader does. Every token
    it reads, it reads to the value int() or float() gives; it rejects some
    that they accept (1_000, out-of-range integers), which then fall back
    to the line reader. A block of blank lines is not read at all, as numpy
    warns that it holds no data.
    """
    rows, columns = shape
    if not block or block.isspace():
        table = np.empty((0, columns), dtype=dtype)
    else:
        try:
            table = np.loadtxt(io.BytesIO(block), dtype=dtype, comments=None, ndmin=2)
        except ValueError:
            return None
    if table.shape[1] != columns or rows not in (None, len(table)):
        return None
    return table


def _parse_off_triangles(data):
    """(vertices, faces) of the bytes of a plain all-triangle OFF file, or
    None for any other file. What it accepts, _load_off_lines reads to the
    same arrays; everything else, errors included, is left to that reader."""
    data = _plain_text(data)
    if data is None:
        return None
    # line k is data[ends[k - 1] + 1 : ends[k]], as in data.split(b"\n")
    ends = np.append(np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10), len(data))
    magic = data[:ends[0]].split()
    if magic[:1] != [b"OFF"]:
        return None
    # the counts follow the magic on its line or on the next one
    body = 1 if len(magic) > 1 else 2
    if len(ends) < body:
        return None
    counts = data[:ends[body - 1]].split()[1:]
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError):
        return None
    if nv < 0 or nf < 0 or len(ends) < body + nv + nf:
        return None
    # block boundaries: the start of the vertex, face and following lines
    start = [ends[k - 1] + 1 for k in (body, body + nv, body + nv + nf)]
    vertices = _read_table(data[start[0]:start[1] - 1], float, (nv, 3))
    records = _read_table(data[start[1]:start[2] - 1], np.int64, (nf, 4))
    if vertices is None or records is None:
        return None
    faces = np.ascontiguousarray(records[:, 1:])  # tested several times faster than the view
    if np.any(records[:, 0] != 3) or np.any(faces < 0) or np.any(faces >= nv):
        return None
    return vertices, faces


def _load_off_lines(path):
    tok = _tokens(path)
    try:
        ln, first = next(tok)
    except StopIteration:
        raise ParseError("empty file", path=path)
    counts = first
    if first[0].upper() == "OFF":
        counts = first[1:]
        if not counts:
            try:
                ln, counts = next(tok)
            except StopIteration:
                raise ParseError("missing count line", line=ln, path=path)
    try:
        nv, nf = int(counts[0]), int(counts[1])
        if nv < 0 or nf < 0:
            raise ValueError
    except (ValueError, IndexError):
        raise ParseError(f"bad count line {counts!r}", line=ln, path=path)

    vertices = np.empty((nv, 3))
    for i in range(nv):
        try:
            ln, parts = next(tok)
        except StopIteration:
            raise ParseError(f"expected {nv} vertices, file ended after {i}", path=path)
        try:
            vertices[i] = [float(parts[0]), float(parts[1]), float(parts[2])]
        except (ValueError, IndexError):
            raise ParseError(f"bad vertex line {parts!r}", line=ln, path=path)

    faces = []
    for _ in range(nf):
        try:
            ln, parts = next(tok)
        except StopIteration:
            raise ParseError(f"expected {nf} faces, file ended after {len(faces)}", path=path)
        try:
            k = int(parts[0])
            poly = [int(t) for t in parts[1 : 1 + k]]
            if len(poly) != k or k < 3:
                raise ValueError
        except ValueError:
            raise ParseError(f"bad face line {parts!r}", line=ln, path=path)
        if max(poly) >= nv or min(poly) < 0:
            raise ParseError(f"face index out of range on line {ln}", line=ln, path=path)
        faces.extend(_fan_triangulate(poly))
    return vertices, np.asarray(faces, dtype=np.int64).reshape(-1, 3)


def load_obj(path):
    vertices, faces = [], []
    for ln, parts in _tokens(path):
        if parts[0] == "v":
            try:
                vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except (ValueError, IndexError):
                raise ParseError(f"bad vertex line {parts!r}", line=ln, path=path)
        elif parts[0] == "f":
            try:
                raw = [int(t.split("/", 1)[0]) for t in parts[1:]]
            except ValueError:
                raise ParseError(f"bad face line {parts!r}", line=ln, path=path)
            # negative indices count back from the vertices read so far
            poly = [i - 1 if i > 0 else len(vertices) + i for i in raw]
            if len(poly) < 3 or any(i < 0 for i in poly) or 0 in raw:
                raise ParseError(f"bad face line {parts!r}", line=ln, path=path)
            faces.extend(_fan_triangulate(poly))
        # everything else (vn, vt, l, o, ...) is ignored on load
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if faces.size and faces.max() >= len(vertices):
        raise ParseError("face index out of range", path=path)
    return vertices, faces


def load_mesh(path) -> TriMesh:
    """Load an OFF or OBJ mesh, by the path's suffix; zero-area faces are
    dropped with a warning.

    A vertex with a NaN or infinite coordinate is a ParseError naming the
    first such vertex, a face whose area or edge overflows a DegenerateFace
    and a mesh without faces an EmptyInput. The mesh keeps the geometry of
    the area test for face_normals and median_face_size.
    """
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt == "off":
        vertices, faces = load_off(path)
    elif fmt == "obj":
        vertices, faces = load_obj(path)
    else:
        raise UnsupportedFormat(f"unknown mesh format {fmt!r}")
    finite = np.isfinite(vertices)
    if not finite.all():
        bad = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ParseError(f"vertex {bad} has a non-finite coordinate "
                         f"({', '.join(_fmt(x) for x in vertices[bad])})", path=path)
    mesh = TriMesh(vertices, faces)
    geometry = mesh.geometry()
    finite = np.isfinite(geometry.norms) & np.isfinite(geometry.longest)
    if not finite.all():
        raise DegenerateFace(f"face {int(np.argmin(finite))} has an area or an edge "
                             "that overflows")
    keep = 0.5 * geometry.norms > _AREA_EPS
    dropped = int((~keep).sum())
    if dropped:
        logger.warning("%s: dropped %d degenerate face(s)", path, dropped)
        mesh = TriMesh(vertices, mesh.faces[keep])
        mesh._geometry = FaceGeometry(*(values[keep] for values in geometry))
    if mesh.n_faces == 0:
        raise EmptyInput("no faces to accumulate")
    logger.info("%s: %d vertices, %d faces", path, mesh.n_vertices, mesh.n_faces)
    return mesh


def load_volume(path) -> VoxelSet:
    """Load an ASCII "x y z" voxel list; duplicates are removed.

    A plain file (ASCII, no comments, 3 integers on every non-blank line)
    is parsed by numpy's C text reader. Every other file, including every
    malformed one, goes through the line-by-line reader, which also
    reports where a file is broken.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pts = _parse_voxel_list(data)
    if pts is None:
        pts = _load_volume_lines(path)
    # the rows of np.unique(pts, axis=0), without its structured-view sort
    pts = pts[np.lexsort(pts.T[::-1])]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = np.logical_or.reduce([col[1:] != col[:-1] for col in pts.T])
    unique = pts[first]
    if len(unique) != len(pts):
        logger.warning("%s: removed %d duplicate voxel(s)", path, len(pts) - len(unique))
    return VoxelSet(unique)


def _parse_voxel_list(data):
    """(N, 3) int64 points of the bytes of a plain voxel list, or None for
    any other file. What it accepts, _load_volume_lines reads to the same
    array; everything else, errors included, is left to that reader."""
    data = _plain_text(data)
    return None if data is None else _read_table(data, np.int64, (None, 3))


def _load_volume_lines(path):
    info = np.iinfo(np.int64)
    points = []
    for ln, parts in _tokens(path):
        if len(parts) != 3:
            raise ParseError(f"expected 3 integers, got {parts!r}", line=ln, path=path)
        try:
            point = [int(parts[0]), int(parts[1]), int(parts[2])]
        except ValueError:
            raise ParseError(f"non-integer token in {parts!r}", line=ln, path=path)
        if not all(info.min <= v <= info.max for v in point):
            raise ParseError(f"integer out of int64 range in {parts!r}", line=ln, path=path)
        points.append(point)
    return np.asarray(points, dtype=np.int64).reshape(-1, 3)


def load_pgm(path):
    """Read a P2/P5 PGM image; returns a (rows, cols) uint array."""
    with open(path, "rb") as fh:
        data = fh.read()

    # header tokens may be interleaved with comments
    tokens = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        if data[pos : pos + 1] == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
            continue
        if data[pos : pos + 1].isspace():
            pos += 1
            continue
        end = pos
        while end < len(data) and not data[end : end + 1].isspace() and data[end : end + 1] != b"#":
            end += 1
        tokens.append(data[pos:end])
        pos = end
    if len(tokens) < 4:
        raise ParseError("truncated PGM header", path=path)
    magic = tokens[0].decode("ascii", "replace")
    try:
        cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        if cols < 0 or rows < 0:
            raise ValueError
    except ValueError:
        raise ParseError("bad PGM header", path=path)

    if magic == "P2":
        try:
            values = np.array(data[pos:].split(), dtype=np.int64)
        except ValueError:
            raise ParseError("non-integer pixel in P2 body", path=path)
    elif magic == "P5":
        pos += 1  # single whitespace after maxval
        dtype = ">u2" if maxval > 255 else np.uint8
        size = np.dtype(dtype).itemsize  # a short body fails the check below
        body = data[pos:pos + rows * cols * size]
        values = np.frombuffer(body, dtype=dtype, count=len(body) // size).astype(np.int64)
    else:
        raise UnsupportedFormat(f"not a PGM file (magic {magic!r})")
    if values.size != rows * cols:
        raise ParseError(f"expected {rows * cols} pixels, got {values.size}", path=path)
    return values.reshape(rows, cols)


def load_heightmap(path, scale=1.0, spacing=1.0) -> HeightMap:
    """Load a PGM as a height map; gray values map to heights via ``scale``.
    A height that is not finite is a ParseError naming the first such pixel."""
    gray = load_pgm(path)
    rows, cols = gray.shape
    with np.errstate(over="ignore", invalid="ignore"):
        heights = gray * float(scale)
    finite = np.isfinite(heights)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), cols)
        raise ParseError(f"pixel at row {row}, column {col} (gray {gray[row, col]}) has a "
                         f"non-finite height at scale {float(scale):g}", path=path)
    # pixel (col i, row j) -> heights[i, j]
    return HeightMap(cols, rows, heights.T, spacing=spacing)


def heightmap_to_mesh(hm: HeightMap) -> TriMesh:
    """Triangulate a height map into a terrain mesh.

    Each grid cell is split along the (i, j)-(i+1, j+1) diagonal, giving
    exactly 2*(w-1)*(h-1) faces with upward-facing orientation.
    """
    w, h = hm.width, hm.height
    if w < 2 or h < 2:
        raise TooSmall("height map needs at least 2 samples per axis")
    i, j = np.meshgrid(np.arange(w), np.arange(h), indexing="ij")
    vertices = np.column_stack([
        hm.origin[0] + i.ravel() * hm.spacing,
        hm.origin[1] + j.ravel() * hm.spacing,
        hm.heights.ravel(),
    ])

    def vid(ii, jj):
        return ii * h + jj

    ci, cj = np.meshgrid(np.arange(w - 1), np.arange(h - 1), indexing="ij")
    ci, cj = ci.ravel(), cj.ravel()
    t1 = np.column_stack([vid(ci, cj), vid(ci + 1, cj), vid(ci + 1, cj + 1)])
    t2 = np.column_stack([vid(ci, cj), vid(ci + 1, cj + 1), vid(ci, cj + 1)])
    faces = np.concatenate([t1, t2])
    return TriMesh(vertices, faces)


# --- writers -----------------------------------------------------------------


def _fmt(x):
    return format(float(x), ".9g")


def _write_rows(fh, line, columns):
    """Write ``line % row`` for every row of the equal-length 1-D array
    columns to the binary file fh, _ROWS rows at a time, by one bytes %
    over the block's interleaved fields: the text str % gives, without the
    text layer's encoding pass."""
    width, n = len(columns), len(columns[0])
    for lo in range(0, n, _ROWS):
        rows = min(_ROWS, n - lo)
        fields = [None] * (width * rows)
        for k, column in enumerate(columns):
            fields[k::width] = column[lo:lo + rows].tolist()
        fh.write(line * rows % tuple(fields))


def write_off(mesh: TriMesh, path):
    """Write a triangle mesh as OFF, vertices as %.9g (the text of _fmt)."""
    with open(path, "wb") as fh:
        fh.write(b"OFF\n%d %d 0\n" % (mesh.n_vertices, mesh.n_faces))
        _write_rows(fh, b"%.9g %.9g %.9g\n", mesh.vertices.T)
        _write_rows(fh, b"3 %d %d %d\n", mesh.faces.T)


def write_centerline_obj(centerline, path):
    """Write a Centerline's points as OBJ v records plus a single l record,
    which returns to the first point if the centerline is closed."""
    ids = list(range(1, len(centerline.points) + 1))
    if centerline.closed:
        ids.append(1)
    with open(path, "wb") as fh:
        _write_rows(fh, b"v %.9g %.9g %.9g\n", centerline.points.T)
        fh.write(b"l %s\n" % " ".join(map(str, ids)).encode())


def write_centerline_csv(centerline, path):
    """Write a Centerline's points and directions as index,x,y,z,dx,dy,dz rows."""
    with open(path, "wb") as fh:
        fh.write(b"index,x,y,z,dx,dy,dz\n")
        _write_rows(fh, b"%d" + b",%.9g" * 6 + b"\n",
                    [np.arange(len(centerline.points)), *centerline.points.T,
                     *centerline.directions.T])


def read_centerline_csv(path):
    """Read back a centerline CSV; returns (points, directions). A field
    that is not a finite number is a ParseError naming its line."""
    points, directions = [], []
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("index,"):
            raise ParseError("missing centerline header", line=1, path=path)
        for ln, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ParseError(f"expected 7 columns, got {len(parts)}", line=ln, path=path)
            try:
                vals = [float(t) for t in parts[1:]]
            except ValueError:
                raise ParseError("non-numeric field", line=ln, path=path)
            if not all(map(math.isfinite, vals)):
                raise ParseError("non-finite field", line=ln, path=path)
            points.append(vals[:3])
            directions.append(vals[3:])
    if not points:
        raise EmptyInput(f"{path}: no centerline points")
    return np.asarray(points), np.asarray(directions)


def write_decomposition_csv(decomposition, path):
    with open(path, "w") as fh:
        fh.write("startIdx,endIdx,kind,cx,cy,cz,radius,ax,ay,az,extent,residual\n")
        for seg in decomposition.segments:
            if seg.kind == "ARC":
                row = [seg.start, seg.end, seg.kind,
                       _fmt(seg.center[0]), _fmt(seg.center[1]), _fmt(seg.center[2]),
                       _fmt(seg.radius),
                       _fmt(seg.axis[0]), _fmt(seg.axis[1]), _fmt(seg.axis[2]),
                       _fmt(seg.extent), _fmt(seg.residual)]
            else:
                # straight rows reuse the center/axis columns for point+direction
                row = [seg.start, seg.end, seg.kind,
                       _fmt(seg.point[0]), _fmt(seg.point[1]), _fmt(seg.point[2]),
                       "",
                       _fmt(seg.direction[0]), _fmt(seg.direction[1]), _fmt(seg.direction[2]),
                       "", _fmt(seg.residual)]
            fh.write(",".join(str(c) for c in row) + "\n")


def write_face_scalar_csv(values, path):
    """Write "face,value" rows, the value as %.9g."""
    values = np.asarray(values, dtype=float).ravel()
    with open(path, "wb") as fh:
        fh.write(b"face,value\n")
        _write_rows(fh, b"%d,%.9g\n", [np.arange(len(values)), values])


def write_truth_csv(truth, path):
    """Write a TubeTruth as index,x,y,z,tx,ty,tz,kind,junction rows, junction
    1 where two segments meet, else 0."""
    index = np.arange(len(truth.points))
    with open(path, "wb") as fh:
        fh.write(b"index,x,y,z,tx,ty,tz,kind,junction\n")
        _write_rows(fh, b"%d" + b",%.9g" * 6 + b",%s,%d\n",
                    [index, *truth.points.T, *truth.tangents.T,
                     np.asarray(truth.kinds, dtype=bytes), np.isin(index, truth.junctions)])


def write_accumulation_npz(accumulation, path):
    """Write an accumulation's vote table as one uncompressed npz, for
    np.load: ``index`` the (n, 3) int64 lattice indices of the visited
    voxels in key order, ``counts`` their uint32 votes, ``directions``
    the (n, 3) rows of ``dirs``, and the domain's ``origin``,
    ``gridstep`` and ``dims``."""
    domain = accumulation.domain
    index = np.column_stack(np.unravel_index(accumulation.keys, domain.dims))
    np.savez(path, index=index, counts=accumulation.counts, directions=accumulation.dirs,
             origin=domain.origin, gridstep=domain.gridstep, dims=domain.dims)


def write_artifacts(out_dir, centerline, decomposition=None, tube=None, errors=None,
                    accumulation=None):
    """Write a run's outputs under ``out_dir``: centerline.obj/.csv, then
    decomposition.csv, reconstructed.off (``tube``) and error_map.csv
    (``errors``) if given; without a centerline, accumulation.npz. Returns
    the manifest, which keys each path by its file name, dot made underscore.
    Neither is EmptyInput."""
    if centerline is None and accumulation is not None:
        files = (("accumulation.npz", write_accumulation_npz, accumulation),)
    elif centerline is None:
        raise EmptyInput("centerline is empty")
    else:
        files = (("centerline.obj", write_centerline_obj, centerline),
                 ("centerline.csv", write_centerline_csv, centerline),
                 ("decomposition.csv", write_decomposition_csv, decomposition),
                 ("reconstructed.off", write_off, tube),
                 ("error_map.csv", write_face_scalar_csv, errors))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, write, value in files:
        if value is not None:
            path = out_dir / name
            write(value, path)
            manifest[name.replace(".", "_")] = str(path)
    return manifest
