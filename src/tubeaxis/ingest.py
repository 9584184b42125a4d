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
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import EmptyInput, ParseError, TooSmall, UnsupportedFormat

logger = logging.getLogger(__name__)

_AREA_EPS = 1e-12
_CSV_BLOCK = 1 << 16  # error-map rows formatted by one % operation
_OFF_BLOCK = 1 << 12  # OFF lines formatted by one %; their Python floats stay small


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
        gathering of the corners."""
        if self._geometry is None:
            a, b, c = self.corners()
            ab, ac = b - a, c - a
            cross = np.cross(ab, ac)
            longest = np.maximum.reduce([
                np.linalg.norm(ab, axis=1),
                np.linalg.norm(c - b, axis=1),
                np.linalg.norm(ac, axis=1),  # a - c is -(c - a) exactly
            ])
            self._geometry = FaceGeometry(cross, np.linalg.norm(cross, axis=1),
                                          (a + b + c) / 3.0, longest)
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
    faces = records[:, 1:]
    if np.any(records[:, 0] != 3) or np.any(faces < 0) or np.any(faces >= nv):
        return None
    return vertices, np.ascontiguousarray(faces)


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


def load_mesh(path, fmt=None) -> TriMesh:
    """Load an OFF or OBJ mesh; zero-area faces are dropped with a warning.

    The returned mesh carries the face geometry computed for that test,
    so face_normals and median_face_size do not gather the corners again.
    """
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    fmt = fmt.lower()
    if fmt == "off":
        vertices, faces = load_off(path)
    elif fmt == "obj":
        vertices, faces = load_obj(path)
    else:
        raise UnsupportedFormat(f"unknown mesh format {fmt!r}")
    mesh = TriMesh(vertices, faces)
    geometry = mesh.geometry()
    keep = 0.5 * geometry.norms > _AREA_EPS
    dropped = int((~keep).sum())
    if dropped:
        logger.warning("%s: dropped %d degenerate face(s)", path, dropped)
        mesh = TriMesh(vertices, mesh.faces[keep])
        mesh._geometry = FaceGeometry(*(values[keep] for values in geometry))
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
    first[1:] = np.any(pts[1:] != pts[:-1], axis=1)
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
    """Load a PGM as a height map; gray values map to heights via ``scale``."""
    gray = load_pgm(path)
    rows, cols = gray.shape
    # pixel (col i, row j) -> heights[i, j]
    return HeightMap(cols, rows, gray.T * float(scale), spacing=spacing)


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


def write_off(mesh: TriMesh, path):
    """Write a triangle mesh as OFF, vertices as %.9g (the text of _fmt);
    the lines are formatted _OFF_BLOCK at a time, by one % over a block."""
    with open(path, "w") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n")
        for line, rows in (("%.9g %.9g %.9g\n", np.asarray(mesh.vertices, dtype=float)),
                           ("3 %d %d %d\n", np.asarray(mesh.faces))):
            for lo in range(0, len(rows), _OFF_BLOCK):
                block = rows[lo:lo + _OFF_BLOCK]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_centerline_obj(points, path, closed=False):
    """Write a polyline as OBJ v records plus a single l record."""
    points = np.atleast_2d(points)
    with open(path, "w") as fh:
        for p in points:
            fh.write(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        ids = list(range(1, len(points) + 1))
        if closed:
            ids.append(1)
        fh.write("l " + " ".join(str(i) for i in ids) + "\n")


def write_centerline_csv(points, directions, path):
    points = np.atleast_2d(points)
    directions = np.atleast_2d(directions)
    with open(path, "w") as fh:
        fh.write("index,x,y,z,dx,dy,dz\n")
        for i, (p, d) in enumerate(zip(points, directions)):
            fh.write(f"{i},{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])},"
                     f"{_fmt(d[0])},{_fmt(d[1])},{_fmt(d[2])}\n")


def read_centerline_csv(path):
    """Read back a centerline CSV; returns (points, directions)."""
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
    """Write "face,value" rows, the value as %.9g; the rows are formatted
    _CSV_BLOCK at a time, by one % over the block's indices and values."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    with open(path, "w") as fh:
        fh.write("face,value\n")
        for lo in range(0, len(values), _CSV_BLOCK):
            block = values[lo:lo + _CSV_BLOCK]
            fields = [None] * (2 * len(block))
            fields[::2] = range(lo, lo + len(block))
            fields[1::2] = block
            fh.write(("%d,%.9g\n" * len(block)) % tuple(fields))


def write_artifacts(out_dir, centerline, decomposition=None, meshes=None,
                    face_scalars=None):
    """Write pipeline outputs under ``out_dir``; returns a name->path manifest.

    ``meshes`` maps artifact names to TriMesh objects (written as OFF);
    ``face_scalars`` maps names to per-face value arrays written as sidecar
    CSVs.
    """
    if centerline is None or len(centerline.points) == 0:
        raise EmptyInput("centerline is empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}

    obj_path = out_dir / "centerline.obj"
    write_centerline_obj(centerline.points, obj_path, closed=centerline.closed)
    manifest["centerline_obj"] = str(obj_path)

    csv_path = out_dir / "centerline.csv"
    write_centerline_csv(centerline.points, centerline.directions, csv_path)
    manifest["centerline_csv"] = str(csv_path)

    if decomposition is not None:
        dec_path = out_dir / "decomposition.csv"
        write_decomposition_csv(decomposition, dec_path)
        manifest["decomposition_csv"] = str(dec_path)

    for name, mesh in (meshes or {}).items():
        mesh_path = out_dir / f"{name}.off"
        write_off(mesh, mesh_path)
        manifest[f"{name}_off"] = str(mesh_path)

    for name, values in (face_scalars or {}).items():
        scalar_path = out_dir / f"{name}.csv"
        write_face_scalar_csv(values, scalar_path)
        manifest[f"{name}_csv"] = str(scalar_path)
    return manifest
