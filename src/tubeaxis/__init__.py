"""Centerline extraction and geometric analysis of 3D tubular shapes.

The pipeline: accumulate surface-normal votes on a voxel lattice, track the
vote ridge into a raw centerline, refine each point as the least-squares
center of its known-radius cross-section, decompose the result into
straight and arc sections, and optionally rebuild an ideal tube to measure
per-face deviation.
"""

from .accumulate import (AccumulationParams, AccumulationResult,
                         accumulation_domain, compute_accumulation)
from .core import (GridDomain, OrthonormalFrame, ScalarGrid3, VectorGrid3,
                   digitize, frame_from_direction, load_grid, normalize,
                   save_grid)
from .decompose import (Decomposition, Segment, TangentSpacePolygon,
                        decompose_centerline, detect_arcs_and_lines,
                        fit_circle_3d, tangent_space_transform)
from .errors import (Collinear, CoincidentPoint, DegenerateFace,
                     DegenerateTangent, DomainTooLarge, DuplicatePoint,
                     EmptyInput, NotClosed, ParseError, SeedInvalid,
                     SelfIntersecting, TooFewPoints, TooSmall, TubeAxisError,
                     UnsupportedFormat, ZeroDirection)
from .ingest import (HeightMap, TriMesh, VoxelSet, heightmap_to_mesh,
                     load_heightmap, load_mesh, load_volume,
                     read_centerline_csv, write_artifacts, write_off)
from .normals import (OrientedFaceSet, digital_surface_faces,
                      estimate_digital_normals, face_normals, orient_inward)
from .pipeline import STAGES, PipelineResult, run_pipeline
from .rebuild import distance_to_polyline, error_map, error_summary, sweep_tube
from .refine import (energy_and_gradient, optimize_centerline, optimize_point,
                     section_points)
from .synth import (Arc, Straight, TubeTruth, degrade, gen_tube,
                    parse_tube_spec, render_heightmap, voxelize)
from .track import (Centerline, extract_centerline, extract_patch,
                    is_inside_tube, track_direction)

__version__ = "0.1.0"

__all__ = [
    "AccumulationParams", "AccumulationResult", "accumulation_domain",
    "compute_accumulation",
    "GridDomain", "OrthonormalFrame", "ScalarGrid3", "VectorGrid3",
    "digitize", "frame_from_direction", "load_grid", "normalize", "save_grid",
    "Decomposition", "Segment", "TangentSpacePolygon", "decompose_centerline",
    "detect_arcs_and_lines", "fit_circle_3d", "tangent_space_transform",
    "TubeAxisError", "ParseError", "UnsupportedFormat", "TooSmall",
    "EmptyInput", "ZeroDirection", "DegenerateFace", "DomainTooLarge",
    "SeedInvalid", "TooFewPoints", "CoincidentPoint", "DuplicatePoint",
    "Collinear", "SelfIntersecting", "NotClosed", "DegenerateTangent",
    "HeightMap", "TriMesh", "VoxelSet", "heightmap_to_mesh", "load_heightmap",
    "load_mesh", "load_volume", "read_centerline_csv", "write_artifacts",
    "write_off",
    "OrientedFaceSet", "digital_surface_faces", "estimate_digital_normals",
    "face_normals", "orient_inward",
    "STAGES", "PipelineResult", "run_pipeline",
    "distance_to_polyline", "error_map", "error_summary", "sweep_tube",
    "energy_and_gradient", "optimize_centerline", "optimize_point",
    "section_points",
    "Arc", "Straight", "TubeTruth", "degrade", "gen_tube", "parse_tube_spec",
    "render_heightmap", "voxelize",
    "Centerline", "extract_centerline", "extract_patch",
    "is_inside_tube", "track_direction",
]
