"""Shared fixtures: one small reference cylinder reused across modules.

Property tests run under one hypothesis profile: the same examples on
every run, no deadline and no example database.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

import tubeaxis as tx

settings.register_profile("tubeaxis", derandomize=True, deadline=None, database=None)
settings.load_profile("tubeaxis")


class CylinderCase:
    """Straight tube along +x with everything downstream precomputed."""

    def __init__(self):
        self.radius = 5.0
        self.gridstep = 1.0
        self.length = 100.0
        self.mesh, self.truth = tx.gen_tube([tx.Straight(self.length)],
                                            radius=self.radius, mesh_step=1.0)
        run = tx.run_pipeline(self.mesh, self.radius, gridstep=self.gridstep,
                              stages=("accumulate",))
        self.faces, self.params, self.result = run.faces, run.acc_params, run.accumulation

    def axis_distance(self, points):
        """Distance of points to the exact axis segment."""
        return tx.distance_to_polyline(points, self.truth.points)


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance_report(request):
    """Record one [PASS]/[FAIL] line per criterion and fail on FAIL."""

    def record(criterion, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
        request.config._acceptance_lines.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture(scope="session")
def cylinder():
    return CylinderCase()


@pytest.fixture(scope="session")
def bent_pipe():
    """S(30)-A(r=15, 90 deg)-S(30) tube with its accumulation, radius 3."""
    radius = 3.0
    segs = [tx.Straight(30.0), tx.Arc(15.0, math.pi / 2), tx.Straight(30.0)]
    mesh, truth = tx.gen_tube(segs, radius=radius, mesh_step=1.0)
    run = tx.run_pipeline(mesh, radius, gridstep=1.0, stages=("accumulate",))
    return {"radius": radius, "mesh": mesh, "truth": truth, "faces": run.faces,
            "params": run.acc_params, "result": run.accumulation}


def capped_voxels():
    """A small capped bent pipe, radius 3, voxelized at 1."""
    mesh, _ = tx.gen_tube([tx.Straight(10.0), tx.Arc(8.0, math.pi / 2),
                           tx.Straight(10.0)], radius=3.0, mesh_step=1.0,
                          cap_ends=True)
    return tx.voxelize(mesh, 1.0)


def capped_voxel_pipe():
    """capped_voxels the way the voxel path sees them: boundary facets
    with covariance normals, oriented inward."""
    return tx.run_pipeline(capped_voxels(), 3.0, stages=()).faces


def quaternion_rotation(q):
    """Rotation matrix of the quaternion (w, x, y, z), scaled to unit length."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def random_unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]
