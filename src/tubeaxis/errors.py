"""Exception types shared across the pipeline stages, and the settings' limits."""

import math


class TubeAxisError(Exception):
    """Base class for all library errors."""


class OutOfRange(TubeAxisError, ValueError):
    """A setting outside LIMITS, or a centerline coordinate past its bound."""


POSITIVE = (lambda v: v > 0, "positive and finite")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative and finite")
AT_LEAST_1 = (lambda v: v >= 1, "at least 1")

# (test, wording) of what each numeric setting must be besides finite
LIMITS = {
    "radius": POSITIVE, "gridstep": POSITIVE, "normal_radius": POSITIVE,
    "epsilon": NON_NEGATIVE, "track_step": POSITIVE, "max_angle": POSITIVE,
    "inside_threshold": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "epsilon_o": NON_NEGATIVE, "max_iter": AT_LEAST_1,
    "resid_tol": POSITIVE, "sides": (lambda v: v >= 3, "at least 3"),
    "mesh_step": POSITIVE, "sigma": NON_NEGATIVE, "hm_scale": POSITIVE,
    "hm_spacing": POSITIVE,
}


def check_setting(name, value):
    """Raise OutOfRange("<name> must be <must>, got <value!r>") unless the
    value is finite and passes LIMITS[name]: every entry point that takes
    a setting checks it here, in the same words."""
    test, must = LIMITS[name]
    if not (math.isfinite(value) and test(value)):
        raise OutOfRange(f"{name} must be {must}, got {value!r}")


class ParseError(TubeAxisError):
    def __init__(self, reason, line=None, path=None):
        self.reason = reason
        self.line = line
        self.path = path
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {reason}" if loc else reason)


class UnsupportedFormat(TubeAxisError):
    pass


class TooSmall(TubeAxisError):
    pass


class EmptyInput(TubeAxisError):
    pass


class ZeroDirection(TubeAxisError):
    pass


class DegenerateFace(TubeAxisError):
    pass


class DomainTooLarge(TubeAxisError):
    """The voxel lattice of a scan, or its vote events, overflow int64 ids,
    or the lattice lies too far from the origin to index exactly."""


class SeedInvalid(TubeAxisError):
    pass


class TooFewPoints(TubeAxisError):
    pass


class CoincidentPoint(TubeAxisError):
    pass


class DuplicatePoint(TubeAxisError):
    pass


class Collinear(TubeAxisError):
    pass


class SelfIntersecting(TubeAxisError):
    pass


class NotClosed(TubeAxisError):
    pass
