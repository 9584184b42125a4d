"""Exception types shared across the pipeline stages."""


class TubeAxisError(Exception):
    """Base class for all library errors."""


class OutOfRange(TubeAxisError, ValueError):
    """A setting, given or derived, outside pipeline.LIMITS."""


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


class DegenerateTangent(TubeAxisError):
    pass
