"""Exception types shared across the package.

The CLI maps these onto its exit-code contract (2 usage, 3 insufficient
data, 4 integrity) in one handler on its command group, which lets any
other exception but an OSError or MemoryError propagate; so library code
should raise the most specific type.
"""


class SrcError(Exception):
    """Base class for all srcodes errors."""


class ParameterError(SrcError, ValueError):
    """Invalid code or configuration parameters."""


class ShapeError(SrcError, ValueError):
    """Buffers with inconsistent lengths or malformed chunk arrays."""


class InsufficientDataError(SrcError):
    """Fewer live shards/chunks than the code needs to recover."""


class IntegrityError(SrcError):
    """Checksum or digest mismatch against a manifest."""


class PlacementError(SrcError):
    """Cluster too small to place a redundancy set on distinct machines."""
