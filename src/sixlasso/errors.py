"""Exception types shared across the library.

Each class corresponds to one contract violation; callers that want to
distinguish domain failures from input failures can catch these instead of
bare ValueError.
"""


class SixLassoError(Exception):
    """Base class for all library-specific errors."""


class InvalidSparsity(SixLassoError):
    """Requested support size s is outside 1 <= s <= p."""


class NegativeRadius(SixLassoError):
    """An l1-ball radius was negative."""


class ZeroMatrix(SixLassoError):
    """A design matrix was identically zero, or so small that its squares
    underflow to zero, where a nonzero one is required."""


class ZeroGradient(SixLassoError):
    """X'y vanished: the data carry no directional information."""


class ZeroVector(SixLassoError):
    """A metric received a (numerically) zero vector where a direction is needed."""


class EmptyRecords(SixLassoError):
    """Aggregation was asked to summarize an empty record list."""
