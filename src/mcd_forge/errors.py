"""Exception types used across the package.

Everything derives from :class:`McdForgeError` so callers can catch package
errors with a single except clause.  Most are also ValueError subclasses,
since they signal bad arguments rather than internal failures.
"""


class McdForgeError(Exception):
    """Base class for every error raised by this package."""


class NotPrimePowerError(McdForgeError, ValueError):
    """Field order is not a prime power (or is below 2)."""


class UnsupportedOrderError(McdForgeError, ValueError):
    """Field order is a prime power but larger than the supported cap."""


class TooLargeError(McdForgeError, ValueError):
    """An enumeration would exceed the hard size cap."""


class ZeroVectorError(McdForgeError, ValueError):
    """The zero vector was supplied where a nonzero vector is required."""


class LevelOutOfRangeError(McdForgeError, ValueError):
    """A matrix entry lies outside the declared level range."""


class NotDivisibleError(McdForgeError, ValueError):
    """Run count is not divisible by the group size."""


class MalformedCollapsedDesignError(McdForgeError, ValueError):
    """A collapsed design column does not take each level exactly s times."""


class StrengthExceedsColumnsError(McdForgeError, ValueError):
    """Requested strength t exceeds the number of columns."""


class RunCountMismatchError(McdForgeError, ValueError):
    """Two designs that must share a run count do not."""


class BadGridError(McdForgeError, ValueError):
    """Grid cell counts do not divide the run count."""


class BadParamsError(McdForgeError, ValueError):
    """Construction parameters outside the valid domain."""


class VOutOfRangeError(McdForgeError, ValueError):
    """Subspace-count v outside 1..n* for the given parameters."""


class OrthogonalityViolationError(McdForgeError, ValueError):
    """Some z vector is orthogonal to some x vector; lists the offending pairs."""


class ProportionalVectorsError(McdForgeError, ValueError):
    """Two supplied vectors are scalar multiples of each other."""


class TooManyColumnsError(McdForgeError, ValueError):
    """More columns requested than distinct directions available."""


class NotApplicableError(McdForgeError, ValueError):
    """The requested witness/operation does not apply to the given input."""


class MalformedBundleError(McdForgeError, ValueError):
    """A design file could not be parsed against the bundle schema."""
