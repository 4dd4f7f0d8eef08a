"""Exception types shared across the package.

Every error raised on bad mathematical input derives from ValueError so that
callers who do not care about the fine distinction can catch broadly.
"""


class SchurkitError(Exception):
    """Base class for all package-specific errors."""


class InputNotWeaklyDecreasing(SchurkitError, ValueError):
    """Partition parts must be weakly decreasing."""


class NegativePart(SchurkitError, ValueError):
    """Partition parts must be nonnegative."""


class NotRemovable(SchurkitError, ValueError):
    """The given node is not a removable node of the partition."""


class FirstPartExceedsBound(SchurkitError, ValueError):
    """First part exceeds the box width a*(p-1)+b required by the complement map."""


class LengthExceedsN(SchurkitError, ValueError):
    """Partition has more parts than the ambient number of variables allows."""


class DegreeMismatch(SchurkitError, ValueError):
    """Dominance comparison requires partitions of equal degree."""


class NotRestricted(SchurkitError, ValueError):
    """Operation requires a restricted partition."""


class NotRegular(SchurkitError, ValueError):
    """Operation requires a regular partition (no part repeated p or more times)."""


class PrimeTooSmall(SchurkitError, ValueError):
    """The piecewise first-row classification is only stated for p > 2."""


class VariableCountMismatch(SchurkitError, ValueError):
    """Characters live in different numbers of variables."""


class DegreeMixed(SchurkitError, ValueError):
    """Character support mixes total degrees."""


class NegativeResidual(SchurkitError, ValueError):
    """Greedy expansion hit a negative coefficient: input was not a module character."""


class ResourceBudgetExceeded(SchurkitError, RuntimeError):
    """A weight-space computation exceeded the configured size budget."""
