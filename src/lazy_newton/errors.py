"""Exception types shared across the package."""


class LazyNewtonError(Exception):
    """Base class for package-specific errors."""


class SingularApproach(LazyNewtonError):
    """A field point or free-fall path came within the softening length of a mass point.

    Raised instead of regularizing: the supported scenarios never probe a
    source interior, so a near-singular evaluation signals a broken setup
    rather than physics to smooth over.
    """

    def __init__(self, message, distance=None, when=None, source_index=None):
        super().__init__(message)
        self.distance = distance
        self.when = when
        self.source_index = source_index


class AdaptiveBudgetExceeded(LazyNewtonError, RuntimeError):
    """The boost prediction's adaptive Simpson ran out of evaluations, e.g. on a probe on the past path."""


class RegimeError(LazyNewtonError, ValueError):
    """A scenario precondition (validity regime) is violated."""


class ConfigError(LazyNewtonError, ValueError):
    """A config document failed strict parsing; ``path`` names the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
