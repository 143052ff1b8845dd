"""Exception hierarchy shared across the package."""


class HyperorbitError(Exception):
    """Base class for all package errors."""


class UsageError(HyperorbitError):
    """Invalid configuration or arguments."""


class VerificationFailure(HyperorbitError):
    """A combinatorial or analytic check that was expected to hold did not."""


class OverflowTruncated(HyperorbitError):
    """A computation hit the numeric overflow cap and was truncated.

    Carries the partial result so callers can still report it.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NoDataError(HyperorbitError):
    """An estimate was requested on an empty sample."""


class WindowGridError(UsageError):
    """Horizon/window-grid combination cannot be evaluated."""


class SpaceMismatchError(UsageError):
    """Two vectors living in different sequence spaces were combined."""


class ZeroWeightError(UsageError):
    """A weight table holds a zero weight (index k >= 1)."""

    def __init__(self, index):
        super().__init__(f"zero weight at index {index}")
        self.index = index


class FamilyExhaustedError(HyperorbitError):
    """No admissible level remains in a set family during plan selection."""

    def __init__(self, condition, level, message):
        super().__init__(message)
        self.condition = condition
        self.level = level
