"""Exception hierarchy shared across the package."""


class HyperorbitError(Exception):
    """Base class for all package errors."""


class UsageError(HyperorbitError):
    """Invalid configuration or arguments."""


class NoDataError(UsageError):
    """An estimate was requested on an empty sample: the chosen set has no members in range."""


class WindowGridError(UsageError):
    """Horizon/window combination cannot be evaluated."""


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
