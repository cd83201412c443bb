"""Exception hierarchy shared by all qsing modules."""

from __future__ import annotations


class QsingError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatchError(QsingError):
    """A dimension vector has the wrong length for the setting it is paired with."""


class CapacityError(QsingError):
    """An input exceeds a configured size bound."""


class IllegalMoveError(QsingError):
    """A reduction move was applied to a setting that does not admit it."""


class UnsupportedSettingError(QsingError):
    """The operation is only defined for a restricted class of settings."""


class EmptyProjError(QsingError):
    """The graded algebra has no positive-degree generators; proj is empty."""


class BudgetExhaustedError(QsingError):
    """A search ran out of its time budget.  Carries the partial result."""

    def __init__(self, message: str, partial: list | None = None):
        super().__init__(message)
        self.partial = partial if partial is not None else []
