"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Matrix or vector dimensions do not match the operation's contract."""


class RankDeficientError(ValueError):
    """Vectors were expected to span the full ambient space but do not."""


class InvalidGeneratorsError(ValueError):
    """A generator system violates one of its structural invariants."""


class InvalidExponentsError(ValueError):
    """Characteristic-exponent data violates one of its structural invariants."""


class ConditionsUnmetError(ValueError):
    """An operation that requires the chain conditions was called without them.

    Carries the ``ConditionReport`` (when one was computed) so callers can
    explain which condition failed and where.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotFullLatticeError(ValueError):
    """The generators span a proper sublattice of Z^e, so the conductor set
    is undefined."""


class SearchBudgetExceededError(RuntimeError):
    """A bounded enumeration hit its node budget before reaching a verdict."""
