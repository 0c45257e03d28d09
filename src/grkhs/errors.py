"""Exception types shared across the package."""

__all__ = ["EvaluationOverflowError", "ResourceLimitError"]


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size guard.

    Carries an optional ``partial`` attribute with the best lower bound
    obtained before the guard tripped.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class EvaluationOverflowError(OverflowError):
    """Raised when an eigenfunction evaluation overflows double precision."""
