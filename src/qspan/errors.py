"""Exception hierarchy shared by all qspan modules."""


class QspanError(Exception):
    """Base class for every error raised by this package."""


class InputError(QspanError):
    """Caller supplied invalid data: bad indices, malformed files, bad parameters."""


class CapacityError(QspanError):
    """Requested size exceeds a documented cap for dense or exhaustive work."""


class NumericalError(QspanError):
    """A float result failed its check (residual over bound, bracket without a sign change)."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InternalError(QspanError):
    """Invariant violated inside the library: a defect, not a user error."""
