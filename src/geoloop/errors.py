"""The package's one exception type."""


class ValidationError(ValueError):
    """Input violates a documented precondition: a bad value, or operands of
    incompatible shapes or supports."""
