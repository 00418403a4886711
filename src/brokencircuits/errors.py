"""Exception types shared across the package.

The CLI maps these onto exit codes: schema errors exit 2, cap overruns
exit 3, violated mathematical preconditions exit 4, and failed internal
cross-checks exit 5.
"""


class SchemaError(ValueError):
    """Malformed instance data: bad shape, duplicate labels, unknown fields."""


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured desk-scale cap."""


class CrossCheckFailed(RuntimeError):
    """Two independent routes to the same value disagree: a defect, not bad input."""


class PreconditionError(ValueError):
    """A mathematical precondition of an operation does not hold."""
