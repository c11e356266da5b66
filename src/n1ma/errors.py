"""Exception types shared across the package.

Error messages follow the convention "<module>.<operation>: <detail>" so a
failure in a pipeline names the code that raised it.
"""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class PositivityError(RuntimeError):
    """A matrix field left the positive-definite cone during evaluation."""


class ConeExitError(RuntimeError):
    """The solver could not keep the iterate inside the positivity cone.

    ``history`` is the sup residual history of the loop that left the cone;
    ``levels`` is ``(grid shape, Newton steps)`` for every loop that ran."""

    def __init__(self, message, history=None, levels=()):
        super().__init__(message)
        self.history = list(history) if history is not None else []
        self.levels = tuple(levels)


class ConfigError(ValueError):
    """A run configuration failed validation."""
