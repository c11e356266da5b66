"""Exception types shared across the package; both mean bad input.

Error messages follow the convention "<module>.<operation>: <detail>" so a
failure in a pipeline names the code that raised it.
"""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ConfigError(ValueError):
    """A run configuration failed validation."""
