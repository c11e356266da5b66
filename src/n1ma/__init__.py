"""Eigenvalue calculus, form algebra and a flat-torus determinant solver."""

from . import eigencone, forms, grid, harness, radial, solver
from .errors import ConfigError, DomainError

__version__ = "0.1.0"

__all__ = [
    "eigencone",
    "forms",
    "grid",
    "harness",
    "radial",
    "solver",
    "ConfigError",
    "DomainError",
]
