"""INI-style run configurations for single problems and families.

A problem config has sections::

    [problem]   n = 3            grid = 32  (or 32,32,32)
    [solver]    tol = 1e-10      max_iter = 50     epsilon = <abs floor>
    [beta]      expression = <scalar expr>   (scalar multiple of identity)
                e11 = <expr>  e12 = <expr> ...    (symmetric entries)
                file = <prefix>                   (prefix_ij.n1ma per entry)
    [density]   expression = <expr>   or   file = <path>
    [bounds]    c_beta_omega = ...  budget = ...

Each field takes one source: a section that gives two (``e11`` and
``expression``, say) is rejected, not read in part.

A family config adds ``[family] t_values = 0,0.1,...`` plus endpoint sections
``[beta1]`` and ``[density1]``; the fiber at t interpolates the metric
affinely and the density log-affinely.  All invariants of the target objects
are validated eagerly; failures raise ConfigError naming section and key.

``[solver] epsilon`` is the positivity floor of every solve and every fiber.
It must lie below the least eigenvalues of ``[beta]`` and ``[beta1]``, so a
family whose epsilon lies between them is rejected.  Without it, a problem's
floor is 1e-6 times its metric's least eigenvalue.
"""

from __future__ import annotations

import configparser
import os
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError
from .expressions import compile_expression
from .grid import grid_coordinates, read_field
from .harness import DeclaredBounds, FamilySpec
from .solver import SolverOptions, TorusProblem

__all__ = ["parse_config"]

_DEFAULT_GRID = 32
_DEFAULT_N = 3


def _read(path):
    # no interpolation: a "%" is plain text, which the readers then reject
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    if not os.path.exists(path):
        raise ConfigError(f"config.parse_config: no such file: {path}")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.ParsingError as exc:
        # ConfigParser's message runs over several lines: keep its first line
        # and the number of the first bad line
        first = str(exc).splitlines()[0]
        lineno = exc.lineno if hasattr(exc, "lineno") else exc.errors[0][0]
        raise ConfigError(f"config.parse_config: {path}: {first} [line {lineno}]") from None
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        # OSError: a directory or an unreadable file
        raise ConfigError(f"config.parse_config: {path}: {exc}") from None
    return parser


@contextmanager
def _labelled(label):
    """Re-raise a failure of the enclosed step (a ConfigError, DomainError
    or other ValueError, or an OSError) as a ConfigError naming ``label``,
    the config section and key it came from."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(f"config.parse_config: {label}: {exc}") from None


def _number(parser, section, key, kind, default, many=False):
    """``[section] key`` read as a ``kind`` (int or float), or as a tuple of
    them from a comma-separated list when ``many``; ``default`` when the key
    is absent."""
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    parts = [p for p in raw.split(",") if p.strip()] if many else [raw]
    with _labelled(f"[{section}] {key}"):
        values = tuple(kind(p) for p in parts)
    return values if many else values[0]


def _coordinates(parser):
    """The grid coordinates of ``[problem] n`` and ``grid``."""
    n = _number(parser, "problem", "n", int, _DEFAULT_N)
    if n < 3:
        raise ConfigError("config.parse_config: [problem] n: need n >= 3")
    sizes = _number(parser, "problem", "grid", int, (_DEFAULT_GRID,), many=True)
    if len(sizes) == 1:
        sizes = sizes * n
    if len(sizes) != n:
        raise ConfigError(
            f"config.parse_config: [problem] grid: {len(sizes)} sizes for n={n}"
        )
    with _labelled("[problem] grid"):
        return grid_coordinates(sizes)


def _grid_field(section, path, shape):
    """The field in the file at path, which must have the grid's shape."""
    with _labelled(f"[{section}] file"):
        data = read_field(path)
    if data.shape != shape:
        raise ConfigError(
            f"config.parse_config: [{section}] file: shape {data.shape} != grid {shape}"
        )
    return data


def _one_source(section, keys):
    """Reject a field given by more than one of the source ``keys`` found."""
    if len(keys) > 1:
        raise ConfigError(f"config.parse_config: [{section}]: {', '.join(keys)} each give the field; keep one")


def _field_from_section(parser, section, n, shape, coords):
    """A scalar field from an expression or a raw field file."""
    _one_source(section, [key for key in ("expression", "file") if parser.has_option(section, key)])
    if parser.has_option(section, "expression"):
        text = parser.get(section, "expression")
        with _labelled(f"[{section}] expression"):
            return compile_expression(text, n)(coords)
    if parser.has_option(section, "file"):
        return _grid_field(section, parser.get(section, "file"), shape)
    return None


def _metric_from_section(parser, section, n, shape, coords):
    """A symmetric matrix field from entry expressions, a scalar expression
    (the diagonal entries of a multiple of the identity) or per-entry raw
    files; entries free of x1..xn give one ``(n, n)`` matrix."""
    options = parser.options(section) if parser.has_section(section) else []
    entry_keys = [key for key in options if key.startswith("e") and key[1:].isdigit()]
    _one_source(section, entry_keys[:1] + [key for key in ("expression", "file") if key in options])
    entries = {}
    for key in entry_keys:
        digits = key[1:]
        if len(digits) != 2:
            raise ConfigError(f"config.parse_config: [{section}] {key}: want eIJ with 1 <= I,J <= {n}")
        i, j = int(digits[0]) - 1, int(digits[1]) - 1
        if not (0 <= i < n and 0 <= j < n) or j < i:
            raise ConfigError(
                f"config.parse_config: [{section}] {key}: indices out of range or not upper-triangular"
            )
        with _labelled(f"[{section}] {key}"):
            entries[i, j] = compile_expression(parser.get(section, key), n)
    if "expression" in options:
        with _labelled(f"[{section}] expression"):
            scalar = compile_expression(parser.get(section, "expression"), n)
        entries = {(i, i): scalar for i in range(n)}
    if entries:
        if not any(entry.variables for entry in entries.values()):
            # entries free of x1..xn give one matrix, not a field
            coords = [c[(0,) * n] for c in coords]
        gamma = np.zeros(coords[0].shape + (n, n))
        for (i, j), entry in entries.items():
            gamma[..., i, j] = gamma[..., j, i] = entry(coords)
        for i in range(n):
            if (i, i) not in entries:
                gamma[..., i, i] = 1.0
        return gamma
    if parser.has_option(section, "file"):
        prefix = parser.get(section, "file")
        gamma = np.zeros(shape + (n, n))
        for i in range(n):
            for j in range(i, n):
                path = f"{prefix}_{i + 1}{j + 1}.n1ma"
                gamma[..., i, j] = gamma[..., j, i] = _grid_field(section, path, shape)
        return gamma
    # one matrix, not a field: its spectrum is then computed once
    return np.eye(n)


def _check_positive(values, label):
    if not (np.all(np.isfinite(values)) and np.all(values > 0)):
        raise ConfigError(f"config.parse_config: {label} must be finite and strictly positive")


def _options(parser):
    """Solver options; ``epsilon`` is the positivity floor as stated."""
    floor = _number(parser, "solver", "epsilon", float, None)
    if floor is not None and not 0 < floor < np.inf:
        raise ConfigError("config.parse_config: [solver] epsilon: floor must be finite and positive")
    tolerance = _number(parser, "solver", "tol", float, 1e-10)
    max_iterations = _number(parser, "solver", "max_iter", int, 50)
    with _labelled("[solver]"):
        return SolverOptions(
            tolerance=tolerance, max_iterations=max_iterations, positivity_floor=floor
        )


def _bounds(parser):
    c = _number(parser, "bounds", "c_beta_omega", float, DeclaredBounds.c_beta_omega)
    budget = _number(parser, "bounds", "budget", float, DeclaredBounds.uniformity_budget)
    with _labelled("[bounds]"):
        return DeclaredBounds(c_beta_omega=c, uniformity_budget=budget)


def _problem(parser, beta, density, coords, default_f, options):
    """The validated TorusProblem of one metric section and one density
    section; a single problem and both family endpoints are built here."""
    n, shape = len(coords), coords[0].shape
    gamma = _metric_from_section(parser, beta, n, shape, coords)
    f = _field_from_section(parser, density, n, shape, coords)
    if f is None:
        f = default_f
    _check_positive(f, f"[{density}]: density")
    with _labelled(f"[{beta}]"):
        problem = TorusProblem(gamma=gamma, f=f, options=options)
    floor, least = options.positivity_floor, problem.gamma_eig_range[0]
    if floor is not None and not floor < least:
        raise ConfigError(f"config.parse_config: [solver] epsilon: not below the least eigenvalue of [{beta}]")
    return problem


def parse_config(path):
    """Parse a config file into a TorusProblem or a FamilySpec."""
    parser = _read(path)
    coords = _coordinates(parser)
    bounds = _bounds(parser)
    options = _options(parser)
    start = _problem(parser, "beta", "density", coords, np.ones(coords[0].shape), options)

    if not parser.has_section("family"):
        with _labelled("[bounds]"):
            bounds.check_metric(start)
        return start

    t_grid = _number(parser, "family", "t_values", float, (0, 0.1, 0.2, 0.3, 0.4, 0.5), many=True)
    end = _problem(parser, "beta1", "density1", coords, start.f, options)
    with _labelled("[family]"):
        return FamilySpec(start=start, end=end, t_grid=t_grid, bounds=bounds)
