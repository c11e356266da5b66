"""INI-style run configurations for single problems and families.

A problem config has sections::

    [problem]   n = 3            grid = 32  (or 32,32,32)
    [solver]    tol = 1e-10      max_iter = 50     epsilon = <abs floor>
    [beta]      expression = <scalar expr>   (scalar multiple of identity)
                e11 = <expr>  e12 = <expr> ...    (symmetric entries)
                file = <prefix>                   (prefix_ij.n1ma per entry)
    [density]   expression = <expr>   or   file = <path>
    [bounds]    c_beta_omega = ...  g_beta = ...  volume = ...  budget = ...

A family config adds ``[family] t_values = 0,0.1,...`` plus endpoint sections
``[beta1]`` and ``[density1]``; the fiber at t interpolates the metric
affinely and the density log-affinely.  All invariants of the target objects
are validated eagerly; failures raise ConfigError naming section and key.
"""

from __future__ import annotations

import configparser
import os

import numpy as np

from .errors import ConfigError, DomainError
from .expressions import compile_expression
from .grid import grid_coordinates, read_field
from .harness import DeclaredBounds, FamilySpec
from .solver import SolverOptions, TorusProblem, _component_major, _eig_range

__all__ = ["parse_config"]

_DEFAULT_GRID = 32
_DEFAULT_N = 3


def _read(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not os.path.exists(path):
        raise ConfigError(f"config.parse_config: no such file: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config.parse_config: {path}: {exc}") from None
    return parser


def _shape(parser):
    n = parser.getint("problem", "n", fallback=_DEFAULT_N)
    if n < 3:
        raise ConfigError("config.parse_config: [problem] n: need n >= 3")
    raw = parser.get("problem", "grid", fallback=str(_DEFAULT_GRID))
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        sizes = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"config.parse_config: [problem] grid: bad value {raw!r}") from None
    if len(sizes) == 1:
        sizes = sizes * n
    if len(sizes) != n:
        raise ConfigError(
            f"config.parse_config: [problem] grid: {len(sizes)} sizes for n={n}"
        )
    return n, tuple(sizes)


def _field_from_section(parser, section, n, shape, coords):
    """A scalar field from an expression or a raw field file."""
    if parser.has_option(section, "expression"):
        text = parser.get(section, "expression")
        try:
            return compile_expression(text, n)(coords)
        except ConfigError as exc:
            raise ConfigError(f"config.parse_config: [{section}] expression: {exc}") from None
    if parser.has_option(section, "file"):
        path = parser.get(section, "file")
        try:
            data = read_field(path)
        except (OSError, DomainError) as exc:
            raise ConfigError(f"config.parse_config: [{section}] file: {exc}") from None
        if data.shape != shape:
            raise ConfigError(
                f"config.parse_config: [{section}] file: shape {data.shape} != grid {shape}"
            )
        return data
    return None


def _metric_from_section(parser, section, n, shape, coords):
    """A symmetric matrix field from entry expressions, a scalar expression
    (multiple of the identity) or per-entry raw files."""
    entry_keys = [
        key for key in (parser.options(section) if parser.has_section(section) else [])
        if key.startswith("e") and key[1:].isdigit()
    ]
    if entry_keys:
        gamma = np.zeros(shape + (n, n))
        seen = set()
        for key in entry_keys:
            digits = key[1:]
            if len(digits) != 2:
                raise ConfigError(f"config.parse_config: [{section}] {key}: want eIJ with 1 <= I,J <= {n}")
            i, j = int(digits[0]) - 1, int(digits[1]) - 1
            if not (0 <= i < n and 0 <= j < n) or j < i:
                raise ConfigError(
                    f"config.parse_config: [{section}] {key}: indices out of range or not upper-triangular"
                )
            try:
                value = compile_expression(parser.get(section, key), n)(coords)
            except ConfigError as exc:
                raise ConfigError(f"config.parse_config: [{section}] {key}: {exc}") from None
            gamma[..., i, j] = value
            gamma[..., j, i] = value
            seen.add((i, j))
        for i in range(n):
            if (i, i) not in seen:
                gamma[..., i, i] = 1.0
        return gamma
    if parser.has_option(section, "file"):
        prefix = parser.get(section, "file")
        gamma = np.zeros(shape + (n, n))
        for i in range(n):
            for j in range(i, n):
                path = f"{prefix}_{i + 1}{j + 1}.n1ma"
                try:
                    value = read_field(path)
                except (OSError, DomainError) as exc:
                    raise ConfigError(f"config.parse_config: [{section}] file: {exc}") from None
                gamma[..., i, j] = value
                gamma[..., j, i] = value
        return gamma
    scalar = _field_from_section(parser, section, n, shape, coords)
    if scalar is None:
        # one matrix, not a field: its spectrum is then computed once
        return np.eye(n)
    _check_positive(scalar, f"[{section}] expression: scalar metric")
    return scalar[..., None, None] * np.eye(n)


def _check_positive(values, label):
    if not (np.all(np.isfinite(values)) and np.all(values > 0)):
        raise ConfigError(f"config.parse_config: {label} must be finite and strictly positive")


def _options(parser, min_eig):
    """Solver options; ``min_eig`` is the least eigenvalue of the metric
    that the ``epsilon`` floor is relative to."""
    tol = parser.getfloat("solver", "tol", fallback=1e-10)
    max_iter = parser.getint("solver", "max_iter", fallback=50)
    kwargs = dict(tolerance=tol, max_iterations=max_iter)
    if parser.has_option("solver", "epsilon"):
        floor = parser.getfloat("solver", "epsilon")
        if floor <= 0 or floor >= min_eig:
            raise ConfigError(
                "config.parse_config: [solver] epsilon: floor must lie in (0, min eig of beta)"
            )
        kwargs["positivity_scale"] = floor / min_eig
    try:
        return SolverOptions(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"config.parse_config: [solver]: {exc}") from None


def _check_range(bounds, lo, hi):
    c = bounds.c_beta_omega
    if lo < 1.0 / c - 1e-12 or hi > c + 1e-12:
        raise ConfigError(
            "config.parse_config: [bounds] c_beta_omega: declared constant "
            f"{c} below the metric eigenvalue range [{lo:.4g}, {hi:.4g}]"
        )


def _bounds(parser):
    kwargs = {}
    if parser.has_section("bounds"):
        for key, attr in (
            ("c_beta_omega", "c_beta_omega"),
            ("g_beta", "g_beta"),
            ("volume", "volume"),
            ("budget", "uniformity_budget"),
        ):
            if parser.has_option("bounds", key):
                kwargs[attr] = parser.getfloat("bounds", key)
    try:
        return DeclaredBounds(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"config.parse_config: [bounds]: {exc}") from None


def parse_config(path):
    """Parse a config file into a TorusProblem or a FamilySpec."""
    parser = _read(path)
    n, shape = _shape(parser)
    coords = grid_coordinates(shape)

    gamma0 = _metric_from_section(parser, "beta", n, shape, coords)
    f0 = _field_from_section(parser, "density", n, shape, coords)
    if f0 is None:
        f0 = np.ones(shape)
    _check_positive(f0, "[density]: density")
    bounds = _bounds(parser)

    if not parser.has_section("family"):
        try:
            problem = TorusProblem(gamma=gamma0, f=f0)
        except DomainError as exc:
            raise ConfigError(f"config.parse_config: [beta]: {exc}") from None
        lo, hi = problem.gamma_eig_range
        _check_range(bounds, lo, hi)
        return problem.with_options(_options(parser, lo))

    raw = parser.get("family", "t_values", fallback="0,0.1,0.2,0.3,0.4,0.5")
    try:
        t_grid = tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"config.parse_config: [family] t_values: bad value {raw!r}") from None
    gamma1 = _metric_from_section(parser, "beta1", n, shape, coords)
    f1 = _field_from_section(parser, "density1", n, shape, coords)
    if f1 is None:
        f1 = f0
    _check_positive(f1, "[density1]: density")
    ranges = {}
    for section, gamma in (("beta", gamma0), ("beta1", gamma1)):
        if not np.all(np.isfinite(gamma)):
            raise ConfigError(f"config.parse_config: [{section}]: metric must be finite")
        ranges[section] = _eig_range(_component_major(gamma))
        _check_range(bounds, *ranges[section])
    options = _options(parser, ranges["beta"][0])
    try:
        return FamilySpec(
            gamma0=gamma0, gamma1=gamma1, f0=f0, f1=f1,
            t_grid=t_grid, bounds=bounds, options=options,
        )
    except DomainError as exc:
        raise ConfigError(f"config.parse_config: [family]: {exc}") from None
