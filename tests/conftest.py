"""Shared fixtures: the expensive solves are session-scoped and reused."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

from n1ma.grid import grid_coordinates
from n1ma.harness import DeclaredBounds, FamilySpec
from n1ma.radial import LOGLOGLOG_DOMAIN, logloglog_derivatives
from n1ma.solver import SolverOptions, TorusProblem, manufactured_problem, newton_solve


def fresh_python(code):
    """Run ``code`` in a fresh interpreter that imports n1ma from this
    checkout; return the completed process, output captured as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


def flat_problem(shape=(16, 16, 16), options=None):
    """Identity background and unit density: solved by u = 0, c = 1."""
    return TorusProblem(gamma=np.eye(len(shape)), f=np.ones(shape), options=options or SolverOptions())


def random_band_limited(rng, shape, max_mode=3, amplitude=1.0):
    """Random real field with modes supported in |k_i| <= max_mode, zero mean."""
    coords = grid_coordinates(shape)
    out = np.zeros(shape)
    n_terms = rng.integers(4, 9)
    for _ in range(n_terms):
        kvec = rng.integers(-max_mode, max_mode + 1, size=len(shape))
        if not kvec.any():
            continue
        phase = rng.uniform(0, 2 * np.pi)
        coef = rng.normal() * amplitude / n_terms
        arg = sum(kk * xx for kk, xx in zip(kvec, coords))
        out += coef * np.cos(arg + phase)
    return out - out.mean()


def sigma_k(lam, k):
    """Oracle: the k-th elementary symmetric polynomial e_k of the last axis
    of ``lam``, summed over the k-subsets of its entries."""
    lam = np.asarray(lam, dtype=float)
    return sum(np.prod(lam[..., list(c)], axis=-1) for c in itertools.combinations(range(lam.shape[-1]), k))


def ma_hat(lam):
    """Oracle: the hat determinant ``prod_i (sum(lam) - lam_i)`` of the last
    axis of ``lam``."""
    lam = np.asarray(lam, dtype=float)
    return np.prod(lam.sum(axis=-1, keepdims=True) - lam, axis=-1)


# Radial profiles as ``(chi, chi', chi'', domain)``: the domain is the
# interval of potential values t < 0 on which each is sampled.  The sweep's
# logloglog profile takes its derivatives from n1ma.radial.
RADIAL_PROFILES = {
    "identity": (lambda t: t, lambda t: 1.0, lambda t: 0.0, (-5.0, -0.2)),
    "neglog": (lambda t: -math.log(-t), lambda t: -1.0 / t, lambda t: 1.0 / t**2, (-5.0, -0.2)),
    "square": (lambda t: t * t, lambda t: 2 * t, lambda t: 2.0, (-5.0, -0.2)),
    "logloglog": (
        lambda t: -math.log(math.log(math.log(-t))),
        lambda t: logloglog_derivatives(t)[0],
        lambda t: logloglog_derivatives(t)[1],
        LOGLOGLOG_DOMAIN,
    ),
}


def one_coordinate_solution(f, n):
    """Exact grid solution ``(u, c, least)`` of ``det alpha_u = c f`` for
    Gamma = I and a density f of x1 alone, with ``sup u = 0`` and ``least``
    the least eigenvalue of alpha_u over the grid.

    With u = u(x1), alpha_u = diag(1, 1 + s, ..., 1 + s) with
    ``s = u'' / (4 (n - 1))``, so ``(1 + s)^(n-1) = c f`` at every grid
    point: ``c = mean(f^(1/(n-1)))^-(n-1)`` makes s mean-zero, and u is two
    spectral integrations of ``4 (n - 1) s``.  This holds however poorly the
    grid resolves f.
    """
    line = f[(slice(None),) + (0,) * (n - 1)]
    assert np.array_equal(np.broadcast_to(line.reshape((-1,) + (1,) * (n - 1)), f.shape), f)
    root = line ** (1.0 / (n - 1))
    c = root.mean() ** -(n - 1)
    root_cf = root / root.mean()  # (c f)^(1/(n-1))
    k = np.arange(line.size // 2 + 1, dtype=float)
    spectrum = sfft.rfft(4 * (n - 1) * (root_cf - 1.0))
    spectrum[0] = 0.0
    spectrum[1:] /= -k[1:] ** 2
    u = sfft.irfft(spectrum, line.size)
    u = np.broadcast_to(u.reshape((-1,) + (1,) * (n - 1)), f.shape) - u.max()
    return u, c, min(1.0, root_cf.min())


@pytest.fixture(scope="session")
def flat_solve():
    problem = flat_problem((16, 16, 16))
    return problem, newton_solve(problem)


@pytest.fixture(scope="session")
def manufactured_solve():
    problem, u_star = manufactured_problem(0.4, (32, 32, 32))
    return problem, u_star, newton_solve(problem)


def _suite_problems():
    """A varied batch of small solvable problems (identity and non-identity
    backgrounds, constant and oscillatory densities)."""
    shape = (16, 16, 16)
    x1, x2, x3 = grid_coordinates(shape)
    eye = np.eye(3)
    problems = [flat_problem(shape)]

    def metric(scalar=None, entries=None):
        gamma = np.broadcast_to(eye, shape + (3, 3)).copy()
        if scalar is not None:
            gamma = scalar[..., None, None] * eye
        if entries:
            for (i, j), value in entries.items():
                gamma[..., i, j] = value
                gamma[..., j, i] = value
        return gamma

    densities = [
        np.exp(0.4 * np.cos(x1)),
        1.0 + 0.5 * np.cos(x2) * np.cos(x3),
        np.exp(0.3 * np.sin(x1) + 0.2 * np.cos(x2)),
        np.full(shape, 2.0),
    ]
    metrics = [
        metric(scalar=1.0 + 0.3 * np.cos(x1)),
        metric(entries={(0, 0): 1.5 + 0.1 * np.cos(x2), (1, 1): np.full(shape, 1.0),
                        (2, 2): np.full(shape, 0.8), (0, 1): 0.05 * np.sin(x3)}),
        metric(scalar=np.full(shape, 1.2)),
    ]
    for f in densities:
        problems.append(TorusProblem(gamma=eye, f=f))
    for gamma in metrics:
        problems.append(TorusProblem(gamma=gamma, f=np.ones(shape)))
    problems.append(
        TorusProblem(gamma=metrics[0], f=densities[0])
    )
    problems.append(
        TorusProblem(gamma=metrics[1], f=densities[2])
    )
    return problems


@pytest.fixture(scope="session")
def solve_suite(manufactured_solve):
    """At least ten converged solves across varied problems."""
    pairs = [(p, newton_solve(p)) for p in _suite_problems()]
    pairs.append((manufactured_solve[0], manufactured_solve[2]))
    return pairs


def acceptance_family(shape=(16, 16, 16)):
    """The committed six-fiber family used for the uniformity regression."""
    x1, x2, x3 = grid_coordinates(shape)
    eye = np.eye(3)
    gamma0 = np.broadcast_to(eye, shape + (3, 3)).copy()
    gamma1 = np.broadcast_to(eye, shape + (3, 3)).copy()
    gamma1[..., 0, 0] = 1.5 + 0.1 * np.cos(x1)
    gamma1[..., 1, 1] = 1.0
    gamma1[..., 2, 2] = 0.8
    gamma1[..., 0, 1] = gamma1[..., 1, 0] = 0.05 * np.sin(x2)
    f1 = np.exp(0.3 * np.cos(x2))
    return FamilySpec(
        start=TorusProblem(gamma=gamma0, f=np.ones(shape)),
        end=TorusProblem(gamma=gamma1, f=f1),
        t_grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
        bounds=DeclaredBounds(c_beta_omega=4.0, uniformity_budget=10.0),
    )


@pytest.fixture(scope="session")
def family_report():
    from n1ma.harness import family_run

    return family_run(acceptance_family())
