"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavy solves come from session fixtures in conftest.py.
"""

import math
import time

import numpy as np
import pytest

from conftest import RADIAL_PROFILES
from n1ma import eigencone, forms, radial
from n1ma.eigencone import (
    amgm_trace_gap_batch,
    cone_points_gap_min,
    is_m_subharmonic,
    is_n1_psh,
    psh_product_gap,
    sample_cone_points,
)
from n1ma.harness import audit_solve
from n1ma.radial import ShellIntegrand, integral_threshold
from n1ma.solver import alpha_field, newton_solve

# committed regression value for the six-fiber family of conftest.acceptance_family
FAMILY_UNIFORMITY_BASELINE = 3.5701827415170051


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


def test_criterion_1_worked_classifications():
    start = time.time()
    hat_positive = [-1.0, 1.0, 1.0]
    assert is_n1_psh(hat_positive)
    assert not is_m_subharmonic(hat_positive, 2)
    subharmonic_only = [-1.5, 1.0, 1.0]
    assert is_m_subharmonic(subharmonic_only, 1)
    assert not is_n1_psh(subharmonic_only)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"both worked spectra classified at 1e-12 in {elapsed:.3f}s")


def test_criterion_2_hodge_identity_and_equivalence():
    start = time.time()
    worst = 0.0
    for n in (3, 4, 5):
        rng = np.random.default_rng(200 + n)
        for _ in range(1000):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (h + h.conj().T)
            worst = max(worst, forms.hat_identity_residual(h, n))
            assert forms.equivalence_suite(h, n, rng=rng, samples=8).agree
    assert worst <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, f"3000 matrices, max residual {worst:.2e}, all verdicts agree, {elapsed:.1f}s")


def _stress_profiles():
    """Twenty profiles mixing increasing/decreasing and convex/concave."""
    half = lambda t: (-t) ** 0.5
    entries = [
        ("identity", lambda t: t, lambda t: 1.0, lambda t: 0.0),
        ("affine", lambda t: 2 * t + 1, lambda t: 2.0, lambda t: 0.0),
        ("neglog", lambda t: -math.log(-t), lambda t: -1.0 / t, lambda t: 1.0 / t**2),
        ("square", lambda t: t * t, lambda t: 2 * t, lambda t: 2.0),
        ("negsquare", lambda t: -t * t, lambda t: -2 * t, lambda t: -2.0),
        ("exp", math.exp, math.exp, math.exp),
        ("exp_half", lambda t: math.exp(0.5 * t), lambda t: 0.5 * math.exp(0.5 * t),
         lambda t: 0.25 * math.exp(0.5 * t)),
        ("expneg", lambda t: math.exp(-t), lambda t: -math.exp(-t), lambda t: math.exp(-t)),
        ("log", lambda t: math.log(-t), lambda t: 1.0 / t, lambda t: -1.0 / t**2),
        ("pow32", lambda t: -((-t) ** 1.5), lambda t: 1.5 * half(t), lambda t: -0.75 / half(t)),
        ("negsqrt", lambda t: -half(t), lambda t: 0.5 / half(t), lambda t: 0.25 / (-t) ** 1.5),
        ("wiggle", lambda t: t + 0.2 * math.sin(3 * t), lambda t: 1 + 0.6 * math.cos(3 * t),
         lambda t: -1.8 * math.sin(3 * t)),
        ("cosh", math.cosh, math.sinh, math.cosh),
        ("sinh", math.sinh, math.cosh, math.sinh),
        ("cubic", lambda t: t**3, lambda t: 3 * t**2, lambda t: 6 * t),
        ("recip", lambda t: 1.0 / t, lambda t: -1.0 / t**2, lambda t: 2.0 / t**3),
        ("recip2", lambda t: -1.0 / t**2, lambda t: 2.0 / t**3, lambda t: -6.0 / t**4),
        ("concave_shift", lambda t: t - 0.1 * t * t, lambda t: 1 - 0.2 * t, lambda t: -0.2),
        ("convex_shift", lambda t: t + 0.05 * t * t, lambda t: 1 + 0.1 * t, lambda t: 0.1),
    ]
    profiles = {name: (c, c1, c2, (-4.0, -0.25)) for name, c, c1, c2 in entries}
    profiles["logloglog"] = RADIAL_PROFILES["logloglog"]
    assert len(profiles) == 20
    return profiles


def test_criterion_3_radial_formulas():
    from test_radial import (
        derivatives_at,
        fd_complex_hessian,
        off_axis_point,
        radial_candidate,
        radial_membership,
    )

    start = time.time()
    n = 3
    for name, profile in _stress_profiles().items():
        radii = radial.radii(profile[3], n, 10)
        ts = [radial.g_profile(r, n) for r in radii]
        member_exact = all(
            min(radial.radial_hat_eigenvalues(*derivatives_at(profile, r, n), r, n)) >= -1e-9 for r in radii
        )
        assert radial_membership(profile, ts, tolerance=1e-9) == member_exact
        for k, r in enumerate(radii):
            z = off_axis_point(r, n, seed=101 * k + 7)
            num = fd_complex_hessian(radial_candidate(profile, n), z, h=1.5e-3 * r)
            hat_num = np.sort(eigencone.hat_transform(np.linalg.eigvalsh(num)))
            chi1, chi2 = derivatives_at(profile, r, n)
            lam1, lamj = radial.radial_hat_eigenvalues(chi1, chi2, r, n)
            hat_exact = np.sort([lam1, lamj, lamj])
            scale = max(1.0, float(np.abs(hat_exact).max()))
            assert np.abs(hat_num - hat_exact).max() <= 1e-5 * scale, name
            ma_exact = radial.radial_ma_hat(chi1, chi2, r, n)
            ma_num = float(np.prod(hat_num))
            assert abs(ma_num - ma_exact) <= 1e-5 * max(abs(ma_exact), scale**n)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, f"20 profiles x 10 radii against 5-point differences in {elapsed:.1f}s")


def test_criterion_4_integrability_threshold():
    start = time.time()
    shell = dict(n=3, r_inner=math.exp(-math.e**2), r_outer=math.exp(-math.e))
    convergent = integral_threshold(ShellIntegrand(p=2.0, **shell), 12)
    refine = [lvl.increment for lvl in convergent.levels[1:]]
    assert convergent.verdict == "convergent"
    assert min(refine) < 1e-6
    divergent = integral_threshold(ShellIntegrand(p=3.0, **shell), 12)
    refine_div = [lvl.increment for lvl in divergent.levels[1:]]
    assert divergent.verdict == "divergent"
    assert all(i > 1e-3 * refine_div[0] for i in refine_div[-3:])
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(4, f"p=2 increments reach {min(refine):.1e}, p=3 divergent, {elapsed:.2f}s")


def test_criterion_5_manufactured_recovery(manufactured_solve):
    start = time.time()
    problem, u_star, result = manufactured_solve
    alpha_eigs = np.linalg.eigvalsh(alpha_field(problem, u_star))
    assert alpha_eigs[..., 0].min() >= 0.2
    assert result.converged
    assert result.final_residual <= 1e-10
    sup_err = float(np.abs(result.u - u_star).max())
    assert sup_err <= 1e-8
    assert abs(result.c - 1.0) <= 1e-8
    tail = [r for r in result.residual_history if r > 1e-11]
    assert len(tail) >= 3
    for a, b in list(zip(tail, tail[1:]))[-2:]:
        assert b <= a**1.9
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(5, f"sup error {sup_err:.1e}, |c-1| {abs(result.c - 1):.1e}, quadratic tail")


def test_criterion_6_amgm_audits(solve_suite):
    start = time.time()
    rng = np.random.default_rng(600)
    pts = sample_cone_points(rng, 100000, 3)
    gaps = amgm_trace_gap_batch(pts["beta"], pts["omega"], pts["hess"])
    assert gaps.min() >= -1e-12
    screened = cone_points_gap_min(np.random.default_rng(600), 100000, 3)
    assert 0.0 <= screened <= gaps.min()

    lam = rng.uniform(-1.0, 4.0, size=(100000, 3))
    pgaps = psh_product_gap(lam)
    assert pgaps.min() >= -1e-12

    worst_audit = np.inf
    for problem, result in solve_suite:
        assert result.converged
        worst_audit = min(worst_audit, audit_solve(problem, result).amgm_min_gap)
    assert worst_audit >= -1e-9
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(
        6,
        f"1e5 trace gaps >= {gaps.min():.1e} (certified {screened:.1e}), 1e5 product gaps >= {pgaps.min():.1e}, "
        f"solve audits >= {worst_audit:.1e}, {elapsed:.1f}s",
    )


def test_criterion_7_constant_bound(solve_suite, flat_solve):
    start = time.time()
    assert len(solve_suite) >= 10
    for problem, result in solve_suite:
        audit = audit_solve(problem, result)
        assert audit.c_upper_ok
        assert result.c <= audit.c_upper + 1e-9 * max(1.0, audit.c_upper)
    flat_problem_, flat_result = flat_solve
    assert abs(flat_result.c - audit_solve(flat_problem_, flat_result).c_upper) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(7, f"{len(solve_suite)} solves below the trace bound, flat equality exact")


def test_criterion_8_family_uniformity(family_report):
    start = time.time()
    assert all(row.converged for row in family_report.rows)
    assert len(family_report.rows) == 6
    rel = abs(family_report.uniformity - FAMILY_UNIFORMITY_BASELINE) / FAMILY_UNIFORMITY_BASELINE
    assert rel <= 1e-6
    for row in family_report.rows:
        assert row.audit.all_ok  # criteria 6-7 audits fiberwise
    elapsed = time.time() - start
    assert elapsed < 900.0
    _report(
        8,
        f"uniformity {family_report.uniformity!r} matches baseline (rel {rel:.1e}), "
        f"all fibers audited",
    )


def test_criterion_9_scaling_laws(manufactured_solve):
    from test_eigencone import ma_n1

    rng = np.random.default_rng(900)
    pts = sample_cone_points(rng, 50, 3)
    for k in range(50):
        beta, omega, hess = pts["beta"][k], pts["omega"][k], pts["hess"][k]
        assert ma_n1(beta, 2.0 * omega, hess) == pytest.approx(2.0 ** (-3) * ma_n1(beta, omega, hess), rel=1e-12)

    problem, _, result = manufactured_solve
    k = 5.0
    scaled = newton_solve(problem.with_density(k * problem.f), u0=result.u)
    u_shift = float(np.abs(scaled.u - result.u).max())
    c_rel = abs(scaled.c * k - result.c) / result.c
    assert u_shift <= 1e-9
    assert c_rel <= 1e-9
    _report(9, f"metric scaling 2^-n exact to 1e-12; density scaling u {u_shift:.1e}, c {c_rel:.1e}")
