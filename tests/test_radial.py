import math

import numpy as np
import pytest

from conftest import ma_hat
from n1ma.eigencone import hat_transform
from n1ma.errors import DomainError
from n1ma.radial import (
    RadialProfile,
    ShellIntegrand,
    g_profile,
    integral_threshold,
    radial_hat_eigenvalues,
    radial_ma_hat,
    standard_profiles,
)


def radial_membership(profile, t_samples, tolerance=0.0):
    """The hat-cone criterion of a radial candidate: chi' >= -tolerance and
    chi'' >= -tolerance at every sample, chi non-decreasing and convex."""
    return all(profile.chi1(t) >= -tolerance and profile.chi2(t) >= -tolerance for t in t_samples)


def loglog_density(r, n):
    """The model density ``1 / (r^(2n) s^n (log s)^n)``, ``s = -log r``, of
    the threshold experiment, for radii with ``s > e``."""
    s = -math.log(r)
    return 1.0 / (r ** (2 * n) * s**n * math.log(s) ** n)


# ---------------------------------------------------------------------------
# independent oracle: 5-point finite-difference complex Hessian of the
# radial candidate u(z) = chi(g(|z|)) viewed as a function on R^(2n)
# ---------------------------------------------------------------------------


def fd1(f, w, i, h):
    def at(step):
        w2 = w.copy()
        w2[i] += step
        return f(w2)

    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def fd2_pure(f, w, i, h):
    def at(step):
        w2 = w.copy()
        w2[i] += step
        return f(w2)

    return (-at(2 * h) + 16 * at(h) - 30 * at(0.0) + 16 * at(-h) - at(-2 * h)) / (12 * h**2)


def fd2_mixed(f, w, i, j, h):
    return fd1(lambda w2: fd1(f, w2, j, h), w, i, h)


def fd_complex_hessian(u_fn, z, h):
    """Complex Hessian at z via 5-point stencils on the 2n real coordinates."""
    n = len(z)
    w0 = np.empty(2 * n)
    w0[0::2], w0[1::2] = z.real, z.imag

    def f(w):
        return u_fn(w[0::2] + 1j * w[1::2])

    real_hess = np.empty((2 * n, 2 * n))
    for i in range(2 * n):
        for j in range(i, 2 * n):
            val = fd2_pure(f, w0, i, h) if i == j else fd2_mixed(f, w0, i, j, h)
            real_hess[i, j] = real_hess[j, i] = val
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            xx = real_hess[2 * j, 2 * k]
            yy = real_hess[2 * j + 1, 2 * k + 1]
            xy = real_hess[2 * j, 2 * k + 1]
            yx = real_hess[2 * j + 1, 2 * k]
            out[j, k] = 0.25 * ((xx + yy) + 1j * (xy - yx))
    return out


def radial_candidate(profile, n):
    def u_fn(z):
        return profile.chi(g_profile(float(np.linalg.norm(z)), n))

    return u_fn


def off_axis_point(r, n, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return r * z / np.linalg.norm(z)


class TestGProfile:
    def test_unit_sphere(self):
        assert g_profile(1.0, 3) == -1.0
        assert g_profile(1.0, 4) == -1.0

    def test_radius_two(self):
        assert g_profile(2.0, 3) == pytest.approx(-0.25)

    def test_monotone_negative(self):
        rs = np.linspace(0.2, 3.0, 40)
        vals = g_profile(rs, 3)
        assert (vals < 0).all()
        assert (np.diff(vals) > 0).all()

    def test_pole(self):
        with pytest.raises(DomainError):
            g_profile(0.0, 3)


class TestProfileValidation:
    def test_inconsistent_derivative_rejected(self):
        with pytest.raises(DomainError):
            RadialProfile(lambda t: t * t, lambda t: 3 * t, lambda t: 2.0, "broken")

    def test_inconsistent_second_derivative_rejected(self):
        with pytest.raises(DomainError):
            RadialProfile(lambda t: t * t, lambda t: 2 * t, lambda t: 0.5, "broken")

    def test_standard_profiles_validate(self):
        profiles = standard_profiles()
        assert set(profiles) == {"identity", "neglog", "square", "logloglog"}


class TestHatEigenvalues:
    def test_identity_profile(self):
        prof = standard_profiles()["identity"]
        assert radial_hat_eigenvalues(prof, 1.0, 3) == pytest.approx((2.0, 0.0))

    def test_decreasing_profile_fails_membership(self):
        prof = standard_profiles()["square"]
        lam1, _ = radial_hat_eigenvalues(prof, 1.0, 3)
        assert lam1 == pytest.approx(-4.0)

    @pytest.mark.parametrize("name", ["neglog", "logloglog"])
    def test_against_finite_difference_hessian(self, name):
        prof = standard_profiles()[name]
        n = 3
        for r in prof.radii(n, count=3):
            z = off_axis_point(r, n, seed=int(1000 * r))
            num = fd_complex_hessian(radial_candidate(prof, n), z, h=2e-3 * r)
            hat_num = np.sort(hat_transform(np.linalg.eigvalsh(num)))
            lam1, lamj = radial_hat_eigenvalues(prof, r, n)
            hat_exact = np.sort([lam1, lamj, lamj])
            scale = max(1.0, np.abs(hat_exact).max())
            assert np.abs(hat_num - hat_exact).max() <= 1e-6 * scale


class TestMaHatRadial:
    def test_linear_profile_vanishes(self):
        prof = standard_profiles()["identity"]
        for r in (0.5, 1.0, 2.0):
            assert radial_ma_hat(prof, r, 3) == 0.0

    def test_neglog_value(self):
        # chi' = chi'' = 1 at t = -1: (n-1)(n-2)^(2n-1) = 2 for n = 3
        prof = standard_profiles()["neglog"]
        assert radial_ma_hat(prof, 1.0, 3) == pytest.approx(2.0, rel=1e-12)

    def test_matches_eigenvalue_product(self):
        for name, prof in standard_profiles().items():
            for n in (3, 4):
                for r in prof.radii(n, count=6):
                    lam1, lamj = radial_hat_eigenvalues(prof, r, n)
                    assert radial_ma_hat(prof, r, n) == pytest.approx(
                        lam1 * lamj ** (n - 1), rel=1e-12, abs=1e-300
                    )

    def test_matches_finite_difference_determinant(self):
        prof = standard_profiles()["neglog"]
        n = 3
        for r in prof.radii(n, count=4):
            z = off_axis_point(r, n, seed=int(500 * r) + 1)
            num = fd_complex_hessian(radial_candidate(prof, n), z, h=2e-3 * r)
            det_num = ma_hat(np.linalg.eigvalsh(num))
            assert radial_ma_hat(prof, r, n) == pytest.approx(det_num, rel=1e-5)


class TestMembership:
    def test_linear_profile(self):
        prof = standard_profiles()["identity"]
        assert radial_membership(prof, np.linspace(-4, -0.3, 20))

    def test_square_profile_fails(self):
        prof = standard_profiles()["square"]
        assert not radial_membership(prof, np.linspace(-4, -0.3, 20))

    def test_loglog_profile_holds(self):
        prof = standard_profiles()["logloglog"]
        assert radial_membership(prof, np.linspace(-50, -5, 20))

    def test_agrees_with_eigenvalue_checks(self):
        for prof in standard_profiles().values():
            n = 3
            radii = prof.radii(n, count=12)
            ts = [g_profile(r, n) for r in radii]
            member = radial_membership(prof, ts, tolerance=1e-12)
            eigs_ok = all(
                min(radial_hat_eigenvalues(prof, r, n)) >= -1e-9 for r in radii
            )
            assert member == eigs_ok


class TestLogLogDensity:
    def test_worked_value(self):
        r = math.exp(-math.e**2)
        expected = math.exp(6 * math.e**2) / (math.exp(6) * 8.0)
        assert loglog_density(r, 3) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing(self):
        rs = np.geomspace(1e-12, math.exp(-math.e) * 0.999, 60)
        vals = [loglog_density(float(r), 3) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_blows_up_at_origin(self):
        assert loglog_density(1e-30, 3) > loglog_density(1e-10, 3) > 1.0

    @pytest.mark.parametrize("p", [0.0, 1.5, 2.0, 2.5])
    def test_shell_integrand_is_the_density_in_tau(self, p):
        # in tau = log s the measure r^(2n-1) dr is r^(2n) s dtau, and the
        # weight (log f)^p is modelled by s^p
        spec = ShellIntegrand(p=p, n=3, r_inner=math.exp(-math.e**2), r_outer=math.exp(-math.e))
        for r in np.geomspace(1e-40, math.exp(-math.e) * 0.999, 25):
            s = -math.log(r)
            expected = loglog_density(r, 3) * r**6 * s ** (p + 1)
            assert spec.integrand(spec.tau_of_radius(r)) == pytest.approx(expected, rel=1e-12)


class TestIntegralThreshold:
    def spec(self, p, n=3):
        return ShellIntegrand(p=p, n=n, r_inner=math.exp(-math.e**2), r_outer=math.exp(-math.e))

    def test_critical_exponent_converges(self):
        report = integral_threshold(self.spec(2.0), 12)
        assert report.verdict == "convergent"
        refine = [lvl.increment for lvl in report.levels[1:]]
        assert min(refine) < 1e-6

    def test_above_critical_diverges(self):
        report = integral_threshold(self.spec(3.0), 12)
        assert report.verdict == "divergent"
        refine = [lvl.increment for lvl in report.levels[1:]]
        assert all(i > 1e-3 * refine[0] for i in refine[-3:])

    def test_small_exponent_converges(self):
        report = integral_threshold(self.spec(0.0), 12)
        assert report.verdict == "convergent"

    def test_partial_integrals_monotone(self):
        report = integral_threshold(self.spec(1.0), 10)
        partials = [lvl.partial_integral for lvl in report.levels]
        assert all(b >= a for a, b in zip(partials, partials[1:]))

    def test_verdict_monotone_in_p(self):
        verdicts = [
            integral_threshold(self.spec(p), 12).verdict
            for p in (0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
        ]
        first_div = verdicts.index("divergent")
        assert all(v == "convergent" for v in verdicts[:first_div])
        assert all(v == "divergent" for v in verdicts[first_div:])

    def test_bad_shell_rejected(self):
        with pytest.raises(DomainError):
            ShellIntegrand(p=1.0, n=3, r_inner=0.5, r_outer=0.2)
        with pytest.raises(DomainError):
            ShellIntegrand(p=-1.0, n=3, r_inner=0.01, r_outer=0.05)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(DomainError, match="finite"):
            ShellIntegrand(p=p, n=3, r_inner=0.01, r_outer=0.05)

    def test_overflowing_power_of_a_convergent_integral(self):
        # tau^79 overflows in the last window, where the integrand is below
        # the least normal float: the integral converges
        spec = self.spec(2.0, n=79)
        with pytest.raises(OverflowError):
            _ = 8192.0**spec.n
        assert spec.integrand(8192.0) == 0.0
        # with p > n - 1 the numerator grows, and the overflow stands
        with pytest.raises(OverflowError):
            self.spec(79.0, n=79).integrand(8192.0)
        report = integral_threshold(spec, 12)
        assert report.verdict == "convergent"
        assert 0 < report.levels[-1].partial_integral < 1e-30

    @pytest.mark.parametrize("levels", [2, 1001])
    def test_levels_out_of_range_rejected(self, levels):
        with pytest.raises(DomainError, match="levels"):
            integral_threshold(self.spec(2.0), levels)
