import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n1ma.errors import DomainError
from n1ma.forms import (
    PQForm,
    equivalence_suite,
    euclidean_metric,
    frame_value,
    hat_identity_residual,
    hodge_star,
    one_one_form,
    plucker_margin,
    weak_positivity_margin,
)
from n1ma.forms import _combos, _euclidean_power, _frame_phase, _frame_values


def random_form(rng, n, p, q):
    shape = (len(_combos(n, p)), len(_combos(n, q)))
    return PQForm(n, p, q, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian(rng, n):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (h + h.conj().T)


def wedge_chain_frame_value(psi, vectors):
    """Reference frame value: build the multivector prod_k i v^k wedge
    conj(v^k) by repeated wedges and pair it with psi index by index."""
    n = psi.n
    mu = PQForm.basis(n, (), ())
    norm2 = 1.0
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        mu = mu.wedge(PQForm(n, 1, 1, 1j * np.outer(v, v.conj())))
        norm2 *= float(np.vdot(v, v).real)
    return (-1) ** (n - 1) * float(np.sum(psi.coeffs * mu.coeffs).real) / norm2


def volume_coefficient(n):
    """Reference coefficient of the Euclidean omega^n/n! on the top basis
    form: the product of the n factors ``i dz^j wedge dzbar^j``, reordered to
    dz^(1..n) wedge dzbar^(1..n) by n(n-1)/2 transpositions."""
    return 1j**n * (-1) ** (n * (n - 1) // 2)


def inner_product(a, b):
    """Reference Euclidean inner product of two (p,q)-forms: the basis forms
    dz^I wedge dzbar^J are orthonormal."""
    return complex(np.sum(a.coeffs * b.coeffs.conj()))


def hat_form(h, n):
    """``h ^ omega^(n-2)``, whose frame values over (n-2)! are hat values."""
    return one_one_form(h).wedge(_euclidean_power(n, n - 2))


class TestWedge:
    def test_basis_product(self):
        n = 3
        dz1 = PQForm.basis(n, (0,), ())
        dz2 = PQForm.basis(n, (1,), ())
        out = dz1.wedge(dz2)
        assert out.p == 2 and out.q == 0
        expected = PQForm.basis(n, (0, 1), ())
        assert np.allclose(out.coeffs, expected.coeffs)

    @pytest.mark.parametrize("holo", [(1, 0), (0, 3), (0, 0)])
    def test_basis_rejects_bad_indices(self, holo):
        with pytest.raises(DomainError, match="increase strictly"):
            PQForm.basis(3, holo, ())

    def test_omega_squared(self):
        # omega^2 = 2 * sum over pairs of dz^（ab) wedge dzbar^(ab)
        omega = euclidean_metric(3)
        out = omega.wedge(omega)
        expected = PQForm.zero(3, 2, 2)
        for pair in ((0, 1), (0, 2), (1, 2)):
            expected = expected + PQForm.basis(3, pair, pair) * 2.0
        assert np.allclose(out.coeffs, expected.coeffs)

    def test_graded_commutativity(self):
        rng = np.random.default_rng(0)
        for (pa, qa, pb, qb) in [(1, 0, 0, 1), (1, 1, 1, 1), (2, 1, 1, 0), (1, 1, 0, 2)]:
            a = random_form(rng, 3, pa, qa)
            b = random_form(rng, 3, pb, qb)
            sign = (-1) ** ((pa + qa) * (pb + qb))
            assert np.allclose(a.wedge(b).coeffs, sign * b.wedge(a).coeffs)

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a = random_form(rng, 3, 1, 0)
        b = random_form(rng, 3, 0, 1)
        c = random_form(rng, 3, 1, 1)
        lhs = a.wedge(b).wedge(c)
        rhs = a.wedge(b.wedge(c))
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12

    def test_degree_overflow(self):
        rng = np.random.default_rng(2)
        a = random_form(rng, 3, 2, 0)
        with pytest.raises(DomainError):
            a.wedge(a)

    def test_bilinearity(self):
        rng = np.random.default_rng(3)
        a, b = random_form(rng, 3, 1, 1), random_form(rng, 3, 1, 1)
        c = random_form(rng, 3, 1, 0)
        lhs = (a * 2.0 + b * (-3.0)).wedge(c)
        rhs = a.wedge(c) * 2.0 + b.wedge(c) * (-3.0)
        assert np.allclose(lhs.coeffs, rhs.coeffs)


class TestConjugation:
    def test_metric_form_is_real(self):
        assert euclidean_metric(4).is_real()
        rng = np.random.default_rng(4)
        assert one_one_form(random_hermitian(rng, 3)).is_real()

    def test_involution(self):
        rng = np.random.default_rng(5)
        a = random_form(rng, 3, 2, 1)
        back = a.conjugate().conjugate()
        assert np.allclose(back.coeffs, a.coeffs)


class TestHodgeStar:
    def test_star_of_one_is_volume(self):
        for n in (3, 4):
            one = PQForm.basis(n, (), ())
            star = hodge_star(one)
            vol = _euclidean_power(n, n) * (1.0 / math.factorial(n))
            assert np.allclose(star.coeffs, vol.coeffs)

    @pytest.mark.parametrize("pq", [(1, 1), (2, 1), (1, 0), (2, 2)])
    def test_double_star_sign(self, pq):
        rng = np.random.default_rng(6)
        p, q = pq
        a = random_form(rng, 3, p, q)
        twice = hodge_star(hodge_star(a))
        assert np.allclose(twice.coeffs, (-1) ** (p + q) * a.coeffs)

    def test_double_star_sign_every_bidegree(self):
        # the star multiplies by a unit, so twice it is exact
        rng = np.random.default_rng(16)
        for n in range(2, 7):
            for p, q in itertools.product(range(n + 1), repeat=2):
                a = random_form(rng, n, p, q)
                assert np.array_equal(hodge_star(hodge_star(a)).coeffs, (-1) ** (p + q) * a.coeffs)

    def test_defining_pairing_every_bidegree(self):
        rng = np.random.default_rng(7)
        for n in range(2, 6):
            for p, q in itertools.product(range(n + 1), repeat=2):
                phi, psi = random_form(rng, n, p, q), random_form(rng, n, p, q)
                lhs = phi.wedge(hodge_star(psi.conjugate())).coeffs[0, 0]
                rhs = inner_product(phi, psi) * volume_coefficient(n)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_isometry(self):
        rng = np.random.default_rng(8)
        psi = random_form(rng, 3, 1, 1)
        norm = inner_product(psi, psi).real
        star_norm = inner_product(hodge_star(psi), hodge_star(psi)).real
        assert star_norm == pytest.approx(norm, rel=1e-10)

    def test_gram_recovery(self):
        # reconstruct <phi, psi> from the wedge pairing over the basis
        rng = np.random.default_rng(9)
        phi, psi = random_form(rng, 3, 1, 1), random_form(rng, 3, 1, 1)
        recovered = phi.wedge(hodge_star(psi.conjugate())).coeffs[0, 0] / volume_coefficient(3)
        assert recovered == pytest.approx(inner_product(phi, psi), rel=1e-10)

    def test_makes_no_linalg_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("hodge_star called numpy.linalg")

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, refuse)
        rng = np.random.default_rng(31)
        for n in range(2, 7):
            for p, q in itertools.product(range(n + 1), repeat=2):
                hodge_star(random_form(rng, n, p, q))


class TestHatIdentity:
    def test_identity_matrix_zero_residual(self):
        assert hat_identity_residual(np.eye(3), 3) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_signature(self):
        assert hat_identity_residual(np.diag([1.0, -1.0, 0.0]), 3) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_hermitian(self, n):
        rng = np.random.default_rng(11 + n)
        for _ in range(50):
            assert hat_identity_residual(random_hermitian(rng, n), n) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hat_identity_residual(np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]), 3)


class TestWeakPositivity:
    def test_volume_type_form_strictly_positive(self):
        psi = _euclidean_power(3, 2) * 0.5
        assert weak_positivity_margin(psi, samples=100, rng=0) > 0

    def test_boundary_hessian(self):
        h = np.diag([-1.0, 1.0, 1.0])
        psi = one_one_form(h).wedge(_euclidean_power(3, 1))
        lam, vecs = np.linalg.eigh(h)
        frames = [[vecs[:, j].conj() for j in range(3) if j != i] for i in range(3)]
        margin = weak_positivity_margin(psi, samples=50, rng=1, extra_frames=frames)
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_outside_cone_hessian(self):
        h = np.diag([-1.5, 1.0, 1.0])
        psi = one_one_form(h).wedge(_euclidean_power(3, 1))
        margin = weak_positivity_margin(psi, samples=400, rng=2)
        assert margin < 0
        # with eigenvector frames the minimum is the hat minimum exactly
        lam, vecs = np.linalg.eigh(h)
        frames = [[vecs[:, j].conj() for j in range(3) if j != i] for i in range(3)]
        pinned = weak_positivity_margin(psi, samples=50, rng=3, extra_frames=frames)
        assert pinned == pytest.approx(-0.5, abs=1e-12)

    def test_wrong_bidegree_rejected(self):
        with pytest.raises(DomainError):
            weak_positivity_margin(euclidean_metric(3), samples=5, rng=0)

    def test_frame_count_enforced(self):
        psi = _euclidean_power(3, 2)
        with pytest.raises(DomainError):
            frame_value(psi, [np.array([1.0, 0, 0])])


class TestClosedFormFrames:
    def test_phase(self):
        assert [_frame_phase(n) for n in (3, 4, 5, 6)] == [1, 1j, 1, 1j]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    def test_frame_values_match_wedge_chain(self, n, scale):
        rng = np.random.default_rng(20 + n)
        for kind in ("hat", "random real"):
            if kind == "hat":
                psi = hat_form(random_hermitian(rng, n), n)
            else:
                a = random_form(rng, n, n - 1, n - 1)
                psi = (a + a.conjugate()) * 0.5
            psi = psi * scale
            frames = scale * (
                rng.standard_normal((12, n - 1, n)) + 1j * rng.standard_normal((12, n - 1, n))
            )
            got = _frame_values(psi, frames)
            want = [wedge_chain_frame_value(psi, f) for f in frames]
            assert np.abs(got - want).max() <= 1e-12 * scale * max(1.0, psi.max_norm() / scale)
            assert frame_value(psi, list(frames[0])) == got[0]

    def test_zero_vector_frame_is_zero(self):
        psi = _euclidean_power(3, 2)
        assert frame_value(psi, [np.zeros(3), np.array([1.0, 0, 0])]) == 0.0

    def test_frame_vector_length_enforced(self):
        with pytest.raises(DomainError):
            frame_value(_euclidean_power(3, 2), [np.ones(4), np.ones(4)])


class TestPluckerMargin:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_equals_hat_minimum(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(50):
            h = random_hermitian(rng, n)
            lam = np.linalg.eigvalsh(h)
            exact = plucker_margin(hat_form(h, n)) / math.factorial(n - 2)
            assert abs(exact - (lam.sum() - lam).min()) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 6), seed=st.integers(0, 2**32 - 1), shift=st.floats(-3.0, 3.0))
    def test_bounds_the_frame_values(self, n, seed, shift):
        # unit, non-orthonormal frames have |minors|^2 <= 1, so their values
        # only reach min(exact, 0); orthonormal frames reach exact itself
        rng = np.random.default_rng(seed)
        psi = hat_form(random_hermitian(rng, n) + shift * np.eye(n), n)
        exact = plucker_margin(psi)
        tol = 1e-12 * max(1.0, psi.max_norm())
        sampled = weak_positivity_margin(psi, samples=16, rng=rng)
        assert sampled >= min(exact, 0.0) - tol
        raw = rng.standard_normal((16, n, n)) + 1j * rng.standard_normal((16, n, n))
        orthonormal = np.linalg.qr(raw)[0].swapaxes(1, 2)[:, : n - 1]
        assert _frame_values(psi, orthonormal).min() >= exact - tol

    def test_eigenvector_frame_attains_it(self):
        rng = np.random.default_rng(50)
        h = random_hermitian(rng, 4)
        lam, vecs = np.linalg.eigh(h)
        frame = vecs.conj().T[:-1]  # omits the largest eigenvalue
        psi = hat_form(h, 4)
        assert frame_value(psi, frame) == pytest.approx(plucker_margin(psi), abs=1e-12)

    def test_rejects_wrong_bidegree_and_complex_forms(self):
        with pytest.raises(DomainError):
            plucker_margin(euclidean_metric(3))
        with pytest.raises(DomainError):
            plucker_margin(_euclidean_power(3, 2) * 1j)


class TestSymmetricPolynomialCrossValidation:
    """The m-subharmonic encoding e_k >= 0 against actual wedge powers:
    (form)^k wedge omega^(n-k) is the volume form times a positive multiple
    of the k-th elementary symmetric polynomial of the Hessian eigenvalues."""

    def top_ratio(self, h, k, n=3):
        form = one_one_form(h)
        power = PQForm.basis(n, (), ())
        for _ in range(k):
            power = power.wedge(form)
        top = power.wedge(_euclidean_power(n, n - k))
        return (top.coeffs[0, 0] / _euclidean_power(n, n).coeffs[0, 0]).real

    def test_positive_proportionality(self):
        from conftest import sigma_k

        n = 3
        rng = np.random.default_rng(14)
        # calibrate the constant on the identity, where e_k = C(n, k)
        consts = [
            self.top_ratio(np.eye(n), k) / math.comb(n, k) for k in (1, 2, 3)
        ]
        assert all(c > 0 for c in consts)
        for _ in range(50):
            h = random_hermitian(rng, n)
            lam = np.linalg.eigvalsh(h)
            for k in (1, 2, 3):
                expected = consts[k - 1] * sigma_k(lam, k)
                assert self.top_ratio(h, k) == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestSampledVectors:
    """The form audits draw their random vectors in one call, in the stream
    of a vector-by-vector loop: each vector's real parts, then its
    imaginary parts."""

    def test_weak_margin_frames_are_the_frame_loop_stream(self):
        psi = one_one_form(random_hermitian(np.random.default_rng(30), 4)).wedge(_euclidean_power(4, 2))
        rng = np.random.default_rng(31)
        margin = weak_positivity_margin(psi, samples=40, rng=rng)
        reference = np.random.default_rng(31)
        values = []
        for _ in range(40):
            f = reference.standard_normal((3, 4)) + 1j * reference.standard_normal((3, 4))
            values.append(frame_value(psi, f / np.linalg.norm(f, axis=1, keepdims=True)))
        assert margin == pytest.approx(min(values), rel=1e-12, abs=1e-12)
        assert rng.standard_normal() == reference.standard_normal()

    def test_hyperplane_vectors_are_the_vector_loop_stream(self):
        h = random_hermitian(np.random.default_rng(32), 4)
        rep = equivalence_suite(h, 4, rng=np.random.default_rng(33), samples=20)
        reference = np.random.default_rng(33)
        values = []
        for _ in range(20):
            w = reference.standard_normal(4) + 1j * reference.standard_normal(4)
            w /= np.linalg.norm(w)
            values.append((np.trace(h) - w.conj() @ h @ w).real)
        assert rep.hyperplane_min_sampled == pytest.approx(min(values), rel=1e-12, abs=1e-12)

    def test_no_random_vectors(self):
        psi = _euclidean_power(3, 2)
        frame = np.eye(3)[:2]
        assert weak_positivity_margin(psi, samples=0, rng=0, extra_frames=[frame]) == frame_value(psi, frame)
        with pytest.raises(DomainError, match="no frames"):
            weak_positivity_margin(psi, samples=0, rng=0)
        rep = equivalence_suite(np.eye(3), 3, samples=0, rng=0)
        assert rep.hyperplane_min_sampled == np.inf and rep.agree

    def test_negative_samples_rejected(self):
        with pytest.raises(DomainError, match="negative"):
            weak_positivity_margin(_euclidean_power(3, 2), samples=-1, rng=0)
        with pytest.raises(DomainError, match="negative"):
            equivalence_suite(np.eye(3), 3, samples=-2, rng=0)


class TestEquivalenceSuite:
    def test_identity_all_positive(self):
        rep = equivalence_suite(np.eye(3), 3, rng=0)
        assert rep.eigenvalue_ok and rep.hyperplane_ok and rep.weak_ok and rep.exact_ok
        assert rep.agree

    def test_boundary_example(self):
        rep = equivalence_suite(np.diag([-1.0, 1.0, 1.0]), 3, rng=1)
        assert rep.agree and rep.eigenvalue_ok
        assert rep.lambda_hat_min == pytest.approx(0.0, abs=1e-14)
        assert rep.weak_margin == pytest.approx(0.0, abs=1e-12)
        assert rep.exact_margin == pytest.approx(0.0, abs=1e-12)

    def test_outside_example(self):
        rep = equivalence_suite(np.diag([-1.5, 1.0, 1.0]), 3, rng=2)
        assert rep.agree and not rep.eigenvalue_ok
        assert rep.weak_margin == pytest.approx(-0.5, abs=1e-12)
        assert rep.exact_margin == pytest.approx(-0.5, abs=1e-12) and not rep.exact_ok

    def test_analytic_hyperplane_equals_hat_minimum_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            rep = equivalence_suite(h, 4, rng=rng, samples=8)
            assert rep.hyperplane_min_analytic == rep.lambda_hat_min
            assert rep.hyperplane_min_sampled >= rep.hyperplane_min_analytic

    def test_random_agreement(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            assert equivalence_suite(random_hermitian(rng, 3), 3, rng=rng, samples=16).agree
