import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ma_hat, sigma_k
from n1ma import cli, eigencone
from n1ma.eigencone import (
    _symmetric_columns,
    amgm_trace_gap_batch,
    cone_points_gap_min,
    hat_transform,
    is_m_subharmonic,
    is_n1_psh,
    is_psh,
    is_quasi_n1_psh,
    psh_product_gap,
    sample_cone_points,
    sample_spectra,
)
from n1ma.errors import DomainError


def brute_hat(lam):
    return np.array([sum(x for k, x in enumerate(lam) if k != i) for i in range(len(lam))])


# ---------------------------------------------------------------------------
# single-point references for the batched trace-form code: the eigenvalues of
# the product omega^-1 alpha itself, not of the Cholesky-reduced pencil
# ---------------------------------------------------------------------------


def reference_eigenvalues(beta, omega, hess):
    """Eigenvalues of omega^-1 alpha at one point, ascending."""
    n = len(omega)
    alpha = beta + (np.trace(np.linalg.solve(omega, hess)).real * omega - hess) / (n - 1)
    return np.sort(np.linalg.eigvals(np.linalg.solve(omega, alpha)).real)


def ma_n1(beta, omega, hess):
    """det(omega^-1 alpha) at one point; scales like ``C**(-n)`` when omega
    is replaced by ``C * omega``."""
    return float(np.prod(reference_eigenvalues(beta, omega, hess)))


def amgm_trace_gap(beta, omega, hess):
    """``tr_omega(alpha) - n ma_n1^(1/n)`` at one point, the eigenvalues
    clipped at 0 as in the batched gap."""
    eigs = np.clip(reference_eigenvalues(beta, omega, hess), 0.0, None)
    return float(eigs.sum() - len(omega) * np.prod(eigs) ** (1.0 / len(omega)))


def batched_ma_n1(beta, omega, hess):
    """det(omega^-1 alpha) of stacked triples along the eigenvalue path of
    ``amgm_trace_gap_batch``."""
    alpha = eigencone._batched_alpha(beta, omega, hess)
    return np.prod(eigencone._batched_endomorphism_eigs(alpha, omega), axis=-1)


class TestHatTransform:
    def test_worked_example(self):
        assert np.allclose(hat_transform([-1.0, 1.0, 1.0]), [2.0, 0.0, 0.0])

    def test_zero(self):
        assert np.array_equal(hat_transform([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])

    def test_against_indexwise_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = rng.uniform(-5, 5, size=5)
            assert np.allclose(hat_transform(lam), brute_hat(lam), rtol=0, atol=1e-12)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=6),
        st.floats(-100, 100),
        st.floats(-100, 100),
    )
    def test_linearity(self, lam, a, b):
        lam = np.array(lam)
        mu = lam[::-1].copy()
        lhs = hat_transform(a * lam + b * mu)
        rhs = a * hat_transform(lam) + b * hat_transform(mu)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-6)

    def test_rejects_short_spectrum(self):
        with pytest.raises(DomainError):
            hat_transform([1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            hat_transform([np.inf, 1.0, 1.0])


def e_k(lam, k):
    """e_k of the last axis of ``lam`` from ``_symmetric_columns``, the table
    that the m-subharmonic predicate reads."""
    return _symmetric_columns(np.asarray(lam, dtype=float), k)[k]


class TestSigma:
    def test_all_ones(self):
        assert e_k([1.0, 1.0, 1.0], 2) == sigma_k([1.0, 1.0, 1.0], 2) == pytest.approx(3.0)

    def test_pairwise_expansion(self):
        # (-1)(1) + (-1)(1) + (1)(1)
        assert e_k([-1.0, 1.0, 1.0], 2) == sigma_k([-1.0, 1.0, 1.0], 2) == pytest.approx(-1.0)

    def test_trace_example(self):
        assert e_k([-1.5, 1.0, 1.0], 1) == sigma_k([-1.5, 1.0, 1.0], 1) == pytest.approx(0.5)

    def test_against_combinations(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lam = rng.uniform(-3, 3, size=5)
            for k in range(1, 6):
                assert e_k(lam, k) == pytest.approx(sigma_k(lam, k), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_truncated_table_is_bitwise_the_full_one(self, n):
        lam = np.random.default_rng(n).uniform(-3, 3, size=(500, n))
        full = _symmetric_columns(lam, n)
        for m in range(1, n + 1):
            assert np.array_equal(_symmetric_columns(lam, m), full[: m + 1])

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            is_m_subharmonic([1.0, 2.0, 3.0], 4)
        with pytest.raises(DomainError):
            is_m_subharmonic([1.0, 2.0, 3.0], 0)


class TestConeMembership:
    def test_hat_positive_but_not_two_subharmonic(self):
        lam = [-1.0, 1.0, 1.0]
        assert is_n1_psh(lam)
        assert not is_m_subharmonic(lam, 2)

    def test_subharmonic_but_not_hat_positive(self):
        lam = [-1.5, 1.0, 1.0]
        assert is_m_subharmonic(lam, 1)
        assert not is_n1_psh(lam)

    def test_origin_in_every_cone(self):
        lam = [0.0, 0.0, 0.0]
        assert is_psh(lam)
        assert is_n1_psh(lam)
        for m in (1, 2, 3):
            assert is_m_subharmonic(lam, m)
        assert is_quasi_n1_psh(lam, [1.0, 2.0, 0.5])

    def test_inclusion_chain_randomized(self):
        rng = np.random.default_rng(2)
        for n in (3, 4, 5):
            lam = sample_spectra(rng, 350000, n)
            psh = is_psh(lam)
            sh2 = is_m_subharmonic(lam, 2)
            hat = is_n1_psh(lam)
            sh1 = is_m_subharmonic(lam, 1)
            assert not (psh & ~sh2).any()
            assert not (sh2 & ~hat).any()
            assert not (hat & ~sh1).any()

    def test_quasi_inclusion_from_scaled_background(self):
        # membership relative to the constant background 1/C implies quasi
        # membership for any gamma >= 1/C entrywise
        rng = np.random.default_rng(3)
        lam = sample_spectra(rng, 50000, 4)
        inv_c = rng.uniform(0.05, 2.0, size=(50000, 1))
        gamma = inv_c + rng.uniform(0.0, 3.0, size=(50000, 4))
        base = is_quasi_n1_psh(lam, np.broadcast_to(inv_c, lam.shape))
        assert is_quasi_n1_psh(lam[base], gamma[base], 1e-12).all()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_columns_are_bitwise_the_last_axis_reductions(self, n):
        """The predicates run a column of spectra at a time; their verdicts
        are those of the reductions along the last axis, ties and signed
        zeros included."""
        rng = np.random.default_rng(20 + n)
        lam = sample_spectra(rng, 20000, n)
        lam[::7] = np.round(lam[::7])
        lam[::11, 0] = -0.0
        gamma = rng.uniform(0.1, 3.0, size=lam.shape)
        hat = lam.sum(axis=-1, keepdims=True) - lam
        table = np.stack(_symmetric_columns(lam, n), axis=-1)
        slack = 1e-12
        assert np.array_equal(is_psh(lam), lam.min(axis=-1) >= 0.0)
        assert np.array_equal(is_n1_psh(lam), hat.min(axis=-1) >= -slack)
        for m in range(1, n + 1):
            assert np.array_equal(is_m_subharmonic(lam, m), (table[:, 1 : m + 1] >= -slack).all(axis=-1))
        for tol in (0.0, slack):
            for g in (gamma, gamma[0], np.broadcast_to(gamma[:, :1], lam.shape)):
                assert np.array_equal(is_quasi_n1_psh(lam, g, tol), (hat >= -(n - 1) * g - tol).all(axis=-1))

    @pytest.mark.parametrize(
        "gamma",
        [[1.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [-np.inf, 1.0, 1.0]],
        ids=["size-mismatch", "zero", "negative", "nan", "inf", "-inf"],
    )
    def test_quasi_rejects_bad_background(self, gamma):
        with pytest.raises(DomainError):
            is_quasi_n1_psh([0.0, 0.0, 0.0], gamma)


class TestMaHat:
    def test_all_ones(self):
        assert ma_hat([1.0, 1.0, 1.0]) == pytest.approx(8.0)

    def test_zero_factor(self):
        assert ma_hat([-1.0, 1.0, 1.0]) == pytest.approx(0.0)

    def test_product_of_hat_entries(self):
        rng = np.random.default_rng(4)
        lam = rng.uniform(-2, 2, size=(100, 4))
        expected = np.prod(hat_transform(lam), axis=-1)
        assert np.allclose(ma_hat(lam), expected, rtol=0, atol=0)

    def test_equals_det_of_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam = rng.uniform(-2, 2, size=4)
            det = np.linalg.det(np.diag(hat_transform(lam)))
            assert ma_hat(lam) == pytest.approx(det, rel=1e-12)


def random_hermitian(rng, n):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (h + h.conj().T)


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestMaN1:
    def test_flat_point(self):
        eye, zero = np.eye(3), np.zeros((3, 3))
        assert ma_n1(eye, eye, zero) == pytest.approx(1.0)
        assert batched_ma_n1(eye[None], eye[None], zero[None])[0] == pytest.approx(1.0)

    def test_shifted_hat_example(self):
        # hessian eigenvalues (-1, 1, 1): det = prod(1 + hat/2) = 2
        rng = np.random.default_rng(6)
        u = random_unitary(rng, 3)
        hess = u @ np.diag([-1.0, 1.0, 1.0]) @ u.conj().T
        eye = np.eye(3)
        assert ma_n1(eye, eye, hess) == pytest.approx(2.0, rel=1e-12)
        assert batched_ma_n1(eye[None], eye[None], hess[None])[0] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_metric_scaling_law(self, scale):
        rng = np.random.default_rng(7)
        pts = sample_cone_points(rng, 5, 3)
        beta, omega, hess = pts["beta"], pts["omega"], pts["hess"]
        for k in range(5):
            base = ma_n1(beta[k], omega[k], hess[k])
            assert ma_n1(beta[k], scale * omega[k], hess[k]) == pytest.approx(scale ** (-3) * base, rel=1e-12)
        base = batched_ma_n1(beta, omega, hess)
        assert np.allclose(batched_ma_n1(beta, scale * omega, hess), scale ** (-3) * base, rtol=1e-12, atol=0)

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(8)
        pts = sample_cone_points(rng, 5, 4)
        for k in range(5):
            u = random_unitary(rng, 4)
            base = (pts["beta"][k], pts["omega"][k], pts["hess"][k])
            conj = tuple(u @ x @ u.conj().T for x in base)
            assert ma_n1(*conj) == pytest.approx(ma_n1(*base), rel=1e-11)
            stacked = batched_ma_n1(*(np.stack([x, y]) for x, y in zip(base, conj)))
            assert stacked[1] == pytest.approx(stacked[0], rel=1e-11)

    def test_singular_omega_rejected(self):
        eye, zero = np.eye(3)[None], np.zeros((1, 3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            amgm_trace_gap_batch(eye, np.diag([1.0, 1.0, 0.0])[None], zero)


class TestAmGmTraceGap:
    def test_equality_at_flat_point(self):
        eye, zero = np.eye(3), np.zeros((3, 3))
        assert amgm_trace_gap(eye, eye, zero) == pytest.approx(0.0, abs=1e-14)
        assert amgm_trace_gap_batch(eye[None], eye[None], zero[None])[0] == pytest.approx(0.0, abs=1e-14)

    def test_worked_value(self):
        eye, hess = np.eye(3), np.diag([0.0, 0.0, 3.0])
        expected = 6.0 - 3.0 * 6.25 ** (1.0 / 3.0)
        assert amgm_trace_gap(eye, eye, hess) == pytest.approx(expected, rel=1e-12)
        assert amgm_trace_gap_batch(eye[None], eye[None], hess[None])[0] == pytest.approx(expected, rel=1e-12)
        assert expected > 0

    def test_rejects_points_outside_cone(self):
        """With beta = omega = I, alpha = I + hat(H) / (n - 1) is PSD exactly
        where the Hessian spectrum lies in the quasi cone of gamma = 1."""
        eye = np.eye(3)
        hess = np.diag([-9.0, 0.0, 0.0])  # alpha eigenvalues (1, -3.5, -3.5)
        assert np.allclose(reference_eigenvalues(eye, eye, hess), [-3.5, -3.5, 1.0])
        assert not is_quasi_n1_psh([-9.0, 0.0, 0.0], np.ones(3))
        rng = np.random.default_rng(12)
        for _ in range(200):
            hess = 3 * random_hermitian(rng, 3)
            psd = reference_eigenvalues(eye, eye, hess)[0] >= 0
            assert is_quasi_n1_psh(np.linalg.eigvalsh(hess), np.ones(3)) == psd

    def test_batch_matches_scalar_op(self):
        rng = np.random.default_rng(9)
        pts = sample_cone_points(rng, 50, 3)
        gaps = amgm_trace_gap_batch(pts["beta"], pts["omega"], pts["hess"])
        for k in range(50):
            reference = amgm_trace_gap(pts["beta"][k], pts["omega"][k], pts["hess"][k])
            assert gaps[k] == pytest.approx(reference, rel=1e-9, abs=1e-10)

    def test_randomized_nonnegativity(self):
        rng = np.random.default_rng(10)
        pts = sample_cone_points(rng, 2000, 3)
        gaps = amgm_trace_gap_batch(pts["beta"], pts["omega"], pts["hess"])
        assert gaps.min() >= -1e-12


def _planted_triples(seed, count, n, rank, scale, omega_scale, duplicates):
    """Triples whose alpha = scale * a a^H has the given rank, built as
    ``sample_cone_points`` builds them, with ``duplicates`` samples copied
    bit for bit onto others."""
    rng = np.random.default_rng(seed)
    pts = sample_cone_points(rng, count, n)
    beta, omega = scale * pts["beta"], omega_scale * pts["omega"]
    a = rng.standard_normal((count, n, rank)) + 1j * rng.standard_normal((count, n, rank))
    alpha = scale * (a @ np.conj(np.swapaxes(a, -1, -2))) / n
    s = np.trace(np.linalg.solve(omega, alpha - beta), axis1=-2, axis2=-1).real
    hess = s[:, None, None] * omega - (n - 1) * (alpha - beta)
    src, dst = rng.integers(count, size=(2, duplicates))
    for x in (beta, omega, hess):
        x[dst] = x[src]
    return beta, omega, hess


def streamed_gap_min(beta, omega, hess):
    """``cone_points_gap_min`` over the given ``(N, n, n)`` stacks, which
    stand in for the sampler's chunks and are cut as it cuts its own."""
    chunks = [(beta[c], omega[c], hess[c]) for c in eigencone._chunks(len(beta))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigencone, "_cone_point_chunks", lambda rng, count, n: iter(chunks))
        return cone_points_gap_min(None, len(beta), beta.shape[-1])


def screened_min(beta, omega, hess):
    """The least certified bound ``g - r`` of ``_screened_gaps`` over whole
    ``(N, n, n)`` stacks in one call, -inf at a sample that fails a pivot
    test or whose bound is not finite."""
    gap, radius, ok = eigencone._screened_gaps(beta, omega, hess)
    bound = gap - radius
    return float(np.where(ok & np.isfinite(bound), bound, -np.inf).min())


def amgm_row(seed, samples):
    """``(value, threshold, pass)`` of the ``amgm_trace_gap_min`` row of
    ``n1ma cones --seed seed --samples samples``."""
    rows = cli._cone_rows(np.random.default_rng(seed), samples)
    return next(row[1:] for row in rows if row[0] == "amgm_trace_gap_min")


class TestAmGmTraceGapMin:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([3, 4, 5]),
        count=st.one_of(st.just(1), st.integers(2, 400)),
        rank=st.integers(1, 5),
        log_scale=st.floats(-3.0, 3.0),
        log_omega_scale=st.floats(-3.0, 3.0),
        duplicates=st.integers(0, 25),
    )
    def test_bitwise_the_full_batch_minimum(
        self, seed, n, count, rank, log_scale, log_omega_scale, duplicates
    ):
        beta, omega, hess = _planted_triples(
            seed, count, n, min(rank, n), 10.0**log_scale, 10.0**log_omega_scale, duplicates
        )
        exact = amgm_trace_gap_batch(beta, omega, hess)
        streamed = streamed_gap_min(beta, omega, hess)
        # the screen's bound over the full batch, which is at most the exact minimum
        assert np.array_equal(streamed, screened_min(beta, omega, hess))
        assert streamed <= exact.min()
        # the screen's enclosure holds wherever it clears a sample
        gap, radius, ok = eigencone._screened_gaps(beta, omega, hess)
        assert np.all(np.abs(gap - exact)[ok] <= radius[ok])

    def test_nan_sample_makes_the_minimum_minus_inf(self):
        """NaN in an entry that the Cholesky factorizations read fails a pivot
        test; NaN in an upper triangle, which they do not read, gives a NaN
        radius."""
        for name, entry in (("beta", (17, 0, 0)), ("hess", (17, 0, 2))):
            pts = sample_cone_points(np.random.default_rng(2), 200, 3)
            pts[name][entry] = np.nan
            with pytest.raises(np.linalg.LinAlgError):
                amgm_trace_gap_batch(**pts)
            assert streamed_gap_min(**pts) == -np.inf

    def test_cli_stream_takes_no_exact_evaluation(self, monkeypatch):
        def refused(beta, omega, hess):
            raise AssertionError("the audit evaluated the exact gap")

        monkeypatch.setattr(eigencone, "amgm_trace_gap_batch", refused)
        assert amgm_row(0, 100000) == [0.10059839394891774, 0.0, True]

    @pytest.mark.parametrize("seed, samples", [(0, 2000), (5, 2000), (3, 10007)])
    def test_wrong_hat_map_fails_the_row(self, monkeypatch, seed, samples):
        """Triples whose hess inverts a wrong hat map, ``s omega - (n + 3) S``
        with ``S = alpha - beta`` and ``s = tr(omega^-1 S)``, make the row
        negative and False: most of the alphas that the true map makes of
        them fail their pivot test.  The sampler's own triples pass at the
        same seed."""
        chunks = eigencone._cone_point_chunks

        def wrong_map(rng, count, n):
            for beta, omega, hess in chunks(rng, count, n):
                s_mat = eigencone._batched_alpha(beta, omega, hess) - beta
                s = np.trace(np.linalg.solve(omega, s_mat), axis1=-2, axis2=-1).real
                yield beta, omega, s[:, None, None] * omega - (n + 3) * s_mat

        value, threshold, verdict = amgm_row(seed, samples)
        assert value > threshold == 0.0 and verdict
        monkeypatch.setattr(eigencone, "_cone_point_chunks", wrong_map)
        value, _, verdict = amgm_row(seed, samples)
        assert value < 0.0 and not verdict


def whole_batch_cone_points(rng, count, n):
    """``sample_cone_points`` as whole-batch formulas, drawn and applied to
    one chunk of ``_CHUNK`` samples at a time: (beta, omega, hess)."""

    def gram(size):
        a = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
        return a @ np.conj(np.swapaxes(a, -1, -2)) / n

    parts = []
    for chunk in eigencone._chunks(count):
        size = chunk.stop - chunk.start
        beta = gram(size) + 0.2 * np.eye(n)
        omega = gram(size) + 0.2 * np.eye(n)
        s_mat = gram(size) - beta
        s = np.trace(np.linalg.solve(omega, s_mat), axis1=-2, axis2=-1).real
        parts.append((beta, omega, s[:, None, None] * omega - (n - 1) * s_mat))
    return [np.concatenate(stack) for stack in zip(*parts)]


class TestChunkedConeBatch:
    CHUNK = eigencone._CHUNK

    @pytest.mark.parametrize("count, n", [(1, 3), (CHUNK, 3), (2 * CHUNK + 3, 3), (CHUNK + 1, 4), (7, 5)])
    def test_sampling_is_bitwise_the_whole_batch_formulas(self, count, n):
        pts = sample_cone_points(np.random.default_rng(count), count, n)
        assert sorted(pts) == ["beta", "hess", "omega"]
        reference = whole_batch_cone_points(np.random.default_rng(count), count, n)
        for name, expected in zip(("beta", "omega", "hess"), reference):
            assert np.array_equal(pts[name].view(np.uint64), expected.view(np.uint64)), name

    @pytest.mark.parametrize("piece", [1, CHUNK, CHUNK + 1])
    def test_normal_draws_in_pieces_are_the_whole_batch_stream(self, piece):
        """``_cone_point_chunks`` draws its normals a chunk at a time, and
        ``rng`` must end where one whole-batch draw leaves it: the stream must
        not depend on the size of the pieces."""
        count = 2 * self.CHUNK + 5
        whole = np.random.default_rng(5).standard_normal((count, 3, 3))
        rng = np.random.default_rng(5)
        pieces = np.empty_like(whole)
        for start in range(0, count, piece):
            rng.standard_normal(out=pieces[start : start + piece])
        assert np.array_equal(pieces.view(np.uint64), whole.view(np.uint64))

    def test_minimum_in_the_ragged_tail(self):
        count = 2 * self.CHUNK + 5
        pts = sample_cone_points(np.random.default_rng(4), count, 3)
        # the flat point, exact gap 0, is the least sample: its bound is -r
        pts["beta"][-2], pts["omega"][-2], pts["hess"][-2] = np.eye(3), np.eye(3), 0.0
        gap, radius, ok = eigencone._screened_gaps(**pts)
        bound = gap - radius
        assert ok.all() and bound.argmin() == count - 2 and -1e-9 < bound[-2] < 0.0
        assert np.array_equal(streamed_gap_min(**pts), bound[-2])

    def test_cli_batch_keeps_three_stacks(self):
        """``sample_cone_points`` at the 10^5 samples of ``n1ma cones``
        allocates little beyond the three stacks it returns."""
        tracemalloc.start()
        try:
            pts = sample_cone_points(np.random.default_rng(0), 10**5, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * sum(x.nbytes for x in pts.values())


class TestStreamedGapMin:
    """``cone_points_gap_min`` folds each chunk of ``_cone_point_chunks`` into
    a running minimum, never forming the three stacks."""

    CHUNK = eigencone._CHUNK

    @pytest.mark.parametrize(
        "count, n", [(1, 3), (CHUNK - 1, 3), (CHUNK, 3), (CHUNK + 1, 3), (10007, 3), (CHUNK + 7, 4)]
    )
    def test_bitwise_the_whole_batch_minimum(self, count, n):
        rng = np.random.default_rng(count + n)
        streamed = cone_points_gap_min(rng, count, n)
        after = rng.standard_normal(8)
        rng = np.random.default_rng(count + n)
        pts = sample_cone_points(rng, count, n)
        assert np.array_equal(streamed, screened_min(**pts)) and type(streamed) is float
        # a certified lower bound of the exact minimum, above 0 on the hat map's triples
        assert 0.0 <= streamed <= amgm_trace_gap_batch(**pts).min()
        # the draws that follow see the generator that one whole-batch draw
        # of the 6 count n^2 normals leaves, as after sample_cone_points
        whole = np.random.default_rng(count + n)
        whole.standard_normal(6 * count * n * n)
        assert np.array_equal(after.view(np.uint64), whole.standard_normal(8).view(np.uint64))
        assert np.array_equal(after.view(np.uint64), rng.standard_normal(8).view(np.uint64))

    def test_nan_sample_in_a_later_chunk_makes_the_minimum_minus_inf(self):
        """A sample no bound can clear makes the minimum -inf whatever the
        earlier chunks reached."""
        count = 2 * self.CHUNK + 5
        pts = sample_cone_points(np.random.default_rng(6), count, 3)
        pts["omega"][count - 3, 1, 1] = np.nan
        assert streamed_gap_min(**pts) == -np.inf

    def test_no_samples_give_the_empty_minimum(self):
        assert cone_points_gap_min(np.random.default_rng(0), 0, 3) == np.inf

    def test_memory_does_not_grow_with_the_sample_count(self):
        """The 10^5-sample audit of ``n1ma cones`` takes under 8 MiB, and no
        more than one of three chunks of samples."""
        peaks = []
        for count in (3 * self.CHUNK, 10**5):
            tracemalloc.start()
            try:
                cone_points_gap_min(np.random.default_rng(0), count, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 8 * 2**20 and peaks[1] <= 1.1 * peaks[0]


class TestPshProductGap:
    def test_equal_eigenvalues(self):
        assert psh_product_gap([1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=0)

    def test_worked_value(self):
        assert psh_product_gap([0.0, 0.0, 3.0]) == pytest.approx(2.25, rel=1e-12)

    def test_precondition(self):
        with pytest.raises(DomainError):
            psh_product_gap([-1.5, 1.0, 1.0])

    def test_randomized_nonnegativity(self):
        rng = np.random.default_rng(11)
        lam = rng.uniform(-1.0, 4.0, size=(5000, 4))
        assert psh_product_gap(lam).min() >= -1e-12
