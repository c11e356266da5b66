import numpy as np
import pytest

from conftest import random_band_limited
from n1ma.errors import DomainError
from n1ma.grid import (
    complex_hessian,
    field_to_csv,
    grid_coordinates,
    read_field,
    spectral_gradient,
    write_field,
)


def fd4_hessian_entry(u, i, j, shape):
    """4th-order periodic finite differences, independent of the FFT path."""
    h = [2 * np.pi / s for s in shape]

    def d1(a, axis):
        return (
            -np.roll(a, -2, axis) + 8 * np.roll(a, -1, axis)
            - 8 * np.roll(a, 1, axis) + np.roll(a, 2, axis)
        ) / (12 * h[axis])

    def d2(a, axis):
        return (
            -np.roll(a, -2, axis) + 16 * np.roll(a, -1, axis) - 30 * a
            + 16 * np.roll(a, 1, axis) - np.roll(a, 2, axis)
        ) / (12 * h[axis] ** 2)

    return d2(u, i) if i == j else d1(d1(u, i), j)


class TestComplexHessian:
    def test_single_mode(self):
        shape = (16, 16, 16)
        x1, _, _ = grid_coordinates(shape)
        h = complex_hessian(np.cos(x1))
        assert np.allclose(h[..., 0, 0], -0.25 * np.cos(x1), atol=1e-13)
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 0):
                    assert np.abs(h[..., i, j]).max() <= 1e-13

    def test_product_mode(self):
        shape = (16, 16, 16)
        x1, x2, _ = grid_coordinates(shape)
        u = np.cos(x1) * np.cos(x2)
        h = complex_hessian(u)
        assert np.allclose(h[..., 0, 1], 0.25 * np.sin(x1) * np.sin(x2), atol=1e-13)
        assert np.allclose(h[..., 0, 0], -0.25 * u, atol=1e-13)
        assert np.abs(h[..., 0, 2]).max() <= 1e-13

    def test_fourth_order_convergence_of_fd_oracle(self):
        # the spectral Hessian is exact for band-limited fields; the FD4
        # oracle approaches it at order h^4
        errors = []
        for shape in [(16, 16, 16), (32, 32, 32)]:
            x1, x2, x3 = grid_coordinates(shape)
            u = np.cos(2 * x1) * np.cos(x2) + np.sin(x2) * np.cos(2 * x3)
            spectral = complex_hessian(u)
            worst = 0.0
            for i in range(3):
                for j in range(i, 3):
                    fd = 0.25 * fd4_hessian_entry(u, i, j, shape)
                    worst = max(worst, np.abs(fd - spectral[..., i, j]).max())
            errors.append(worst)
        ratio = errors[0] / errors[1]
        assert 12 <= ratio <= 20

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        u = random_band_limited(rng, (16, 16, 16))
        h = complex_hessian(u)
        assert np.array_equal(h, np.swapaxes(h, -1, -2))

    def test_hessian_trace_integrates_to_zero(self):
        rng = np.random.default_rng(1)
        u = random_band_limited(rng, (16, 16, 16))
        tr = np.trace(complex_hessian(u), axis1=-2, axis2=-1)
        assert abs(tr.mean()) <= 1e-14


class TestGradient:
    def test_single_mode(self):
        shape = (16, 16, 16)
        x1, _, _ = grid_coordinates(shape)
        g = spectral_gradient(np.sin(x1))
        assert np.allclose(g[..., 0], np.cos(x1), atol=1e-13)
        assert np.abs(g[..., 1:]).max() <= 1e-13


class TestShapeValidation:
    @pytest.mark.parametrize("shape", [(8, 8), (8, 8, 7), (8, 8, 6), (8,) * 6])
    def test_rejects_bad_shapes(self, shape):
        # two axes, an odd size, a size below 8, more axes than the format holds
        with pytest.raises(DomainError):
            complex_hessian(np.zeros(shape))
        with pytest.raises(DomainError):
            grid_coordinates(shape)


class TestFieldIO:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((8, 10, 12))
        path = tmp_path / "field.n1ma"
        write_field(path, data)
        back = read_field(path)
        assert back.shape == data.shape
        assert np.array_equal(back, data)
        assert back.tobytes() == data.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "field.n1ma"
        write_field(path, np.zeros((8, 8, 8)))
        raw = path.read_bytes()
        assert raw[:4] == b"N1MA"
        assert len(raw) == 32 + 8 * 8 * 8 * 8

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.n1ma"
        path.write_bytes(b"XXXX" + b"\x00" * 60)
        with pytest.raises(DomainError):
            read_field(path)

    def test_payload_size_enforced(self, tmp_path):
        path = tmp_path / "field.n1ma"
        write_field(path, np.zeros((8, 8, 8)))
        raw = path.read_bytes()
        for payload in (raw[:-8], raw[:40], raw + b"\x00" * 8):
            path.write_bytes(payload)
            with pytest.raises(DomainError):
                read_field(path)

    def test_csv_export(self, tmp_path):
        data = np.arange(8**3, dtype=float).reshape(8, 8, 8)
        path = tmp_path / "field.csv"
        field_to_csv(path, data)
        lines = path.read_text().splitlines()
        assert lines[0] == "i1,i2,i3,value"
        assert lines[1] == "0,0,0,0.0"
        assert len(lines) == 1 + 8**3

    @pytest.mark.parametrize("shape", [(8, 10, 8), (8, 8, 10, 8), (8, 8, 8, 8, 10)])
    def test_csv_bytes_match_row_loop(self, tmp_path, shape):
        rng = np.random.default_rng(len(shape))
        data = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        specials = [-0.0, 0.0, 1e-5, 1e17, 5e-324, -5e-324, 0.1, 1.0, -2.5e-310]
        data.ravel()[: len(specials)] = specials
        data.ravel()[-len(specials):] = specials
        path = tmp_path / "field.csv"
        field_to_csv(path, data)
        # the per-row writer the joined one replaced
        expected = ",".join(f"i{k + 1}" for k in range(len(shape))) + ",value\n"
        for idx in np.ndindex(shape):
            expected += ",".join(str(i) for i in idx) + f",{float(data[idx])!r}\n"
        assert path.read_bytes() == expected.encode()


class TestRandomBandLimited:
    def test_zero_mean_and_band_limit(self):
        rng = np.random.default_rng(3)
        u = random_band_limited(rng, (16, 16, 16), max_mode=3)
        assert abs(u.mean()) <= 1e-14
        uh = np.fft.fftn(u)
        uh[:4, :, :][:, :4, :][:, :, :4] = 0  # low corner (positive modes)
        mask = np.ones((16, 16, 16), dtype=bool)
        k = np.fft.fftfreq(16, d=1 / 16)
        kk = np.meshgrid(k, k, k, indexing="ij")
        inside = (np.abs(kk[0]) <= 3) & (np.abs(kk[1]) <= 3) & (np.abs(kk[2]) <= 3)
        assert np.abs(np.fft.fftn(u)[~inside]).max() <= 1e-10
        assert mask.any()
