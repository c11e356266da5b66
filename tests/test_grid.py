import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def row_loop_csv(data):
    """The per-row CSV writer that ``field_to_csv`` replaced: the reference bytes."""
    text = ",".join(f"i{k + 1}" for k in range(data.ndim)) + ",value\n"
    for idx in np.ndindex(data.shape):
        text += ",".join(str(i) for i in idx) + f",{float(data[idx])!r}\n"
    return text.encode()


def from_bits(*bits, dtype=float):
    return np.array(bits, dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)


# zeros of both signs, NaNs of several payloads and signs, infinities,
# subnormals and integers that float64 rounds
SPECIALS = {
    "float64": np.concatenate([
        [-0.0, 0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 1e17, 0.1],
        from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001),
    ]),
    "float32": np.concatenate([
        np.array([-0.0, 0.0, np.inf, -np.inf, 0.1], dtype=np.float32),
        from_bits(0x00000001, 0x807FFFFF, 0x7FC00000, 0xFFC00000, 0x7FC00001, dtype=np.float32),
    ]),
    "int64": np.array([0, -1, 2**53 + 1, -(2**63), 2**63 - 1]),
}


@st.composite
def few_valued_fields(draw):
    """A field of 2-4 axes drawn from at most four values, so that every slab
    repeats them heavily; float64, float32 or integer, possibly a transposed
    or reversed (non-contiguous) view."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    kind = draw(st.sampled_from(sorted(SPECIALS)))
    specials = SPECIALS[kind]
    if kind == "int64":
        drawn = st.integers(-(2**63), 2**63 - 1)
    else:
        drawn = st.floats(width=np.dtype(kind).itemsize * 8)
    values = st.one_of(st.integers(0, len(specials) - 1).map(specials.__getitem__), drawn)
    palette = np.array(draw(st.lists(values, min_size=1, max_size=4)), dtype=kind)
    # the palette tiled over the field, so that most slabs hold all of it, then shuffled
    tiled = np.resize(palette, np.prod(shape))
    data = tiled[draw(st.permutations(range(tiled.size)))].reshape(shape)
    view = draw(st.sampled_from(["contiguous", "transposed", "reversed"]))
    if view == "transposed":
        return data.T
    if view == "reversed":
        return data[::-1, ..., ::-1]
    return data


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
        assert path.read_bytes() == row_loop_csv(data)

    @settings(max_examples=200, deadline=None)
    @given(data=few_valued_fields())
    @example(data=from_bits(0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000001, 1, 0x7FF0000000000000).reshape(2, 3))
    def test_csv_bytes_match_row_loop_on_repeated_values(self, tmp_path_factory, data):
        # each distinct bit pattern of a slab is formatted once: -0.0 and 0.0
        # compare equal but print differently, NaNs print alike whatever the payload
        path = tmp_path_factory.mktemp("csv") / "field.csv"
        field_to_csv(path, data)
        assert path.read_bytes() == row_loop_csv(data)

    def test_csv_memory_stays_that_of_one_slab(self, tmp_path):
        # Peak tracemalloc of field_to_csv on an all-distinct 32^3 field:
        # 0.22 MB for the per-slab writer without a memo, 0.30 MB with the
        # per-slab memo, 4.1 MB with one memo over the whole field (0.84,
        # 1.18 and 32.6 MB at 64^3).  The budget admits a few slabs' rows.
        data = np.random.default_rng(0).standard_normal((32, 32, 32))
        tracemalloc.start()
        try:
            field_to_csv(tmp_path / "field.csv", data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


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
