"""Periodic grid fields and spectral differentiation on [0, 2pi)^d.

Scalar fields live on uniform tensor grids with even sizes, differentiated by
FFT multipliers (exact for band-limited data).  The complex Hessian of the
translation-invariant reduction is one quarter of the real Hessian.  First
derivative multipliers zero the Nyquist mode so that odd-order derivatives of
real fields stay real; pure second derivatives keep the full multiplier.

Also hosts the raw field file format: a 32-byte little-endian header
(magic ``N1MA``, version, axis count, per-axis sizes) followed by the C-order
float64 payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "GridField",
    "grid_coordinates",
    "spectral_gradient",
    "complex_hessian",
    "random_band_limited",
    "write_field",
    "read_field",
    "field_to_csv",
]

MAGIC = b"N1MA"
FORMAT_VERSION = 1
_HEADER_BYTES = 32


def _validate_shape(shape):
    shape = tuple(int(s) for s in shape)
    if len(shape) < 3:
        raise DomainError("grid: need at least 3 axes")
    if len(shape) > 5:
        raise DomainError("grid: at most 5 axes supported by the field format")
    for s in shape:
        if s < 8 or s % 2:
            raise DomainError(f"grid: axis size {s} must be even and >= 8")
    return shape


@dataclass(frozen=True)
class GridField:
    """A real scalar field on the uniform periodic grid."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        _validate_shape(arr.shape)
        if not np.all(np.isfinite(arr)):
            raise DomainError("GridField: data must be finite")
        object.__setattr__(self, "data", arr)

    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(_validate_shape(shape)))

    @property
    def shape(self):
        return self.data.shape

    @property
    def n_dim(self):
        return self.data.ndim

    def mean(self):
        return float(self.data.mean())

    def sup(self):
        return float(self.data.max())

    def osc(self):
        return float(self.data.max() - self.data.min())


@lru_cache(maxsize=32)
def _axis_coordinates(shape):
    return tuple(
        2 * np.pi * np.arange(s) / s for s in shape
    )


def grid_coordinates(shape):
    """Meshgrid coordinate arrays over [0, 2pi)^d, indexed 'ij'."""
    shape = _validate_shape(shape)
    return np.meshgrid(*_axis_coordinates(shape), indexing="ij")


@lru_cache(maxsize=32)
def _wavenumbers(shape):
    """Broadcastable integer wavenumber grids for rfftn layout.

    Returns (k_full, k_deriv): full wavenumbers along each axis and the
    variant with the Nyquist mode zeroed, each shaped to broadcast against
    the half-spectrum array.
    """
    d = len(shape)
    full, deriv = [], []
    for ax, s in enumerate(shape):
        if ax == d - 1:
            k = np.arange(s // 2 + 1, dtype=float)
        else:
            k = np.fft.fftfreq(s, d=1.0 / s)
        kd = k.copy()
        kd[np.abs(kd) == s // 2] = 0.0
        sh = [1] * d
        sh[ax] = k.size
        full.append(k.reshape(sh))
        deriv.append(kd.reshape(sh))
    return tuple(full), tuple(deriv)


def spectral_gradient(u):
    """Gradient of a real field, shape ``u.shape + (d,)``."""
    u = np.asarray(u, dtype=float)
    shape = _validate_shape(u.shape)
    _, kd = _wavenumbers(shape)
    uh = np.fft.rfftn(u)
    out = np.empty(u.shape + (u.ndim,))
    for i in range(u.ndim):
        out[..., i] = np.fft.irfftn(1j * kd[i] * uh, s=shape, axes=range(len(shape)))
    return out


def complex_hessian(u):
    """Complex Hessian of the reduction: one quarter of the real Hessian.

    Returns a symmetric matrix field of shape ``u.shape + (d, d)``, computed
    spectrally; exact at the grid points for band-limited u.  The storage is
    component-major: the result is a view of a ``(d, d) + u.shape`` buffer,
    so ``np.moveaxis(h, (-2, -1), (0, 1))`` is contiguous and copy-free.
    """
    u = np.asarray(u, dtype=float)
    shape = _validate_shape(u.shape)
    k, kd = _wavenumbers(shape)
    uh = np.fft.rfftn(u)
    d = u.ndim
    buf = np.empty((d, d) + shape)
    for i in range(d):
        for j in range(i, d):
            # the quarter is a power of two, so scaling the multiplier
            # instead of the block changes no bit
            mult = -0.25 * (k[i] * k[j] if i == j else kd[i] * kd[j])
            np.fft.irfftn(mult * uh, s=shape, axes=range(d), out=buf[i, j])
            if i != j:
                buf[j, i] = buf[i, j]
    return np.moveaxis(buf, (0, 1), (-2, -1))


def random_band_limited(rng, shape, max_mode=3, amplitude=1.0):
    """Random real field with modes supported in |k_i| <= max_mode, zero mean."""
    shape = _validate_shape(shape)
    coords = grid_coordinates(shape)
    out = np.zeros(shape)
    d = len(shape)
    n_terms = rng.integers(4, 9)
    for _ in range(n_terms):
        kvec = rng.integers(-max_mode, max_mode + 1, size=d)
        if not kvec.any():
            continue
        phase = rng.uniform(0, 2 * np.pi)
        coef = rng.normal() * amplitude / n_terms
        arg = sum(kk * xx for kk, xx in zip(kvec, coords))
        out += coef * np.cos(arg + phase)
    return out - out.mean()


# ---------------------------------------------------------------------------
# Raw field format
# ---------------------------------------------------------------------------


def write_field(path, data):
    """Write a field as the 32-byte header plus little-endian float64 payload."""
    arr = np.asarray(data, dtype=float)
    shape = _validate_shape(arr.shape)
    header = struct.pack("<4sII", MAGIC, FORMAT_VERSION, len(shape))
    header += struct.pack(f"<{len(shape)}I", *shape)
    header += b"\x00" * (_HEADER_BYTES - len(header))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_field(path):
    """Read a field written by :func:`write_field`."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if len(header) != _HEADER_BYTES or header[:4] != MAGIC:
            raise DomainError(f"grid.read_field: {path} is not a field file")
        version, ndim = struct.unpack_from("<II", header, 4)
        if version != FORMAT_VERSION:
            raise DomainError(f"grid.read_field: unsupported version {version}")
        if not 3 <= ndim <= 5:
            raise DomainError(f"grid.read_field: bad axis count {ndim}")
        shape = struct.unpack_from(f"<{ndim}I", header, 12)
        payload = fh.read()
    count = int(np.prod(shape))
    if len(payload) != 8 * count:
        raise DomainError(
            f"grid.read_field: {path}: payload of {len(payload)} bytes, "
            f"expected {8 * count} for shape {shape}"
        )
    arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return arr.astype(float)


def field_to_csv(path, data):
    """Flatten a field to CSV rows ``i1,...,id,value``."""
    arr = np.asarray(data, dtype=float)
    # "i2,...,id," for every point of a slab arr[i1], in C order
    tails = [""]
    for size in arr.shape[1:]:
        tails = [t + f"{i}," for t in tails for i in range(size)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(f"i{k + 1}" for k in range(arr.ndim)) + ",value\n")
        # one join per slab, whose separator carries the leading index
        for i1, slab in enumerate(arr):
            head = f"{i1},"
            fh.write(head + f"\n{head}".join(map(str.__add__, tails, map(repr, slab.ravel().tolist()))) + "\n")
