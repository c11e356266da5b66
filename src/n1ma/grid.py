"""Periodic grid fields and spectral differentiation on [0, 2pi)^d.

Scalar fields live on uniform tensor grids with even sizes, differentiated by
FFT multipliers (exact for band-limited data).  The complex Hessian of the
translation-invariant reduction is one quarter of the real Hessian.  First
derivative multipliers zero the Nyquist mode so that odd-order derivatives of
real fields stay real; pure second derivatives keep the full multiplier.

Derivatives take one ``scipy.fft.rfftn`` of the field.  The gradient takes
one batched ``irfftn`` over the stack of its d multiplied spectra; each block
equals, bit for bit, its own ``scipy.fft.irfftn``, and batching removes the
per-call overhead that dominates on small grids.  The complex Hessian takes
one ``irfftn`` per upper-triangle block, written straight into both of its
places in the d x d result, so no stack of blocks is alive beside it.
``scipy.fft`` is imported by the functions that transform, on first use, so a
program that never differentiates a field (the cone and form audits) does not
load it.

Also hosts the raw field file format: a 32-byte little-endian header
(magic ``N1MA``, version, axis count, per-axis sizes) followed by the C-order
float64 payload.
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "grid_coordinates",
    "spectral_gradient",
    "complex_hessian",
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


@lru_cache(maxsize=32)
def _hessian_multipliers(shape):
    """Multipliers of the upper-triangle complex Hessian blocks, stacked in
    ``np.triu_indices`` order: shape ``(d(d+1)/2,)`` + the half spectrum.

    Block (i, j) is ``-k_i k_j / 4``, with the Nyquist-free wavenumbers off
    the diagonal.  The quarter is a power of two, so scaling the multiplier
    instead of the block changes no bit.  Read-only: the array is shared.
    """
    k, kd = _wavenumbers(shape)
    rows, cols = np.triu_indices(len(shape))
    half = np.broadcast_shapes(*(kk.shape for kk in k))
    out = np.empty((rows.size,) + half)
    for p, (i, j) in enumerate(zip(rows, cols)):
        out[p] = -0.25 * (k[i] * k[j] if i == j else kd[i] * kd[j])
    out.flags.writeable = False
    return out


def _spectral_stack(u, multipliers):
    """``irfftn(m * rfftn(u))`` for every m in ``multipliers``, stacked along
    a new first axis, as one batched inverse transform."""
    from scipy.fft import irfftn, rfftn

    spectrum = rfftn(u)
    stacked = np.empty((len(multipliers),) + spectrum.shape, dtype=complex)
    for p, m in enumerate(multipliers):
        np.multiply(m, spectrum, out=stacked[p])
    return irfftn(stacked, s=u.shape, axes=range(1, u.ndim + 1), overwrite_x=True)


def spectral_gradient(u):
    """Gradient of a real field, shape ``u.shape + (d,)``."""
    u = np.asarray(u, dtype=float)
    shape = _validate_shape(u.shape)
    _, kd = _wavenumbers(shape)
    grad = _spectral_stack(u, [1j * k for k in kd])
    return np.moveaxis(grad, 0, -1)


def complex_hessian(u):
    """Complex Hessian of the reduction: one quarter of the real Hessian.

    Returns a symmetric matrix field of shape ``u.shape + (d, d)``, computed
    spectrally; exact at the grid points for band-limited u.  The storage is
    component-major: the result is a view of a ``(d, d) + u.shape`` buffer,
    so ``np.moveaxis(h, (-2, -1), (0, 1))`` is contiguous and copy-free.
    """
    from scipy.fft import irfftn, rfftn

    u = np.asarray(u, dtype=float)
    shape = _validate_shape(u.shape)
    d = u.ndim
    spectrum = rfftn(u)
    product = np.empty_like(spectrum)
    out = np.empty((d, d) + shape)
    for (i, j), m in zip(zip(*np.triu_indices(d)), _hessian_multipliers(shape)):
        out[i, j] = irfftn(np.multiply(m, spectrum, out=product), s=shape, overwrite_x=True)
        if i != j:
            out[j, i] = out[i, j]
    return np.moveaxis(out, (0, 1), (-2, -1))


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
    """Flatten a field to CSV rows ``i1,...,id,value``.

    Each slab ``arr[i1]`` formats each of its distinct values once, keyed by
    bit pattern: ``-0.0 == 0.0`` but their reprs differ.  Spectral solutions
    of trigonometric data keep their symmetries bit for bit, so a slab holds
    far fewer distinct floats than points.  The memo lives for one slab, so
    memory stays that of one slab's rows.
    """
    arr = np.asarray(data, dtype=float)
    # "i2,...,id," for every point of a slab arr[i1], in C order
    tails = [""]
    for size in arr.shape[1:]:
        tails = [t + f"{i}," for t in tails for i in range(size)]
    # one slab's rows as tail, value, separator, ..., tail, value
    parts = [""] * (3 * len(tails) - 1)
    parts[0::3] = tails
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(f"i{k + 1}" for k in range(arr.ndim)) + ",value\n")
        for i1, slab in enumerate(arr):
            keys, inverse = np.unique(np.ravel(slab).view(np.uint64), return_inverse=True)
            reprs = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
            parts[1::3] = reprs[inverse].tolist()
            # the separator carries the leading index
            parts[2::3] = [f"\n{i1},"] * (len(tails) - 1)
            fh.write(f"{i1}," + "".join(parts) + "\n")
