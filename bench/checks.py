"""Output checks that do not use n1ma to compute what they compare against.

Reference values come from numpy alone: the field file header is parsed
here, the complex Hessian is taken with a complex FFT written here, and
determinants come from ``np.linalg.det``.  Every checker returns a list of
problems (empty when the output passes), so the self-test can plant a wrong
answer and require a non-empty list.
"""

from __future__ import annotations

import struct

import numpy as np

FIELD_MAGIC = b"N1MA"
FIELD_HEADER = 32


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def write_field(path, data):
    """Write a density in the n1ma field format: 32-byte header, float64 payload."""
    header = struct.pack(f"<4sII{data.ndim}I", FIELD_MAGIC, 1, data.ndim, *data.shape)
    with open(path, "wb") as fh:
        fh.write(header.ljust(FIELD_HEADER, b"\0"))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_field(path):
    """Parse a field file; raise ValueError on any malformed part."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < FIELD_HEADER or raw[:4] != FIELD_MAGIC:
        raise ValueError(f"{path}: not a field file")
    version, ndim = struct.unpack_from("<II", raw, 4)
    if version != 1 or not 3 <= ndim <= 5:
        raise ValueError(f"{path}: version {version}, {ndim} axes")
    shape = struct.unpack_from(f"<{ndim}I", raw, 12)
    if any(raw[12 + 4 * ndim : FIELD_HEADER]):
        raise ValueError(f"{path}: header padding is not zero")
    payload = raw[FIELD_HEADER:]
    if len(payload) != 8 * int(np.prod(shape)):
        raise ValueError(f"{path}: payload of {len(payload)} bytes for shape {shape}")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).astype(float)


def read_csv(path):
    """Comment lines (without ``# ``) and split data rows of a CSV report."""
    comments, rows = [], []
    with open(path) as fh:
        for line in fh.read().split("\n"):
            if line.startswith("# "):
                comments.append(line[2:])
            elif line:
                rows.append(line.split(","))
    return comments, rows


# ---------------------------------------------------------------------------
# Numerics
# ---------------------------------------------------------------------------


def coordinates(n, size):
    x = 2 * np.pi * np.arange(size) / size
    return np.meshgrid(*([x] * n), indexing="ij")


def complex_hessian(u):
    """One quarter of the real Hessian by a full complex FFT.

    Mixed derivatives drop the Nyquist mode of either axis (its odd
    derivative has no real value on the grid); pure second derivatives keep it.
    """
    n = u.ndim
    uh = np.fft.fftn(u)
    k, kd = [], []
    for ax, s in enumerate(u.shape):
        freq = np.fft.fftfreq(s, 1.0 / s)
        shape = [1] * n
        shape[ax] = s
        k.append(freq.reshape(shape))
        kd.append(np.where(np.abs(freq) == s // 2, 0.0, freq).reshape(shape))
    h = np.empty(u.shape + (n, n))
    for i in range(n):
        for j in range(i, n):
            mult = k[i] ** 2 if i == j else kd[i] * kd[j]
            h[..., i, j] = h[..., j, i] = -0.25 * np.fft.ifftn(mult * uh).real
    return h


def log_residual_sup(gamma, f, u, c):
    """sup |log det alpha_u - log c - log f| with alpha_u = Gamma + (tr H I - H)/(n-1)."""
    n = u.ndim
    h = complex_hessian(u)
    tr = np.trace(h, axis1=-2, axis2=-1)
    alpha = gamma + (tr[..., None, None] * np.eye(n) - h) / (n - 1)
    det = np.linalg.det(alpha)
    if not np.all(det > 0):
        return np.inf
    return float(np.abs(np.log(det) - np.log(c) - np.log(f)).max())


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def field_matches(name, u, reference, tol):
    err = float(np.abs(u - reference).max()) if u.shape == reference.shape else np.inf
    return [] if err <= tol else [f"{name}: max deviation {err:.3e} > {tol:g}"]


def close_to(name, value, target, tol):
    err = abs(value - target)
    return [] if err <= tol else [f"{name}: {value!r} differs from {target!r} by {err:.3e} > {tol:g}"]


def residual_small(name, gamma, f, u, c, tol):
    sup = log_residual_sup(gamma, f, u, c)
    return [] if sup <= tol else [f"{name}: independent log residual {sup:.3e} > {tol:g}"]


def verdicts_pass(name, rows):
    """Every data row of a ``check,value,threshold,pass`` report says True."""
    if not rows or rows[0] != ["check", "value", "threshold", "pass"] or len(rows) < 2:
        return [f"{name}: missing or malformed report"]
    return [f"{name}: {row[0]} failed ({row[1]})" for row in rows[1:] if row[-1] != "True"]


def seed_header(name, comments, seed):
    want = f"generator=PCG64 seed={seed}"
    return [] if comments[:1] == [want] else [f"{name}: header {comments[:1]} != [{want!r}]"]


def hat_frames(h, frame_values):
    """Frame values of ``h ^ omega^(n-2) / (n-2)!`` against ``tr h - lambda_i``.

    ``frame_values[i]`` is the program's value on the frame of conjugated
    eigenvectors that omits eigenvector i.
    """
    lam = np.linalg.eigvalsh(h)
    want = np.trace(h).real - lam
    err = float(np.abs(np.asarray(frame_values) - want).max())
    return [] if err <= 1e-10 else [f"forms frame values: off by {err:.3e} from tr h - lambda_i"]
