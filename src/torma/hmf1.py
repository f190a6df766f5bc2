"""HMF1 binary field format: torus grid header + complex128 payload.

Byte layout (all integers little-endian):

    offset  size  content
    0       4     magic "HMF1"
    4       4     format version (u32, currently 1)
    8       4     components per node (u32): 1 for scalars, n*n for matrices
    12      4     reserved (u32, zero)
    16      4     complex dimension n (u32)
    20      8n    axis sizes, 2n u32 (order x1, y1, ..., xn, yn)
    20+8n   2n    active mask, 2n u8 (1 iff the axis size exceeds 1)
    ...           payload: complex128 little-endian, C order, logical shape
                  (*sizes,) or (*sizes, n, n)

The reader validates magic, version, size/mask consistency, component count,
the exact payload length and that every payload value is finite. Round-trips
are bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ValidationError
from .grid import TorusGrid

MAGIC = b"HMF1"
VERSION = 1


def write_field(path, grid, values):
    """Write a scalar (shape sizes) or matrix (shape sizes + (n, n)) field."""
    values = np.asarray(values, dtype=np.complex128)
    n = grid.n
    if values.shape == grid.sizes:
        ncomp = 1
    elif values.shape == grid.sizes + (n, n):
        ncomp = n * n
    else:
        raise ValidationError(
            f"field shape {values.shape} matches neither a scalar nor an "
            f"n x n matrix field on the grid {grid.sizes}"
        )
    header = struct.pack("<4sIII", MAGIC, VERSION, ncomp, 0)
    header += struct.pack("<I", n)
    header += struct.pack(f"<{2 * n}I", *grid.sizes)
    header += struct.pack(f"<{2 * n}B", *grid.active_mask)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values).astype("<c16").tobytes())


def read_field(path):
    """Read an HMF1 file; returns (grid, values)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 20:
        raise ValidationError(f"{path}: truncated HMF1 header")
    magic, version, ncomp, reserved = struct.unpack_from("<4sIII", raw, 0)
    if magic != MAGIC:
        raise ValidationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValidationError(f"{path}: unsupported HMF1 version {version}")
    if reserved != 0:
        raise ValidationError(f"{path}: reserved header word {reserved}, expected 0")
    (n,) = struct.unpack_from("<I", raw, 16)
    if not 2 <= n <= 4:
        raise ValidationError(f"{path}: complex dimension {n} out of range")
    offset = 20
    if len(raw) < offset + 10 * n:
        raise ValidationError(f"{path}: truncated HMF1 header")
    sizes = struct.unpack_from(f"<{2 * n}I", raw, offset)
    offset += 8 * n
    mask = struct.unpack_from(f"<{2 * n}B", raw, offset)
    offset += 2 * n
    try:
        grid = TorusGrid(int(n), tuple(int(s) for s in sizes))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if tuple(mask) != grid.active_mask:
        raise ValidationError(f"{path}: active mask inconsistent with axis sizes")
    if ncomp not in (1, n * n):
        raise ValidationError(f"{path}: component count {ncomp} not 1 or n^2")
    expected = grid.num_nodes * ncomp * 16
    payload = raw[offset:]
    if len(payload) != expected:
        raise ValidationError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{path}: payload holds non-finite values")
    shape = grid.sizes if ncomp == 1 else grid.sizes + (n, n)
    return grid, values.reshape(shape)
