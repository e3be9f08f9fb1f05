"""Lossy tensor codecs and the bit-exact serialized payload format.

Three schemes are supported for a named set of matrices:

* ``dense``: raw 64-bit values.
* ``quantized``: sign bit plus an r-bit magnitude level per element, scaled
  by the tensor's L2 norm.
* ``lowrank_quantized``: singular-value truncation first, then quantized
  left/right factors; the left factor carries the singular values.

Wire format version 2 (little-endian): magic ``CFP1``, version u16, scheme
u8, tensor count u16; per tensor: name length u16 + UTF-8 name, rows u32,
cols u32, then the scheme-specific body.  A quantized segment is bit width
u8, norm f64, sign bits, then level bits; bit width 0 alone marks an
all-zero tensor (a zero tensor has no L2 norm to quantize against).  A
low-rank body is rank u16 followed by the left and right factor segments;
rank 0 alone marks an all-zero matrix.  Matrices with a unit dimension
travel as one quantized segment under both quantized schemes.  The decoder
refuses payloads that declare more than ``_MAX_WIRE_ELEMENTS`` values in
total, quantized segments whose norm is negative, infinite or NaN, and
low-rank bodies whose factors multiply out past the float64 range.

Only the shared channel and the correction term travel; the private sparse
channel stays on its client, so no sparse encoding is defined here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from . import linalg
from .errors import BadBits, MalformedPayload, NonFiniteInput, ZeroVector

MAGIC = b"CFP1"
WIRE_VERSION = 2

SCHEME_DENSE = "dense"
SCHEME_QUANTIZED = "quantized"
SCHEME_LOWRANK = "lowrank_quantized"
_SCHEME_CODES = {SCHEME_DENSE: 0, SCHEME_QUANTIZED: 1, SCHEME_LOWRANK: 2}
_SCHEME_NAMES = {v: k for k, v in _SCHEME_CODES.items()}

# Zero and low-rank bodies expand far beyond their wire size, so the bytes
# that remain cannot bound what a payload decodes to; this cap (128 MiB of
# float64) does.  Every other body is read only after the reader has checked
# that its bytes are present.
_MAX_WIRE_ELEMENTS = 1 << 24
_UNPACK_CHUNK = 1 << 16  # levels per step of _unpack_levels


@dataclass
class QuantizedVector:
    """Norm-scaled fixed-point encoding of a real vector.

    Levels are held as uint32, which holds every width up to the 32-bit cap.
    They are clamped to ``2**r - 1`` so each fits in exactly r bits on the
    wire; a coordinate whose magnitude nearly equals the full norm therefore
    carries a saturation bias of at most ``norm / 2**r``.
    """

    r: int
    norm: float
    signs: np.ndarray  # uint8, 1 for negative coordinates
    levels: np.ndarray  # uint32 in [0, 2**r - 1]


def quantize(x, r: int) -> QuantizedVector:
    """Quantize a nonzero vector to sign bits and r-bit magnitude levels,
    rounding ``2**r * |x_i| / ||x||`` to the nearest level."""
    if not 1 <= int(r) <= 32:
        raise BadBits(f"r must be in [1, 32], got {r}")
    r = int(r)
    vec = np.asarray(x, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVector("cannot quantize a zero (or empty) vector")
    levels = np.rint((float(2**r) * np.abs(vec)) / norm)
    levels = np.minimum(levels, float(2**r - 1)).astype(np.uint32)
    signs = (vec < 0).astype(np.uint8)  # exact zeros get sign bit 0
    return QuantizedVector(r=r, norm=norm, signs=signs, levels=levels)


def dequantize(q: QuantizedVector) -> np.ndarray:
    """Reconstruct ``norm * sign_i * level_i / 2**r`` for each coordinate.

    The level is scaled to [0, 1) before the norm multiplies it, so no
    magnitude can overflow past a finite norm.
    """
    magnitudes = q.norm * (q.levels.astype(np.float64) / float(2**q.r))
    return np.where(q.signs == 1, -magnitudes, magnitudes)


def _pack_levels(levels: np.ndarray, r: int) -> bytes:
    """Concatenate the low r bits of each level, least significant first.

    Each level's four little-endian bytes unpack to 32 bits in that order,
    so the wire bits are the first r columns of an n x 32 bit matrix.
    """
    bits = np.unpackbits(levels.astype("<u4").view(np.uint8), bitorder="little")
    return np.packbits(bits.reshape(-1, 32)[:, :r], bitorder="little").tobytes()


def _unpack_levels(buf: bytes, n: int, r: int) -> np.ndarray:
    """Inverse of ``_pack_levels``: widen each r-bit field to 32 bits.

    Works ``_UNPACK_CHUNK`` levels at a time, so the bit matrices stay a few
    MiB however long the segment is; the chunk is a multiple of 8 levels, so
    each chunk's bits start on a byte boundary.
    """
    wire = np.frombuffer(buf, dtype=np.uint8)
    levels = np.empty(n, dtype="<u4")
    bits = np.zeros((min(n, _UNPACK_CHUNK), 32), dtype=np.uint8)
    for start in range(0, n, _UNPACK_CHUNK):
        m = min(_UNPACK_CHUNK, n - start)
        first = start * r // 8
        bits[:m, :r] = np.unpackbits(
            wire[first : first + (m * r + 7) // 8], bitorder="little", count=m * r
        ).reshape(m, r)
        levels[start : start + m] = np.packbits(bits[:m], bitorder="little").view("<u4")
    return levels


def _quant_segment(vec: np.ndarray, r: int) -> bytes:
    """Quantized body for one flattened tensor.

    ZeroVector covers both genuinely zero tensors and tensors so small that
    their norm underflows; both are legal model states and travel as the
    single bit-width byte 0.
    """
    try:
        q = quantize(vec, r)
    except ZeroVector:
        return b"\x00"
    sign_bytes = np.packbits(q.signs, bitorder="little").tobytes()
    return struct.pack("<Bd", q.r, q.norm) + sign_bytes + _pack_levels(q.levels, q.r)


class _Reader:
    """Cursor over a byte string that raises MalformedPayload on shortage."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise MalformedPayload(
                f"truncated payload: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.blob) - self.pos}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> bool:
        return self.pos == len(self.blob)


def _read_quant_segment(rd: _Reader, n: int) -> np.ndarray:
    (r,) = rd.unpack("<B")
    if r == 0:
        return np.zeros(n)
    if r > 32:
        raise MalformedPayload(f"quantized segment has invalid bit width {r}")
    (norm,) = rd.unpack("<d")
    if not 0.0 <= norm < math.inf:
        raise MalformedPayload(f"quantized segment has invalid norm {norm!r}")
    signs = np.unpackbits(
        np.frombuffer(rd.take((n + 7) // 8), dtype=np.uint8), bitorder="little", count=n
    )
    levels = _unpack_levels(rd.take((n * r + 7) // 8), n, r)
    return dequantize(QuantizedVector(r=r, norm=norm, signs=signs, levels=levels))


@dataclass
class CompressedPayload:
    """One serialized set of named tensors; ``blob`` is the wire image."""

    blob: bytes


def payload_bits(p: CompressedPayload) -> int:
    """Exact serialized size in bits."""
    return len(p.blob) * 8


def encode_payload(
    tensors: Dict[str, np.ndarray],
    scheme: str,
    r: int = 4,
    tau_lowrank: float = 0.0,
) -> CompressedPayload:
    """Serialize named matrices under one compression scheme.

    ``lowrank_quantized`` truncates each matrix with a relative singular
    value cutoff of ``tau_lowrank`` and ships quantized factors; matrices
    with a unit dimension (bias rows) skip the factorization and travel as a
    plain quantized segment.
    """
    if scheme not in _SCHEME_CODES:
        raise ValueError(f"unknown scheme {scheme!r}")
    parts = [MAGIC, struct.pack("<HBH", WIRE_VERSION, _SCHEME_CODES[scheme], len(tensors))]
    for name, tensor in tensors.items():
        mat = linalg.as_matrix(tensor)
        if not np.isfinite(mat).all():
            raise NonFiniteInput(f"tensor {name!r} contains NaN or Inf entries")
        encoded_name = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded_name)))
        parts.append(encoded_name)
        parts.append(struct.pack("<II", mat.shape[0], mat.shape[1]))
        if scheme == SCHEME_DENSE:
            parts.append(mat.astype("<f8").tobytes())
        elif scheme == SCHEME_QUANTIZED:
            parts.append(_quant_segment(mat.ravel(), r))
        else:
            parts.append(_lowrank_body(mat, r, tau_lowrank))
    return CompressedPayload(b"".join(parts))


def _lowrank_body(mat: np.ndarray, r: int, tau: float) -> bytes:
    if min(mat.shape) == 1:
        return _quant_segment(mat.ravel(), r)
    dec = linalg.svd(mat)
    _, rank = linalg.lowrank_truncate(dec, "relative", tau)  # 0 for a zero matrix
    body = struct.pack("<H", rank)
    if rank:
        body += _quant_segment((dec.u[:, :rank] * dec.sigma[:rank]).ravel(), r)
        body += _quant_segment(dec.v[:, :rank].ravel(), r)
    return body


def _walk(blob: bytes) -> Iterator[Tuple[str, np.ndarray]]:
    rd = _Reader(blob)
    if rd.take(4) != MAGIC:
        raise MalformedPayload("bad magic")
    version, scheme_code, count = rd.unpack("<HBH")
    if version != WIRE_VERSION:
        raise MalformedPayload(f"unsupported payload version {version}")
    if scheme_code not in _SCHEME_NAMES:
        raise MalformedPayload(f"unknown scheme code {scheme_code}")
    scheme = _SCHEME_NAMES[scheme_code]
    declared = 0
    for _ in range(count):
        (name_len,) = rd.unpack("<H")
        try:
            name = rd.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPayload("tensor name is not valid UTF-8") from exc
        rows, cols = rd.unpack("<II")
        n = rows * cols
        declared += n  # low-rank factors hold rank * (rows + cols) <= 2n values
        if declared > _MAX_WIRE_ELEMENTS:
            raise MalformedPayload(
                f"tensor {name!r} declares {rows}x{cols} values, past the "
                f"{_MAX_WIRE_ELEMENTS}-value payload limit"
            )
        if scheme == SCHEME_DENSE:
            values = np.frombuffer(rd.take(8 * n), dtype="<f8").astype(np.float64)
        elif scheme == SCHEME_QUANTIZED:
            values = _read_quant_segment(rd, n)
        else:
            values = _read_lowrank_body(rd, rows, cols)
        yield name, values.reshape(rows, cols)
    if not rd.done():
        raise MalformedPayload(f"{len(blob) - rd.pos} trailing bytes after last tensor")


def _read_lowrank_body(rd: _Reader, rows: int, cols: int) -> np.ndarray:
    if min(rows, cols) == 1:
        return _read_quant_segment(rd, rows * cols)
    (rank,) = rd.unpack("<H")
    if rank > min(rows, cols):
        raise MalformedPayload(f"invalid retained rank {rank} for {rows}x{cols}")
    if rank == 0:
        return np.zeros(rows * cols)
    left = _read_quant_segment(rd, rows * rank).reshape(rows, rank)
    right = _read_quant_segment(rd, cols * rank).reshape(cols, rank)
    # Each factor is bounded by its finite norm, but their product is not.
    with np.errstate(over="ignore", invalid="ignore"):
        product = left @ right.T
    if not np.isfinite(product).all():
        raise MalformedPayload(f"low-rank factors of a {rows}x{cols} matrix overflow")
    return product.ravel()


def decode_payload(payload) -> Dict[str, np.ndarray]:
    """Reconstruct named matrices from a payload or raw wire bytes."""
    blob = payload.blob if isinstance(payload, CompressedPayload) else bytes(payload)
    return dict(_walk(blob))
