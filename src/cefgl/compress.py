"""Lossy tensor codecs and the bit-exact serialized payload format.

Three schemes are supported for a named set of matrices:

* ``dense``: raw 64-bit values.
* ``quantized``: an r-bit magnitude level per element, scaled by the
  tensor's L2 norm, plus a sign bit per nonzero level; the levels travel
  Golomb-Rice coded, which loses nothing.
* ``lowrank_quantized``: singular-value truncation first, then quantized
  left/right factors; the left factor carries the singular values.

Wire format version 5 (little-endian): magic ``CFP1``, version u16, tensor
count u16; per tensor: name length u16 + UTF-8 name, rows u32, cols u32,
then a body whose first byte says what it holds, so only the encoder knows
the scheme.  Bit streams are packed least significant bit first and padded
to whole bytes.

* **0**: an all-zero tensor (a zero tensor has no L2 norm to quantize
  against).
* **1..32**: a quantized segment of bit width r: norm f64, then the Rice
  parameter k <= r u8, the unary stream (per level, ``level >> k`` zero
  bits and a 1, padded with 0 bits to the end of the byte that holds the
  last 1), the low k bits of each level, and one sign bit per nonzero
  level.  At k = r every quotient is 0 and no unary stream travels.  The
  encoder writes the least k < r that minimises the level bits, or k = r
  where that is no longer.
* **0xFE**: low-rank factors: rank u16, then the left (rows x rank) and
  right (cols x rank) factors, each a segment of the two kinds above.
  Factors of rank k travel only when they hold fewer values than the
  matrix, 0 < k * (rows + cols) < rows * cols, and their body is also the
  shorter one; otherwise the matrix travels as one quantized segment.
  Matrices with a unit dimension are never factored.
* **0xFF**: ``rows * cols`` float64 values.

The decoder refuses any other first byte; payloads that declare more than
``_MAX_WIRE_ELEMENTS`` values in total; quantized segments whose norm is
negative, infinite or NaN, whose k is above r, whose unary stream runs out
of bytes or has bits set after its last terminator, or whose levels reach
2**r; low-rank bodies whose rank breaks the bound above or whose factors
multiply out past the float64 range; and dense bodies holding NaN or Inf.

Only changes of the shared channel travel: up, each client's drift-corrected
step, which folds in its correction term; down, the broadcast's change.  The
private sparse channel stays on its client, so no sparse encoding is defined
here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from . import linalg
from .errors import BadBits, MalformedPayload, NonFiniteInput, ZeroVector

MAGIC = b"CFP1"
WIRE_VERSION = 5
# First bytes of a factored and a dense body; 0..32 start a quantized one.
_FACTORS = 0xFE
_DENSE = 0xFF

SCHEME_DENSE = "dense"
SCHEME_QUANTIZED = "quantized"
SCHEME_LOWRANK = "lowrank_quantized"
_SCHEMES = (SCHEME_DENSE, SCHEME_QUANTIZED, SCHEME_LOWRANK)

# Zero and low-rank bodies expand far beyond their wire size, so the bytes
# that remain cannot bound what a payload decodes to; this cap (128 MiB of
# float64) does.  Every other body is read only after the reader has checked
# that its bytes are present.
_MAX_WIRE_ELEMENTS = 1 << 24
_UNPACK_CHUNK = 1 << 16  # levels per step of _unpack_levels; bytes of _Reader.unary


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
    signs: np.ndarray  # uint8, 1 for negative coordinates of nonzero level
    levels: np.ndarray  # uint32 in [0, 2**r - 1]


def quantize(x, r: int) -> QuantizedVector:
    """Quantize a nonzero vector to sign bits and r-bit magnitude levels,
    rounding ``2**r * |x_i| / ||x||`` to the nearest level."""
    if not 1 <= int(r) <= 32:
        raise BadBits(f"r must be in [1, 32], got {r}")
    r = int(r)
    vec = np.asarray(x, dtype=np.float64).ravel()
    norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's own sum, without its checks
    if norm == 0.0:
        raise ZeroVector("cannot quantize a zero (or empty) vector")
    scaled = np.abs(vec)  # then 2**r * |x_i| / ||x||, rounded, in place
    scaled *= float(2**r)
    scaled /= norm
    np.rint(scaled, out=scaled)
    levels = np.minimum(scaled, float(2**r - 1), out=scaled).astype(np.uint32)
    # A level 0 gets sign bit 0, so it decodes to +0.0 and need not travel.
    signs = ((vec < 0) & (levels != 0)).astype(np.uint8)
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

    A width of 8, 16 or 32 bits is a plain little-endian cast.  Otherwise
    each octet of levels fills exactly r bytes: its levels are ORed at bit
    offsets 0, r, ..., 7r into little-endian uint64 words, and the first r
    bytes of those words are cut out.  The last octet is padded with zero
    levels.
    """
    n = levels.size
    if r in (8, 16, 32):
        return levels.astype(f"<u{r // 8}").tobytes()
    rows = -(-n // 8)
    octets = np.zeros(8 * rows, dtype=np.uint64)
    np.bitwise_and(levels, (1 << r) - 1, out=octets[:n])
    octets = octets.reshape(rows, 8)
    words = np.zeros((rows, (8 * r + 63) // 64), dtype="<u8")
    for j in range(8):
        w, s = divmod(j * r, 64)
        words[:, w] |= octets[:, j] << np.uint64(s)
        if s + r > 64:  # the level straddles two words
            words[:, w + 1] |= octets[:, j] >> np.uint64(64 - s)
    return words.view(np.uint8)[:, :r].tobytes()[: (n * r + 7) // 8]


def _unpack_levels(buf: bytes, n: int, r: int) -> np.ndarray:
    """Inverse of ``_pack_levels``: widen each r-bit field to 32 bits.

    Takes the same two routes.  The word route works ``_UNPACK_CHUNK``
    levels at a time, so its matrices stay a few MiB however long the
    segment is; the chunk is a multiple of 8 levels, so each chunk starts
    on a byte boundary.
    """
    if r in (8, 16, 32):
        return np.frombuffer(buf, dtype=f"<u{r // 8}").astype(np.uint32)
    wire = np.frombuffer(buf, dtype=np.uint8)
    levels = np.empty(n, dtype=np.uint32)
    mask = np.uint64((1 << r) - 1)
    for start in range(0, n, _UNPACK_CHUNK):
        m = min(_UNPACK_CHUNK, n - start)
        rows = -(-m // 8)
        first = start * r // 8
        part = wire[first : first + (m * r + 7) // 8]
        octet_bytes = np.zeros(rows * r, dtype=np.uint8)
        octet_bytes[: part.size] = part
        raw = np.zeros((rows, 8 * ((8 * r + 63) // 64)), dtype=np.uint8)
        raw[:, :r] = octet_bytes.reshape(rows, r)
        words = raw.view("<u8")
        octets = np.empty((rows, 8), dtype=np.uint64)
        for j in range(8):
            w, s = divmod(j * r, 64)
            octets[:, j] = words[:, w] >> np.uint64(s)
            if s + r > 64:
                octets[:, j] |= words[:, w + 1] << np.uint64(64 - s)
        levels[start : start + m] = (octets.reshape(-1)[:m] & mask).astype(np.uint32)
    return levels


def _rice_parameter(levels: np.ndarray, r: int) -> Tuple[int, int]:
    """The least k in [0, r) that minimises the Rice code's level bits,
    n * k remainder bits plus S_k + n unary bits with S_k = sum(levels >> k),
    and that S_k.

    With m the mean level and k0 = floor(log2(floor(m))), only k0 - 1, k0
    and k0 + 1 can win.  The bit count is convex in k.  It rises from k0 + 1
    on, since S_k < n once 2**k > m; it falls up to k0 - 1, since S_k > 2 n
    once 2**k <= m / 4.
    """
    n = levels.size
    k0 = (int(levels.sum(dtype=np.uint64)) // n).bit_length() - 1
    first = max(k0 - 1, 0)
    quotients = levels >> first
    best = None
    for k in range(first, min(k0 + 2, r)):
        if k > first:
            quotients >>= 1
        quotient_sum = int(quotients.sum(dtype=np.uint64))
        if best is None or n * k + quotient_sum < n * best[0] + best[1]:
            best = (k, quotient_sum)
    return best


def _quant_segment(vec: np.ndarray, r: int) -> bytes:
    """Quantized segment of one flattened tensor under the best Rice
    parameter k < r, or under k = r, without a unary stream, when that is
    no longer.

    ZeroVector covers both genuinely zero tensors and tensors so small that
    their norm underflows; both are legal model states and travel as the
    single bit-width byte 0.
    """
    try:
        q = quantize(vec, r)
    except ZeroVector:
        return b"\x00"
    n = q.levels.size
    k, quotient_sum = _rice_parameter(q.levels, q.r)
    unary_bits = quotient_sum + n
    if (unary_bits + 7) // 8 + (n * k + 7) // 8 >= (n * q.r + 7) // 8:
        k, unary = q.r, b""
    else:
        # Level i's terminator follows its own and the earlier levels' codes.
        ends = (q.levels >> k).astype(np.int64)
        ends += 1
        np.cumsum(ends, out=ends)
        ends -= 1
        bits = np.zeros(unary_bits, dtype=np.uint8)
        bits[ends] = 1
        unary = _pack_bits(bits)
    remainders = _pack_levels(q.levels, k) if k else b""
    signs = _pack_bits(q.signs[q.levels != 0])
    return b"".join([struct.pack("<BdB", q.r, q.norm, k), unary, remainders, signs])


def _pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(bits, bitorder="little").tobytes()


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

    def bits(self, count: int) -> np.ndarray:
        """The next ``count`` bits, as packed by ``_pack_bits``."""
        wire = np.frombuffer(self.take((count + 7) // 8), dtype=np.uint8)
        return np.unpackbits(wire, bitorder="little", count=count)

    def unary(self, n: int) -> np.ndarray:
        """The next n unary codes as quotients, each the count of 0 bits
        before its terminating 1 bit.  The stream ends with the byte that
        holds the n-th 1, whose later bits must be 0.

        The stream has no length field, so it is scanned in chunks, each
        twice as long as the one before and at most ``_UNPACK_CHUNK``
        bytes, so a long run of zeros costs no more memory than a short
        one.  The first chunk holds four bits per code, which covers every
        stream the encoder writes below that cap: its k keeps the sum of
        the quotients below 3 n.
        """
        if 8 * (len(self.blob) - self.pos) < n:
            raise MalformedPayload(
                f"{len(self.blob) - self.pos} bytes cannot hold {n} unary codes"
            )
        wire = np.frombuffer(self.blob, dtype=np.uint8)
        ends = np.empty(n, dtype=np.int64)
        found, start, step = 0, self.pos, (n + 1) // 2
        while found < n:
            if start >= wire.size:
                raise MalformedPayload(f"unary stream holds {found} of {n} terminators")
            step = min(step, _UNPACK_CHUNK)
            bits = np.unpackbits(wire[start : start + step], bitorder="little")
            at = np.flatnonzero(bits.view(bool))[: n - found]
            np.add(at, 8 * (start - self.pos), out=ends[found : found + at.size])
            found += at.size
            start += step
            step *= 2
        if n:
            last_byte, last_bit = divmod(int(ends[-1]), 8)
            if wire[self.pos + last_byte] >> (last_bit + 1):
                raise MalformedPayload("unary stream has bits set after its last terminator")
            self.pos += last_byte + 1
        ends[1:] -= ends[:-1] + 1  # terminator positions to quotients
        return ends

    def done(self) -> bool:
        return self.pos == len(self.blob)


def _read_body(rd: _Reader, rows: int, cols: int) -> np.ndarray:
    """The flattened values of one tensor body, by its first byte."""
    n = rows * cols
    (tag,) = rd.unpack("<B")
    if tag == _DENSE:
        values = np.frombuffer(rd.take(8 * n), dtype="<f8").astype(np.float64)
        if not np.isfinite(values).all():
            raise MalformedPayload("dense body holds NaN or Inf")
        return values
    if tag != _FACTORS:
        return _read_segment(rd, n, tag)
    (rank,) = rd.unpack("<H")
    if not 0 < rank * (rows + cols) < n:
        raise MalformedPayload(f"invalid retained rank {rank} for {rows}x{cols}")
    left = _read_segment(rd, rows * rank, *rd.unpack("<B")).reshape(rows, rank)
    right = _read_segment(rd, cols * rank, *rd.unpack("<B")).reshape(cols, rank)
    # Each factor is bounded by its finite norm, but their product is not.
    with np.errstate(over="ignore", invalid="ignore"):
        product = left @ right.T
    if not np.isfinite(product).all():
        raise MalformedPayload(f"low-rank factors of a {rows}x{cols} matrix overflow")
    return product.ravel()


def _read_segment(rd: _Reader, n: int, r: int) -> np.ndarray:
    """The values of a quantized segment whose first byte, r, is read."""
    if r == 0:
        return np.zeros(n)
    if r > 32:
        raise MalformedPayload(f"invalid body byte {r}")
    norm, k = rd.unpack("<dB")
    if not 0.0 <= norm < math.inf:
        raise MalformedPayload(f"quantized segment has invalid norm {norm!r}")
    levels = _read_rice_levels(rd, n, r, k)
    nonzero = levels != 0
    signs = np.zeros(n, dtype=np.uint8)
    signs[nonzero] = rd.bits(int(np.count_nonzero(nonzero)))
    return dequantize(QuantizedVector(r=r, norm=norm, signs=signs, levels=levels))


def _read_rice_levels(rd: _Reader, n: int, r: int, k: int) -> np.ndarray:
    """Levels under Rice parameter k; refuses any level of 2**r or more, so
    that each decoded magnitude stays within the segment's norm."""
    if k > r:
        raise MalformedPayload(f"Rice parameter {k} is above the bit width {r}")
    if k == r:  # every quotient is 0, so no unary stream travels
        return _unpack_levels(rd.take((n * r + 7) // 8), n, r)
    quotients = rd.unary(n)
    if int(quotients.max(initial=0)) >> (r - k):
        raise MalformedPayload(f"Rice-coded level does not fit in {r} bits")
    levels = (quotients << k).astype(np.uint32)
    if k:
        levels |= _unpack_levels(rd.take((n * k + 7) // 8), n, k)
    return levels


@dataclass
class CompressedPayload:
    """One serialized set of named tensors; ``blob`` is the wire image.

    ``ranks`` maps each matrix that the low-rank scheme could factor to the
    rank its encoder kept; a plain matrix counts as full rank, min(rows,
    cols), and a zero one as 0.
    """

    blob: bytes
    ranks: Dict[str, int] = field(default_factory=dict, compare=False)


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
    value cutoff of ``tau_lowrank`` and ships quantized factors when their
    body is shorter than the plain quantized matrix, which it ships
    otherwise; matrices with a unit dimension (bias rows) skip the
    factorization and travel as a plain quantized segment.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    parts = [MAGIC, struct.pack("<HH", WIRE_VERSION, len(tensors))]
    ranks: Dict[str, int] = {}
    for name, tensor in tensors.items():
        mat = linalg.as_matrix(tensor)
        if not np.isfinite(mat).all():
            raise NonFiniteInput(f"tensor {name!r} contains NaN or Inf entries")
        encoded_name = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded_name)))
        parts.append(encoded_name)
        parts.append(struct.pack("<II", mat.shape[0], mat.shape[1]))
        if scheme == SCHEME_DENSE:
            parts.append(bytes([_DENSE]) + mat.astype("<f8").tobytes())
        elif scheme == SCHEME_QUANTIZED or min(mat.shape) == 1:
            parts.append(_quant_segment(mat.ravel(), r))
        else:
            ranks[name], body = _lowrank_body(mat, r, tau_lowrank)
            parts.append(body)
    return CompressedPayload(b"".join(parts), ranks)


def _lowrank_body(mat: np.ndarray, r: int, tau: float) -> Tuple[int, bytes]:
    """The factors' body or the plain segment, whichever is shorter, and the
    rank it carries; a cutoff that keeps no triple sends a zero tensor."""
    left, right = linalg.lowrank_truncate(linalg.svd(mat), tau)
    rank = left.shape[1]  # 0 for a zero matrix
    if rank == 0:
        return 0, b"\x00"
    plain = _quant_segment(mat.ravel(), r)
    if rank * sum(mat.shape) < mat.size:  # else the factors cannot be shorter
        body = struct.pack("<BH", _FACTORS, rank)
        body += _quant_segment(left.ravel(), r)
        body += _quant_segment(right.ravel(), r)
        if len(body) < len(plain):
            return rank, body
    return min(mat.shape), plain


def _walk(blob: bytes) -> Iterator[Tuple[str, np.ndarray]]:
    rd = _Reader(blob)
    if rd.take(4) != MAGIC:
        raise MalformedPayload("bad magic")
    version, count = rd.unpack("<HH")
    if version != WIRE_VERSION:
        raise MalformedPayload(f"unsupported payload version {version}")
    declared = 0
    for _ in range(count):
        (name_len,) = rd.unpack("<H")
        try:
            name = rd.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPayload("tensor name is not valid UTF-8") from exc
        rows, cols = rd.unpack("<II")
        declared += rows * cols  # low-rank factors hold fewer values
        if declared > _MAX_WIRE_ELEMENTS:
            raise MalformedPayload(
                f"tensor {name!r} declares {rows}x{cols} values, past the "
                f"{_MAX_WIRE_ELEMENTS}-value payload limit"
            )
        yield name, _read_body(rd, rows, cols).reshape(rows, cols)
    if not rd.done():
        raise MalformedPayload(f"{len(blob) - rd.pos} trailing bytes after last tensor")


def decode_payload(payload) -> Dict[str, np.ndarray]:
    """Reconstruct named matrices from a payload or raw wire bytes."""
    blob = payload.blob if isinstance(payload, CompressedPayload) else bytes(payload)
    return dict(_walk(blob))
