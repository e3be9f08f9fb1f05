"""Lossy tensor codecs and the bit-exact serialized payload format.

Three schemes are supported for a named set of matrices:

* ``dense``: raw 64-bit values.
* ``quantized``: an r-bit magnitude level per element, scaled by the
  tensor's L2 norm, plus a sign bit per nonzero level; the levels travel
  Golomb-Rice coded, which loses nothing.
* ``lowrank_quantized``: singular-value truncation first, then quantized
  left/right factors; the left factor carries the singular values.

Wire format version 6 (little-endian): magic ``CFP1``, version u16, the
4-byte ``_schema_check`` of the tensors' names and shapes, then one body
per tensor.  Names and shapes do not travel: the decoder takes them from
``like``, the receiver's own tensors, and reads the bodies in its order.
A body's first byte says what it holds, so only the encoder knows the
scheme.  Bit streams are packed least significant bit first and padded to
whole bytes.

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

The encoder codes the quantized segments of a payload, low-rank factor
candidates included, together: one pass scales, rounds and signs their
values, picks their Rice parameters and packs their streams, a pass taking
at most ``_PASS_VALUES`` values.  The decoder reads, range-checks,
dequantizes and signs each segment in turn, as only its levels tell where
the next begins, and multiplies a body's factors as soon as both are read.

The decoder refuses a schema check other than ``like``'s (a payload
encoded for other names, shapes or order); any other first byte; bytes
after the last body; quantized segments whose norm is negative, infinite
or NaN, whose k is above r, whose unary stream runs out of bytes or has
bits set after its last terminator, or whose levels reach 2**r; low-rank
bodies whose rank breaks the bound above or whose factors multiply out
past the float64 range; and dense bodies holding NaN or Inf.  Sizes come
from ``like``, never from the wire.

Only changes of the shared channel travel: up, each client's drift-corrected
step, which folds in its correction term; down, the broadcast's change.  The
private sparse channel stays on its client, so no sparse encoding is defined
here.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import BadBits, MalformedPayload, NonFiniteInput, ZeroVector

MAGIC = b"CFP1"
WIRE_VERSION = 6
# First bytes of a factored and a dense body; 0..32 start a quantized one.
_FACTORS = 0xFE
_DENSE = 0xFF

SCHEME_DENSE = "dense"
SCHEME_QUANTIZED = "quantized"
SCHEME_LOWRANK = "lowrank_quantized"
_SCHEMES = (SCHEME_DENSE, SCHEME_QUANTIZED, SCHEME_LOWRANK)

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
    r = _check_bits(r)
    vec = np.asarray(x, dtype=np.float64).ravel()
    norm = _norm(vec)
    if norm == 0.0:
        raise ZeroVector("cannot quantize a zero (or empty) vector")
    levels = _levels(np.abs(vec), [0, vec.size], [norm], r)
    # A level 0 gets sign bit 0, so it decodes to +0.0 and need not travel.
    signs = ((vec < 0) & (levels != 0)).astype(np.uint8)
    return QuantizedVector(r=r, norm=norm, signs=signs, levels=levels)


def dequantize(q: QuantizedVector) -> np.ndarray:
    """Reconstruct ``norm * sign_i * level_i / 2**r`` for each coordinate."""
    return _dequantize(q.levels, q.r, q.norm, np.flatnonzero(q.signs))


def _norm(vec: np.ndarray) -> float:
    """The L2 norm of a flat vector, summed by numpy's own pairwise
    reduction: ``vec.dot(vec)`` goes to BLAS, whose sum order, and so its
    last bit, depends on the thread count."""
    return math.sqrt(float(np.add.reduce(vec * vec)))


def _check_bits(r) -> int:
    if not 1 <= int(r) <= 32:
        raise BadBits(f"r must be in [1, 32], got {r}")
    return int(r)


def _levels(
    magnitudes: np.ndarray, bounds: Sequence[int], norms: Sequence[float], r: int
) -> np.ndarray:
    """``2**r * |x_i| / ||x||`` rounded to the nearest level and clamped to
    ``2**r - 1``, for consecutive segments of ``magnitudes`` (segment s
    spans ``bounds[s]:bounds[s + 1]`` and has norm ``norms[s]``), which are
    scaled in place."""
    magnitudes *= float(2**r)
    for start, stop, norm in zip(bounds, bounds[1:], norms):
        magnitudes[start:stop] /= norm
    np.rint(magnitudes, out=magnitudes)
    return np.minimum(magnitudes, float(2**r - 1), out=magnitudes).astype(np.uint32)


def _dequantize(levels: np.ndarray, r: int, norm: float, negative: np.ndarray) -> np.ndarray:
    """``norm * sign * level / 2**r``, where ``negative`` indexes the values
    that take a minus sign.

    The level is scaled to [0, 1) before the norm multiplies it, so no
    magnitude can overflow past a finite norm.
    """
    values = levels.astype(np.float64)
    values /= float(2**r)
    values *= norm
    values[negative] *= -1.0
    return values


@functools.lru_cache(maxsize=None)
def _octet_fields(r: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the 8 r-bit fields of an octet of levels sit in its uint64
    words: each field's word and bit offset in it, the first field of each
    word, and the fields that straddle into the next word."""
    offsets = np.arange(8) * r
    word, shift = offsets // 64, (offsets % 64).astype(np.uint64)
    firsts = np.flatnonzero(np.diff(word, prepend=-1))
    return word, shift, firsts, np.flatnonzero(shift + r > 64)


def _pack_levels(levels: np.ndarray, r: int) -> bytes:
    """Concatenate the low r bits of each level, least significant first.

    A width of 8, 16 or 32 bits is a plain little-endian cast.  Otherwise
    each octet of levels fills exactly r bytes: its levels are shifted to
    bit offsets 0, r, ..., 7r, ORed into little-endian uint64 words, and the
    first r bytes of those words are cut out.  The last octet is padded with
    zero levels.
    """
    n = levels.size
    if r in (8, 16, 32):
        return levels.astype(f"<u{r // 8}").tobytes()
    rows = -(-n // 8)
    octets = np.zeros(8 * rows, dtype=np.uint64)
    np.bitwise_and(levels, (1 << r) - 1, out=octets[:n])
    octets = octets.reshape(rows, 8)
    word, shift, firsts, straddle = _octet_fields(r)
    words = np.zeros((rows, (8 * r + 63) // 64), dtype="<u8")
    words[:, word[firsts]] = np.bitwise_or.reduceat(octets << shift, firsts, axis=1)
    if straddle.size:
        words[:, word[straddle] + 1] |= octets[:, straddle] >> (64 - shift[straddle])
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
    word, shift, _, straddle = _octet_fields(r)
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
        octets = words[:, word] >> shift
        if straddle.size:
            octets[:, straddle] |= words[:, word[straddle] + 1] << (64 - shift[straddle])
        levels[start : start + m] = (octets.reshape(-1)[:m] & mask).astype(np.uint32)
    return levels


def _rice_parameters(levels: np.ndarray, bounds: Sequence[int], r: int) -> List[Tuple[int, int]]:
    """For each segment of ``levels`` (segment s spans
    ``bounds[s]:bounds[s + 1]``), the least k in [0, r) that minimises the
    Rice code's level bits, n * k remainder bits plus S_k + n unary bits
    with S_k = sum(levels >> k), and that S_k.

    With m the mean level and k0 = floor(log2(floor(m))), only k0 - 1, k0
    and k0 + 1 can win.  The bit count is convex in k.  It rises from k0 + 1
    on, since S_k < n once 2**k > m; it falls up to k0 - 1, since S_k > 2 n
    once 2**k <= m / 4.  Each of the sums is taken for every segment at once.
    """
    starts = bounds[:-1]
    sizes = [stop - start for start, stop in zip(bounds, bounds[1:])]
    totals = np.add.reduceat(levels, starts, dtype=np.uint64).tolist()
    k0s = [(total // n).bit_length() - 1 for total, n in zip(totals, sizes)]
    firsts = [max(k0 - 1, 0) for k0 in k0s]
    quotients = np.empty_like(levels)
    for start, stop, first in zip(bounds, bounds[1:], firsts):
        np.right_shift(levels[start:stop], first, out=quotients[start:stop])
    sums = [np.add.reduceat(quotients, starts, dtype=np.uint64).tolist()]
    for _ in range(2):
        quotients >>= 1
        sums.append(np.add.reduceat(quotients, starts, dtype=np.uint64).tolist())
    best = []
    for seg, (n, k0, first) in enumerate(zip(sizes, k0s, firsts)):
        choice = None
        for k in range(first, min(k0 + 2, r)):
            quotient_sum = sums[k - first][seg]
            if choice is None or n * k + quotient_sum < n * choice[0] + choice[1]:
                choice = (k, quotient_sum)
        best.append(choice)
    return best


# Zero levels that fill a segment's last octet, and zero bits that fill a
# stream's last byte.
_PAD_LEVELS = np.zeros(7, dtype=np.uint32)
_PAD_BITS = np.zeros(7, dtype=bool)
_PAD_LEVELS.setflags(write=False)
_PAD_BITS.setflags(write=False)
# Values per coding pass.  A pass's temporaries grow with its values, so a
# cap keeps them near those of one large tensor.
_PASS_VALUES = 1 << 14


def _passes(sizes: Sequence[int]) -> List[List[int]]:
    """Segment indices grouped into coding passes, smallest segments first;
    a pass holds at most ``_PASS_VALUES`` values unless one segment does."""
    passes, total = [], 0
    for i in sorted(range(len(sizes)), key=sizes.__getitem__):
        if not passes or total + sizes[i] > _PASS_VALUES:
            passes.append([])
            total = 0
        passes[-1].append(i)
        total += sizes[i]
    return passes


def _quant_segments(vecs: Sequence[np.ndarray], r: int) -> List[bytes]:
    """The quantized segments of flattened tensors at bit width r.

    Each segment has its own norm and the best Rice parameter k < r, or
    k = r, without a unary stream, when that is no longer.  ZeroVector's
    case, a genuinely zero tensor or one so small that its norm underflows,
    is a legal model state and travels as the single bit-width byte 0.  The
    others are coded together, in as few passes as ``_passes`` allows.
    """
    if not vecs:
        return []
    r = _check_bits(r)
    norms = [_norm(v) for v in vecs]  # as quantize takes it, per tensor
    out = [b"\x00"] * len(vecs)
    live = [i for i, norm in enumerate(norms) if norm != 0.0]
    for batch in _passes([vecs[i].size for i in live]):
        picked = [live[j] for j in batch]
        coded = _code_pass([vecs[i] for i in picked], [norms[i] for i in picked], r)
        for i, segment in zip(picked, coded):
            out[i] = segment
    return out


def _code_pass(vecs: Sequence[np.ndarray], norms: Sequence[float], r: int) -> List[bytes]:
    """Nonzero flattened tensors coded in one pass over their concatenated
    values: each divides by its own norm, the scaling, rounding, sign bits
    and Rice sums run once for all, the unary and sign streams of every
    segment are packed together and the remainders once per width.  Each
    stream starts on a byte boundary."""
    sizes = [v.size for v in vecs]
    bounds = list(itertools.accumulate(sizes, initial=0))
    values = np.concatenate(vecs)
    negative = values < 0
    levels = _levels(np.abs(values, out=values), bounds, norms, r)
    del values
    nonzero = levels != 0
    counts = [int(np.count_nonzero(nonzero[a:b])) for a, b in zip(bounds, bounds[1:])]
    signs = negative[nonzero]

    ks, unary_bits = [], []
    for n, (k, quotient_sum) in zip(sizes, _rice_parameters(levels, bounds, r)):
        unary = quotient_sum + n
        if (unary + 7) // 8 + (n * k + 7) // 8 >= (n * r + 7) // 8:
            k, unary = r, 0
        ks.append(k)
        unary_bits.append(unary)
    # Level i's terminator follows its own and the earlier levels' codes.
    rice = [seg for seg, k in enumerate(ks) if k < r]
    ends = np.empty(sum(sizes[seg] for seg in rice), dtype=np.int64)
    at = 0
    for seg in rice:
        part = levels[bounds[seg] : bounds[seg + 1]]
        np.right_shift(part, ks[seg], out=ends[at : at + sizes[seg]])
        at += sizes[seg]
    ends += 1
    np.cumsum(ends, out=ends)
    ends -= 1
    unary = np.zeros(sum(unary_bits), dtype=bool)
    unary[ends] = True
    del ends

    pieces, u, c = [], 0, 0
    for ub, count in zip(unary_bits, counts):
        pieces += [unary[u : u + ub], _PAD_BITS[: -ub % 8]]
        pieces += [signs[c : c + count], _PAD_BITS[: -count % 8]]
        u, c = u + ub, c + count
    streams = np.packbits(np.concatenate(pieces), bitorder="little").tobytes()

    remainders = [b""] * len(ks)
    for width in sorted(set(ks) - {0}):
        group = [seg for seg, k in enumerate(ks) if k == width]
        parts = []
        for seg in group:
            parts += [levels[bounds[seg] : bounds[seg + 1]], _PAD_LEVELS[: -sizes[seg] % 8]]
        packed = _pack_levels(np.concatenate(parts) if len(group) > 1 else parts[0], width)
        at = 0
        for seg in group:
            remainders[seg] = packed[at : at + (sizes[seg] * width + 7) // 8]
            at += (sizes[seg] + 7) // 8 * width

    out, at = [], 0
    for norm, k, ub, count, rem in zip(norms, ks, unary_bits, counts, remainders):
        u, g = (ub + 7) // 8, (count + 7) // 8
        head = struct.pack("<BdB", r, norm, k)
        out.append(b"".join([head, streams[at : at + u], rem, streams[at + u : at + u + g]]))
        at += u + g
    return out


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


def _read_segment(rd: _Reader, n: int, r: int) -> np.ndarray:
    """The values of a quantized segment whose first byte, r, is read: zeros
    for r = 0.  Refuses any level of 2**r or more, so that each decoded
    magnitude stays within the segment's norm."""
    if r == 0:
        return np.zeros(n)
    if r > 32:
        raise MalformedPayload(f"invalid body byte {r}")
    norm, k = rd.unpack("<dB")
    if not 0.0 <= norm < math.inf:
        raise MalformedPayload(f"quantized segment has invalid norm {norm!r}")
    if k > r:
        raise MalformedPayload(f"Rice parameter {k} is above the bit width {r}")
    if k == r:  # every quotient is 0, so no unary stream travels
        levels = _unpack_levels(rd.take((n * r + 7) // 8), n, r)
    else:
        levels = rd.unary(n)
        if int(levels.max(initial=0)) >> (r - k):
            raise MalformedPayload(f"Rice-coded level does not fit in {r} bits")
        if k:
            levels <<= k
            levels |= _unpack_levels(rd.take((n * k + 7) // 8), n, k)
    # On random masks, numpy finds the True positions of a bool array and
    # gathers by them faster than it takes nonzeros or a masked index.
    nonzero = np.flatnonzero(levels != 0)
    wire = np.frombuffer(rd.take((nonzero.size + 7) // 8), dtype=np.uint8)
    signs = np.unpackbits(wire, count=nonzero.size, bitorder="little").view(bool)
    return _dequantize(levels, r, norm, nonzero[np.flatnonzero(signs)])


def _read_body(rd: _Reader, rows: int, cols: int) -> np.ndarray:
    """The values of one tensor body, by its first byte."""
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
    return product


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


def _schema_check(shapes: Iterable[Tuple[str, Tuple[int, int]]]) -> bytes:
    """The first 4 bytes of a SHA-256 over each tensor's UTF-8 name length
    u16, name, rows u32 and cols u32, in order."""
    digest = hashlib.sha256()
    for name, (rows, cols) in shapes:
        encoded = name.encode("utf-8")
        digest.update(struct.pack("<H", len(encoded)) + encoded + struct.pack("<II", rows, cols))
    return digest.digest()[:4]


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
    factorization and travel as a plain quantized segment.  Every quantized
    segment of the payload, factor candidates included, is coded in one
    pass.  Names and shapes travel only as the schema check, so the
    receiver decodes against tensors of the same names and shapes, in the
    same order.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    # A plan is a finished body, or the name, first segment index and the
    # rank of the factors that follow that segment (0 for none) of a body
    # still to be coded.
    shapes, plans, vecs = [], [], []
    ranks: Dict[str, int] = {}
    for name, tensor in tensors.items():
        mat = linalg.as_matrix(tensor)
        if not np.isfinite(mat).all():
            raise NonFiniteInput(f"tensor {name!r} contains NaN or Inf entries")
        shapes.append((name, mat.shape))
        if scheme == SCHEME_DENSE:
            plans.append(bytes([_DENSE]) + mat.astype("<f8").tobytes())
            continue
        rank = 0
        if scheme == SCHEME_LOWRANK and min(mat.shape) > 1:
            left, right = linalg.lowrank_truncate(linalg.svd(mat), tau_lowrank)
            if left.shape[1] == 0:  # a cutoff that keeps no triple sends a zero tensor
                ranks[name] = 0
                plans.append(b"\x00")
                continue
            ranks[name] = min(mat.shape)  # unless the factors turn out shorter
            # Factors of rank k hold k * (rows + cols) values; else they cannot be shorter.
            if left.shape[1] * sum(mat.shape) < mat.size:
                rank = left.shape[1]
        plans.append((name, len(vecs), rank))
        vecs.append(mat.ravel())
        if rank:
            vecs += [left.ravel(), right.ravel()]
    segments = _quant_segments(vecs, r)

    parts = [MAGIC, struct.pack("<H", WIRE_VERSION), _schema_check(shapes)]
    for plan in plans:
        if isinstance(plan, tuple):
            name, seg, rank = plan
            body = segments[seg]
            if rank:
                factors = segments[seg + 1] + segments[seg + 2]
                factored = struct.pack("<BH", _FACTORS, rank) + factors
                if len(factored) < len(body):
                    body, ranks[name] = factored, rank
            plan = body
        parts.append(plan)
    return CompressedPayload(b"".join(parts), ranks)


def decode_payload(payload, like: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Reconstruct the matrices of a payload, or of raw wire bytes, encoded
    from tensors named and shaped as ``like``'s, in its order; only their
    names and shapes are read."""
    blob = payload.blob if isinstance(payload, CompressedPayload) else bytes(payload)
    rd = _Reader(blob)
    if rd.take(4) != MAGIC:
        raise MalformedPayload("bad magic")
    (version,) = rd.unpack("<H")
    if version != WIRE_VERSION:
        raise MalformedPayload(f"unsupported payload version {version}")
    shapes = [(name, values.shape) for name, values in like.items()]
    if rd.take(4) != _schema_check(shapes):
        raise MalformedPayload("schema check differs: the payload holds other tensors")
    out = {name: _read_body(rd, *shape).reshape(shape) for name, shape in shapes}
    if not rd.done():
        raise MalformedPayload(f"{len(blob) - rd.pos} trailing bytes after last tensor")
    return out
