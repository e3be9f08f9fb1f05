"""Lossy tensor codecs and the bit-exact serialized payload format.

Three schemes are supported for a named set of matrices:

* ``dense``: raw 64-bit values.
* ``quantized``: an r-bit magnitude level per element, scaled by the
  tensor's L2 norm, plus a sign bit per nonzero level; the levels travel
  Golomb-Rice coded, which loses nothing.
* ``lowrank_quantized``: singular-value truncation first, then quantized
  left/right factors; the left factor carries the singular values.

Wire format version 8 (little-endian): magic ``CFP1``, version u8, the bit
width r u8 of every quantized segment, and the 4-byte ``_schema_check`` of
the tensors' names and shapes.  Names and shapes do not travel: the decoder
takes them from ``like``, the receiver's own tensors, and reads the bodies
in its order.  Then comes each tensor's body head, in tensor order, and
after the last head the bit streams of every quantized segment in the
payload.  A head's first byte, its tag, says what the body holds, so only
the encoder knows the scheme:

* **0**: an all-zero tensor (a zero tensor has no L2 norm to quantize
  against).
* **k + 1** for k <= r: a quantized segment of one line, all its levels,
  Rice coded with parameter k; the norm f64 follows.
* **0xFD** and **0xFC**: a quantized segment whose lines are its rows
  (0xFD) or its columns (0xFC), each with its own Rice parameter; the norm
  f64 follows, then each line's k in [0, r], in line order, in fields of
  ``r.bit_length()`` bits packed least significant bit first and padded
  with 0 bits to a whole byte.
* **0xFE**: low-rank factors: rank u16, then the heads of the left (rows x
  rank) and right (cols x rank) factors, each a quantized segment or a
  zero one.  Factors of rank k travel only when they hold fewer values
  than the matrix, 0 < k * (rows + cols) < rows * cols, take fewer bits
  than its quantized segment, stream padding aside, and do not lengthen
  the payload, padding included; otherwise the matrix travels as one
  quantized segment.  Matrices with a unit dimension are never factored.
* **0xFF**: ``rows * cols`` float64 values, which follow in the head.

A line of Rice parameter k < r sends each level as its low k bits and
``level >> k`` in unary; at k = r every quotient is 0, so its levels take
no unary code and travel as r-bit fields.  For each line the encoder takes
the least k < r that minimises the level bits, or k = r where that is not
fewer bits.  A segment takes one k unless it holds at least
``_LINE_VALUES`` (4096) values and has no unit dimension.  Such a segment
tries its rows or its columns, whichever a closed-form estimate from the
line sums puts at fewer bits, k fields included (rows on ties), if that is
below the estimate for one k; the lines travel with their own k only if
their exact level bits, k fields and 7 bits for each stream the segment
may feed or stop feeding (its distinct line ks, one k's width and the
unary stream) are fewer than one k's level bits.  A stream's padding
grows by at most 7 bits, so no payload of quantized segments is longer
than with one k per segment.  Smaller segments save too little to pay for
the judging's numpy calls.

The streams take the lines of every segment in order of k, ties in head
order and then in line order, and each is padded with 0 bits to a whole
byte once per payload:

1. the low k bits of each level, one stream per width k >= 1 in ascending
   order, packed least significant bit first.  Their sizes follow from
   the heads, so they come first;
2. one unary stream: per level of every line with k < r, ``level >> k``
   zero bits and a 1 (its terminator), least significant bit first.  It
   carries no length and ends with the byte that holds its last
   terminator;
3. one sign stream: a bit per nonzero level, 1 for negative.

The encoder codes the quantized segments of a payload, low-rank factor
candidates included, together: one pass scales, rounds and signs their
values, judges the layout of each segment it may give a k per line, and
puts the values of a per-line segment in stream order, a pass taking
consecutive segments, smallest first, of at most ``_PASS_VALUES`` values
in all; each stream is packed once from the pieces of every pass.  The
decoder reads the heads, then each stream once, front to back, in numpy
calls that grow with the widths the payload holds, never with its lines:
it finds each width's remainder stream, scans the unary stream in steps
of at most ``_SCAN_BYTES`` bytes, writing each code's quotient as its
terminator turns up, and builds the levels one width at a time, from its
quotients and its remainder stream.  Once the unary stream's end locates
the sign stream, it signs and scales the levels in passes of consecutive
runs, a segment's lines of one k, cut by the encoder's rule.  Last, each
per-line segment puts its lines back in order with one scatter.  No step
loops over lines.

The decoder refuses a version other than 8; a bit width r outside [1, 32];
a schema check other than ``like``'s (a payload encoded for other names,
shapes or order); a tag whose k is above r; a row or column layout of a
matrix with a unit dimension; line k fields that are cut short or hold a
k above r; bytes after the last stream; quantized segments whose norm is
negative, infinite or NaN, whose unary codes run out of bytes or are
followed by set bits in the byte of the last terminator, or whose levels
reach 2**r; low-rank bodies whose rank breaks the bound above, whose factor
is itself factored or dense, or whose factors multiply out past the
float64 range; and dense bodies holding NaN or Inf.  Sizes come from
``like``, never from the wire.

Only changes of the shared channel travel: up, each client's drift-corrected
step, which folds in its correction term; down, the broadcast's change.  The
private sparse channel stays on its client, so no sparse encoding is defined
here.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import BadBits, MalformedPayload, NonFiniteInput, ZeroVector

MAGIC = b"CFP1"
WIRE_VERSION = 8
# Tags of a quantized segment with a k per column or per row, of a factored
# body and of a dense one; 0 is a zero tensor, k + 1 a segment with one k.
_COLS = 0xFC
_ROWS = 0xFD
_FACTORS = 0xFE
_DENSE = 0xFF

SCHEME_DENSE = "dense"
SCHEME_QUANTIZED = "quantized"
SCHEME_LOWRANK = "lowrank_quantized"
_SCHEMES = (SCHEME_DENSE, SCHEME_QUANTIZED, SCHEME_LOWRANK)

_UNPACK_CHUNK = 1 << 16  # levels per step of _unpack_levels' octet route
_POWERS = np.left_shift(1, np.arange(32, dtype=np.uint32))  # 2**j, for the bit-matrix route
_POWERS.setflags(write=False)
# Up to this many, levels are packed and unpacked through a bit matrix, in
# fewer numpy calls than the octet route but with arrays of 32 bytes a level.
_BIT_ROUTE_LEVELS = 512
# Segments of at least this many values, with no unit dimension, may take a
# k per row or per column.  Smaller ones take one k: what they would save
# does not pay for the numpy calls that judge them.
_LINE_VALUES = 1 << 12


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
    """Reconstruct ``norm * sign_i * level_i / 2**r`` for each coordinate.

    The level is scaled to [0, 1) before the norm multiplies it, so no
    magnitude can overflow past a finite norm; the decoder takes the same
    steps.
    """
    values = q.levels.astype(np.float64)
    values *= 2.0**-q.r  # exact, as a level is an integer below 2**32
    values *= q.norm
    values[np.flatnonzero(q.signs)] *= -1.0
    return values


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


def _merged_width(r: int) -> int:
    """The width of the fields that ``_pack_levels`` merges an octet of
    r-bit levels into, for r neither 8, 16 nor 32: one field of 8r bits for
    r < 8, two of 4r for 8 < r < 16, four of 2r for 16 < r < 32."""
    return 8 * r // (1 if r < 8 else 2 if r < 16 else 4)


def _pack_levels(pieces: Sequence[np.ndarray], r: int) -> bytes:
    """Concatenate the low r bits of each level of the pieces, in order,
    least significant first.

    A width of 8, 16 or 32 bits is a plain little-endian cast.  Up to
    ``_BIT_ROUTE_LEVELS`` levels go through a matrix of their bits.
    Otherwise each octet of levels fills exactly r bytes; the last octet is
    padded with zero levels.  Neighbouring fields merge pairwise into fields
    of twice the width, up to ``_merged_width(r)``: one 8r-bit field an
    octet for r < 8, whose bytes are the octet's, two 4r-bit fields for 8 <
    r < 16 or four 2r-bit fields for 16 < r < 32.  Two or four fields are
    ORed into the octet's little-endian uint64 words, a field that crosses
    a word putting its high bits into the next one, and the first r bytes
    of the words are cut out.
    """
    n = sum(piece.size for piece in pieces)
    if r not in (8, 16, 32) and n <= _BIT_ROUTE_LEVELS:  # through a matrix of their bits
        levels = np.concatenate(pieces).astype("<u4", copy=False)
        bits = np.unpackbits(levels.view(np.uint8).reshape(n, 4), axis=1, bitorder="little")
        return np.packbits(bits[:, :r], bitorder="little").tobytes()
    if r in (8, 16, 32):
        octets = np.empty(n, dtype=f"<u{r // 8}")
    else:
        octets = np.zeros(-(-n // 8) * 8, dtype=np.uint64)
    at = 0
    for piece in pieces:  # each is cast on assignment, to its low r bits at 8, 16 and 32
        octets[at : at + piece.size] = piece
        at += piece.size
    if r in (8, 16, 32):
        return octets.tobytes()
    octets &= np.uint64((1 << r) - 1)
    width, merged = r, _merged_width(r)
    while width < merged:
        octets = octets[0::2] | (octets[1::2] << np.uint64(width))
        width *= 2
    fields = octets.reshape(-(-n // 8), -1)
    if fields.shape[1] > 1:
        words = np.empty((fields.shape[0], -(-r // 8)), dtype="<u8")
        for j in range(fields.shape[1]):
            word, shift = divmod(j * width, 64)
            if shift:
                words[:, word] |= fields[:, j] << np.uint64(shift)
            else:
                words[:, word] = fields[:, j]
            if shift + width > 64:  # the field's high bits start the next word
                words[:, word + 1] = fields[:, j] >> np.uint64(64 - shift)
        fields = words
    return fields.view(np.uint8)[:, :r].tobytes()[: (n * r + 7) // 8]


def _unpack_levels(buf, n: int, r: int) -> np.ndarray:
    """Inverse of ``_pack_levels``: widen each r-bit field of ``buf``, bytes
    or a uint8 array, to 32 bits.

    Widths of 8, 16 and 32 bits are a cast.  Up to ``_BIT_ROUTE_LEVELS``
    levels go through a matrix of their bits, r bytes a level, weighed
    against the powers of two in one product.  More take ``_pack_levels``'
    octet route backwards, ``_UNPACK_CHUNK`` levels at a time, so their
    arrays stay a few MiB however long the segment is; the chunk is a
    multiple of 8 levels, so each chunk starts on a byte boundary.  Each
    octet's merged fields are read from the little-endian words that start
    at its bytes 0, 8, 16 and 24, views with a stride of r bytes, and split
    in halves down to r bits.
    """
    if r in (8, 16, 32):
        return np.frombuffer(buf, dtype=f"<u{r // 8}").astype(np.uint32)
    wire = np.frombuffer(buf, dtype=np.uint8)
    if n <= _BIT_ROUTE_LEVELS:
        return np.unpackbits(wire, count=n * r, bitorder="little").reshape(n, r).dot(_POWERS[:r])
    levels = np.empty(n, dtype=np.uint32)
    mask = np.uint64((1 << r) - 1)
    merged, spans = _merged_width(r), -(-r // 8)  # an octet's field width and words
    for start in range(0, n, _UNPACK_CHUNK):
        m = min(_UNPACK_CHUNK, n - start)
        rows = -(-m // 8)
        first = start * r // 8
        part = wire[first : first + (m * r + 7) // 8]
        padded = np.zeros(rows * r + 8 * spans, dtype=np.uint8)
        padded[: part.size] = part
        words = [np.ndarray((rows,), "<u8", padded, 8 * i, (r,)) for i in range(spans)]
        fields = np.empty((rows, 8 * r // merged), dtype=np.uint64)
        for j in range(fields.shape[1]):
            word, shift = divmod(j * merged, 64)
            np.right_shift(words[word], np.uint64(shift), out=fields[:, j])
            if shift + merged > 64:
                fields[:, j] |= words[word + 1] << np.uint64(64 - shift)
        fields, width = fields.ravel(), merged
        while width > r:  # bits above a field's own are cut by the mask
            width //= 2
            halves = np.empty(2 * fields.size, dtype=np.uint64)
            halves[0::2] = fields
            halves[1::2] = fields >> np.uint64(width)
            fields = halves
        levels[start : start + m] = fields[:m] & mask
    return levels


def _sum_dtype(n: int, r: int):
    """The unsigned type that sums n levels of r bits: uint32, which numpy
    adds several times faster, where it cannot wrap."""
    return np.uint32 if n * (2**r - 1) < 2**32 else np.uint64


def _rice_parameters(
    levels: np.ndarray, sizes: np.ndarray, r: int, totals: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """For each line of ``levels``, the least k in [0, r) that minimises the
    Rice code's level bits, n * k remainder bits plus S_k + n unary bits
    with S_k = sum(levels >> k), or k = r, n * r bits without unary codes,
    where that is not fewer bits: each line's k and level bits, as int64
    arrays.  The lines are the rows of a 2-D array or view, of ``sizes``
    values each, whose sums ``totals`` may be given; or consecutive lines
    of ``sizes`` values (int64) of a flat array.

    With m the mean level and k0 = floor(log2(floor(m))), only k0 - 1, k0
    and k0 + 1 can win.  The bit count is convex in k.  It rises from k0 + 1
    on, since S_k < n once 2**k > m; it falls up to k0 - 1, since S_k > 2 n
    once 2**k <= m / 4.  So of the three k from max(k0 - 1, 0) up, which
    are tried, one past k0 + 1 cannot win, nor can k = r, which costs more
    than n * r.  Each of the sums is taken for every line at once.
    """
    if levels.ndim == 1 and np.size(sizes) == 1:
        levels = levels.reshape(1, -1)
    dtype = _sum_dtype(levels.size, r)  # no line holds more values
    if levels.ndim == 2:  # lines of one length: sums along rows, shifts broadcast
        def sums(x):
            return x.sum(axis=1, dtype=dtype)
    else:
        starts = np.cumsum(sizes) - sizes

        def sums(x):
            return np.add.reduceat(x, starts, dtype=dtype)

    totals = (sums(levels) if totals is None else totals).astype(np.int64)
    # max(k0 - 1, 0), where k0 + 1 is the exponent of the mean, which is
    # below 2**32 and so exact in a float64.
    firsts = np.maximum(np.frexp(totals // sizes)[1] - 2, 0)
    shifts = firsts.astype(np.uint32)
    quotients = levels >> (shifts[:, None] if levels.ndim == 2 else np.repeat(shifts, sizes))
    bits = np.empty((3, firsts.size), dtype=np.int64)
    for j in range(3):
        if j:
            quotients >>= 1
        bits[j] = sums(quotients)
    del quotients
    bits += sizes * (firsts + np.arange(1, 4)[:, None])
    ks = firsts + bits.argmin(axis=0)  # the least k on ties
    bits = bits.min(axis=0)
    fixed = bits >= sizes * r
    ks[fixed] = r
    return ks, np.minimum(bits, sizes * r)


def _estimates(sizes: np.ndarray, totals: np.ndarray, spreads: np.ndarray, r: int) -> np.ndarray:
    """For lines of ``sizes`` values summing to ``totals``, the least over
    real k in [0, r - 1] of n k + n (1 - 1 / spread) + (S + n / spread) /
    2**k bits, or n r if fewer; each line's spread is 1 or 2.

    That is n (k + 1) + (S - n (2**k - 1) / spread) / 2**k.  A level's
    quotient at k is at least (level - 2**k + 1) / 2**k, so at spread 1
    this is a lower bound of the line's Rice bits, up to float rounding.  At
    spread 2, which takes each remainder at half its largest value, it
    estimates them.  The least k solves 2**k = ln 2 (S / n + 1 / spread).
    """
    load = totals + sizes / spreads
    k = np.clip(np.log2(load * (math.log(2) / sizes)), 0, r - 1)
    bits = sizes * (k + 1 - 1 / spreads) + load / np.exp2(k)
    return np.minimum(bits, sizes * r)


@functools.lru_cache(maxsize=None)
def _judged_lines(m: int, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """The sizes and ``_estimates`` spreads of the lines ``_layouts`` judges
    for an m x c segment: its rows and columns at spread 2, then the whole
    at spread 2 and at spread 1."""
    return np.repeat([c, m, m * c, m * c], [m, c, 1, 1]), np.repeat([2.0, 1.0], [m + c + 1, 1])


def _layouts(levels: np.ndarray, shapes: Sequence[Tuple[int, int]], r: int) -> List[Tuple[int, np.ndarray]]:
    """The layout of each segment of ``levels``, consecutive row-major
    matrices of ``shapes``: its tag and the k of each of its lines, in line
    order.

    A segment of fewer than ``_LINE_VALUES`` values or with a unit
    dimension takes one k.  Another takes its rows or its columns as lines,
    whichever ``_estimates`` at spread 2 puts at fewer bits, k fields
    included (rows on ties), if that is below its estimate for one k; and
    then only if their exact level bits, k fields and 7 bits for each
    stream the segment may feed or stop feeding (its distinct line ks, one
    k's width and the unary stream) are fewer than one k's.  Padding adds
    at most 7 bits to a stream, so no payload of quantized segments gets
    longer for a k per line.  The bound of ``_estimates`` at spread 1
    settles most segments without one k's exact bits.
    """
    sizes = np.array([m * c for m, c in shapes])
    lined = [s for s, (m, c) in enumerate(shapes) if m > 1 and c > 1 and m * c >= _LINE_VALUES]
    if not lined:
        ks, _ = _rice_parameters(levels, sizes, r)
        return [(k + 1, ks[i : i + 1]) for i, k in enumerate(ks.tolist())]
    starts = (np.cumsum(sizes) - sizes).tolist()
    width = r.bit_length()
    out: List[Optional[Tuple[int, np.ndarray]]] = [None] * len(shapes)
    trials = []  # (segment, tag, k of each line, their bits with k fields and margin)
    for s in lined:
        m, c = shapes[s]
        block = levels[starts[s] : starts[s] + m * c].reshape(m, c)
        # The sums of each row and each column, then twice the whole's.
        totals = np.empty(m + c + 2, dtype=_sum_dtype(m * c, r))
        block.sum(axis=1, out=totals[:m])
        block.sum(axis=0, out=totals[m : m + c])
        totals[m + c :] = totals[:m].sum()
        line_sizes, spreads = _judged_lines(m, c)
        guess = _estimates(line_sizes, totals, spreads, r)
        by_row = guess[:m].sum() + 8 * ((m * width + 7) // 8)
        by_col = guess[m : m + c].sum() + 8 * ((c * width + 7) // 8)
        if min(by_row, by_col) >= guess[-2]:
            continue
        if by_row <= by_col:
            tag, lines, line_totals = _ROWS, block, totals[:m]
        else:
            tag, lines, line_totals = _COLS, block.T, totals[m : m + c]
        ks, bits = _rice_parameters(lines, lines.shape[1], r, line_totals)
        cost = int(bits.sum()) + 8 * ((ks.size * width + 7) // 8) + 7 * (np.count_nonzero(np.bincount(ks)) + 2)
        if cost + 1 <= guess[-1]:  # the bound's float rounding aside, fewer bits than one k
            out[s] = (tag, ks)
        else:
            trials.append((s, tag, ks, cost))
    rest = [s for s, layout in enumerate(out) if layout is None]
    if rest:
        data = levels if len(rest) == len(shapes) else np.concatenate([levels[starts[s] : starts[s] + sizes[s]] for s in rest])
        ks, bits = _rice_parameters(data, sizes[rest], r)
        for i, (s, k) in enumerate(zip(rest, ks.tolist())):
            out[s] = (k + 1, ks[i : i + 1])
        bits = dict(zip(rest, bits.tolist()))
        for s, tag, ks, cost in trials:
            if cost < bits[s]:
                out[s] = (tag, ks)
    return out


# Zero bits that fill the unary stream's last byte.
_PAD_BITS = np.zeros(7, dtype=bool)
_PAD_BITS.setflags(write=False)
# Values per pass of the encoder's coding and of the decoder's signing and
# scaling.  A pass's temporaries grow with its values, so a cap keeps them
# near those of one large tensor.
_PASS_VALUES = 1 << 14
# Bytes of unary stream per scan step: 64 KiB of unpacked bits.
_SCAN_BYTES = 1 << 13


@dataclass
class _Segment:
    """A coded quantized segment: its head, and its pieces of the streams by
    line width k, each a (levels, unary codes, sign bits) triple of views
    into the arrays of the pass that coded it.  The low k bits of each level
    travel as its remainder; the unary codes are empty at k = r, and a sign
    bit, True for negative, goes with each nonzero level."""

    head: bytes
    parts: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _tally(body: Sequence[Optional[_Segment]]) -> Tuple[int, Dict[object, int]]:
    """The head bytes of a quantized body, one segment or two factors, and
    its bits in each stream it feeds: a remainder width, ``"unary"`` or
    ``"signs"``."""
    heads, bits = (3 if len(body) == 2 else 0), {}  # the factors' tag and rank
    for s in body:
        heads += 1 if s is None else len(s.head)
        for width, (levels, unary, signs) in (s.parts.items() if s is not None else ()):
            for key, n in ((width, levels.size * width), ("unary", unary.size), ("signs", signs.size)):
                bits[key] = bits.get(key, 0) + n
    return heads, bits


def _size(heads: int, streams: Mapping[object, int]) -> Tuple[int, int]:
    """The wire bytes of ``heads`` head bytes and of streams that hold
    these bits, each stream padded once; and their bits, padding aside."""
    padded = sum((bits + 7) // 8 for bits in streams.values())
    return heads + padded, 8 * heads + sum(streams.values())


def _passes(sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """Consecutive items of these sizes, as (first, stop) index pairs,
    grouped into the encoder's coding passes and the decoder's sign and
    scale passes: at most ``_PASS_VALUES`` values a pass unless one item
    holds more."""
    cuts, total = [], 0
    for i, n in enumerate(sizes):
        if not cuts or total + n > _PASS_VALUES:
            cuts.append(i)
            total = 0
        total += n
    return list(zip(cuts, cuts[1:] + [len(sizes)]))


def _quant_segments(mats: Sequence[np.ndarray], r: int) -> List[Optional[_Segment]]:
    """The quantized segments of matrices at bit width r.

    Each segment has its own norm and the layout of ``_layouts``.
    ZeroVector's case, a genuinely zero tensor or one so small that its
    norm underflows, is a legal model state and travels as the single tag
    byte 0 (None here).  The others are coded together, smallest first, in
    as few passes as ``_passes`` allows.
    """
    norms = [_norm(m.ravel()) for m in mats]  # as quantize takes it, per tensor
    out: List[Optional[_Segment]] = [None] * len(mats)
    live = sorted((i for i, norm in enumerate(norms) if norm != 0.0), key=lambda i: mats[i].size)
    for first, stop in _passes([mats[i].size for i in live]):
        picked = live[first:stop]
        coded = _code_pass([mats[i] for i in picked], [norms[i] for i in picked], r)
        for i, segment in zip(picked, coded):
            out[i] = segment
    return out


def _code_pass(mats: Sequence[np.ndarray], norms: Sequence[float], r: int) -> List[_Segment]:
    """Nonzero matrices coded in one pass over their concatenated values:
    each divides by its own norm, and the scaling, rounding, sign bits,
    Rice sums and unary codes run once for all.  A segment of a per-line
    layout has its values put in stream order: its lines by k, ties in line
    order."""
    shapes = [m.shape for m in mats]
    bounds = list(itertools.accumulate((m.size for m in mats), initial=0))
    values = np.concatenate([m.ravel() for m in mats])
    negative = values < 0
    levels = _levels(np.abs(values, out=values), bounds, norms, r)
    del values
    layouts = _layouts(levels, shapes, r)

    # Each segment's runs, its lines of one k in line order, as (k, start,
    # stop) in the pass; a per-line segment's values move into stream order.
    runs: List[List[Tuple[int, int, int]]] = []
    for (m, c), start, (tag, ks) in zip(shapes, bounds, layouts):
        stop = start + m * c
        if tag < _COLS:
            runs.append([(tag - 1, start, stop)])
            continue
        lines = np.argsort(ks, kind="stable")
        for arr in (levels, negative):
            block = arr[start:stop].reshape(m, c)
            arr[start:stop] = (block if tag == _ROWS else block.T)[lines].ravel()
        counts = np.bincount(ks, minlength=r + 1)
        widths = np.flatnonzero(counts)
        stops = (start + np.cumsum(counts[widths]) * (m * c // ks.size)).tolist()
        runs.append(list(zip(widths.tolist(), [start] + stops[:-1], stops)))
    nonzero = levels != 0
    flat = [run for seg in runs for run in seg]
    counts = np.add.reduceat(nonzero, [start for _, start, _ in flat], dtype=np.int64).tolist()
    signs = negative[nonzero]
    del negative, nonzero

    # Level i's terminator follows its own and the earlier levels' codes.
    rice = [(k, start, stop) for k, start, stop in flat if k < r]
    sizes = [stop - start for _, start, stop in rice]
    marks = [at - 1 for at in itertools.accumulate(sizes)]
    ends = np.empty(sum(sizes), dtype=np.int64)
    if rice:
        np.concatenate([levels[start:stop] for _, start, stop in rice], out=ends)
        ends >>= np.repeat(np.array([k for k, _, _ in rice], dtype=np.uint8), sizes)
    ends += 1
    np.cumsum(ends, out=ends)
    unary_stops = iter(ends[marks].tolist())
    ends -= 1
    unary = np.zeros(int(ends[-1]) + 1 if ends.size else 0, dtype=bool)
    unary[ends] = True
    del ends

    out, count_at, u, c = [], iter(counts), 0, 0
    for norm, (tag, ks), seg_runs in zip(norms, layouts, runs):
        head = struct.pack("<Bd", tag, norm)
        if tag >= _COLS:
            head += _pack_levels([ks], r.bit_length())
        parts = {}
        for k, start, stop in seg_runs:
            u_stop = next(unary_stops) if k < r else u
            count = next(count_at)
            parts[k] = (levels[start:stop], unary[u:u_stop], signs[c : c + count])
            u, c = u_stop, c + count
        out.append(_Segment(head, parts))
    return out


def _streams(segments: Sequence[_Segment]) -> bytes:
    """The remainder streams, the unary stream and the sign stream of
    quantized segments in head order: each takes the segments' pieces by
    width, ties in head order."""
    widths = sorted({k for s in segments for k in s.parts})
    pieces = [s.parts[k] for k in widths for s in segments if k in s.parts]
    out = [
        _pack_levels([s.parts[k][0] for s in segments if k in s.parts], k) for k in widths if k
    ]
    unary = [piece[1] for piece in pieces]
    size = sum(u.size for u in unary)
    bits = np.concatenate(unary + [_PAD_BITS[: -size % 8]] + [piece[2] for piece in pieces])
    out.append(np.packbits(bits, bitorder="little").tobytes())
    return b"".join(out)


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


def _read_unary(wire: np.ndarray, start: int, quotients: np.ndarray) -> int:
    """Write the quotients of the unary stream that starts at byte ``start``
    of ``wire`` into ``quotients`` (int64), each code's count of 0 bits
    before its terminating 1 bit, and return the byte after the one that
    holds the last terminator, whose later bits must be 0.

    The stream is unpacked once, front to back, in steps of at most
    ``_SCAN_BYTES`` bytes, so a long run of zeros costs no more memory than
    a short one; each step writes the codes whose terminators it holds.
    The codes are the first ``quotients.size`` 1 bits, so the bits that the
    last step reads past the stream, into the sign stream, go unused.
    """
    total = quotients.size
    if 8 * (wire.size - start) < total:
        raise MalformedPayload(f"{wire.size - start} bytes cannot hold {total} unary codes")
    found, at, bit = 0, start, 8 * start  # codes written, the next byte to unpack, where the next code starts
    while found < total:
        if at >= wire.size:
            raise MalformedPayload(f"unary stream holds {found} of {total} terminators")
        step = wire[at : at + _SCAN_BYTES]
        # numpy finds the True positions of a bool array several times
        # faster than the nonzero ones of a uint8 or a float64 array.
        ends = np.flatnonzero(np.unpackbits(step, bitorder="little").view(bool))[: total - found]
        if ends.size:
            ends += 8 * at
            out = quotients[found : found + ends.size]
            np.subtract(ends[1:], ends[:-1], out=out[1:])
            out -= 1
            out[0] = ends[0] - bit
            found, bit = found + ends.size, int(ends[-1]) + 1
        at += step.size
    if not total:
        return start
    byte, bit = divmod(bit - 1, 8)
    if wire[byte] >> (bit + 1):
        raise MalformedPayload("unary stream has bits set after its last terminator")
    return byte + 1


def _read_segment_head(rd: _Reader, tag: int, rows: int, cols: int, r: int, heads: list) -> Optional[int]:
    """Read the rest of the head of a quantized rows x cols segment whose tag
    is read and list its (tag, rows, cols, line ks, norm) in ``heads``: its
    index there, or None for a zero tensor."""
    if tag == 0:
        return None
    if tag in (_FACTORS, _DENSE):
        raise MalformedPayload(f"invalid body byte {tag}")
    if tag in (_ROWS, _COLS):
        if min(rows, cols) == 1:
            raise MalformedPayload(f"a {rows}x{cols} matrix takes one Rice parameter, not layout tag {tag}")
        lines = rows if tag == _ROWS else cols
    elif tag - 1 > r:
        raise MalformedPayload(f"Rice parameter {tag - 1} is above the bit width {r}")
    (norm,) = rd.unpack("<d")
    if not 0.0 <= norm < math.inf:
        raise MalformedPayload(f"quantized segment has invalid norm {norm!r}")
    if tag in (_ROWS, _COLS):
        width = r.bit_length()
        ks = _unpack_levels(rd.take((lines * width + 7) // 8), lines, width).astype(np.int64)
        if int(ks.max()) > r:
            raise MalformedPayload(f"line Rice parameter {int(ks.max())} is above the bit width {r}")
    else:
        ks = np.array([tag - 1])
    heads.append((tag, rows, cols, ks, norm))
    return len(heads) - 1


def _read_head(rd: _Reader, rows: int, cols: int, r: int, heads: list):
    """Read one tensor's body head: a dense body's values, or the ``heads``
    index of its quantized segment, or the rank and indices of its factors."""
    n = rows * cols
    (tag,) = rd.unpack("<B")
    if tag == _DENSE:
        values = np.frombuffer(rd.take(8 * n), dtype="<f8").astype(np.float64)
        if not np.isfinite(values).all():
            raise MalformedPayload("dense body holds NaN or Inf")
        return values
    if tag != _FACTORS:
        return _read_segment_head(rd, tag, rows, cols, r, heads)
    (rank,) = rd.unpack("<H")
    if not 0 < rank * (rows + cols) < n:
        raise MalformedPayload(f"invalid retained rank {rank} for {rows}x{cols}")
    left = _read_segment_head(rd, *rd.unpack("<B"), rows, rank, r, heads)
    right = _read_segment_head(rd, *rd.unpack("<B"), cols, rank, r, heads)
    return rank, left, right


def _read_streams(wire: np.ndarray, pos: int, heads: Sequence[tuple], r: int) -> List[np.ndarray]:
    """The values of quantized segments with heads (tag, rows, cols, line
    ks, norm), whose streams start at byte ``pos`` and end the payload: one
    flat row-major float64 array per head.

    A segment's run of width k is its lines of that k, in line order.  The
    streams take the runs by k, ties in head order, and the levels go into
    one array in that order, so each width's values are one slice of it.
    The unary stream's quotients are written as int64 into the front of the
    same array, where the values with unary codes lie; each width's levels
    are its quotients shifted and ORed with its remainders, or at k = r its
    remainders alone.  Then, the unary stream's end having located the sign
    stream, each pass signs and scales its part in place, and each segment
    of a per-line layout gathers its lines from its runs.  Refuses any level
    of 2**r or more, so that each decoded magnitude stays within its
    segment's norm.
    """
    runs = []  # (k, head index, values)
    for i, (tag, rows, cols, ks, _) in enumerate(heads):
        if tag < _COLS:
            runs.append((tag - 1, i, rows * cols))
            continue
        counts = np.bincount(ks, minlength=r + 1)
        widths = np.flatnonzero(counts)
        runs += zip(widths.tolist(), itertools.repeat(i), (counts[widths] * (rows * cols // ks.size)).tolist())
    runs.sort(key=lambda run: run[0])
    sizes = [n for _, _, n in runs]
    starts = list(itertools.accumulate(sizes, initial=0))

    groups = []  # (k, first value, stop, remainder stream) of each width, ascending
    for k, group in itertools.groupby(runs, key=lambda run: run[0]):
        first = groups[-1][2] if groups else 0
        stop = first + sum(n for _, _, n in group)
        end = pos + ((stop - first) * k + 7) // 8
        if end > wire.size:
            raise MalformedPayload(f"truncated payload: remainder streams end at byte {end}")
        groups.append((k, first, stop, wire[pos:end]))
        pos = end
    values = np.empty(starts[-1])
    # The values with unary codes come first.  Their quotients go into the
    # same bytes as int64, in which the shifts below cannot wrap, so the
    # decoder holds no second array the size of the payload.
    quotients = values[: sum(stop - first for k, first, stop, _ in groups if k < r)].view(np.int64)
    at = 8 * _read_unary(wire, pos, quotients)  # where the sign stream starts, in bits
    for k, first, stop, stream in groups:
        if k == r:  # no unary codes: the remainders are the levels
            values[first:stop] = _unpack_levels(stream, stop - first, k)
            continue
        levels = quotients[first:stop]
        if int(levels.max(initial=0)) >> (r - k):
            raise MalformedPayload(f"Rice-coded level does not fit in {r} bits")
        if k:
            levels <<= k
            levels |= _unpack_levels(stream, stop - first, k)
        values[first:stop] = levels  # in place, each level to its own float64
    norms = [heads[i][4] for _, i, _ in runs]
    for first, stop in _passes(sizes):
        part = values[starts[first] : starts[stop]]
        nonzero = np.flatnonzero(part != 0)
        stop_byte = (at + nonzero.size + 7) // 8
        if stop_byte > wire.size:
            raise MalformedPayload(
                f"truncated payload: wanted {nonzero.size} sign bits at bit {at}, "
                f"have {8 * wire.size - at}"
            )
        bits = np.unpackbits(wire[at // 8 : stop_byte], bitorder="little")
        # As dequantize does: scale the level to [0, 1), then by the norm.
        part *= 2.0**-r
        part *= norms[first] if stop - first == 1 else np.repeat(norms[first:stop], sizes[first:stop])
        part[nonzero[np.flatnonzero(bits[at % 8 : at % 8 + nonzero.size].view(bool))]] *= -1.0
        at += nonzero.size
    if (at + 7) // 8 < wire.size:
        raise MalformedPayload(f"{wire.size - (at + 7) // 8} trailing bytes after the sign stream")

    # Each segment's runs, in order of k, put its lines in stream order.
    pieces: List[list] = [[] for _ in heads]
    for (_, i, n), start in zip(runs, starts):
        pieces[i].append(values[start : start + n])
    out = []
    for (tag, rows, cols, ks, _), parts in zip(heads, pieces):
        if tag < _COLS:
            out.append(parts[0])
            continue
        # Lines as rows of a matrix, so the scatter writes whole rows.
        lines = np.empty((rows, cols) if tag == _ROWS else (cols, rows))
        lines[np.argsort(ks, kind="stable")] = np.concatenate(parts).reshape(lines.shape)
        out.append(lines.ravel() if tag == _ROWS else lines.T.ravel())
    return out


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


@functools.lru_cache(maxsize=64)
def _schema_check(shapes: Tuple[Tuple[str, Tuple[int, int]], ...]) -> bytes:
    """The first 4 bytes of a SHA-256 over each tensor's UTF-8 name length
    u16, name, rows u32 and cols u32, in order.  A run sends the same few
    schemas every round, so they are kept."""
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
    value cutoff of ``tau_lowrank`` and ships quantized factors when they
    take fewer bits than the plain quantized matrix and the payload is no
    longer for them, and the plain matrix otherwise; matrices with a unit
    dimension (bias rows) skip the factorization and travel as a plain
    quantized segment.  The quantized segments of the payload, factor
    candidates included, are coded together, and each stream is packed
    once.  Names and shapes travel only as the schema check, so the
    receiver decodes against tensors of the same names and shapes, in the
    same order.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    r = _check_bits(r)
    # A plan is a finished head, or the name, first segment index and the
    # rank of the factors that follow that segment (0 for none) of a body
    # still to be coded.
    shapes, plans, mats = [], [], []
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
        plans.append((name, len(mats), rank))
        mats.append(mat)
        if rank:
            mats += [left, right]
    coded = _quant_segments(mats, r)

    # Each factored candidate in turn travels as factors if they take fewer
    # bits than its plain segment and the payload, padding included, is not
    # longer for them: no low-rank payload is longer than the quantized one.
    # The payload's head bytes and bits per stream are kept as running
    # totals, so a trial recounts only the candidate's own body.
    quantized_plans = [plan for plan in plans if isinstance(plan, tuple)]
    bodies = [coded[seg : seg + 1] for _, seg, _ in quantized_plans]
    candidates = [(at, plan) for at, plan in enumerate(quantized_plans) if plan[2]]
    if candidates:
        heads, streams = 0, collections.Counter()
        for body in bodies:
            body_heads, body_bits = _tally(body)
            heads += body_heads
            streams.update(body_bits)
        size, bits = _size(heads, streams)
        for at, (name, seg, rank) in candidates:
            factors = coded[seg + 1 : seg + 3]
            (factor_heads, factor_bits), (plain_heads, plain_bits) = _tally(factors), _tally(bodies[at])
            trial_heads, trial_streams = heads + factor_heads - plain_heads, streams.copy()
            trial_streams.update(factor_bits)
            trial_streams.subtract(plain_bits)
            trial_size, trial_bits = _size(trial_heads, trial_streams)
            if trial_bits < bits and trial_size <= size:
                bodies[at], ranks[name] = factors, rank
                heads, streams, size, bits = trial_heads, trial_streams, trial_size, trial_bits

    parts = [MAGIC, struct.pack("<BB", WIRE_VERSION, r), _schema_check(tuple(shapes))]
    quantized = iter(bodies)
    for plan in plans:
        if isinstance(plan, bytes):
            parts.append(plan)
            continue
        body = next(quantized)
        if len(body) == 2:
            parts.append(struct.pack("<BH", _FACTORS, plan[2]))
        parts += [b"\x00" if s is None else s.head for s in body]
    segments = [s for body in bodies for s in body if s is not None]
    if segments:
        parts.append(_streams(segments))
    return CompressedPayload(b"".join(parts), ranks)


def decode_payload(payload, like: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Reconstruct the matrices of a payload, or of raw wire bytes, encoded
    from tensors named and shaped as ``like``'s, in its order; only their
    names and shapes are read."""
    blob = payload.blob if isinstance(payload, CompressedPayload) else bytes(payload)
    rd = _Reader(blob)
    if rd.take(4) != MAGIC:
        raise MalformedPayload("bad magic")
    version, r = rd.unpack("<BB")
    if version != WIRE_VERSION:
        raise MalformedPayload(f"unsupported payload version {version}")
    if not 1 <= r <= 32:
        raise MalformedPayload(f"invalid bit width {r}")
    shapes = tuple((name, values.shape) for name, values in like.items())
    if rd.take(4) != _schema_check(shapes):
        raise MalformedPayload("schema check differs: the payload holds other tensors")
    heads: List[tuple] = []
    bodies = [_read_head(rd, *shape, r, heads) for _, shape in shapes]
    if heads:
        segments = _read_streams(np.frombuffer(blob, dtype=np.uint8), rd.pos, heads, r)
    elif rd.pos != len(blob):
        raise MalformedPayload(f"{len(blob) - rd.pos} trailing bytes after last tensor")

    def segment(index: Optional[int], n: int) -> np.ndarray:
        return np.zeros(n) if index is None else segments[index]

    out = {}
    for (name, (rows, cols)), body in zip(shapes, bodies):
        if isinstance(body, tuple):
            rank, left, right = body
            left = segment(left, rows * rank).reshape(rows, rank)
            right = segment(right, cols * rank).reshape(cols, rank)
            # Each factor is bounded by its finite norm, but their product is not.
            with np.errstate(over="ignore", invalid="ignore"):
                body = left @ right.T
            if not np.isfinite(body).all():
                raise MalformedPayload(f"low-rank factors of a {rows}x{cols} matrix overflow")
        elif not isinstance(body, np.ndarray):
            body = segment(body, rows * cols)
        out[name] = body.reshape(rows, cols)
    return out
