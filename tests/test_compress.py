import functools
import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cefgl import compress, fedcore, gnn, linalg
from cefgl.errors import BadBits, MalformedPayload, NonFiniteInput, ZeroVector
from cefgl.fedcore import ClientConfig
from helpers import dense

# Wire-format accounting used to derive expected byte counts independently.
HEADER_BYTES = 4 + 1 + 1 + 4  # magic, version, bit width, schema check
SEGMENT_HEAD_BYTES = 1 + 8  # tag, norm; a per-line layout's k fields follow
COLS, ROWS = 0xFC, 0xFD  # the tags of a k per column and a k per row


def schema_check(shapes) -> bytes:
    """The first 4 bytes of a SHA-256 over each (name, shape) pair's name
    length u16, UTF-8 name, rows u32 and cols u32, in order."""
    heads = b""
    for name, (rows, cols) in shapes:
        heads += struct.pack("<H", len(name.encode())) + name.encode()
        heads += struct.pack("<II", rows, cols)
    return hashlib.sha256(heads).digest()[:4]


def header(tensors, r: int = 4) -> bytes:
    """The header of a payload encoded from ``tensors`` at bit width r."""
    check = schema_check((name, np.shape(v)) for name, v in tensors.items())
    return compress.MAGIC + struct.pack("<BB", compress.WIRE_VERSION, r) + check


def rice_choice(levels: np.ndarray, r: int):
    """The Rice parameter k of a segment and its unary bits: the least k < r
    with the fewest level bits, found by trying every k, unless k = r, with
    no unary codes, is not more bits."""
    n, wide = levels.size, levels.astype(np.int64)
    cost = [n * k + int((wide >> k).sum()) + n for k in range(r)]
    k = cost.index(min(cost))
    if cost[k] >= n * r:
        return r, 0
    return k, int((wide >> k).sum()) + n


def quantized_payload_bytes(tensors, r: int, lines: bool = True) -> int:
    """The length of a quantized payload of ``tensors``: the header, a head
    per tensor (one byte for a zero one), then the streams, each padded to
    a whole byte once: the remainders of each width k >= 1, the unary codes
    and the signs of nonzero levels.  ``lines=False``: with one k for every
    segment, as wire format 7 sent them."""
    return HEADER_BYTES + bodies_bytes([[segment_streams(x, r, lines)] for x in tensors.values()])


def layout_bits(lines, r: int):
    """The bits that lines of levels put in each stream, each line at the
    k of ``rice_choice``: its remainders under their width k, its unary
    codes under "unary" and its signs under "signs"; and their level bits,
    the remainders and unary codes."""
    streams = {"unary": 0, "signs": 0}
    for line in lines:
        k, unary = rice_choice(line, r)
        streams[k] = streams.get(k, 0) + line.size * k
        streams["unary"] += unary
        streams["signs"] += int(np.count_nonzero(line))
    return streams, sum(bits for key, bits in streams.items() if key != "signs")


def segment_layouts(x, r: int):
    """The layouts a quantized segment of x may take: (name, lines, head
    bytes), one k first, then a k per row and per column where x has no
    unit dimension; a line k field is r.bit_length() bits, padded to a byte
    per head."""
    levels = compress.quantize(x, r).levels.reshape(np.atleast_2d(x).shape)
    rows, cols = levels.shape
    out = [("one", [levels.ravel()], SEGMENT_HEAD_BYTES)]
    if rows > 1 and cols > 1:
        for name, lines in (("rows", list(levels)), ("cols", list(levels.T))):
            out.append((name, lines, SEGMENT_HEAD_BYTES + -(-len(lines) * r.bit_length() // 8)))
    return out


def guessed_bits(lines, r: int) -> float:
    """The encoder's estimate of lines' level bits (``compress._estimates``
    at spread 2), which only picks which per-line layout to try."""
    sizes = np.array([line.size for line in lines])
    totals = np.array([int(line.sum(dtype=np.uint64)) for line in lines], dtype=np.uint64)
    return compress._estimates(sizes, totals, np.full(len(lines), 2.0), r).sum()


def chosen_layout(x, r: int, lines: bool = True):
    """The layout the encoder gives a quantized segment of x: one k, unless
    x has at least ``compress._LINE_VALUES`` values and no unit dimension,
    the rows or columns with the lower estimate (rows on ties, k fields
    counted) are estimated below one k, and their exact level bits, k
    fields and a margin of 7 bits per stream the segment may feed or stop
    feeding (its distinct line ks, one k's width, the unary stream) are
    below one k's level bits.  ``lines=False`` keeps one k."""
    layouts = segment_layouts(x, r)
    one = layouts[0]
    if not lines or len(layouts) == 1 or np.size(x) < compress._LINE_VALUES:
        return one
    fields = {name: 8 * (head - SEGMENT_HEAD_BYTES) for name, _, head in layouts}
    guess = {name: guessed_bits(ls, r) + fields[name] for name, ls, _ in layouts[1:]}
    pick = layouts[1] if guess["rows"] <= guess["cols"] else layouts[2]
    if guess[pick[0]] >= guessed_bits(one[1], r):
        return one
    ks = {rice_choice(line, r)[0] for line in pick[1]}
    cost = layout_bits(pick[1], r)[1] + fields[pick[0]] + 7 * (len(ks) + 2)
    return pick if cost < layout_bits(one[1], r)[1] else one


def segment_streams(x, r: int, lines: bool = True):
    """The head bytes of a quantized segment of x and the bits it puts in
    each stream, by ``layout_bits``, under ``chosen_layout``; None for a
    zero tensor, whose body is one tag byte."""
    try:
        _, layout, head = chosen_layout(x, r, lines)
    except ZeroVector:
        return None
    return head, layout_bits(layout, r)[0]


def body_bits(body) -> int:
    """The bits of a quantized body, a list of one segment's head bytes and
    streams or of two factors', heads included and stream padding aside."""
    bits = 24 if len(body) == 2 else 0  # the factors' tag and rank
    for segment in body:
        bits += 8 if segment is None else 8 * segment[0] + sum(segment[1].values())
    return bits


def bodies_bytes(bodies) -> int:
    """The bytes of quantized bodies on the wire: their heads, and each
    stream padded to a whole byte once."""
    heads, totals = 0, {}
    for body in bodies:
        heads += 3 if len(body) == 2 else 0
        for segment in body:
            heads += 1 if segment is None else segment[0]
            for name, bits in (segment[1] if segment else {}).items():
                totals[name] = totals.get(name, 0) + bits
    return heads + sum(-(-bits // 8) for bits in totals.values())


def one_tensor(rows: int, cols: int) -> dict:
    """The receiver's tensors for a hand-built payload: one named "x"."""
    return {"x": np.zeros((rows, cols))}


def tensor_blob(rows: int, cols: int, body: bytes, r: int = 4) -> bytes:
    """A payload of ``one_tensor(rows, cols)`` at bit width r around a
    hand-built head and streams."""
    return header(one_tensor(rows, cols), r) + body


def quantized_blob(n: int, r: int, segment: bytes) -> bytes:
    """A payload of ``one_tensor(1, n)`` at bit width r around a hand-built
    segment."""
    return tensor_blob(1, n, segment, r)


def rice_segment(k: int, unary: bytes, remainders: bytes = b"", signs: bytes = b"") -> bytes:
    """A one-segment payload's body: the head of a segment of norm 1 at Rice
    parameter k, then its streams in wire order: the k-bit remainders, the
    unary codes and the signs."""
    return struct.pack("<Bd", k + 1, 1.0) + remainders + unary + signs


def rank1(rows: int, cols: int, seed: int) -> np.ndarray:
    """A rank-1 matrix, whose factors are far smaller than it."""
    rng = np.random.default_rng(seed)
    return np.outer(rng.normal(size=rows), rng.normal(size=cols))


def _fuzz_tensors():
    """Bias rows, a zero tensor, low-rank bodies both factored ("f") and
    plain ("w"), quantized segments at both k < r ("g", "w") and k = r
    ("b"), and segments with a k per row ("p", its rows scaled apart) and
    per column ("q", its columns scaled apart)."""
    rng, lines = np.random.default_rng(40), np.random.default_rng(101)
    scales = 8.0 ** -(np.arange(8) % 4)
    return {
        "w": rng.normal(size=(4, 3)),
        "f": rank1(8, 6, 42),
        "b": rng.normal(size=(1, 3)),
        "z": np.zeros((2, 2)),
        "g": rng.normal(size=(1, 256)),
        "p": lines.normal(size=(8, 12)) * scales[:, None],
        "q": lines.normal(size=(12, 8)) * scales[None, :],
    }


def _fuzz_seeds():
    """Valid wire images of ``_fuzz_tensors`` under every scheme, with
    segments of any size judged per line."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compress, "_LINE_VALUES", 1)
        return [
            compress.encode_payload(_fuzz_tensors(), scheme, r=5, tau_lowrank=0.1).blob
            for scheme in ("dense", "quantized", "lowrank_quantized")
        ]


def quantized_blob_with_norm(norm: float) -> bytes:
    """A payload of ``one_tensor(1, 2)``, quantized, whose norm field is
    overwritten."""
    blob = bytearray(compress.encode_payload({"x": np.array([[0.6, -0.8]])}, "quantized").blob)
    offset = HEADER_BYTES + 1  # past the tag
    blob[offset : offset + 8] = struct.pack("<d", norm)
    return bytes(blob)


LOWRANK_LIKE = {"m": np.zeros((8, 6))}


def lowrank_blob_with_norms(norm: float) -> bytes:
    """A rank-1 low-rank payload of ``LOWRANK_LIKE`` whose two factor norms
    are overwritten."""
    p = compress.encode_payload({"m": rank1(8, 6, 41)}, "lowrank_quantized", r=8, tau_lowrank=1e-6)
    blob = bytearray(p.blob)
    body = HEADER_BYTES
    assert struct.unpack("<BH", blob[body : body + 3]) == (0xFE, 1)
    left = body + 3 + 1  # past the tag, the rank and the left factor's tag
    right = left + 8 + 1  # past the left factor's norm and the right factor's tag
    for offset in (left, right):
        blob[offset : offset + 8] = struct.pack("<d", norm)
    return bytes(blob)


def reference_pack(levels: np.ndarray, r: int) -> bytes:
    """Bit-by-bit level packing, the codec's first implementation: bit j of
    level i is wire bit i*r + j, packed least significant bit first."""
    levels = levels.astype(np.uint64)
    bits = ((levels[:, None] >> np.arange(r, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


# SHA-256 of one fixed payload under each scheme, re-pinned for wire
# version 8.  Every segment here takes one k, whose streams version 8 lays
# out as version 7 did, so only the version byte changed; the values they
# decode to are version 6's.  The tensors are multiples of 1/8,
# so the sums of squares under the quantizer's norms are exact in any
# order.  "w" has full rank, so it travels plain and each low-rank payload
# equals the quantized one at its r; the rank-1 payload pins the factor
# layout and the last bits of numpy's SVD of its matrix.  "w", "b" and "g"
# are Rice-coded (k = 1, 2 and 1 at r = 4; 13, 14 and 12 at r = 16); the
# rank-1 factors take k = 16 = r and k = 14.
WIRE_TENSORS = {
    "w": ((np.arange(30) * 7 % 11) - 5).reshape(6, 5) / 4.0,
    "b": np.array([[0.5, -0.25, 0.125, 0.0, -1.0]]),
    "z": np.zeros((2, 2)),
    "g": ((np.arange(64) * 5 % 17) - 8).reshape(1, 64) / 8.0,
}
WIRE_DIGESTS = {
    ("dense", 4): "1448cff03d6984bc08520c517352e1eca467518979c46a16e4384a55cb3c1faf",
    ("quantized", 4): "89a00efda062eac9123a5ffc75ca1651e08c3a61c5c817263e42a4981386f774",
    ("quantized", 16): "2155fac263c85873cf8505d1713bf137eb8b1e78ccd89c19662e4111ce9ce3ce",
    ("lowrank_quantized", 4): "89a00efda062eac9123a5ffc75ca1651e08c3a61c5c817263e42a4981386f774",
    ("lowrank_quantized", 16): "2155fac263c85873cf8505d1713bf137eb8b1e78ccd89c19662e4111ce9ce3ce",
}
WIRE_RANK1 = np.outer([1.0, -0.5, 0.25, 2.0, -1.0, 0.75], [0.5, 1.0, -0.25, 0.125, -2.0])
WIRE_RANK1_DIGEST = "d1d96b1823df29e975d568966cb6d8e5cd6b81f961f9593d76e65eb785327b88"


# One SHA-256 over a seeded batch of 33 payloads (2.4 MB), so the codec is
# checked byte for byte far beyond WIRE_DIGESTS' small payloads.  Shapes
# run from 1x1 to 128x128 and hold zero tensors, rank-1 and rank-3
# matrices, and tensors whose norm a few outliers hold.  The segments meet
# Rice parameter k = 0 (at r = 2, 4 and 7), 0 < k < r (from r = 4 up) and
# k = r (at every r).  Every r runs under all three schemes, and the model
# steps have the shapes of the skew (hidden 8, 3 features) and wide (hidden
# 128, 8 features) benchmark workloads.  The quantizer's norms are numpy
# sums, so the digest holds at any BLAS thread count.  The low-rank bodies
# still go through LAPACK's SVD, and the rank-3 inputs are built with `@`,
# so the digest depends on the CPU kernel OpenBLAS picks.  Both digests of
# this pair are therefore taken in a fresh interpreter on OpenBLAS' Haswell
# kernels (OPENBLAS_CORETYPE=Haswell, which needs AVX2), at the caller's
# BLAS thread count, so they hold on CPUs with and without AVX-512; on an
# AVX-512 CPU's own kernels the batch reads 28ed91... and fbb6ba....  The
# wire digest was re-pinned for wire version 8, which lets a segment of at
# least 4096 values take a k per row or per column: 4 of the batch's 180
# quantized segments take a k per column, 2,392,041 bytes become
# 2,390,828, and no payload of the batch grows; the decoded digest held
# unedited.
WIDE_GOLDEN_BITS = (1, 2, 4, 7, 16, 31, 32)
WIDE_GOLDEN_SHAPES = [
    (1, 1), (1, 7), (9, 1), (3, 5), (8, 8), (16, 31), (33, 17), (64, 128), (128, 128)
]
WIDE_GOLDEN_DIGEST = "b7f0edab0af5f0422f3ac07bbf144cac0e2c087d9be6cd00728269557b7e14f3"
# One SHA-256 over every tensor the same batch decodes to, its name and then
# its float64 bytes, so the decoder is pinned beside the encoder.
WIDE_GOLDEN_DECODED_DIGEST = "3996b81aa6f0a7b9d2c15b9c48280e6575678e3cdb8507f5934802942b2936af"


def wide_golden_payloads():
    """The batch's wire images, each with the tensors it was encoded from."""
    rng = np.random.default_rng(19)
    for r in WIDE_GOLDEN_BITS:
        tensors = {}
        for i, (rows, cols) in enumerate(WIDE_GOLDEN_SHAPES):
            kind = (i + r) % 5
            if kind == 0:
                mat = np.zeros((rows, cols))
            elif kind == 1:
                mat = np.outer(rng.normal(size=rows), rng.normal(size=cols))
            elif kind == 2:
                mat = rng.normal(size=(rows, 3)) @ rng.normal(size=(3, cols))
            elif kind == 3:  # a few outliers hold the norm, so most levels are 0
                mat = rng.standard_cauchy(size=(rows, cols))
            else:
                mat = rng.normal(scale=10.0 ** rng.integers(-6, 4), size=(rows, cols))
            tensors[f"t{i}"] = mat
        for scheme in ("dense", "quantized", "lowrank_quantized"):
            yield compress.encode_payload(tensors, scheme, r=r, tau_lowrank=0.05).blob, tensors
    for features, hidden in ((3, 8), (8, 128)):
        arch = gnn.ArchConfig(feature_dim=features, hidden=hidden, classes=3)
        step = {
            k: v - w
            for (k, v), w in zip(
                gnn.init_params(arch, seed=1).items(), gnn.init_params(arch, seed=2).values()
            )
        }
        step["mlp_b"] = 1e-3 * rng.normal(size=step["mlp_b"].shape)
        for scheme in ("dense", "quantized", "lowrank_quantized"):
            for r in (4, 16):
                yield compress.encode_payload(step, scheme, r=r, tau_lowrank=1e-4).blob, step


@functools.lru_cache(maxsize=None)
def wide_golden_digests():
    """The SHA-256 of the wide batch's wire images and the one over each
    tensor they decode to, its name and then its float64 bytes, computed in
    a fresh interpreter on OpenBLAS' Haswell kernels at this process's BLAS
    thread count."""
    script = (
        "import hashlib, sys\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "from test_compress import compress, wide_golden_payloads\n"
        "wire, decoded = hashlib.sha256(), hashlib.sha256()\n"
        "for blob, tensors in wide_golden_payloads():\n"
        "    wire.update(blob)\n"
        "    for name, values in compress.decode_payload(blob, tensors).items():\n"
        "        decoded.update(name.encode('utf-8'))\n"
        "        decoded.update(values.astype('<f8').tobytes())\n"
        "print(wire.hexdigest(), decoded.hexdigest())\n"
    )
    return tuple(TestPayloads._stdout(script, OPENBLAS_CORETYPE="Haswell").split())


@st.composite
def hostile_blobs(draw):
    """A valid payload with bytes overwritten, then cut or extended."""
    blob = bytearray(draw(st.sampled_from(_fuzz_seeds())))
    for _ in range(draw(st.integers(1, 6))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    blob = blob[: draw(st.integers(0, len(blob)))]
    return bytes(blob) + draw(st.binary(max_size=8))


def _seed_streams():
    """What follows the heads of the quantized and low-rank fuzz seeds: the
    remainder, unary and sign streams of their segments."""
    out = []
    for blob in _fuzz_seeds()[1:]:
        rd = compress._Reader(blob)
        rd.pos = HEADER_BYTES
        for x in _fuzz_tensors().values():
            compress._read_head(rd, *x.shape, 5, [])
        out.append(blob[rd.pos :])
    return out


@st.composite
def built_blobs(draw):
    """A wire version 8 payload of ``_fuzz_tensors`` put together from drawn
    parts, most of them valid, so that most draws reach the streams: a bit
    width, a head of any kind per tensor, and a seed's streams, cut or
    extended."""
    r = draw(st.sampled_from([5] * 6 + [1, 32, 0, 33]))
    norms = st.sampled_from([1.0] * 8 + [0.0, 1e300, -1.0, math.nan, math.inf])

    def segment_head(rows, cols):
        # A zero tensor, k + 1 for k up to r, or a k per row or per column,
        # whose k fields are all 0, drawn, or cut short.
        tag = draw(st.sampled_from([*range(r + 2), ROWS, COLS]))
        head = bytes([tag]) + (struct.pack("<d", draw(norms)) if tag else b"")
        if tag in (ROWS, COLS):
            n = -(-(rows if tag == ROWS else cols) * r.bit_length() // 8)
            head += draw(st.sampled_from([bytes(n), bytes(max(n - 1, 0))]) | st.binary(min_size=n, max_size=n))
        return head

    heads = b""
    for x in _fuzz_tensors().values():
        rows, cols = x.shape
        ranks = [k for k in range(1, 4) if k * (rows + cols) < x.size]
        kind = draw(st.sampled_from(["segment"] * 4 + ["factors"] * bool(ranks) + ["dense"]))
        if kind == "segment":
            heads += segment_head(rows, cols)
        elif kind == "factors":
            rank = draw(st.sampled_from(ranks))
            heads += struct.pack("<BH", 0xFE, rank)
            heads += segment_head(rows, rank) + segment_head(cols, rank)
        else:
            heads += b"\xff" + np.ones(x.size).tobytes()
    streams = draw(st.sampled_from(_seed_streams()))
    streams = streams[: draw(st.integers(0, len(streams)))] + draw(st.binary(max_size=8))
    return header(_fuzz_tensors(), r) + heads + streams


class TestQuantize:
    def test_two_coordinate_example(self):
        # ||x|| = 5; scaled magnitudes 4*(3/5, 4/5) = (2.4, 3.2) round to (2, 3).
        q = compress.quantize(np.array([3.0, 4.0]), r=2)
        assert list(q.levels) == [2, 3]
        assert q.norm == 5.0
        assert np.array_equal(compress.dequantize(q), [2.5, 3.75])

    def test_sign_bit(self):
        q = compress.quantize(np.array([-3.0, 4.0]), r=2)
        assert np.array_equal(compress.dequantize(q), [-2.5, 3.75])
        assert list(q.signs) == [1, 0]
        # A negative coordinate that rounds to level 0 has no sign: +0.0.
        q = compress.quantize(np.array([-0.01, 4.0]), r=2)
        assert list(q.levels) == [0, 3] and list(q.signs) == [0, 0]
        assert not np.signbit(compress.dequantize(q)).any()

    def test_full_scale_coordinate_saturates(self):
        # A coordinate equal to the norm hits level 2**r, which is clamped
        # to the top representable level; the residual stays under norm/2**r.
        for r in (1, 4, 8):
            q = compress.quantize(np.array([1.0, 0.0, 0.0]), r=r)
            out = compress.dequantize(q)
            assert out[0] == (2**r - 1) / 2**r
            assert out[1] == out[2] == 0.0
            assert abs(out[0] - 1.0) <= 1.0 / 2**r

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            compress.quantize(np.zeros(4), r=4)
        with pytest.raises(ZeroVector):
            compress.quantize(np.array([]), r=4)

    def test_bit_range_enforced(self):
        with pytest.raises(BadBits):
            compress.quantize(np.ones(3), r=0)
        with pytest.raises(BadBits):
            compress.quantize(np.ones(3), r=33)

    def test_deterministic_error_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            x = rng.uniform(-1.0, 1.0, size=256)
            r = int(rng.choice([2, 4, 8]))
            out = compress.dequantize(compress.quantize(x, r))
            norm = np.linalg.norm(x)
            assert np.max(np.abs(out - x)) <= norm / 2 ** (r + 1) + 1e-12

    def test_high_precision_relative_error(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, size=256)
            out = compress.dequantize(compress.quantize(x, 32))
            assert np.linalg.norm(out - x) <= 1e-6 * np.linalg.norm(x)

    def test_all_zero_levels_dequantize_to_zeros(self):
        q = compress.QuantizedVector(
            r=3, norm=2.0, signs=np.zeros(4, dtype=np.uint8), levels=np.zeros(4, dtype=np.uint32)
        )
        assert np.array_equal(compress.dequantize(q), np.zeros(4))


class TestLevelPacking:
    @pytest.mark.parametrize("r", range(1, 33))
    def test_matches_bitwise_reference(self, r):
        # Both sides of the bit-matrix route's limit.
        rng = np.random.default_rng(r)
        limit = compress._BIT_ROUTE_LEVELS
        for n in (1, 7, 8, 9, limit, limit + 1, 1000):
            levels = rng.integers(0, 2**r, size=n, dtype=np.uint64).astype(np.uint32)
            levels[-1] = 2**r - 1  # a saturated level
            packed = compress._pack_levels([levels], r)
            assert packed == reference_pack(levels, r)
            assert len(packed) == math.ceil(n * r / 8)
            assert np.array_equal(compress._unpack_levels(packed, n, r), levels)

    @pytest.mark.parametrize("r", [1, 3, 7, 8, 11, 16, 17, 24, 31, 32])
    def test_pieces_pack_as_their_concatenation(self, r):
        # A width's remainder stream is packed once from the segments'
        # pieces, with no padding between them, at any piece size.
        rng = np.random.default_rng(50 + r)
        limit = compress._BIT_ROUTE_LEVELS
        for sizes in ((1, 7, 3), (9, 600, 2), (limit + 1,), (100, limit - 100), (300, 300)):
            pieces = [rng.integers(0, 2**r, size=n, dtype=np.uint64).astype(np.uint32) for n in sizes]
            whole = np.concatenate(pieces)
            assert compress._pack_levels(pieces, r) == reference_pack(whole, r)

    @pytest.mark.parametrize("r", [1, 3, 7, 11, 16, 17, 24, 31, 32])
    def test_unpack_crosses_chunk_boundaries(self, r):
        rng = np.random.default_rng(100 + r)
        chunk = compress._UNPACK_CHUNK
        for n in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            levels = rng.integers(0, 2**r, size=n, dtype=np.uint64).astype(np.uint32)
            levels[::997] = 2**r - 1  # saturated levels on both sides of each boundary
            packed = compress._pack_levels([levels], r)
            assert np.array_equal(compress._unpack_levels(packed, n, r), levels)


class TestRiceCoding:
    @pytest.mark.parametrize("r", range(1, 33))
    def test_quantized_coding_is_lossless(self, r):
        rng = np.random.default_rng(200 + r)
        saturated = np.zeros(13)
        saturated[[2, 11]] = [-1.0, 1e-9]  # level 2**r - 1, a tiny value, zeros
        cases = [rng.normal(size=n) for n in (1, 7, 9, 1000)]
        cases += [rng.standard_cauchy(size=999), saturated]
        if r <= 5:  # every level rounds to zero, half of them from below
            cases.append(np.resize([1.0, -1.0], 4 ** (r + 1) + 1))
        for x in cases:
            tensors = {"x": x.reshape(1, -1)}
            p = compress.encode_payload(tensors, "quantized", r=r)
            out = compress.decode_payload(p, tensors)["x"].ravel()
            ref = compress.dequantize(compress.quantize(x, r))
            assert np.array_equal(out, ref)
            assert np.array_equal(np.signbit(out), np.signbit(ref))
            assert len(p.blob) == quantized_payload_bytes(tensors, r)
        assert compress.quantize(saturated, r).levels[2] == 2**r - 1
        # All-zero levels under a nonzero norm, in the shortest Rice body.
        n = 13
        unary = bytes([0xFF, 0x1F])  # 13 lone terminators
        blob = quantized_blob(n, r, rice_segment(0, unary))
        out = compress.decode_payload(blob, one_tensor(1, n))["x"]
        assert np.array_equal(out, np.zeros((1, n))) and not np.signbit(out).any()

    @pytest.mark.parametrize("chunk", [8, 16])
    def test_decoding_crosses_chunk_boundaries(self, monkeypatch, chunk):
        # Small chunks, scan steps and passes put many boundaries inside each
        # unary, remainder and sign stream, and start passes at bits inside
        # a byte; neither the wire bytes nor the values may depend on them.
        rng = np.random.default_rng(300)
        cases = []
        for r in (3, 7, 16, 29):
            tensors = {f"x{i}": rng.normal(size=(1, n)) for i, n in enumerate((1001, 37, 3, 250))}
            tensors["x1"][0, :5] *= 1e4  # a few large values, so this one's k differs
            cases.append((compress.encode_payload(tensors, "quantized", r=r).blob, tensors, r))
        monkeypatch.setattr(compress, "_UNPACK_CHUNK", chunk)
        monkeypatch.setattr(compress, "_SCAN_BYTES", chunk // 8)
        monkeypatch.setattr(compress, "_PASS_VALUES", 2 * chunk)
        for blob, tensors, r in cases:
            assert compress.encode_payload(tensors, "quantized", r=r).blob == blob
            out = compress.decode_payload(blob, tensors)
            for name, x in tensors.items():
                assert np.array_equal(out[name].ravel(), compress.dequantize(compress.quantize(x, r)))

    def test_rice_body_layout(self):
        # Levels 0, 3 and 5 at r = 4 and k = 1: remainders 0, 1, 1; quotients
        # 0, 1, 2 are the unary codes 1, 01, 001; signs of 3 and 5 only.
        seg = rice_segment(1, bytes([0b100101]), bytes([0b110]), bytes([0b01]))
        out = compress.decode_payload(quantized_blob(3, 4, seg), one_tensor(1, 3))["x"]
        assert out.tolist() == [[0.0, -3 / 16, 5 / 16]]

    @pytest.mark.parametrize(
        ("r", "n", "segment", "match"),
        [
            (4, 3, rice_segment(5, bytes([0b100101]), bytes([0b110]), bytes([1])), "Rice parameter"),
            (4, 3, rice_segment(200, bytes([0b100101]), bytes([0b110]), bytes([1])), "Rice parameter"),
            # Two terminators, then the payload ends.
            (4, 3, rice_segment(1, bytes([0b101, 0]), bytes([0b110])), "2 of 3 terminators"),
            # A long zero run that never ends, past the first scan steps.
            (4, 3, rice_segment(1, bytes([0b101]) + bytes(1000), bytes([0b110])), "2 of 3 terminators"),
            (4, 9, rice_segment(1, b"", bytes(2)), "cannot hold"),
            # A fourth 1 bit after the third terminator, in the same byte.
            (4, 3, rice_segment(1, bytes([0b1100101]), bytes([0b110]), bytes([1])), "after its last"),
            (4, 3, rice_segment(1, bytes([0b100101]), bytes([0b110])), "truncated"),
            # Quotient 8 at k = 1 is level 16 = 2**4.
            (4, 3, rice_segment(1, bytes([0b101, 0b1000]), bytes([0]), bytes([3])), "fit in 4 bits"),
            # Quotient 2 at k = 31 is level 2**32, which a uint32 shift would wrap to 0.
            (32, 1, rice_segment(31, bytes([0b100]), bytes(4), bytes([1])), "fit in 32"),
        ],
        ids=[
            "k-above-r", "k-above-32", "too-few-terminators", "endless-zero-run",
            "empty-unary", "bit-after-last-terminator", "missing-sign-byte",
            "level-2-pow-r", "level-2-pow-32",
        ],
    )
    def test_hostile_rice_body_is_malformed(self, r, n, segment, match):
        with pytest.raises(MalformedPayload, match=match):
            compress.decode_payload(quantized_blob(n, r, segment), one_tensor(1, n))

    @pytest.mark.parametrize(
        ("ks", "levels"),
        [
            # The second width, k = 2, holds quotient 4 = 2**(r - k).
            ((0, 2), ([1, 2], [1, 16])),
            # The k = 0 width, which comes first, holds quotient 16 = 2**r.
            ((2, 0), ([5, 9], [3, 16])),
        ],
        ids=["second-width", "k-0-width"],
    )
    def test_oversized_level_is_refused_in_any_width(self, ks, levels):
        # Two segments of two levels at r = 4, each at its own k, so the
        # streams hold two widths; level 16 = 2**r is in one of them.
        r, like = 4, {"x": np.zeros((1, 2)), "y": np.zeros((1, 2))}

        def blob(levels):
            runs = sorted(zip(ks, levels))  # the streams take the segments by k
            unary = "".join("0" * (level >> k) + "1" for k, line in runs for level in line)
            return b"".join(
                [header(like, r)]
                + [struct.pack("<Bd", k + 1, 1.0) for k in ks]
                + [reference_pack(np.array(line) % 2**k, k) for k, line in runs if k]
                + [int(unary[::-1], 2).to_bytes((len(unary) + 7) // 8, "little"), bytes(1)]
            )

        with pytest.raises(MalformedPayload, match=f"does not fit in {r} bits"):
            compress.decode_payload(blob(levels), like)
        # One level less, 2**r - 1, decodes.
        fitting = [[min(level, 2**r - 1) for level in line] for line in levels]
        out = compress.decode_payload(blob(fitting), like)
        assert [out[name].ravel().tolist() for name in like] == [[v / 2**r for v in line] for line in fitting]

    @pytest.mark.parametrize("tag", [ROWS, COLS])
    def test_per_line_body_layout(self, tag):
        # A 2x3 matrix at r = 4 with a k per row, or its 3x2 transpose with a
        # k per column: line 0 at k = 2 with levels 5, 0, 9 and line 1 at k =
        # 0 with levels 1, 0, 2, in 3-bit k fields 2 and 0.  The streams take
        # line 1 (k = 0) before line 0 (k = 2): 2-bit remainders 1, 0, 1;
        # unary codes 01 1 001 and then 01 1 001; signs of 1, 2, 5 and 9,
        # with 2 and 5 negative.
        head = struct.pack("<BdB", tag, 1.0, 0b000010)
        body = head + bytes([0b010001]) + bytes([0b10100110, 0b1001]) + bytes([0b0110])
        lines = np.array([[-5, 0, 9], [1, 0, -2]]) / 16
        shape = (2, 3) if tag == ROWS else (3, 2)
        out = compress.decode_payload(tensor_blob(*shape, body), one_tensor(*shape))["x"]
        assert out.tolist() == (lines if tag == ROWS else lines.T).tolist()

    def test_tag_above_the_header_bit_width_is_malformed(self):
        # The encoder's payload at r = 8 decodes; the same bytes under a
        # header that says r = 2 carry tags whose k is above it.
        tensors = _fuzz_tensors()
        blob = bytearray(compress.encode_payload(tensors, "quantized", r=8).blob)
        assert compress.decode_payload(bytes(blob), tensors).keys() == tensors.keys()
        k = blob[HEADER_BYTES] - 1  # the first tensor's
        assert k > 2
        blob[5] = 2
        with pytest.raises(MalformedPayload, match=f"Rice parameter {k} is above the bit width 2"):
            compress.decode_payload(bytes(blob), tensors)
        for r in (0, 33, 255):
            blob[5] = r
            with pytest.raises(MalformedPayload, match=f"invalid bit width {r}"):
                compress.decode_payload(bytes(blob), tensors)

    def test_fuzz_seeds_hold_both_bodies(self, monkeypatch):
        # One k below r and at r, a k per row and a k per column.
        monkeypatch.setattr(compress, "_LINE_VALUES", 1)
        tensors = _fuzz_tensors()
        g, b, p, q = compress._quant_segments([tensors[name] for name in "gbpq"], 5)
        assert g.head[0] - 1 < 5 and b.head[0] - 1 == 5
        assert (p.head[0], q.head[0]) == (ROWS, COLS)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        shape=st.sampled_from([(1, 9), (9, 1), (8, 8), (128, 128)]),
        r=st.sampled_from([1, 2, 7, 16, 31, 32]),
        axis=st.sampled_from([0, 1]),
        decades=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    @example(shape=(128, 128), r=32, axis=0, decades=9, seed=0)
    @example(shape=(8, 8), r=32, axis=1, decades=9, seed=1)
    def test_per_line_layouts_are_lossless(self, shape, r, axis, decades, seed):
        # Rows (axis 0) or columns (axis 1) scaled across up to 9 decades,
        # and the transpose beside, so that both per-line layouts get
        # picked; segments of any size are judged per line here.  At r = 32
        # lines reach k = 30 here, where quotient << k overflows a uint32
        # unless the quotient is checked first.
        rng = np.random.default_rng(seed)
        scales = 10.0 ** -rng.uniform(0, decades, size=shape[axis])
        x = rng.normal(size=shape) * (scales[:, None] if axis == 0 else scales[None, :])
        tensors = {"x": x, "t": x.T.copy()}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compress, "_LINE_VALUES", 1)
            p = compress.encode_payload(tensors, "quantized", r=r)
            assert len(p.blob) == quantized_payload_bytes(tensors, r)
        out = compress.decode_payload(p, tensors)
        for name, t in tensors.items():
            assert np.array_equal(out[name].ravel(), compress.dequantize(compress.quantize(t, r)))
        # No payload is longer than with one k per segment, padding included.
        assert len(p.blob) <= quantized_payload_bytes(tensors, r, lines=False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compress, "_LINE_VALUES", 2**62)
            assert len(p.blob) <= len(compress.encode_payload(tensors, "quantized", r=r).blob)
        # A per-line layout travels only when its level bits, k fields and
        # padding margin are fewer bits than one k, each line at the best k
        # for it.
        heads, rd = [], compress._Reader(p.blob)
        rd.pos = HEADER_BYTES
        for t in tensors.values():
            compress._read_head(rd, *t.shape, r, heads)
        for (tag, _, _, ks, _), t in zip(heads, tensors.values()):
            layouts = {name: (lines, head) for name, lines, head in segment_layouts(t, r)}
            one_k = layout_bits(layouts["one"][0], r)[1]
            if tag in (ROWS, COLS):
                lines, head = layouts["rows" if tag == ROWS else "cols"]
                assert ks.tolist() == [rice_choice(line, r)[0] for line in lines]
                margin = 7 * (len(set(ks.tolist())) + 2)
                assert layout_bits(lines, r)[1] + 8 * (head - SEGMENT_HEAD_BYTES) + margin < one_k
            else:
                assert tag - 1 == rice_choice(layouts["one"][0][0], r)[0]

    def test_only_large_segments_take_a_k_per_line(self):
        # Columns scaled across 6 decades: a 64x64 segment (4096 values)
        # takes a k per column, a 63x64 one (4032 values) one k.
        rng = np.random.default_rng(7)
        for rows, tag in ((64, COLS), (63, None)):
            x = rng.normal(size=(rows, 64)) * 10.0 ** -rng.uniform(0, 6, size=64)
            p = compress.encode_payload({"x": x}, "quantized", r=16)
            got = p.blob[HEADER_BYTES]
            assert got == tag if tag else got - 1 <= 16
            assert len(p.blob) == quantized_payload_bytes({"x": x}, 16)
            out = compress.decode_payload(p, {"x": x})["x"].ravel()
            assert np.array_equal(out, compress.dequantize(compress.quantize(x, 16)))

    def test_line_at_k_equal_to_r_beside_a_rice_line(self, monkeypatch):
        # At r = 32 a row of levels above 2**31 travels as 32-bit fields
        # (k = r; k = 31 would cost as much, so it never wins), beside a
        # row of small levels at k = 2.
        monkeypatch.setattr(compress, "_LINE_VALUES", 1)
        x = np.array([[1.0, -0.999, 0.998], [1e-9, 2e-9, -3e-9]])
        p = compress.encode_payload({"x": x}, "quantized", r=32)
        heads, rd = [], compress._Reader(p.blob)
        rd.pos = HEADER_BYTES
        compress._read_head(rd, 2, 3, 32, heads)
        assert heads[0][0] == ROWS and heads[0][3].tolist() == [32, 2]
        out = compress.decode_payload(p, {"x": x})["x"].ravel()
        assert np.array_equal(out, compress.dequantize(compress.quantize(x, 32)))

    @pytest.mark.parametrize("r", [1, 8, 16, 32])
    def test_k_equal_to_r_is_lossless(self, r):
        # A hand-built k = r segment: r-bit levels, no unary stream, and
        # the signs of the nonzero levels.
        rng = np.random.default_rng(400 + r)
        levels = rng.integers(0, 2**r, size=29, dtype=np.uint64).astype(np.uint32)
        levels[[0, 1]] = [0, 2**r - 1]
        signs = rng.integers(0, 2, size=29, dtype=np.uint8) * (levels != 0)
        segment = struct.pack("<Bd", r + 1, 3.0) + reference_pack(levels, r)
        segment += np.packbits(signs[levels != 0], bitorder="little").tobytes()
        out = compress.decode_payload(quantized_blob(29, r, segment), one_tensor(1, 29))["x"].ravel()
        ref = compress.dequantize(compress.QuantizedVector(r=r, norm=3.0, signs=signs, levels=levels))
        assert np.array_equal(out, ref)
        # The encoder's k = r segment of two large levels, (0.6, 0.8) * 2**r.
        x = np.array([[3.0, -4.0]])
        p = compress.encode_payload({"x": x}, "quantized", r=r)
        assert p.blob[HEADER_BYTES] == r + 1
        out = compress.decode_payload(p, {"x": x})["x"].ravel()
        assert np.array_equal(out, compress.dequantize(compress.quantize(x, r)))


class TestSparsify:
    """``fedcore.apply_sparsifier``'s mask rules on a single matrix."""

    @staticmethod
    def threshold(m, cut):
        cfg = ClientConfig(sparsifier="threshold", cut_sparse=cut)
        params = {"m": np.asarray(m)}
        return dense(fedcore.apply_sparsifier(params, cfg), params)["m"]

    @staticmethod
    def topk(m, k):
        m = np.asarray(m)
        cfg = ClientConfig(sparsifier="topk", beta=k / m.size)
        assert math.ceil(cfg.beta * m.size) == k
        return dense(fedcore.apply_sparsifier({"m": m}, cfg), {"m": m})["m"]

    def test_threshold_zero_keeps_all_nonzeros(self):
        # NaN and Inf are kept, so the finiteness check downstream sees them.
        for m in ([[0.5, 0.0], [-0.2, 1.0]], [[np.nan, 1.0, np.inf]]):
            m = np.array(m)
            assert np.array_equal(self.threshold(m, 0.0), m, equal_nan=True)

    def test_threshold_drops_small_magnitudes(self):
        m = np.array([[0.5, -0.01], [0.0, 2.0]])
        assert self.threshold(m, 0.1).tolist() == [[0.5, 0.0], [0.0, 2.0]]

    def test_threshold_huge_cut_empties(self):
        assert not self.threshold(np.ones((3, 3)), 1e300).any()

    def test_topk_full_k_is_identity_support(self):
        for m in ([[1.0, 0.0], [-2.0, 3.0]], [[np.nan, 1.0, np.inf]]):
            m = np.array(m)
            assert np.array_equal(self.topk(m, m.size), m, equal_nan=True)

    def test_topk_zero_is_empty(self):
        assert not self.topk(np.ones((2, 2)), 0).any()

    def test_topk_selects_largest_magnitudes(self):
        m = np.array([[1.0, -3.0], [2.0, 0.0]])
        assert self.topk(m, 2).tolist() == [[0.0, -3.0], [2.0, 0.0]]

    def test_topk_breaks_ties_by_flat_index(self):
        m = np.array([[2.0, -2.0], [2.0, 1.0]])
        assert self.topk(m, 2).tolist() == [[2.0, -2.0], [0.0, 0.0]]

    def test_topk_is_best_k_sparse_approximation(self):
        # Brute-force oracle: try every support of size k on 3x3 matrices.
        from itertools import combinations

        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.normal(size=(3, 3))
            flat = m.ravel()
            for k in range(0, 4):
                best = min(
                    np.linalg.norm(np.delete(flat, support))
                    for support in combinations(range(9), k)
                )
                ours = np.linalg.norm(m - self.topk(m, k))
                assert ours <= best + 1e-12


class TestPayloads:
    def test_dense_bit_count(self):
        p = compress.encode_payload({"a": np.ones((2, 2))}, "dense")
        expected = HEADER_BYTES + 1 + 4 * 8  # tag, values
        assert compress.payload_bits(p) == expected * 8

    def test_quantized_bit_count_n1024(self):
        x = np.random.default_rng(8).normal(size=(32, 32))
        p = compress.encode_payload({"t": x}, "quantized", r=4)
        # Levels are about |x| / 2 here, so k = 0 and each level costs its
        # value plus one unary bit, and a sign bit if it is nonzero.
        levels = compress.quantize(x, 4).levels
        unary, signs = int(levels.sum()) + 1024, int(np.count_nonzero(levels))
        assert (unary, signs) == (1348, 321)
        assert rice_choice(levels, 4) == (0, unary)
        expected = HEADER_BYTES + SEGMENT_HEAD_BYTES + 169 + 41  # unary, signs
        assert compress.payload_bits(p) == expected * 8 == quantized_payload_bytes({"t": x}, 4) * 8
        # At k = r each level would cost 4 bits, 512 bytes in all.
        assert 169 < 512

    def test_streams_are_padded_once_per_payload(self):
        # Segments at k = 0, at two widths 0 < k < r and at k = r, and a zero
        # tensor.  The payload is the header, the heads, and each stream
        # padded once: ceil(unary / 8) + sum over widths of ceil(rem / 8) +
        # ceil(signs / 8).  Padding each segment's streams would cost more.
        rng = np.random.default_rng(16)
        tensors = {
            "a": rng.normal(size=(9, 7)),
            "b": rng.normal(size=(1, 13)),
            "c": rng.standard_cauchy(size=(5, 11)),
            "z": np.zeros((2, 3)),
            "d": rng.normal(size=(3, 3)),
            "e": rng.normal(size=(1, 3)),
            "f": rng.normal(size=(31, 5)),
        }
        r = 4
        segments = [compress.quantize(x, r).levels for x in tensors.values() if x.any()]
        choices = [rice_choice(levels, r) for levels in segments]
        ks = [k for k, _ in choices]
        assert 0 in ks and r in ks and len({k for k in ks if 0 < k < r}) >= 2
        unary = sum(u for _, u in choices)
        signs = sum(int(np.count_nonzero(levels)) for levels in segments)
        rem = {}
        for (k, _), levels in zip(choices, segments):
            rem[k] = rem.get(k, 0) + levels.size * k
        heads = 1 + SEGMENT_HEAD_BYTES * len(segments)
        expected = HEADER_BYTES + heads + -(-unary // 8)
        expected += sum(-(-bits // 8) for bits in rem.values()) + -(-signs // 8)
        p = compress.encode_payload(tensors, "quantized", r=r)
        assert len(p.blob) == expected == quantized_payload_bytes(tensors, r)
        per_segment = sum(
            -(-u // 8) + -(-levels.size * k // 8) + -(-int(np.count_nonzero(levels)) // 8)
            for (k, u), levels in zip(choices, segments)
        )
        assert len(p.blob) < HEADER_BYTES + heads + per_segment
        out = compress.decode_payload(p, tensors)
        for name, x in tensors.items():
            ref = compress.dequantize(compress.quantize(x, r)) if x.any() else np.zeros(x.size)
            assert np.array_equal(out[name].ravel(), ref)

    def test_empty_payload_is_header_only(self):
        p = compress.encode_payload({}, "dense")
        assert compress.payload_bits(p) == HEADER_BYTES * 8

    def test_monotone_compression(self):
        rng = np.random.default_rng(9)
        for n in (16, 17, 31, 64, 1000):
            x = rng.normal(size=(1, n))
            bits = {
                r: compress.payload_bits(compress.encode_payload({"x": x}, "quantized", r=r))
                for r in (4, 8, 32)
            }
            dense = compress.payload_bits(compress.encode_payload({"x": x}, "dense"))
            assert bits[4] < bits[8] < bits[32] < dense

    def test_dense_roundtrip_is_exact(self):
        rng = np.random.default_rng(10)
        tensors = {"w": rng.normal(size=(3, 5)), "b": rng.normal(size=(1, 5))}
        out = compress.decode_payload(compress.encode_payload(tensors, "dense"), tensors)
        assert list(out) == ["w", "b"]
        assert np.array_equal(out["w"], tensors["w"])
        assert np.array_equal(out["b"], tensors["b"])

    def test_quantized_roundtrip_matches_dequantize(self):
        x = np.array([[3.0, 4.0]])
        out = compress.decode_payload(compress.encode_payload({"x": x}, "quantized", r=2), {"x": x})
        assert np.array_equal(out["x"], [[2.5, 3.75]])

    def test_zero_tensor_marker(self):
        tensors = {"z": np.zeros((4, 4)), "x": np.ones((2, 2))}
        for scheme in ("quantized", "lowrank_quantized"):
            out = compress.decode_payload(compress.encode_payload(tensors, scheme, r=8), tensors)
            assert np.array_equal(out["z"], np.zeros((4, 4)))
        # A zero tensor is the one body byte 0 under both schemes.
        for scheme in ("quantized", "lowrank_quantized"):
            p = compress.encode_payload({"z": np.zeros((4, 4))}, scheme, r=8)
            assert compress.payload_bits(p) == (HEADER_BYTES + 1) * 8
            assert p.blob[-1] == 0
        assert compress.encode_payload({"z": np.zeros((4, 4))}, "lowrank_quantized").ranks == {"z": 0}

    def test_lowrank_reconstruction_quality(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 6))  # exactly rank 3
        p = compress.encode_payload({"m": base}, "lowrank_quantized", r=32, tau_lowrank=1e-6)
        out = compress.decode_payload(p, {"m": base})["m"]
        assert np.linalg.norm(out - base) <= 1e-6 * np.linalg.norm(base)

    def test_lowrank_encoding_builds_no_reconstruction(self, monkeypatch):
        # The encoder truncates once and gets the factors, (rows, k) and
        # (cols, k), never the truncated rows x cols matrix.
        shapes = []
        real = linalg.lowrank_truncate

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            shapes.append([f.shape for f in out])
            return out

        monkeypatch.setattr(linalg, "lowrank_truncate", spy)
        x = np.random.default_rng(11).normal(size=(8, 6))
        p = compress.encode_payload({"m": x}, "lowrank_quantized", r=8, tau_lowrank=0.3)
        k = linalg.retained_rank(linalg.svd(x), 0.3)
        assert 0 < k < 6
        assert shapes == [[(8, k), (6, k)]]
        assert compress.decode_payload(p, {"m": x})["m"].shape == (8, 6)

    def test_lowrank_bit_count_is_rank_and_factors(self):
        # At rank 2 the factors' payload (64 bytes) beats the plain one (74
        # bytes).  Both factors are Rice-coded at k = 5, the plain matrix at
        # k = 4.
        rng = np.random.default_rng(11)
        base = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 6))  # exactly rank 2
        p = compress.encode_payload({"m": base}, "lowrank_quantized", r=8, tau_lowrank=1e-6)
        dec = linalg.svd(base)
        left, right = dec.u[:, :2] * dec.sigma[:2], dec.v[:, :2]
        levels = [compress.quantize(m, 8).levels for m in (left, right)]
        assert [rice_choice(lv, 8) for lv in levels] == [(5, 41), (5, 30)]
        assert [int(np.count_nonzero(lv)) for lv in levels] == [20, 12]
        # Tag and rank, two heads, 32 remainders at 5 bits, 71 unary bits, 32 signs.
        expected = HEADER_BYTES + 3 + 2 * SEGMENT_HEAD_BYTES + 20 + 9 + 4
        assert expected == 64
        assert compress.payload_bits(p) == expected * 8
        assert quantized_payload_bytes({"m": base}, 8) == 74
        assert p.ranks == {"m": 2}

    def test_lowrank_rank_above_255_roundtrips(self):
        # Rank 260 of 600x600 pays: 260 * 1200 factor values < 360000.
        rng = np.random.default_rng(13)
        m = rng.normal(size=(600, 260)) @ rng.normal(size=(260, 600))
        p = compress.encode_payload({"m": m}, "lowrank_quantized", r=16, tau_lowrank=1e-6)
        start = HEADER_BYTES
        assert struct.unpack("<BH", p.blob[start : start + 3]) == (0xFE, 260)
        assert p.ranks == {"m": 260}
        out = compress.decode_payload(p, {"m": m})["m"]
        assert np.linalg.norm(out - m) <= 1e-2 * np.linalg.norm(m)

    def test_lowrank_full_rank_matrix_travels_plain(self):
        # Rank 6 of 8x6 would need 84 factor values for 48 entries, so the
        # body is the quantized scheme's segment, and so is the payload.
        m = np.random.default_rng(15).normal(size=(8, 6))
        p = compress.encode_payload({"m": m}, "lowrank_quantized", r=4, tau_lowrank=1e-4)
        q = compress.encode_payload({"m": m}, "quantized", r=4)
        assert p.blob == q.blob
        assert p.ranks == {"m": 6}

    @pytest.mark.parametrize("r", [1, 4, 16, 32])
    def test_zero_cutoff_is_the_quantized_scheme(self, r):
        # At tau_lowrank = 0 a full-rank matrix keeps every singular triple
        # and travels plain, a bias row skips the factorization and a zero
        # matrix is one zero byte on both schemes, so the low-rank downlink
        # at cutoff 0 is the quantized one; no separate scheme knob is needed.
        rng = np.random.default_rng(r)
        tensors = {
            "wide": rng.normal(size=(6, 9)),
            "tall": rng.normal(size=(12, 4)),
            "square": rng.normal(size=(5, 5)),
            "bias": rng.normal(size=(1, 7)),
            "zero": np.zeros((4, 3)),
        }
        low = compress.encode_payload(tensors, "lowrank_quantized", r=r, tau_lowrank=0.0)
        plain = compress.encode_payload(tensors, "quantized", r=r)
        assert low.blob == plain.blob
        assert low.ranks == {"wide": 6, "tall": 4, "square": 5, "zero": 0}

    def test_factored_body_that_does_not_pay_is_malformed(self):
        # Rank 3 of 4x3 would be 21 factor values for 12 entries; the encoder
        # never writes it, so the decoder refuses it.
        # Two factors of norm 1 at k = r = 4 whose levels are all 1: their
        # 4-bit remainders, no unary codes, and a positive sign per level.
        def factors(rank, rows, cols):
            n = rank * (rows + cols)
            heads = struct.pack("<BHBdBd", 0xFE, rank, 5, 1.0, 5, 1.0)
            return heads + bytes([0x11]) * (n // 2) + bytes(-(-n // 8))

        with pytest.raises(MalformedPayload, match="rank 3"):
            compress.decode_payload(tensor_blob(4, 3, factors(3, 4, 3)), one_tensor(4, 3))
        # A rank-1 body of 8x6 is a valid factored one.
        out = compress.decode_payload(tensor_blob(8, 6, factors(1, 8, 6)), one_tensor(8, 6))["x"]
        assert np.array_equal(out, np.full((8, 6), 1 / 16**2))

    @pytest.mark.parametrize(
        ("rows", "cols", "body", "match"),
        [
            # A tag is k + 1; at the header's r = 4, k stops at 4.
            (1, 3, bytes([33]), "Rice parameter 32 is above the bit width 4"),
            (1, 3, bytes([0xFB]), "Rice parameter 250 is above the bit width 4"),
            # A matrix with a unit dimension takes one k.
            (1, 3, bytes([ROWS]), "1x3 matrix takes one Rice parameter, not layout tag 253"),
            (3, 1, bytes([COLS]), "3x1 matrix takes one Rice parameter, not layout tag 252"),
            # Factors of rank 1 have one column.
            (8, 6, struct.pack("<BHB", 0xFE, 1, COLS), "8x1 matrix takes one Rice parameter"),
            # Three row k fields of 3 bits at r = 4 need 2 bytes.
            (3, 2, struct.pack("<Bd", ROWS, 1.0) + bytes(1), "truncated"),
            # Row k fields 4, 5, 0: k = 5 is above r = 4.
            (3, 2, struct.pack("<BdH", ROWS, 1.0, 0b000101100), "line Rice parameter 5 is above"),
            (4, 4, struct.pack("<BH", 0xFE, 0), "rank 0"),
            # Factors of a 1 x n matrix never hold fewer values than it.
            (1, 8, struct.pack("<BH", 0xFE, 1) + bytes(2), "rank 1 for 1x8"),
            # A factor is a quantized segment, never factors again.
            (8, 6, struct.pack("<BHB", 0xFE, 1, 0xFE) + bytes(8), "invalid body byte 254"),
            (8, 6, struct.pack("<BHB", 0xFE, 1, 0xFF) + bytes(8), "invalid body byte 255"),
            (1, 3, b"\xff" + bytes(23), "truncated"),
            (1, 3, b"\xff" + struct.pack("<3d", 1.0, math.nan, 2.0), "NaN or Inf"),
        ],
        ids=[
            "byte-33", "byte-0xFB", "byte-0xFD", "column-layout-of-nx1",
            "column-layout-of-rank-1-factor", "line-ks-cut-short", "line-k-above-r",
            "rank-0", "factors-of-1xn", "nested-factors",
            "dense-factor", "dense-cut-short", "dense-nan",
        ],
    )
    def test_hostile_body_is_malformed(self, rows, cols, body, match):
        with pytest.raises(MalformedPayload, match=match):
            compress.decode_payload(tensor_blob(rows, cols, body), one_tensor(rows, cols))

    def test_lowrank_truncates_before_shipping(self):
        u, v = np.ones((6, 1)), np.ones((5, 1))
        spread = u @ v.T + 0.001 * np.eye(6, 5)  # dominant rank-1 plus noise
        p = compress.encode_payload({"m": spread}, "lowrank_quantized", r=32, tau_lowrank=0.5)
        out = compress.decode_payload(p, {"m": spread})["m"]
        assert np.linalg.matrix_rank(out, tol=1e-6) == 1

    def test_lowrank_bias_rows_pass_through_quantized(self):
        bias = np.array([[0.5, -0.25, 0.125]])
        p = compress.encode_payload({"b": bias}, "lowrank_quantized", r=32, tau_lowrank=0.9)
        out = compress.decode_payload(p, {"b": bias})["b"]
        assert np.allclose(out, bias, atol=1e-9)

    def test_truncated_stream_is_malformed(self):
        blob = compress.encode_payload({"x": np.ones((2, 2))}, "dense").blob
        for cut in (1, 8, len(blob) - 1):
            with pytest.raises(MalformedPayload):
                compress.decode_payload(blob[:cut], one_tensor(2, 2))

    def test_bad_magic_and_version(self):
        blob = compress.encode_payload({"x": np.ones((1, 1))}, "dense").blob
        with pytest.raises(MalformedPayload):
            compress.decode_payload(b"XXXX" + blob[4:], one_tensor(1, 1))
        for version in (1, 2, 3, 4, 5, 6, 7, 99):
            bad_version = blob[:4] + bytes([version]) + blob[5:]
            with pytest.raises(MalformedPayload, match=f"unsupported payload version {version}"):
                compress.decode_payload(bad_version, one_tensor(1, 1))

    def test_version_6_payload_is_refused(self):
        # Wire version 6 wrote version u16 6 where version 7 has its version
        # byte and r, then the same schema check and a per-segment layout.
        tensors = {"x": np.array([[0.6, -0.8]])}
        check = schema_check([("x", (1, 2))])
        v6 = compress.MAGIC + struct.pack("<H", 6) + check + struct.pack("<BdB", 4, 1.0, 4)
        v6 += bytes([0xDA, 0x02])  # levels 10 and 13 at k = r = 4, then their signs
        with pytest.raises(MalformedPayload, match="unsupported payload version 6"):
            compress.decode_payload(v6, tensors)

    def test_version_7_payload_is_refused(self):
        # Wire version 7 had the same header and one k per segment, whose
        # streams version 8 reads alike; its version byte is refused.
        tensors = {"x": np.array([[0.6, -0.8]])}
        check = schema_check([("x", (1, 2))])
        v7 = compress.MAGIC + struct.pack("<BB", 7, 4) + check + struct.pack("<Bd", 5, 1.0)
        v7 += bytes([0xDA, 0x02])  # levels 10 and 13 at k = r = 4, then their signs
        with pytest.raises(MalformedPayload, match="unsupported payload version 7"):
            compress.decode_payload(v7, tensors)
        v8 = compress.MAGIC + struct.pack("<BB", 8, 4) + v7[6:]
        assert compress.decode_payload(v8, tensors)["x"].tolist() == [[10 / 16, -13 / 16]]

    def test_duplicated_name_is_malformed(self):
        # A dict cannot hold both tensors, so a payload of "x" twice is
        # refused rather than collapsed to one: by its schema check, or by
        # its second body when the check is "x"'s alone.
        head = compress.MAGIC + struct.pack("<BB", compress.WIRE_VERSION, 4)
        blob = head + schema_check([("x", (1, 1))] * 2) + b"\x00" * 2
        with pytest.raises(MalformedPayload, match="schema check"):
            compress.decode_payload(blob, one_tensor(1, 1))
        with pytest.raises(MalformedPayload, match="1 trailing bytes"):
            compress.decode_payload(tensor_blob(1, 1, b"\x00" * 2), one_tensor(1, 1))

    def test_trailing_garbage_is_malformed(self):
        blob = compress.encode_payload({"x": np.ones((1, 1))}, "dense").blob
        with pytest.raises(MalformedPayload):
            compress.decode_payload(blob + b"\x00", one_tensor(1, 1))
        tensors = _fuzz_tensors()
        blob = compress.encode_payload(tensors, "quantized", r=5).blob
        with pytest.raises(MalformedPayload, match="1 trailing bytes after the sign stream"):
            compress.decode_payload(blob + b"\x00", tensors)

    def test_oversized_declared_tensor_is_malformed(self):
        # A payload encoded for a (2**32-1) x (2**32-1) all-zero tensor is 11
        # bytes.  The receiver's tensor sets the size, so against a 1x1 one
        # the schema check refuses it, and a 1x1 zero body decodes to 1x1.
        head = compress.MAGIC + struct.pack("<BB", compress.WIRE_VERSION, 4)
        blob = head + schema_check([("x", (2**32 - 1, 2**32 - 1))]) + b"\x00"
        assert len(blob) == 11
        with pytest.raises(MalformedPayload, match="schema check"):
            compress.decode_payload(blob, one_tensor(1, 1))
        assert compress.decode_payload(tensor_blob(1, 1, b"\x00"), one_tensor(1, 1))["x"].shape == (1, 1)

    @pytest.mark.parametrize(
        "norm", [math.nan, math.inf, -1e308], ids=["nan", "inf", "negative"]
    )
    def test_invalid_norm_is_malformed(self, norm):
        like = one_tensor(1, 2)
        assert compress.decode_payload(quantized_blob_with_norm(0.5), like)["x"].shape == (1, 2)
        with pytest.raises(MalformedPayload, match="norm"):
            compress.decode_payload(quantized_blob_with_norm(norm), like)

    def test_overflowing_lowrank_product_is_malformed(self):
        ok = compress.decode_payload(lowrank_blob_with_norms(1.0), LOWRANK_LIKE)
        assert np.isfinite(ok["m"]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedPayload, match="overflow"):
                compress.decode_payload(lowrank_blob_with_norms(1e200), LOWRANK_LIKE)

    @pytest.mark.parametrize(("scheme", "r"), list(WIRE_DIGESTS))
    def test_wire_bytes_are_pinned(self, scheme, r):
        blob = compress.encode_payload(WIRE_TENSORS, scheme, r=r, tau_lowrank=0.1).blob
        assert hashlib.sha256(blob).hexdigest() == WIRE_DIGESTS[scheme, r]

    def test_wide_wire_golden(self):
        assert wide_golden_digests()[0] == WIDE_GOLDEN_DIGEST

    def test_wide_decoded_golden(self):
        assert wide_golden_digests()[1] == WIDE_GOLDEN_DECODED_DIGEST

    @staticmethod
    def _stdout(script: str, **env: str) -> str:
        """What ``script`` prints in a fresh interpreter under ``env``."""
        src = os.path.dirname(os.path.dirname(compress.__file__))
        env = dict(os.environ, **env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        return run.stdout

    def test_wire_bytes_ignore_blas_thread_count(self):
        # A 128x128 matrix under both schemes, the low-rank one as rank-51
        # factors, encoded in two processes that differ only in their BLAS
        # thread count.
        script = (
            "import hashlib, numpy as np\n"
            "from cefgl import compress\n"
            "m = np.random.default_rng(0).standard_normal((128, 128))\n"
            "for scheme in ('quantized', 'lowrank_quantized'):\n"
            "    p = compress.encode_payload({'m': m}, scheme, r=8, tau_lowrank=0.5)\n"
            "    print(scheme, p.ranks, hashlib.sha256(p.blob).hexdigest())\n"
        )
        outputs = [
            self._stdout(script, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            for threads in ("1", "2")
        ]
        assert "{'m': 51}" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_schema_check_ignores_the_string_hash(self):
        # The check is a SHA-256 of the names and shapes in order, so two
        # processes that hash strings differently write the same bytes, and
        # the same tensors in another order are another schema.
        script = (
            "import sys, numpy as np\n"
            "from cefgl import compress\n"
            "names = ['mlp_w', 'mlp_b', 'gnn1_w', 'gnn1_b', 'head_w', 'head_b']\n"
            "t = {n: np.full((1 + i % 2, 3 + i), 0.5) for i, n in enumerate(names)}\n"
            "sys.stdout.write(compress.encode_payload(t, 'quantized', r=4).blob.hex())\n"
        )
        blobs = [self._stdout(script, PYTHONHASHSEED=seed) for seed in ("1", "2")]
        assert blobs[0] == blobs[1]
        names = ["mlp_w", "mlp_b", "gnn1_w", "gnn1_b", "head_w", "head_b"]
        tensors = {n: np.full((1 + i % 2, 3 + i), 0.5) for i, n in enumerate(names)}
        blob = bytes.fromhex(blobs[0])
        assert blob == compress.encode_payload(tensors, "quantized", r=4).blob
        assert blob[:HEADER_BYTES] == header(tensors)
        assert list(compress.decode_payload(blob, tensors)) == names
        with pytest.raises(MalformedPayload, match="schema check"):
            compress.decode_payload(blob, dict(reversed(tensors.items())))

    def test_factored_wire_bytes_are_pinned(self):
        p = compress.encode_payload({"f": WIRE_RANK1}, "lowrank_quantized", r=16, tau_lowrank=0.1)
        assert p.ranks == {"f": 1}
        assert hashlib.sha256(p.blob).hexdigest() == WIRE_RANK1_DIGEST

    def test_decoder_memory_is_bounded(self):
        n = 1 << 20
        # A 2**20-value segment at k = r = 32 of nonzero levels: 4.3 MB of
        # wire, 8 MiB decoded.  The encoder writes no such body for this many
        # values, since their levels cannot spread over all 32 bits.
        rng = np.random.default_rng(14)
        levels = rng.integers(1, 2**32, size=n, dtype=np.uint64).astype("<u4").tobytes()
        signs = rng.integers(0, 256, size=n // 8, dtype=np.uint8).tobytes()
        fixed = quantized_blob(n, 32, struct.pack("<Bd", 33, 1.0) + levels + signs)
        # The encoder's 2**20-value segment at 32 bits, at k < r.
        x = np.random.default_rng(14).normal(size=(1, n))
        rice = compress.encode_payload({"x": x}, "quantized", r=32).blob
        assert rice[HEADER_BYTES] - 1 < 32  # its k
        # Two levels after a run of 2**26 zero bits: 8 MiB of unary stream,
        # which would be 64 MiB as one bit array.
        long_run = quantized_blob(2, 32, rice_segment(0, bytes(1 << 23) + b"\x03", signs=b"\x00"))
        for blob, like in ((fixed, {"x": x}), (rice, {"x": x}), (long_run, one_tensor(1, 2))):
            tracemalloc.start()
            try:
                out = compress.decode_payload(blob, like)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40 * 2**20
        assert out["x"].tolist() == [[2.0**26 / 2.0**32, 0.0]]

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(blob=hostile_blobs(), like=st.just(_fuzz_tensors()))
    @example(blob=quantized_blob_with_norm(math.nan), like=one_tensor(1, 2))
    @example(blob=quantized_blob_with_norm(math.inf), like=one_tensor(1, 2))
    @example(blob=quantized_blob_with_norm(-1e308), like=one_tensor(1, 2))
    # Finite, but norm * level is not.
    @example(blob=quantized_blob_with_norm(1e308), like=one_tensor(1, 2))
    # Finite, but left @ right.T is not.
    @example(blob=lowrank_blob_with_norms(1e200), like=LOWRANK_LIKE)
    def test_decoder_fuzz_returns_or_raises_malformed(self, blob, like):
        try:
            decoded = compress.decode_payload(blob, like)
        except MalformedPayload:
            return
        assert all(v.ndim == 2 and np.isfinite(v).all() for v in decoded.values())

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(blob=built_blobs(), like=st.just(_fuzz_tensors()))
    def test_decoder_fuzz_on_built_payloads(self, blob, like):
        try:
            decoded = compress.decode_payload(blob, like)
        except MalformedPayload:
            return
        assert all(v.ndim == 2 and np.isfinite(v).all() for v in decoded.values())

    def test_non_finite_tensors_rejected(self):
        with pytest.raises(NonFiniteInput):
            compress.encode_payload({"x": np.array([[np.nan]])}, "dense")

    def test_codec_fuzz_roundtrip(self):
        def fixed_width_bytes(tensors, r):
            """A quantized payload with every level at r bits, as wire
            version 3 wrote it: no marker, and a zero tensor in one byte."""
            total = HEADER_BYTES
            for name, mat in tensors.items():
                n = mat.size
                body = 1 + 8 + (n + 7) // 8 + (n * r + 7) // 8 if mat.any() else 1
                total += body
            return total

        rng = np.random.default_rng(12)
        schemes = ("dense", "quantized", "lowrank_quantized")
        for trial in range(1000):
            scheme = schemes[trial % 3]
            tensors = {}
            for i in range(int(rng.integers(1, 4))):
                rows = int(rng.integers(1, 9))
                cols = int(rng.integers(1, 9))
                draw = rng.random()
                if draw < 0.15:
                    mat = np.zeros((rows, cols))
                elif draw < 0.35:
                    mat = np.outer(rng.normal(size=rows), rng.normal(size=cols))
                else:
                    mat = rng.normal(size=(rows, cols))
                tensors[f"t{i}"] = mat
            r = int(rng.integers(1, 33))
            payload = compress.encode_payload(tensors, scheme, r=r, tau_lowrank=0.01)
            decoded = compress.decode_payload(payload, tensors)
            if scheme == "quantized":
                # Each segment costs at most one byte over fixed-width levels.
                segments = sum(bool(m.any()) for m in tensors.values())
                assert len(payload.blob) <= fixed_width_bytes(tensors, r) + segments
            if scheme == "lowrank_quantized":
                # Factors travel only where they are shorter than the plain body.
                plain = compress.encode_payload(tensors, "quantized", r=r)
                assert len(payload.blob) <= len(plain.blob)
            assert list(decoded) == list(tensors)
            for name, mat in tensors.items():
                assert decoded[name].shape == mat.shape
                assert np.isfinite(decoded[name]).all()
                if scheme == "dense":
                    assert np.array_equal(decoded[name], mat)
