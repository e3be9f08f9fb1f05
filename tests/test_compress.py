import hashlib
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cefgl import compress, fedcore
from cefgl.errors import BadBits, MalformedPayload, NonFiniteInput, ZeroVector
from cefgl.fedcore import ClientConfig

# Wire-format accounting used to derive expected byte counts independently.
HEADER_BYTES = 4 + 2 + 1 + 2  # magic, version, scheme, tensor count


def tensor_meta_bytes(name: str) -> int:
    return 2 + len(name.encode()) + 4 + 4


def quant_body_bytes(n: int, r: int) -> int:
    return 1 + 8 + (n + 7) // 8 + (n * r + 7) // 8


def _fuzz_seeds():
    """Valid wire images of every scheme, with bias rows and a zero tensor."""
    rng = np.random.default_rng(40)
    tensors = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 3)), "z": np.zeros((2, 2))}
    return [
        compress.encode_payload(tensors, scheme, r=5, tau_lowrank=0.1).blob
        for scheme in ("dense", "quantized", "lowrank_quantized")
    ]


def quantized_blob_with_norm(norm: float) -> bytes:
    """A one-tensor quantized payload whose norm field is overwritten."""
    blob = bytearray(compress.encode_payload({"x": np.array([[0.6, -0.8]])}, "quantized").blob)
    offset = HEADER_BYTES + tensor_meta_bytes("x") + 1  # past the bit-width byte
    blob[offset : offset + 8] = struct.pack("<d", norm)
    return bytes(blob)


def lowrank_blob_with_norms(norm: float) -> bytes:
    """A 4x3 rank-3 low-rank payload whose two factor norms are overwritten."""
    mat = np.random.default_rng(41).normal(size=(4, 3))
    blob = bytearray(compress.encode_payload({"m": mat}, "lowrank_quantized", r=4).blob)
    rank_at = HEADER_BYTES + tensor_meta_bytes("m")
    assert struct.unpack("<H", blob[rank_at : rank_at + 2]) == (3,)
    left = rank_at + 2 + 1  # past the rank and the left factor's bit width
    right = left + quant_body_bytes(4 * 3, 4)  # the right factor's norm
    for offset in (left, right):
        blob[offset : offset + 8] = struct.pack("<d", norm)
    return bytes(blob)


def reference_pack(levels: np.ndarray, r: int) -> bytes:
    """Bit-by-bit level packing, the codec's first implementation: bit j of
    level i is wire bit i*r + j, packed least significant bit first."""
    levels = levels.astype(np.uint64)
    bits = ((levels[:, None] >> np.arange(r, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


# SHA-256 of one fixed payload under each scheme, taken from the bit-by-bit
# codec.  The tensors are multiples of 1/8, so the sums of squares under the
# quantizer's norms are exact in any order; the low-rank digests also pin the
# last bits of numpy's SVD of "w".
WIRE_TENSORS = {
    "w": ((np.arange(30) * 7 % 11) - 5).reshape(6, 5) / 4.0,
    "b": np.array([[0.5, -0.25, 0.125, 0.0, -1.0]]),
    "z": np.zeros((2, 2)),
}
WIRE_DIGESTS = {
    ("dense", 4): "b04d5007a85e785674ed2861afd62739136499eeafced1deabf396bc1ac62163",
    ("quantized", 4): "1f245c5cb8621b35b5a9d25f9f5fa6aac3a82df5ff50fd17c3e6c75f9c9b7d9c",
    ("quantized", 16): "993aca57fbd593e2dce65b324825b3cf843e602fb6a1265e29f695ecc6a95cf4",
    ("lowrank_quantized", 4): "6bcc1abc4c03ea075097be3dcb7fcf073a97a7c2bbc72f36da18106d36c91b51",
    ("lowrank_quantized", 16): "acb1dc4789f5c2edc3db545e8a5bc80604bb19048db3a55944e88acc1c623adc",
}


@st.composite
def hostile_blobs(draw):
    """A valid payload with bytes overwritten, then cut or extended."""
    blob = bytearray(draw(st.sampled_from(_fuzz_seeds())))
    for _ in range(draw(st.integers(1, 6))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    blob = blob[: draw(st.integers(0, len(blob)))]
    return bytes(blob) + draw(st.binary(max_size=8))


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
        rng = np.random.default_rng(r)
        for n in (1, 7, 8, 9, 1000):
            levels = rng.integers(0, 2**r, size=n, dtype=np.uint64).astype(np.uint32)
            levels[-1] = 2**r - 1  # a saturated level
            packed = compress._pack_levels(levels, r)
            assert packed == reference_pack(levels, r)
            assert len(packed) == math.ceil(n * r / 8)
            assert np.array_equal(compress._unpack_levels(packed, n, r), levels)

    @pytest.mark.parametrize("r", [1, 3, 7, 16, 31, 32])
    def test_unpack_crosses_chunk_boundaries(self, r):
        rng = np.random.default_rng(100 + r)
        chunk = compress._UNPACK_CHUNK
        for n in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            levels = rng.integers(0, 2**r, size=n, dtype=np.uint64).astype(np.uint32)
            levels[::997] = 2**r - 1  # saturated levels on both sides of each boundary
            packed = compress._pack_levels(levels, r)
            assert np.array_equal(compress._unpack_levels(packed, n, r), levels)


class TestSparsify:
    """``fedcore.apply_sparsifier``'s mask rules on a single matrix."""

    @staticmethod
    def threshold(m, cut):
        cfg = ClientConfig(sparsifier="threshold", cut_sparse=cut)
        return fedcore.apply_sparsifier({"m": np.asarray(m)}, cfg)["m"]

    @staticmethod
    def topk(m, k):
        m = np.asarray(m)
        cfg = ClientConfig(sparsifier="topk", beta=k / m.size)
        assert math.ceil(cfg.beta * m.size) == k
        return fedcore.apply_sparsifier({"m": m}, cfg)["m"]

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
        expected = HEADER_BYTES + tensor_meta_bytes("a") + 4 * 8
        assert compress.payload_bits(p) == expected * 8

    def test_quantized_bit_count_n1024(self):
        x = np.random.default_rng(8).normal(size=(32, 32))
        p = compress.encode_payload({"t": x}, "quantized", r=4)
        expected = HEADER_BYTES + tensor_meta_bytes("t") + quant_body_bytes(1024, 4)
        assert compress.payload_bits(p) == expected * 8
        # Per-element cost is 1 sign + 4 level bits for n divisible by 8.
        assert quant_body_bytes(1024, 4) * 8 == 8 + 64 + 1024 * 5

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
        out = compress.decode_payload(compress.encode_payload(tensors, "dense"))
        assert set(out) == {"w", "b"}
        assert np.array_equal(out["w"], tensors["w"])
        assert np.array_equal(out["b"], tensors["b"])

    def test_quantized_roundtrip_matches_dequantize(self):
        x = np.array([[3.0, 4.0]])
        out = compress.decode_payload(compress.encode_payload({"x": x}, "quantized", r=2))
        assert np.array_equal(out["x"], [[2.5, 3.75]])

    def test_zero_tensor_marker(self):
        tensors = {"z": np.zeros((4, 4)), "x": np.ones((2, 2))}
        for scheme in ("quantized", "lowrank_quantized"):
            out = compress.decode_payload(compress.encode_payload(tensors, scheme, r=8))
            assert np.array_equal(out["z"], np.zeros((4, 4)))
        # The empty case of each body: bit width 0, or rank 0.
        for scheme, body in (("quantized", 1), ("lowrank_quantized", 2)):
            p = compress.encode_payload({"z": np.zeros((4, 4))}, scheme, r=8)
            assert compress.payload_bits(p) == (HEADER_BYTES + tensor_meta_bytes("z") + body) * 8

    def test_lowrank_reconstruction_quality(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 6))  # exactly rank 3
        p = compress.encode_payload({"m": base}, "lowrank_quantized", r=32, tau_lowrank=1e-6)
        out = compress.decode_payload(p)["m"]
        assert np.linalg.norm(out - base) <= 1e-6 * np.linalg.norm(base)

    def test_lowrank_bit_count_is_rank_and_factors(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 6))  # exactly rank 3
        p = compress.encode_payload({"m": base}, "lowrank_quantized", r=8, tau_lowrank=1e-6)
        expected = (
            HEADER_BYTES + tensor_meta_bytes("m") + 2 + quant_body_bytes(8 * 3, 8)
            + quant_body_bytes(6 * 3, 8)
        )
        assert expected == 88
        assert compress.payload_bits(p) == expected * 8

    def test_lowrank_rank_above_255_roundtrips(self):
        m = np.random.default_rng(13).normal(size=(260, 260))
        p = compress.encode_payload({"m": m}, "lowrank_quantized", r=16, tau_lowrank=1e-6)
        start = HEADER_BYTES + tensor_meta_bytes("m")
        assert struct.unpack("<H", p.blob[start : start + 2]) == (260,)
        out = compress.decode_payload(p)["m"]
        assert np.linalg.norm(out - m) <= 1e-2 * np.linalg.norm(m)

    def test_lowrank_truncates_before_shipping(self):
        u, v = np.ones((6, 1)), np.ones((5, 1))
        spread = u @ v.T + 0.001 * np.eye(6, 5)  # dominant rank-1 plus noise
        p = compress.encode_payload({"m": spread}, "lowrank_quantized", r=32, tau_lowrank=0.5)
        out = compress.decode_payload(p)["m"]
        assert np.linalg.matrix_rank(out, tol=1e-6) == 1

    def test_lowrank_bias_rows_pass_through_quantized(self):
        bias = np.array([[0.5, -0.25, 0.125]])
        p = compress.encode_payload({"b": bias}, "lowrank_quantized", r=32, tau_lowrank=0.9)
        out = compress.decode_payload(p)["b"]
        assert np.allclose(out, bias, atol=1e-9)

    def test_truncated_stream_is_malformed(self):
        blob = compress.encode_payload({"x": np.ones((2, 2))}, "dense").blob
        for cut in (1, 8, len(blob) - 1):
            with pytest.raises(MalformedPayload):
                compress.decode_payload(blob[:cut])

    def test_bad_magic_and_version(self):
        blob = compress.encode_payload({"x": np.ones((1, 1))}, "dense").blob
        with pytest.raises(MalformedPayload):
            compress.decode_payload(b"XXXX" + blob[4:])
        for version in (1, 99):
            bad_version = blob[:4] + struct.pack("<H", version) + blob[6:]
            with pytest.raises(MalformedPayload, match="version"):
                compress.decode_payload(bad_version)

    def test_trailing_garbage_is_malformed(self):
        blob = compress.encode_payload({"x": np.ones((1, 1))}, "dense").blob
        with pytest.raises(MalformedPayload):
            compress.decode_payload(blob + b"\x00")

    def test_oversized_declared_tensor_is_malformed(self):
        # 21 bytes declaring a (2**32-1) x (2**32-1) all-zero tensor.
        blob = compress.MAGIC + struct.pack("<HBHH", compress.WIRE_VERSION, 1, 1, 1) + b"t"
        blob += struct.pack("<II", 2**32 - 1, 2**32 - 1) + b"\x00"
        assert len(blob) == 21
        with pytest.raises(MalformedPayload, match="payload limit"):
            compress.decode_payload(blob)
        # The limit holds per payload: two tensors of just over half of it
        # each cannot add up past it.
        rows, cols = 2, compress._MAX_WIRE_ELEMENTS // 4 + 1
        entry = struct.pack("<HII", 0, rows, cols) + b"\x00"
        blob = compress.MAGIC + struct.pack("<HBH", compress.WIRE_VERSION, 1, 2) + entry * 2
        with pytest.raises(MalformedPayload, match="payload limit"):
            compress.decode_payload(blob)

    @pytest.mark.parametrize(
        "norm", [math.nan, math.inf, -1e308], ids=["nan", "inf", "negative"]
    )
    def test_invalid_norm_is_malformed(self, norm):
        assert compress.decode_payload(quantized_blob_with_norm(0.5))["x"].shape == (1, 2)
        with pytest.raises(MalformedPayload, match="norm"):
            compress.decode_payload(quantized_blob_with_norm(norm))

    def test_overflowing_lowrank_product_is_malformed(self):
        assert np.isfinite(compress.decode_payload(lowrank_blob_with_norms(1.0))["m"]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedPayload, match="overflow"):
                compress.decode_payload(lowrank_blob_with_norms(1e200))

    @pytest.mark.parametrize(("scheme", "r"), list(WIRE_DIGESTS))
    def test_wire_bytes_are_pinned(self, scheme, r):
        blob = compress.encode_payload(WIRE_TENSORS, scheme, r=r, tau_lowrank=0.1).blob
        assert hashlib.sha256(blob).hexdigest() == WIRE_DIGESTS[scheme, r]

    def test_decoder_memory_is_bounded(self):
        # One 2**20-value segment at 32 bits: 4.2 MB of wire, 8 MiB decoded.
        x = np.random.default_rng(14).normal(size=(1, 1 << 20))
        payload = compress.encode_payload({"x": x}, "quantized", r=32)
        tracemalloc.start()
        try:
            compress.decode_payload(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(blob=hostile_blobs())
    @example(blob=quantized_blob_with_norm(math.nan))
    @example(blob=quantized_blob_with_norm(math.inf))
    @example(blob=quantized_blob_with_norm(-1e308))
    @example(blob=quantized_blob_with_norm(1e308))  # finite, but norm * level is not
    @example(blob=lowrank_blob_with_norms(1e200))  # finite, but left @ right.T is not
    def test_decoder_fuzz_returns_or_raises_malformed(self, blob):
        try:
            decoded = compress.decode_payload(blob)
        except MalformedPayload:
            return
        assert all(v.ndim == 2 for v in decoded.values())
        if blob[6] in (1, 2):  # quantized schemes decode to finite values only
            assert all(np.isfinite(v).all() for v in decoded.values())

    def test_non_finite_tensors_rejected(self):
        with pytest.raises(NonFiniteInput):
            compress.encode_payload({"x": np.array([[np.nan]])}, "dense")

    def test_codec_fuzz_roundtrip(self):
        rng = np.random.default_rng(12)
        schemes = ("dense", "quantized", "lowrank_quantized")
        for trial in range(1000):
            scheme = schemes[trial % 3]
            tensors = {}
            for i in range(int(rng.integers(1, 4))):
                rows = int(rng.integers(1, 9))
                cols = int(rng.integers(1, 9))
                if rng.random() < 0.15:
                    mat = np.zeros((rows, cols))
                else:
                    mat = rng.normal(size=(rows, cols))
                tensors[f"t{i}"] = mat
            r = int(rng.integers(1, 33))
            payload = compress.encode_payload(tensors, scheme, r=r, tau_lowrank=0.01)
            decoded = compress.decode_payload(payload)
            assert list(decoded) == list(tensors)
            for name, mat in tensors.items():
                assert decoded[name].shape == mat.shape
                assert np.isfinite(decoded[name]).all()
                if scheme == "dense":
                    assert np.array_equal(decoded[name], mat)
