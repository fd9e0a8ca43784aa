"""Unit and property tests for channel bit packing and packed dot products."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import bitpack


class TestWordSizes:
    def test_supported_word_dtypes(self):
        assert bitpack.word_dtype(8) == np.uint8
        assert bitpack.word_dtype(16) == np.uint16
        assert bitpack.word_dtype(32) == np.uint32
        assert bitpack.word_dtype(64) == np.uint64

    def test_unsupported_word_size_rejected(self):
        with pytest.raises(ValueError):
            bitpack.word_dtype(12)

    def test_words_per_channel_rounds_up(self):
        assert bitpack.words_per_channel(1, 64) == 1
        assert bitpack.words_per_channel(64, 64) == 1
        assert bitpack.words_per_channel(65, 64) == 2
        assert bitpack.words_per_channel(128, 32) == 4

    def test_words_per_channel_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bitpack.words_per_channel(0, 64)

    def test_select_word_size_small_channels(self):
        assert bitpack.select_word_size(3) == 8
        assert bitpack.select_word_size(9) == 16
        assert bitpack.select_word_size(20) == 32
        assert bitpack.select_word_size(64) == 64
        assert bitpack.select_word_size(512) == 64

    def test_select_word_size_respects_preferred(self):
        assert bitpack.select_word_size(512, preferred=32) == 32
        assert bitpack.select_word_size(4, preferred=32) == 8

    def test_packing_efficiency(self):
        assert bitpack.packing_efficiency(64, 64) == 1.0
        assert bitpack.packing_efficiency(3, 8) == pytest.approx(3 / 8)
        assert bitpack.packing_efficiency(65, 64) == pytest.approx(65 / 128)


class TestPackUnpack:
    @pytest.mark.parametrize("word_size", [8, 16, 32, 64])
    @pytest.mark.parametrize("channels", [1, 3, 8, 37, 64, 100])
    def test_roundtrip(self, rng, word_size, channels):
        bits = rng.integers(0, 2, size=(2, 4, 5, channels), dtype=np.uint8)
        packed = bitpack.pack_bits(bits, word_size=word_size, axis=3)
        assert packed.dtype == bitpack.word_dtype(word_size)
        assert packed.shape[-1] == bitpack.words_per_channel(channels, word_size)
        recovered = bitpack.unpack_bits(packed, channels, axis=3)
        np.testing.assert_array_equal(bits, recovered)

    def test_roundtrip_other_axis(self, rng):
        bits = rng.integers(0, 2, size=(37, 6), dtype=np.uint8)
        packed = bitpack.pack_bits(bits, word_size=16, axis=0)
        recovered = bitpack.unpack_bits(packed, 37, axis=0)
        np.testing.assert_array_equal(bits, recovered)

    def test_pack_rejects_non_binary_values(self):
        with pytest.raises(ValueError):
            bitpack.pack_bits(np.array([0, 1, 2]), word_size=8)

    def test_padding_bits_are_zero(self):
        bits = np.ones((1, 5), dtype=np.uint8)
        packed = bitpack.pack_bits(bits, word_size=8, axis=1)
        # 5 ones in the low bits, 3 zero padding bits: 0b00011111 = 31.
        assert packed[0, 0] == 31


class TestPopcount:
    def test_popcount_uint8(self):
        values = np.array([0, 1, 3, 255], dtype=np.uint8)
        np.testing.assert_array_equal(bitpack.popcount(values), [0, 1, 2, 8])

    def test_popcount_uint64(self):
        values = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(bitpack.popcount(values), [0, 1, 64])

    def test_popcount_rejects_signed(self):
        with pytest.raises(ValueError):
            bitpack.popcount(np.array([1, 2], dtype=np.int32))

    def test_popcount_preserves_shape(self, rng):
        values = rng.integers(0, 2**32, size=(3, 4, 5), dtype=np.uint64)
        assert bitpack.popcount(values).shape == (3, 4, 5)


class TestPackedDots:
    @pytest.mark.parametrize("word_size", [8, 32, 64])
    @pytest.mark.parametrize("length", [1, 7, 64, 130])
    def test_bipolar_dot_matches_float(self, rng, word_size, length):
        a_bits = rng.integers(0, 2, size=(4, length), dtype=np.uint8)
        b_bits = rng.integers(0, 2, size=(4, length), dtype=np.uint8)
        a_packed = bitpack.pack_bits(a_bits, word_size=word_size, axis=1)
        b_packed = bitpack.pack_bits(b_bits, word_size=word_size, axis=1)
        expected = ((2.0 * a_bits - 1) * (2.0 * b_bits - 1)).sum(axis=1)
        result = bitpack.packed_dot_bipolar(a_packed, b_packed, length, axis=1)
        np.testing.assert_array_equal(result, expected.astype(np.int64))

    @pytest.mark.parametrize("length", [3, 29, 64, 200])
    def test_unipolar_dot_matches_float(self, rng, length):
        x_bits = rng.integers(0, 2, size=(5, length), dtype=np.uint8)
        w_bits = rng.integers(0, 2, size=(5, length), dtype=np.uint8)
        x_packed = bitpack.pack_bits(x_bits, word_size=64, axis=1)
        w_packed = bitpack.pack_bits(w_bits, word_size=64, axis=1)
        expected = (x_bits * (2.0 * w_bits - 1)).sum(axis=1)
        result = bitpack.packed_dot_unipolar(x_packed, w_packed, axis=1)
        np.testing.assert_array_equal(result, expected.astype(np.int64))

    def test_xor_popcount_mismatched_dtypes_rejected(self):
        a = np.zeros(2, dtype=np.uint8)
        b = np.zeros(2, dtype=np.uint16)
        with pytest.raises(ValueError):
            bitpack.packed_xor_popcount(a, b)


class TestProperties:
    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=200),
        word_size=st.sampled_from([8, 16, 32, 64]),
    )
    def test_roundtrip_property(self, bits, word_size):
        array = np.array(bits, dtype=np.uint8)
        packed = bitpack.pack_bits(array, word_size=word_size, axis=0)
        recovered = bitpack.unpack_bits(packed, len(bits), axis=0)
        np.testing.assert_array_equal(array, recovered)

    @given(
        data=st.data(),
        length=st.integers(1, 150),
        word_size=st.sampled_from([8, 32, 64]),
    )
    def test_eqn1_property(self, data, length, word_size):
        """Eqn. (1): a·b == Len − 2·popcount(xor) for every bit pattern."""
        a_bits = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)),
            dtype=np.uint8,
        )
        b_bits = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)),
            dtype=np.uint8,
        )
        a_packed = bitpack.pack_bits(a_bits, word_size=word_size, axis=0)
        b_packed = bitpack.pack_bits(b_bits, word_size=word_size, axis=0)
        expected = int(((2 * a_bits.astype(int) - 1) * (2 * b_bits.astype(int) - 1)).sum())
        assert bitpack.packed_dot_bipolar(a_packed, b_packed, length, axis=0) == expected

    @given(length=st.integers(1, 200))
    def test_popcount_of_all_ones(self, length):
        bits = np.ones(length, dtype=np.uint8)
        packed = bitpack.pack_bits(bits, word_size=64, axis=0)
        assert int(bitpack.popcount(packed).sum()) == length
