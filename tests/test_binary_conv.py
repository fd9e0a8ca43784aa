"""Tests for binary convolution (Eqn. 1) and the bit-plane input conv (Eqn. 2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import binary_conv


class TestIm2col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 8, 8, 3))
        patches = binary_conv.im2col_nhwc(x, kernel_size=3, stride=1, padding=1)
        assert patches.shape == (2, 8, 8, 27)

    def test_stride_and_padding(self, rng):
        x = rng.normal(size=(1, 7, 7, 2))
        patches = binary_conv.im2col_nhwc(x, kernel_size=3, stride=2, padding=0)
        assert patches.shape == (1, 3, 3, 18)

    def test_pad_value_used(self):
        x = np.ones((1, 2, 2, 1))
        patches = binary_conv.im2col_nhwc(x, kernel_size=3, stride=1, padding=1,
                                          pad_value=-1.0)
        # Corner patch contains 5 padded (-1) positions and 4 real ones.
        corner = patches[0, 0, 0]
        assert (corner == -1).sum() == 5
        assert (corner == 1).sum() == 4

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError):
            binary_conv.im2col_nhwc(np.zeros((3, 3)), kernel_size=2)


class TestFloatConv:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 5, 5, 1))
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 1.0
        out = binary_conv.conv2d_float_nhwc(x, w)
        np.testing.assert_allclose(out, x)

    def test_bias_applied(self, rng):
        x = rng.normal(size=(1, 4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 5))
        bias = rng.normal(size=5)
        with_bias = binary_conv.conv2d_float_nhwc(x, w, padding=1, bias=bias)
        without = binary_conv.conv2d_float_nhwc(x, w, padding=1)
        np.testing.assert_allclose(with_bias - without, np.broadcast_to(bias, with_bias.shape))

    def test_rejects_rectangular_kernels(self, rng):
        with pytest.raises(ValueError):
            binary_conv.conv2d_float_nhwc(
                rng.normal(size=(1, 4, 4, 1)), rng.normal(size=(3, 2, 1, 1))
            )


class TestBinaryConv:
    @pytest.mark.parametrize("channels,cout", [(3, 4), (16, 8), (37, 13), (64, 70)])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_float_reference(self, rng, channels, cout, stride, padding):
        x_bits = rng.integers(0, 2, size=(2, 6, 6, channels), dtype=np.uint8)
        w_bits = rng.integers(0, 2, size=(3, 3, channels, cout), dtype=np.uint8)
        x_packed = binary_conv.pack_activations(x_bits)
        w_packed = binary_conv.pack_weights(w_bits)
        out = binary_conv.binary_conv2d_packed(
            x_packed, w_packed, channels, 3, stride=stride, padding=padding
        )
        ref = binary_conv.binary_conv2d_reference(
            x_bits, w_bits, 3, stride=stride, padding=padding
        )
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("word_size", [8, 16, 32, 64])
    def test_word_size_invariance(self, rng, word_size):
        x_bits = rng.integers(0, 2, size=(1, 5, 5, 20), dtype=np.uint8)
        w_bits = rng.integers(0, 2, size=(3, 3, 20, 6), dtype=np.uint8)
        x_packed = binary_conv.pack_activations(x_bits, word_size=word_size)
        w_packed = binary_conv.pack_weights(w_bits, word_size=word_size)
        out = binary_conv.binary_conv2d_packed(x_packed, w_packed, 20, 3, padding=1)
        ref = binary_conv.binary_conv2d_reference(x_bits, w_bits, 3, padding=1)
        np.testing.assert_array_equal(out, ref)

    def test_output_range_bounded_by_kernel_volume(self, rng):
        channels, cout = 10, 4
        x_bits = rng.integers(0, 2, size=(1, 6, 6, channels), dtype=np.uint8)
        w_bits = rng.integers(0, 2, size=(3, 3, channels, cout), dtype=np.uint8)
        out = binary_conv.binary_conv2d_packed(
            binary_conv.pack_activations(x_bits),
            binary_conv.pack_weights(w_bits),
            channels, 3,
        )
        volume = 3 * 3 * channels
        assert out.max() <= volume and out.min() >= -volume
        # Parity: dot product of ±1 vectors has the same parity as the length.
        assert np.all((out - volume) % 2 == 0)

    def test_mismatched_packing_rejected(self, rng):
        x_bits = rng.integers(0, 2, size=(1, 5, 5, 16), dtype=np.uint8)
        w_bits = rng.integers(0, 2, size=(3, 3, 80, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            binary_conv.binary_conv2d_packed(
                binary_conv.pack_activations(x_bits),
                binary_conv.pack_weights(w_bits),
                16, 3,
            )

    def test_pack_weights_rejects_bad_rank(self, rng):
        with pytest.raises(ValueError):
            binary_conv.pack_weights(rng.integers(0, 2, size=(3, 3, 4)))

    def test_pack_activations_rejects_bad_rank(self, rng):
        with pytest.raises(ValueError):
            binary_conv.pack_activations(rng.integers(0, 2, size=(3, 4)))


class TestInputConv:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("word_size", [8, 32, 64])
    def test_matches_integer_reference(self, rng, stride, padding, word_size):
        image = rng.integers(0, 256, size=(2, 7, 7, 3)).astype(np.uint8)
        w_bits = rng.integers(0, 2, size=(3, 3, 3, 5), dtype=np.uint8)
        w_packed = binary_conv.pack_weights(w_bits, word_size=word_size)
        out = binary_conv.input_conv2d_bitplanes(
            image, w_packed, 3, 3, stride=stride, padding=padding,
            word_size=word_size,
        )
        ref = binary_conv.input_conv2d_reference(
            image, w_bits, 3, stride=stride, padding=padding
        )
        np.testing.assert_array_equal(out, ref)

    def test_reduced_bit_width_inputs(self, rng):
        image = rng.integers(0, 16, size=(1, 5, 5, 2)).astype(np.uint8)
        w_bits = rng.integers(0, 2, size=(3, 3, 2, 4), dtype=np.uint8)
        out = binary_conv.input_conv2d_bitplanes(
            image, binary_conv.pack_weights(w_bits), 2, 3, padding=1, input_bits=4
        )
        ref = binary_conv.input_conv2d_reference(image, w_bits, 3, padding=1)
        np.testing.assert_array_equal(out, ref)


    @pytest.mark.parametrize("budget", [1, 12_000, 1 << 30])
    def test_batch_chunking_never_changes_the_result(self, rng, monkeypatch,
                                                     budget):
        # The plane temporaries are sized by a byte budget, not the batch:
        # one image per GEMM, two (ragged last chunk), or the whole batch
        # at once must all give the integer reference.
        monkeypatch.setattr(binary_conv, "_PLANE_CHUNK_BYTES", budget)
        image = rng.integers(0, 256, size=(5, 6, 6, 3)).astype(np.uint8)
        w_bits = rng.integers(0, 2, size=(3, 3, 3, 7), dtype=np.uint8)
        out = binary_conv.input_conv2d_bitplanes(
            image, binary_conv.pack_weights(w_bits), 3, 3, padding=1
        )
        assert out.dtype == np.int64 and out.flags.c_contiguous
        ref = binary_conv.input_conv2d_reference(image, w_bits, 3, padding=1)
        np.testing.assert_array_equal(out, ref)


class TestProperties:
    @given(
        seed=st.integers(0, 10_000),
        channels=st.integers(1, 40),
        cout=st.integers(1, 10),
        size=st.integers(3, 6),
    )
    def test_binary_conv_equals_reference(self, seed, channels, cout, size):
        rng = np.random.default_rng(seed)
        x_bits = rng.integers(0, 2, size=(1, size, size, channels), dtype=np.uint8)
        w_bits = rng.integers(0, 2, size=(3, 3, channels, cout), dtype=np.uint8)
        out = binary_conv.binary_conv2d_packed(
            binary_conv.pack_activations(x_bits),
            binary_conv.pack_weights(w_bits),
            channels, 3, padding=1,
        )
        ref = binary_conv.binary_conv2d_reference(x_bits, w_bits, 3, padding=1)
        np.testing.assert_array_equal(out, ref)

    @given(seed=st.integers(0, 10_000), channels=st.integers(1, 4))
    def test_bitplane_conv_equals_integer_conv(self, seed, channels):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, size=(1, 5, 5, channels)).astype(np.uint8)
        w_bits = rng.integers(0, 2, size=(3, 3, channels, 3), dtype=np.uint8)
        out = binary_conv.input_conv2d_bitplanes(
            image, binary_conv.pack_weights(w_bits), channels, 3, padding=1
        )
        ref = binary_conv.input_conv2d_reference(image, w_bits, 3, padding=1)
        np.testing.assert_array_equal(out, ref)
