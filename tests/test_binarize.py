"""Tests for sign binarization and bit-plane decomposition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import binarize


class TestSignBinarization:
    def test_zero_maps_to_one(self):
        np.testing.assert_array_equal(
            binarize.binarize_sign(np.array([-1.5, -0.0, 0.0, 0.5])), [0, 1, 1, 1]
        )

    def test_bits_to_values_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=(3, 7), dtype=np.uint8)
        values = binarize.bits_to_values(bits)
        assert set(np.unique(values)).issubset({-1.0, 1.0})
        np.testing.assert_array_equal(binarize.values_to_bits(values), bits)

    def test_bits_to_values_rejects_invalid(self):
        with pytest.raises(ValueError):
            binarize.bits_to_values(np.array([0, 2]))

    def test_values_to_bits_rejects_invalid(self):
        with pytest.raises(ValueError):
            binarize.values_to_bits(np.array([0.5, 1.0]))


class TestBitplanes:
    def test_split_combine_roundtrip(self, rng):
        image = rng.integers(0, 256, size=(2, 4, 4, 3)).astype(np.uint8)
        planes = binarize.split_bitplanes(image)
        assert planes.shape == (8, 2, 4, 4, 3)
        np.testing.assert_array_equal(binarize.combine_bitplanes(planes), image)

    def test_plane_weights_match_eqn2(self):
        np.testing.assert_array_equal(
            binarize.bitplane_weights(8), [1, 2, 4, 8, 16, 32, 64, 128]
        )

    def test_known_value_decomposition(self):
        image = np.array([[[[170]]]], dtype=np.uint8)  # 0b10101010
        planes = binarize.split_bitplanes(image)
        np.testing.assert_array_equal(planes[:, 0, 0, 0, 0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_split_rejects_float_images(self):
        with pytest.raises(ValueError):
            binarize.split_bitplanes(np.zeros((1, 2, 2, 3), dtype=np.float32))

    def test_split_rejects_negative_values(self):
        with pytest.raises(ValueError):
            binarize.split_bitplanes(np.array([-1, 3], dtype=np.int32))

    def test_split_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binarize.split_bitplanes(np.array([300], dtype=np.int32), bits=8)

    def test_reduced_bit_width(self):
        image = np.array([5, 7], dtype=np.uint8)
        planes = binarize.split_bitplanes(image, bits=4)
        assert planes.shape == (4, 2)
        np.testing.assert_array_equal(binarize.combine_bitplanes(planes), image)

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=64))
    def test_roundtrip_property(self, values):
        image = np.array(values, dtype=np.uint8)
        planes = binarize.split_bitplanes(image)
        np.testing.assert_array_equal(binarize.combine_bitplanes(planes), image)
