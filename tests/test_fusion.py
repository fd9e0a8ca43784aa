"""Tests for conv+BN+binarize layer integration (Eqns. 3–8)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import fusion


class TestBatchNormParams:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fusion.BatchNormParams(
                gamma=np.ones(3), beta=np.zeros(3), mean=np.zeros(3), var=np.ones(2)
            )

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            fusion.BatchNormParams(
                gamma=np.ones(2), beta=np.zeros(2), mean=np.zeros(2),
                var=np.array([1.0, -0.1]),
            )

    def test_sigma_includes_eps(self):
        bn = fusion.BatchNormParams(
            gamma=np.ones(1), beta=np.zeros(1), mean=np.zeros(1), var=np.zeros(1),
            eps=1e-4,
        )
        assert bn.sigma[0] == pytest.approx(1e-2)

    def test_channels(self, random_batchnorm):
        assert random_batchnorm(7).channels == 7


class TestThreshold:
    def test_identity_batchnorm_threshold_is_negative_bias(self):
        bn = fusion.BatchNormParams(
            gamma=np.ones(4), beta=np.zeros(4), mean=np.zeros(4), var=np.ones(4)
        )
        bias = np.array([1.0, -2.0, 0.5, 0.0])
        np.testing.assert_allclose(fusion.compute_threshold(bn, bias), -bias)

    def test_eqn6_formula(self, random_batchnorm):
        bn = random_batchnorm(5, seed=3)
        bias = np.linspace(-1, 1, 5)
        expected = bn.mean - bn.beta * bn.sigma / bn.gamma - bias
        np.testing.assert_allclose(fusion.compute_threshold(bn, bias), expected)

    def test_gamma_zero_rejected(self):
        bn = fusion.BatchNormParams(
            gamma=np.array([1.0, 0.0]), beta=np.zeros(2), mean=np.zeros(2),
            var=np.ones(2),
        )
        with pytest.raises(ValueError):
            fusion.compute_threshold(bn)

    def test_bias_shape_checked(self, random_batchnorm):
        with pytest.raises(ValueError):
            fusion.compute_threshold(random_batchnorm(4), bias=np.zeros(3))


class TestFusedEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_fused_equals_unfused(self, random_batchnorm, seed):
        rng = np.random.default_rng(seed)
        channels = 9
        bn = random_batchnorm(channels, seed=seed)
        bias = rng.normal(size=channels)
        x1 = rng.integers(-30, 30, size=(4, 6, 6, channels)).astype(np.float64)
        threshold = fusion.compute_threshold(bn, bias)
        fused = fusion.fused_binarize(x1, threshold, bn.gamma)
        reference = fusion.unfused_block_reference(x1, bn, bias)
        np.testing.assert_array_equal(fused, reference)

    def test_negative_gamma_flips_comparison(self):
        bn = fusion.BatchNormParams(
            gamma=np.array([-1.0]), beta=np.zeros(1), mean=np.zeros(1), var=np.ones(1)
        )
        threshold = fusion.compute_threshold(bn)
        assert fusion.fused_binarize(np.array([[5.0]]), threshold, bn.gamma)[0, 0] == 0
        assert fusion.fused_binarize(np.array([[-5.0]]), threshold, bn.gamma)[0, 0] == 1

    def test_boundary_value_binarizes_to_one(self, random_batchnorm):
        bn = random_batchnorm(3, seed=9)
        threshold = fusion.compute_threshold(bn)
        x1 = np.broadcast_to(threshold, (2, 3)).copy()
        np.testing.assert_array_equal(
            fusion.fused_binarize(x1, threshold, bn.gamma), np.ones((2, 3), dtype=np.uint8)
        )

    @given(
        seed=st.integers(0, 100_000),
        batch=st.integers(1, 4),
        channels=st.integers(1, 16),
    )
    def test_fused_equals_unfused_property(self, seed, batch, channels):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.1, 2.0, channels) * rng.choice([-1, 1], channels)
        bn = fusion.BatchNormParams(
            gamma=gamma,
            beta=rng.normal(size=channels),
            mean=rng.normal(scale=3, size=channels),
            var=rng.uniform(0.1, 5, channels),
        )
        bias = rng.normal(size=channels)
        x1 = rng.integers(-50, 50, size=(batch, channels)).astype(np.float64)
        threshold = fusion.compute_threshold(bn, bias)
        np.testing.assert_array_equal(
            fusion.fused_binarize(x1, threshold, bn.gamma),
            fusion.unfused_block_reference(x1, bn, bias),
        )


class TestAffineFold:
    def test_fold_matches_batchnorm(self, random_batchnorm):
        rng = np.random.default_rng(7)
        bn = random_batchnorm(6, seed=7)
        bias = rng.normal(size=6)
        x1 = rng.normal(scale=10, size=(5, 6))
        scale, offset = fusion.fold_batchnorm_affine(bn, bias)
        folded = scale * x1 + offset
        reference = fusion.batchnorm_forward(x1 + bias, bn)
        np.testing.assert_allclose(folded, reference, rtol=1e-10)
