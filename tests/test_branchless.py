"""Tests for the branch-divergence-free binarization (Eqn. 9)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import branchless
from repro.core.fusion import fused_binarize


class TestTruthTable:
    def test_has_eight_rows(self):
        assert len(branchless.truth_table()) == 8

    def test_infeasible_rows_marked(self):
        infeasible = [row for row in branchless.truth_table() if not row.feasible]
        assert all(row.a and row.c for row in infeasible)
        assert len(infeasible) == 2

    def test_formulations_equivalent(self):
        assert branchless.formulations_equivalent()

    def test_eqn9_matches_eqn8_on_feasible_rows(self):
        for row in branchless.truth_table():
            if row.feasible:
                assert row.eqn9 == row.eqn8, row


class TestBranchlessOperator:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fused_reference(self, random_batchnorm, seed):
        rng = np.random.default_rng(seed)
        channels = 11
        bn = random_batchnorm(channels, seed=seed)
        x1 = rng.integers(-40, 40, size=(3, 5, 5, channels)).astype(np.float64)
        threshold = rng.normal(scale=5, size=channels)
        np.testing.assert_array_equal(
            branchless.branchless_binarize(x1, threshold, bn.gamma),
            fused_binarize(x1, threshold, bn.gamma),
        )

    def test_matches_divergent_reference(self, rng):
        channels = 6
        gamma = rng.choice([-1.0, 1.0], size=channels)
        threshold = rng.normal(size=channels)
        x1 = rng.integers(-10, 10, size=(4, channels)).astype(np.float64)
        np.testing.assert_array_equal(
            branchless.branchless_binarize(x1, threshold, gamma),
            branchless.divergent_binarize(x1, threshold, gamma),
        )

    def test_equality_case(self):
        threshold = np.array([2.0, 2.0])
        gamma = np.array([1.0, -1.0])
        x1 = np.array([[2.0, 2.0]])
        np.testing.assert_array_equal(
            branchless.branchless_binarize(x1, threshold, gamma), [[1, 1]]
        )

    def test_output_is_binary_uint8(self, rng):
        out = branchless.branchless_binarize(
            rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=4)
        )
        assert out.dtype == np.uint8
        assert set(np.unique(out)).issubset({0, 1})

    @given(
        x1=st.integers(-100, 100),
        threshold=st.integers(-100, 100),
        gamma_positive=st.booleans(),
    )
    def test_exhaustive_scalar_property(self, x1, threshold, gamma_positive):
        gamma = np.array([1.0 if gamma_positive else -1.0])
        x = np.array([[float(x1)]])
        t = np.array([float(threshold)])
        expected = fused_binarize(x, t, gamma)
        np.testing.assert_array_equal(
            branchless.branchless_binarize(x, t, gamma), expected
        )
