"""Hypervector sampling and representation conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import (
    binary_to_bipolar,
    bipolar_to_binary,
    expected_similarity_std,
    is_binary,
    is_bipolar,
    random_binary,
    random_bipolar,
)


class TestSampling:
    def test_bipolar_values_and_shape(self, rng):
        hv = random_bipolar(10, 256, rng)
        assert hv.shape == (10, 256)
        assert is_bipolar(hv)
        assert hv.dtype == np.int8

    def test_binary_values(self, rng):
        hv = random_binary(5, 128, rng)
        assert is_binary(hv)

    def test_balanced_components(self, rng):
        hv = random_bipolar(1, 20000, rng)
        assert abs(hv.mean()) < 0.03  # Rademacher mean ~0

    def test_deterministic_given_seed(self):
        a = random_bipolar(3, 64, np.random.default_rng(5))
        b = random_bipolar(3, 64, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n,d", [(0, 10), (3, 0), (3, -1)])
    def test_invalid_sizes(self, rng, n, d):
        if n == 0 and d == 10:
            assert random_bipolar(n, d, rng).shape == (0, 10)
        else:
            with pytest.raises(ValueError):
                random_bipolar(n, d, rng)


class TestConversions:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=st.integers(1, 64))
    def test_roundtrip(self, seed, dim):
        hv = random_bipolar(2, dim, np.random.default_rng(seed))
        assert np.array_equal(binary_to_bipolar(bipolar_to_binary(hv)), hv)

    def test_xor_equals_multiplication(self, rng):
        """The core identity: binary XOR ≡ bipolar multiplication."""
        a = random_bipolar(1, 512, rng)[0]
        b = random_bipolar(1, 512, rng)[0]
        product = a * b
        xored = np.bitwise_xor(bipolar_to_binary(a), bipolar_to_binary(b))
        assert np.array_equal(binary_to_bipolar(xored), product)

    def test_rejects_non_bipolar(self):
        with pytest.raises(ValueError):
            bipolar_to_binary(np.array([0, 1, -1]))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            binary_to_bipolar(np.array([2, 0, 1]))


class TestQuasiOrthogonality:
    def test_expected_std(self):
        assert np.isclose(expected_similarity_std(1024), 1.0 / 32.0)
        with pytest.raises(ValueError):
            expected_similarity_std(0)

    def test_random_vectors_are_quasi_orthogonal(self, rng):
        """Cosine of random pairs concentrates near 0 with std ≈ 1/√d."""
        d = 4096
        hv = random_bipolar(40, d, rng).astype(np.float64)
        hv /= np.sqrt(d)
        sims = hv @ hv.T
        off_diag = sims[np.triu_indices(40, k=1)]
        assert abs(off_diag.mean()) < 0.01
        assert abs(off_diag.std() - expected_similarity_std(d)) < 0.005

    def test_higher_dim_tightens_concentration(self, rng):
        stds = []
        for d in (64, 1024):
            hv = random_bipolar(30, d, rng).astype(np.float64)
            sims = (hv / np.sqrt(d)) @ (hv / np.sqrt(d)).T
            stds.append(sims[np.triu_indices(30, k=1)].std())
        assert stds[1] < stds[0]


class TestMembershipChecks:
    """``is_bipolar`` / ``is_binary`` are elementwise comparisons; they
    must answer exactly what ``np.isin`` answers, on every dtype."""

    @pytest.mark.parametrize("values", [
        np.array([1, -1, 1], dtype=np.int8),
        np.array([1, 0], dtype=np.int8),
        np.array([-1, 1, 2], dtype=np.int64),
        np.array([0, 1, 1], dtype=np.int64),
        np.array([255, 1], dtype=np.uint8),
        np.array([0, 1], dtype=np.uint8),
        np.array([True, False]),
        np.array([True, True]),
        np.array([1.0, -1.0]),
        np.array([np.nan, 1.0]),
        np.array([-0.0, 1.0]),
        np.array([0.0, 1.0]),
        np.array([1 + 0j, -1 + 0j]),
        np.array([1 + 1j, 0j]),
        np.array([1, -1], dtype=object),
        np.array([0, 1, 2], dtype=object),
        np.zeros((0,), dtype=np.int8),
        np.zeros((0, 3), dtype=np.float64),
        np.array(1),
        np.array(-1),
        np.array(0),
        np.array(2.5),
        np.ones((4, 64), dtype=np.int8),
    ], ids=lambda values: f"{values.dtype}{values.shape}")
    def test_matches_isin(self, values):
        assert is_bipolar(values) == bool(np.isin(values, (-1, 1)).all())
        assert is_binary(values) == bool(np.isin(values, (0, 1)).all())
