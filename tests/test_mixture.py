"""Fulfillment degrees and their time projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisrul.mixture import (
    TimeClusterParams,
    estimate_time_clusters,
    firing_matrix,
    normalize_firing,
    normalize_rows,
    rule_firing,
    time_membership,
    weighted_firing,
)

from conftest import random_rule_base


class TestRuleFiring:
    def test_peak_at_center(self):
        w = rule_firing([1.0, 2.0], [[1.0, 2.0]], [0.5, 0.5])
        assert w[0] == pytest.approx(1.0)

    def test_one_sigma_offset(self):
        w = rule_firing([1.5], [[1.0]], [0.5])
        assert w[0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_two_dimension_product(self):
        # offsets of one and two sigmas multiply to exp(-2.5)
        w = rule_firing([1.0 + 0.3, 2.0 + 0.8], [[1.0, 2.0]], [0.3, 0.4])
        assert w[0] == pytest.approx(math.exp(-2.5), rel=1e-12)

    def test_matrix_matches_per_row(self, rng):
        centers, sigmas, _ = random_rule_base(rng, n_rules=3, n_features=2)
        rows = rng.normal(size=(6, 2))
        full = firing_matrix(rows, centers, sigmas)
        for k, row in enumerate(rows):
            np.testing.assert_allclose(full[k], rule_firing(row, centers, sigmas),
                                       rtol=1e-15)


class TestNormalizeFiring:
    def test_single_rule(self):
        np.testing.assert_array_equal(normalize_firing([1.0]), [1.0])

    def test_symmetric_pair(self):
        np.testing.assert_allclose(normalize_firing([2.0, 2.0]), [0.5, 0.5])

    def test_already_normalized(self):
        np.testing.assert_allclose(normalize_firing([0.3, 0.1, 0.6]),
                                   [0.3, 0.1, 0.6])

    def test_underflow_returns_uniform(self):
        np.testing.assert_array_equal(normalize_firing([0.0, 0.0, 0.0]),
                                      [1 / 3, 1 / 3, 1 / 3])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        w = np.random.default_rng(seed).uniform(0.0, 1.0, size=(8, 4))
        np.testing.assert_allclose(normalize_rows(w).sum(axis=1), 1.0, atol=1e-12)


class TestEstimateTimeClusters:
    def test_crisp_priors(self):
        wbar = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        params = estimate_time_clusters([1.0, 2.0, 3.0, 4.0], wbar)
        assert params.priors[0] == pytest.approx(0.5)

    def test_crisp_two_point_moments(self):
        wbar = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        params = estimate_time_clusters([10.0, 20.0, 30.0], wbar)
        assert params.centroids[0] == pytest.approx(15.0)
        assert params.variances[0] == pytest.approx(25.0)

    def test_priors_sum_to_one(self, rng):
        wbar = normalize_rows(rng.uniform(0.0, 1.0, size=(40, 5)))
        params = estimate_time_clusters(np.sort(rng.uniform(0, 100, 40)), wbar)
        assert params.priors.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_recomputation(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 51))
            j = int(rng.integers(1, 6))
            wbar = normalize_rows(rng.uniform(0.01, 1.0, size=(k, j)))
            taus = np.sort(rng.uniform(0.0, 500.0, k))
            params = estimate_time_clusters(taus, wbar)
            for col in range(j):
                mass = sum(wbar[row, col] for row in range(k))
                prior = mass / k
                centroid = sum(taus[row] * wbar[row, col] for row in range(k)) / mass
                variance = sum(
                    (taus[row] - centroid) ** 2 * wbar[row, col] for row in range(k)
                ) / mass
                assert params.priors[col] == pytest.approx(prior, rel=1e-12)
                assert params.centroids[col] == pytest.approx(centroid, rel=1e-12)
                assert params.variances[col] == pytest.approx(variance, rel=1e-12)

    def test_centroids_are_convex_combinations(self, rng):
        taus = np.sort(rng.uniform(0.0, 100.0, 30))
        wbar = normalize_rows(rng.uniform(0.0, 1.0, size=(30, 3)))
        params = estimate_time_clusters(taus, wbar)
        assert (params.centroids >= taus.min()).all()
        assert (params.centroids <= taus.max()).all()

    def test_degenerate_variance_clamped(self):
        wbar = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        taus = np.array([10.0, 20.0, 30.0])
        params = estimate_time_clusters(taus, wbar)
        # rule 0 has all mass on tau=10 -> clamped to (1% of span)^2
        assert params.variances[0] == pytest.approx((0.01 * 20.0) ** 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError,
                           match="taus length must match the degree-matrix row count"):
            estimate_time_clusters([1.0, 2.0, 3.0], np.array([[1.0], [1.0]]))

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError):
            estimate_time_clusters([1.0, 2.0], np.array([[0.5, 0.2], [0.5, 0.5]]))

    def test_fully_underflowed_column_stays_finite(self):
        # a rule column of exact zeros (degree underflow) must not poison
        # the remaining estimates
        wbar = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        params = estimate_time_clusters([10.0, 20.0, 30.0], wbar)
        assert np.isfinite(params.centroids).all()
        assert (params.variances > 0.0).all()
        assert params.priors[1] == 0.0
        assert params.priors.sum() == pytest.approx(1.0)


class TestTimeMembership:
    def test_peak(self):
        assert time_membership(5.0, 5.0, 4.0) == pytest.approx(1.0)

    def test_one_sigma(self):
        assert time_membership(7.0, 5.0, 4.0) == pytest.approx(math.exp(-0.5))

    def test_three_sigma(self):
        assert time_membership(11.0, 5.0, 4.0) == pytest.approx(
            math.exp(-4.5), rel=1e-12)

    def test_shift_invariance(self, rng):
        tau, c, v = 12.0, 30.0, 16.0
        shift = rng.uniform(-1000, 1000)
        assert time_membership(tau + shift, c + shift, v) == pytest.approx(
            time_membership(tau, c, v), rel=1e-9)

    def test_broadcasts_over_rules(self):
        out = time_membership(5.0, np.array([5.0, 7.0]), np.array([4.0, 4.0]))
        np.testing.assert_allclose(out, [1.0, math.exp(-0.5)])


class TestWeightedFiring:
    def test_single_rule_always_one(self, rng):
        params = TimeClusterParams([1.0], [50.0], [100.0])
        w = weighted_firing(rng.normal(size=2), 3.0, [[0.0, 0.0]], [1.0, 1.0], params)
        np.testing.assert_array_equal(w, [1.0])

    def test_equal_weights_cancel(self, rng):
        centers, sigmas, _ = random_rule_base(rng, n_rules=3, n_features=2)
        params = TimeClusterParams(np.full(3, 1 / 3), np.full(3, 40.0),
                                   np.full(3, 25.0))
        v = rng.normal(size=2)
        wtil = weighted_firing(v, 40.0, centers, sigmas, params)
        wbar = normalize_firing(rule_firing(v, centers, sigmas))
        np.testing.assert_allclose(wtil, wbar, rtol=1e-12)

    def test_hand_normalization(self):
        params = TimeClusterParams([0.75, 0.25], [10.0, 10.0], [4.0, 4.0])
        # both rules fire 1.0 at their shared center; time memberships equal
        w = weighted_firing([0.0], 10.0, [[0.0], [0.0]], [1.0], params)
        np.testing.assert_allclose(w, [0.75, 0.25], rtol=1e-12)

    def test_rows_sum_to_one(self, rng):
        centers, sigmas, params = random_rule_base(rng)
        v = rng.normal(size=sigmas.size)
        w = weighted_firing(v, rng.uniform(0, 100), centers, sigmas, params)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
