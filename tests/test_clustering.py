"""Subtractive clustering against the brute-force potential oracle."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fisrul import clustering, datasets
from fisrul.clustering import (
    ClusterConfig,
    TrainingTable,
    concat_tables,
    input_sigmas,
    subtractive_cluster,
)
from fisrul.errors import ConfigError

from conftest import brute_force_subtractive, two_group_table


class TestClusterConfig:
    def test_default_squash_radius(self):
        config = ClusterConfig(ra=0.4)
        assert config.rb == pytest.approx(0.5)

    @pytest.mark.parametrize("kwargs", [
        {"ra": 0.0},
        {"ra": 0.5, "rb": 0.4},
        {"eps_accept": 0.1, "eps_reject": 0.2},
        {"eps_reject": 0.0},
        {"eps_accept": 1.5},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"ra": True}, "ra must be a number, got True"),
        ({"ra": "x"}, "ra must be a number, got 'x'"),
        ({"rb": "1.0"}, "rb must be a number, got '1.0'"),
        ({"eps_reject": None}, "eps_reject must be a number, got None"),
    ])
    def test_non_number_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClusterConfig(**kwargs)

    # an int past the float range is rejected before any float arithmetic
    @pytest.mark.parametrize("name, value", [
        ("ra", 10**400), ("rb", -10**400), ("eps_accept", 10**400),
        ("ra", math.nan), ("eps_reject", -math.inf),
    ], ids=["ra-huge-integer", "rb-huge-negative-integer", "eps-accept-huge-integer",
            "ra-nan", "eps-reject-minus-inf"])
    def test_non_finite_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, "
                                             f"got {re.escape(repr(value))}$"):
            ClusterConfig(**{name: value})

    @pytest.mark.parametrize("kwargs, name", [
        ({"ra": 1e-200}, "ra"),          # ra**2 underflows to 0
        ({"ra": 1e-160}, "ra"),          # 4 / ra**2 overflows
        ({"ra": 1e308}, "ra"),           # ra**2 overflows
        ({"ra": 1.2e154}, "rb"),         # the default rb = 1.25 ra: rb**2 overflows
        ({"ra": 0.5, "rb": 1e300}, "rb"),
        ({"ra": 10**200}, "ra"),         # an int square past the float range
    ])
    def test_radius_outside_float_range_named(self, kwargs, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name} out of range: "
                                                 rf"4/{name}\^2 must be a finite"
                               ) as caught:
                ClusterConfig(**kwargs)
        assert caught.value.__context__ is None  # no arithmetic error on the way

    @pytest.mark.parametrize("ra", [1e-150, 1e150])
    def test_extreme_radii_in_float_range_cluster(self, ra, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clusters = subtractive_cluster(two_group_table(rng), ClusterConfig(ra=ra))
        assert clusters.n_rules >= 1

    def test_numpy_scalar_settings_accepted_without_warning(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = ClusterConfig(ra=np.float32(0.5), rb=np.float64(0.7),
                                   eps_accept=np.float32(0.5))
            clusters = subtractive_cluster(two_group_table(rng), config)
        assert clusters.n_rules >= 1


class TestTrainingTable:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TrainingTable(np.array([[1.0], [np.nan]]), rho=np.array([0.1, 0.2]),
                          taus=[1.0, 2.0])

    def test_rejects_rho_outside_unit_interval(self):
        with pytest.raises(ValueError):
            TrainingTable(np.array([[1.0], [2.0]]), rho=np.array([0.1, 1.2]),
                          taus=[1.0, 2.0])

    def test_times_are_a_required_keyword(self):
        x, rho, taus = np.ones((2, 1)), np.array([0.1, 0.2]), np.array([1.0, 2.0])
        with pytest.raises(TypeError, match="taus"):
            TrainingTable(x, rho=rho)
        with pytest.raises(TypeError):
            TrainingTable(x, rho, taus, ("f1",))

    def test_concat_pools_rows(self):
        a = TrainingTable(np.array([[1.0], [2.0]]), rho=np.array([0.1, 0.2]),
                          taus=np.array([1.0, 2.0]))
        b = TrainingTable(np.array([[3.0]]), rho=np.array([0.3]),
                          taus=np.array([3.0]))
        pooled = concat_tables([a, b])
        assert pooled.n_rows == 3
        np.testing.assert_array_equal(pooled.taus, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("build, message", [
        (lambda: TrainingTable(np.empty((0, 2)), taus=[]), "training table has no rows"),
        (lambda: TrainingTable(np.array([]), taus=np.array([])),
         "training table has no rows"),
        (lambda: TrainingTable(np.ones((2, 2)), taus=[1.0, 2.0], feature_names=("f1",)),
         "feature_names length does not match feature columns"),
        (lambda: TrainingTable(np.ones((2, 1)), rho=[0.5], taus=[1.0, 2.0]),
         "rho length does not match row count"),
        (lambda: TrainingTable(np.ones((2, 1)), rho=[0.5, np.nan], taus=[1.0, 2.0]),
         "rho contains non-finite values"),
        (lambda: TrainingTable(np.ones((2, 1)), taus=[1.0]),
         "taus length does not match row count"),
        (lambda: TrainingTable(np.ones((2, 1)), taus=[1.0, np.inf]),
         "taus contains non-finite values"),
        (lambda: concat_tables([]), "no tables to concatenate"),
    ], ids=["no-rows", "empty-1d", "names-length", "rho-length", "rho-non-finite", "taus-length",
            "taus-non-finite", "concat-nothing"])
    def test_malformed_table_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("names, message", [
        (("a", "a"), "repeated column name 'a'"),
        (("k", "b"), "repeated column name 'k'"),
        (("a", "tau"), "repeated column name 'tau'"),
        (("rho", "b"), "repeated column name 'rho'"),
        ((1, 2), "column name 1 is not a string"),
    ], ids=["repeated", "k", "tau", "rho", "not-strings"])
    def test_names_a_feature_csv_cannot_hold_rejected(self, names, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TrainingTable(np.ones((3, 2)), taus=np.arange(3.0), feature_names=names)

    def test_labels_name_the_purpose_that_needs_them(self):
        labeled = TrainingTable(np.ones((2, 1)), rho=[0.1, 0.2], taus=[1.0, 2.0])
        assert labeled.labels("training") is labeled.rho
        unlabeled = TrainingTable(np.ones((2, 1)), taus=[1.0, 2.0])
        with pytest.raises(ConfigError, match="^training needs the rho column$"):
            unlabeled.labels("training")
        with pytest.raises(ConfigError, match="^the joint matrix needs the rho column$"):
            unlabeled.matrix

    def test_concat_rejects_labeled_with_unlabeled(self):
        labeled = TrainingTable(np.ones((2, 1)), rho=np.array([0.1, 0.2]),
                                taus=[1.0, 2.0])
        unlabeled = TrainingTable(np.ones((3, 1)), taus=[1.0, 2.0, 3.0])
        for tables in ([labeled, unlabeled], [unlabeled, labeled]):
            with pytest.raises(ValueError, match="^cannot pool labeled and unlabeled "
                                                 "tables"):
                concat_tables(tables)
        assert concat_tables([unlabeled, unlabeled]).rho is None

    def test_concat_rejects_mismatched_features(self):
        a = TrainingTable(np.ones((2, 1)), rho=np.array([0.1, 0.2]),
                          taus=[1.0, 2.0], feature_names=("rms",))
        b = TrainingTable(np.ones((2, 1)), rho=np.array([0.1, 0.2]),
                          taus=[1.0, 2.0], feature_names=("se",))
        with pytest.raises(ValueError):
            concat_tables([a, b])


class TestInputSigmas:
    def test_unit_sigma_case(self):
        table = TrainingTable(np.array([[0.0], [4.0 * np.sqrt(2.0)]]),
                              rho=np.array([0.0, 1.0]), taus=[1.0, 2.0])
        assert input_sigmas(table, 0.5)[0] == pytest.approx(1.0, rel=1e-12)

    def test_half_sigma_case(self):
        table = TrainingTable(np.array([[1.0], [1.0 + 2.0 * np.sqrt(2.0)]]),
                              rho=np.array([0.0, 1.0]), taus=[1.0, 2.0])
        assert input_sigmas(table, 0.5)[0] == pytest.approx(0.5, rel=1e-12)

    def test_matches_direct_formula(self, rng):
        column = rng.normal(1.5, 0.6, size=80)
        table = TrainingTable(column[:, None], rho=np.linspace(0, 1, 80),
                              taus=np.arange(80.0))
        expected = 0.5 * (column.max() - column.min()) / (2.0 * np.sqrt(2.0))
        assert input_sigmas(table, 0.5)[0] == pytest.approx(expected, rel=1e-12)

    def test_constant_column_clamped_with_warning(self):
        table = TrainingTable(np.full((5, 1), 3.0), rho=np.linspace(0, 1, 5),
                              taus=np.arange(5.0))
        with pytest.warns(RuntimeWarning):
            sigmas = input_sigmas(table, 0.5)
        assert 0.0 < sigmas[0] <= 1e-8


class TestSubtractiveCluster:
    def test_single_data_point(self):
        table = TrainingTable(np.array([[2.0]]), rho=np.array([0.4]), taus=[1.0])
        with pytest.warns(RuntimeWarning, match="constant feature column"):
            clusters = subtractive_cluster(table)
        assert clusters.n_rules == 1
        np.testing.assert_array_equal(clusters.centers, [[2.0, 0.4]])

    def test_identical_points_collapse_to_one(self):
        table = TrainingTable(np.full((7, 1), 1.5), rho=np.full(7, 0.5),
                              taus=np.arange(7.0))
        with pytest.warns(RuntimeWarning):  # constant column sigma clamp
            clusters = subtractive_cluster(table)
        assert clusters.n_rules == 1
        np.testing.assert_array_equal(clusters.centers, [[1.5, 0.5]])

    def test_two_tight_groups(self, rng):
        table = two_group_table(rng)
        clusters = subtractive_cluster(table, ClusterConfig(ra=0.5))
        assert clusters.n_rules == 2
        means = np.array([table.matrix[:10].mean(axis=0),
                          table.matrix[10:].mean(axis=0)])
        for center in clusters.centers:
            gaps = np.linalg.norm(means - center, axis=1)
            assert gaps.min() < 0.05

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(5):
            table = two_group_table(np.random.default_rng(trial), spread=0.03)
            config = ClusterConfig(ra=0.5)
            clusters = subtractive_cluster(table, config)
            expected = brute_force_subtractive(
                table.matrix, config.ra, config.rb,
                config.eps_accept, config.eps_reject)
            assert list(clusters.row_indices) == expected

    def test_centers_are_data_rows(self, rng):
        table = two_group_table(rng)
        clusters = subtractive_cluster(table)
        for idx, center in zip(clusters.row_indices, clusters.centers):
            np.testing.assert_array_equal(center, table.matrix[idx])

    def test_determinism(self, rng):
        table = two_group_table(rng)
        a = subtractive_cluster(table)
        b = subtractive_cluster(table)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.sigmas, b.sigmas)

    def test_row_permutation_changes_nothing_but_order(self, rng):
        table = two_group_table(rng)
        perm = rng.permutation(table.n_rows)
        shuffled = TrainingTable(table.features[perm], rho=table.rho[perm],
                                 taus=table.taus[perm])
        a = subtractive_cluster(table)
        b = subtractive_cluster(shuffled)
        sort = lambda c: c[np.lexsort(c.T)]
        np.testing.assert_allclose(sort(a.centers), sort(b.centers), atol=1e-9)

    def test_rule_count_non_increasing_in_radius(self, rng):
        features = np.concatenate([
            rng.normal(0.0, 0.08, 12),
            rng.normal(0.5, 0.08, 12),
            rng.normal(1.0, 0.08, 12),
        ])[:, None]
        rho = np.clip(np.concatenate([
            rng.normal(0.1, 0.05, 12),
            rng.normal(0.5, 0.05, 12),
            rng.normal(0.9, 0.05, 12),
        ]), 0, 1)
        table = TrainingTable(features, rho=rho, taus=np.arange(36.0))
        counts = [subtractive_cluster(table, ClusterConfig(ra=ra)).n_rules
                  for ra in (0.3, 0.5, 0.7)]
        assert counts[0] >= counts[1] >= counts[2]

    def test_pathological_thresholds_still_yield_one_center(self, rng):
        table = two_group_table(rng)
        clusters = subtractive_cluster(
            table, ClusterConfig(ra=0.5, eps_accept=1.0, eps_reject=0.999))
        assert clusters.n_rules == 1

    def test_missing_rho_rejected(self):
        table = TrainingTable(np.ones((3, 1)), taus=np.arange(3.0))
        with pytest.raises(ValueError):
            subtractive_cluster(table)

    @pytest.mark.parametrize("column, ra", [
        ([0.0, 1e-160, 2e-160], 0.5),   # a spread's 1/sigma^2 overflows
        ([0.0, 1.0, 2.0], 2e-154),      # 4/ra^2 is finite, 8 I/ra^2 is not
    ], ids=["spread", "firing-exponent"])
    def test_radius_too_small_for_the_data_named(self, column, ra):
        table = TrainingTable(np.array(column)[:, None], rho=[0.0, 0.5, 1.0],
                              taus=np.arange(3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^ra out of range for this data: "
                                                 rf".*\(I=1\).*got ra={ra}$") as caught:
                subtractive_cluster(table, ClusterConfig(ra=ra))
        assert caught.value.__context__ is None


def straddling_duplicates_table(rng):
    """Two-group table whose group-a center row sits at rows 6 and 7, so
    the tied max-potential pair straddles a 7-row block boundary."""
    table = two_group_table(rng, n_per_group=13, spread=0.03)
    features, rho = table.features.copy(), table.rho.copy()
    features[6:8] = table.features[:13].mean(axis=0)
    rho[6:8] = table.rho[:13].mean()
    return TrainingTable(features, rho=rho, taus=table.taus)


class TestBlockedPotentials:
    """Row blocks of any size select the rows the brute-force oracle does."""

    @staticmethod
    def cluster_in_blocks(monkeypatch, table, block_rows):
        bytes_per_row = 8 * table.matrix.size
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", block_rows * bytes_per_row)
        return subtractive_cluster(table, ClusterConfig(ra=0.5))

    @pytest.mark.parametrize("table", [
        *(two_group_table(np.random.default_rng(trial), spread=0.03)
          for trial in range(5)),
        straddling_duplicates_table(np.random.default_rng(5)),
    ])
    def test_block_sizes_match_oracle(self, table, monkeypatch):
        assert table.n_rows % 7 != 0
        config = ClusterConfig(ra=0.5)
        expected = brute_force_subtractive(
            table.matrix, config.ra, config.rb,
            config.eps_accept, config.eps_reject)
        results = [self.cluster_in_blocks(monkeypatch, table, rows)
                   for rows in (1, 7, table.n_rows)]
        for clusters in results:
            assert list(clusters.row_indices) == expected
            np.testing.assert_array_equal(clusters.centers, results[-1].centers)

    def test_tie_break_across_block_boundary(self, monkeypatch):
        table = straddling_duplicates_table(np.random.default_rng(5))
        np.testing.assert_array_equal(table.matrix[6], table.matrix[7])
        for rows in (1, 7, table.n_rows):
            clusters = self.cluster_in_blocks(monkeypatch, table, rows)
            assert 6 in clusters.row_indices
            assert 7 not in clusters.row_indices


def test_pooled_fleet_clusters_in_bounded_memory():
    """K=6000 rows, I=3: the full pairwise tensor would take about 2.5 GB."""
    pooled = concat_tables(
        datasets.synth_bearing(1000 + i, n_obs=750, n_features=3)
        for i in range(8))
    assert pooled.matrix.shape == (6000, 4)
    tracemalloc.start()
    try:
        clusters = subtractive_cluster(pooled, ClusterConfig(ra=0.5))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert clusters.n_rules >= 1
    assert peak_mb < 64


def test_fleet_clustering_peak_stays_within_a_few_row_blocks():
    """K=3000 rows, I=3: the potentials reuse one difference buffer of
    ``_BLOCK_BYTES`` per call, so the traced peak is a few MB (18.1 MB with
    fresh 8 MB block temporaries)."""
    pooled = concat_tables(
        datasets.synth_bearing(1000 + i, n_obs=750, n_features=3)
        for i in range(4))
    assert pooled.matrix.shape == (3000, 4)
    tracemalloc.start()
    try:
        subtractive_cluster(pooled, ClusterConfig(ra=0.5))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb <= 4
