"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  The two dataset criteria (10a/10b) need the public
benchmark datasets and are skipped unless PHM_DATA_DIR / IMS_DATA_DIR are
set.
"""

import math
import os
import time

import numpy as np
import pytest

from fisrul.clustering import (
    ClusterConfig,
    ClusterSet,
    TrainingTable,
    concat_tables,
    subtractive_cluster,
)
from fisrul.datasets import synth_bearing
from fisrul.fis import (
    build_design_matrix,
    identify_baseline,
    identify_weighted,
)
from fisrul.mixture import (
    estimate_time_clusters,
    firing_matrix,
    normalize_rows,
    weighted_firing,
    weighted_firing_matrix,
)
from fisrul.rul import arrmse, evaluate_model, pul_ratio, rrmse, rul_from_ratio, savitzky_golay

from conftest import brute_force_subtractive, random_rule_base


def _report(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


def _model_beta(model):
    return np.concatenate([np.append(r.a, r.b) for r in model.rules])


def _model_degrees(model, table):
    if model.variant == "weighted":
        return weighted_firing_matrix(table.features, table.taus, model.centers,
                                      model.sigmas, model.time_params)
    return normalize_rows(firing_matrix(table.features, model.centers,
                                        model.sigmas))


def test_c01_weight_cancellation_makes_variants_identical():
    """Equal priors and equal time memberships cancel: consequents match 1e-8."""
    start = time.perf_counter()
    n_pairs = 12
    base = 0.18 + 0.05 * np.arange(n_pairs) / n_pairs
    values = np.empty(2 * n_pairs)
    values[0::2] = base
    values[1::2] = 1.0 - base
    taus = np.repeat(np.arange(n_pairs) * 7.0, 2)
    rho = np.clip(0.3 + 0.4 * values, 0.0, 1.0)
    table = TrainingTable(values[:, None], rho=rho, taus=taus)
    clusters = ClusterSet(centers=np.array([[0.18, 0.3], [0.82, 0.7]]),
                          sigmas=np.array([0.22]))

    baseline = identify_baseline(table, clusters)
    weighted = identify_weighted(table, clusters)

    params = weighted.time_params
    np.testing.assert_allclose(params.priors, 0.5, atol=1e-12)
    assert params.centroids[0] == params.centroids[1]
    assert params.variances[0] == params.variances[1]
    np.testing.assert_allclose(_model_beta(weighted), _model_beta(baseline),
                               atol=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("01", f"max consequent gap "
            f"{np.abs(_model_beta(weighted) - _model_beta(baseline)).max():.2e}, "
            f"{elapsed * 1000:.0f} ms")


def test_c02_normalization_sums():
    """Sum of weighted degrees and sum of priors both equal 1 within 1e-9."""
    rng = np.random.default_rng(202)
    worst_w, worst_p = 0.0, 0.0
    for _ in range(20):
        centers, sigmas, params = random_rule_base(rng)
        for _ in range(50):  # 20 x 50 = 1000 observations
            v = rng.normal(0.0, 2.0, size=sigmas.size)
            tau = rng.uniform(0.0, 120.0)
            wtil = weighted_firing(v, tau, centers, sigmas, params)
            worst_w = max(worst_w, abs(wtil.sum() - 1.0))
        k = int(rng.integers(2, 40))
        wbar = normalize_rows(rng.uniform(0.0, 1.0, size=(k, params.n_rules)))
        estimated = estimate_time_clusters(np.sort(rng.uniform(0, 100, k)), wbar)
        worst_p = max(worst_p, abs(estimated.priors.sum() - 1.0))
    assert worst_w <= 1e-9
    assert worst_p <= 1e-9
    _report("02", f"worst degree-sum gap {worst_w:.2e}, "
            f"worst prior-sum gap {worst_p:.2e}")


def test_c03_least_squares_optimality():
    """FD gradient at the solution <= 1e-6 relative; perturbations never win."""
    rng = np.random.default_rng(303)
    worst_grad = 0.0
    for trial in range(50):
        table = synth_bearing(trial, regimes=int(rng.integers(1, 4)),
                              noise=float(rng.uniform(0.0, 0.1)),
                              n_obs=int(rng.integers(40, 90)))
        clusters = subtractive_cluster(table)
        for identify in (identify_baseline, identify_weighted):
            model = identify(table, clusters)
            phi = build_design_matrix(table.features, _model_degrees(model, table))
            beta = _model_beta(model)
            objective = lambda b: float(np.sum((table.rho - phi @ b) ** 2))
            best = objective(beta)

            grad = np.empty(beta.size)
            for i in range(beta.size):
                h = 1e-6 * max(1.0, abs(beta[i]))
                up, down = beta.copy(), beta.copy()
                up[i] += h
                down[i] -= h
                grad[i] = (objective(up) - objective(down)) / (2.0 * h)
            spectral = np.linalg.norm(phi, 2)
            scale = 2.0 * (spectral**2 * np.linalg.norm(beta)
                           + spectral * np.linalg.norm(table.rho))
            relative = np.linalg.norm(grad) / max(scale, 1e-30)
            worst_grad = max(worst_grad, relative)
            assert relative <= 1e-6

            for _ in range(100):
                delta = rng.normal(size=beta.size)
                delta *= 1e-3 / np.linalg.norm(delta)
                assert objective(beta + delta) >= best - 1e-12 * max(1.0, best)
    _report("03", f"worst relative gradient {worst_grad:.2e} over 50 tables")


def test_c04_time_projection_matches_brute_force():
    """Closed-form priors/centroids/variances match loop recomputation 1e-12."""
    rng = np.random.default_rng(404)
    for _ in range(25):
        k = int(rng.integers(2, 51))
        j = int(rng.integers(1, 6))
        wbar = normalize_rows(rng.uniform(1e-3, 1.0, size=(k, j)))
        taus = np.sort(rng.uniform(0.0, 900.0, k))
        params = estimate_time_clusters(taus, wbar)
        for col in range(j):
            mass = math.fsum(wbar[row, col] for row in range(k))
            prior = mass / k
            centroid = math.fsum(
                taus[row] * wbar[row, col] for row in range(k)) / mass
            variance = math.fsum(
                (taus[row] - centroid) ** 2 * wbar[row, col]
                for row in range(k)) / mass
            assert params.priors[col] == pytest.approx(prior, rel=1e-12)
            assert params.centroids[col] == pytest.approx(centroid, rel=1e-12)
            assert params.variances[col] == pytest.approx(variance, rel=1e-12)
    _report("04", "25 random degree tables, K <= 50, J <= 5")


def test_c05_synthetic_end_to_end_benchmark():
    """Weighted beats baseline on >= 4 of 5 seeds of the 3-regime generator."""
    start = time.perf_counter()
    wins = 0
    pairs = []
    for seed in range(5):
        train = concat_tables([
            synth_bearing(10 * seed + offset, regimes=3, noise=0.05)
            for offset in range(2)
        ])
        tests = {
            f"bearing-{i}": synth_bearing(10 * seed + 100 + i, regimes=3,
                                          noise=0.05)
            for i in range(3)
        }
        clusters = subtractive_cluster(train)
        baseline = evaluate_model(identify_baseline(train, clusters), tests)
        weighted = evaluate_model(identify_weighted(train, clusters), tests)
        pairs.append((baseline.arrmse, weighted.arrmse))
        wins += weighted.arrmse <= baseline.arrmse
    elapsed = time.perf_counter() - start
    assert wins >= 4
    assert elapsed < 10.0
    _report("05", f"{wins}/5 seeds, "
            + "; ".join(f"{w:.3f} vs {b:.3f}" for b, w in pairs)
            + f", {elapsed:.2f} s")


def test_c06_savitzky_golay_filter():
    """Order-2/frame-61 reproduces quadratics; frame-5 center weight is 17/35."""
    t = np.linspace(-2.0, 2.0, 150)
    series = 0.8 * t**2 + 1.3 * t - 0.5
    smoothed = savitzky_golay(series, order=2, frame=61)
    interior = slice(30, -30)
    assert np.abs(smoothed[interior] - series[interior]).max() <= 1e-10

    impulse = np.zeros(9)
    impulse[4] = 1.0
    center = savitzky_golay(impulse, order=2, frame=5)[4]
    assert center == pytest.approx(17.0 / 35.0, abs=1e-12)
    _report("06", f"quadratic max error "
            f"{np.abs(smoothed[interior] - series[interior]).max():.1e}, "
            f"center weight {center:.15f}")


def test_c07_ratio_rul_round_trip():
    """rul_from_ratio(pul_ratio(tau, T), tau) = T - tau at float precision."""
    rng = np.random.default_rng(707)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        life = rng.uniform(1e-2, 1e6)
        tau = rng.uniform(0.0, life)
        rho = pul_ratio(tau, life)
        if rho < 1e-3:
            continue  # below the conversion floor: reported indeterminate
        gap = abs(rul_from_ratio(rho, tau) - (life - tau))
        worst = max(worst, gap / life)
        checked += 1
        assert gap <= 1e-12 * life
    assert checked > 950
    _report("07", f"{checked} pairs, worst relative gap {worst:.2e}")


def test_c08_subtractive_clustering_matches_oracle():
    """Selected rows and centers equal the brute-force potential evaluation."""
    config = ClusterConfig(ra=0.5)
    for trial in range(20):
        rng = np.random.default_rng(800 + trial)
        offset = rng.uniform(0.45, 0.75)
        spread = rng.uniform(0.01, 0.05)
        n = int(rng.integers(8, 15))
        first = rng.normal([0.15, 0.2], spread, size=(n, 2))
        second = rng.normal([0.15 + offset, 0.2 + offset], spread, size=(n, 2))
        rows = np.vstack([first, second])
        table = TrainingTable(rows[:, :1], rho=np.clip(rows[:, 1], 0, 1),
                              taus=np.arange(float(2 * n)))
        clusters = subtractive_cluster(table, config)
        expected = brute_force_subtractive(table.matrix, config.ra, config.rb,
                                           config.eps_accept, config.eps_reject)
        assert list(clusters.row_indices) == expected
        np.testing.assert_array_equal(clusters.centers, table.matrix[expected])
    _report("08", "20 two-group datasets, exact index and center agreement")


def test_c09_average_error_internal_consistency():
    """The averaging operation reproduces a frozen per-bearing reference row."""
    row = [0.6979, 0.8263, 0.8106, 0.8556, 0.7991]
    value = arrmse(row)
    assert value == pytest.approx(0.7979, abs=1e-12)
    _report("09", f"arrmse = {value:.10f}")


def _dataset_protocol(tables_train, tables_test):
    pooled = concat_tables(list(tables_train.values()))
    clusters = subtractive_cluster(pooled, ClusterConfig(ra=0.5))
    baseline = evaluate_model(identify_baseline(pooled, clusters), tables_test)
    weighted = evaluate_model(identify_weighted(pooled, clusters), tables_test)
    return baseline, weighted


@pytest.mark.skipif("PHM_DATA_DIR" not in os.environ,
                    reason="PHM_DATA_DIR not set (multi-GB dataset not bundled)")
def test_c10a_phm_condition1_rms_ordering():
    """PHM condition 1, RMS input: weighted ARRMSE below baseline ARRMSE."""
    from fisrul.datasets import iter_phm
    from fisrul.features import extract_features

    root = os.environ["PHM_DATA_DIR"]

    def table(bearing):
        return extract_features(iter_phm(os.path.join(root, bearing)), ["rms"],
                                labeled=True)

    train = {b: table(b) for b in ("Bearing1_1", "Bearing1_2")}
    test = {b: table(b) for b in ("Bearing1_3", "Bearing1_4", "Bearing1_5",
                                  "Bearing1_6", "Bearing1_7")}
    baseline, weighted = _dataset_protocol(train, test)
    assert weighted.arrmse < baseline.arrmse
    soft = abs(weighted.arrmse - 0.7979) <= 0.25 * 0.7979
    _report("10a", f"weighted {weighted.arrmse:.4f} < baseline "
            f"{baseline.arrmse:.4f}; soft +/-25% target vs 0.7979: "
            f"{'met' if soft else 'missed'}")


@pytest.mark.skipif("IMS_DATA_DIR" not in os.environ,
                    reason="IMS_DATA_DIR not set (multi-GB dataset not bundled)")
def test_c10b_ims_rms_ordering():
    """IMS, RMS input: weighted RRMSE below baseline RRMSE."""
    from fisrul.datasets import iter_ims
    from fisrul.features import extract_features

    root = os.environ["IMS_DATA_DIR"]

    def table(subdir, channel):
        return extract_features(iter_ims(os.path.join(root, subdir), channel),
                                ["rms"], labeled=True)

    # test 1: 8 columns, two per bearing, bearing 4 first channel = column 6;
    # test 2: one column per bearing, bearing 1 = column 0
    train = {"ims-test1-b4": table("1st_test", 6)}
    test = {"ims-test2-b1": table("2nd_test", 0)}
    baseline, weighted = _dataset_protocol(train, test)
    assert weighted.arrmse < baseline.arrmse
    _report("10b", f"weighted {weighted.arrmse:.4f} < baseline "
            f"{baseline.arrmse:.4f}")
