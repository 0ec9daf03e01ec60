"""Rule base inference, identification variants, and persistence."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisrul.clustering import ClusterConfig, ClusterSet, TrainingTable, subtractive_cluster
from fisrul.datasets import synth_bearing
from fisrul.errors import ConfigError
from fisrul.fis import (
    TSFISModel,
    build_design_matrix,
    identify_baseline,
    identify_weighted,
    infer,
    load_model,
    predict_table,
    save_model,
)
from fisrul.mixture import TimeClusterParams, firing_matrix, normalize_rows

from conftest import random_rule_base


def array_model(centers, slopes, offsets, sigmas, time_params=None):
    """Model straight from its arrays; weighted when time_params is given."""
    return TSFISModel(
        centers=centers,
        slopes=slopes,
        offsets=offsets,
        sigmas=sigmas,
        time_params=time_params,
        feature_set=tuple(f"f{i+1}" for i in range(np.shape(centers)[1])),
    )


def single_rule_model(a, b, center=(0.0,), sigma=(1.0,), variant="baseline"):
    time_params = None
    if variant == "weighted":
        time_params = TimeClusterParams([1.0], [50.0], [100.0])
    return array_model([center], [a], [b], sigma, time_params)


def mirror_table_and_clusters(n_pairs=10):
    """Mirror-symmetric data whose two clusters share priors and time clusters.

    Each time step carries a value v and its reflection 1 - v; the hand-built
    cluster pair is likewise mirrored, so the prior- and time-weighting of
    the two rules cancels out exactly.
    """
    base = 0.2 + 0.06 * np.arange(n_pairs) / n_pairs
    values = np.empty(2 * n_pairs)
    taus = np.empty(2 * n_pairs)
    values[0::2] = base
    values[1::2] = 1.0 - base
    taus[0::2] = np.arange(n_pairs) * 10.0
    taus[1::2] = np.arange(n_pairs) * 10.0  # each pair shares its time exactly
    rho = np.clip(0.3 + 0.4 * values, 0.0, 1.0)
    table = TrainingTable(values[:, None], rho=rho, taus=taus)
    clusters = ClusterSet(
        centers=np.array([[0.2, 0.3], [0.8, 0.7]]),
        sigmas=np.array([0.25]),
        row_indices=np.array([0, 1]),
    )
    return table, clusters


class TestBuildDesignMatrix:
    def test_smallest_case(self):
        phi = build_design_matrix(np.array([[3.0]]), np.array([[1.0]]))
        np.testing.assert_array_equal(phi, [[3.0, 1.0]])

    def test_crisp_membership_zeroes_block(self):
        phi = build_design_matrix(np.array([[2.0]]), np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(phi, [[0.0, 0.0, 2.0, 1.0]])

    def test_manual_block_layout(self):
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        degrees = np.array([[0.25, 0.75], [0.6, 0.4]])
        phi = build_design_matrix(features, degrees)
        expected = np.array([
            [0.25 * 1.0, 0.25 * 2.0, 0.25, 0.75 * 1.0, 0.75 * 2.0, 0.75],
            [0.6 * 3.0, 0.6 * 4.0, 0.6, 0.4 * 3.0, 0.4 * 4.0, 0.4],
        ])
        np.testing.assert_array_equal(phi, expected)


@pytest.mark.parametrize("call, message", [
    (identify_baseline, "identification requires labeled rows (rho present)"),
    (identify_weighted, "identification requires labeled rows (rho present)"),
    (lambda table, clusters: build_design_matrix(table.features, np.ones((1, 2))),
     "feature rows must match degree rows"),
], ids=["baseline-unlabeled", "weighted-unlabeled", "design-row-mismatch"])
def test_identification_input_rejected(call, message):
    labeled, clusters = mirror_table_and_clusters()
    table = TrainingTable(labeled.features, taus=labeled.taus)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(table, clusters)


class TestInfer:
    def test_constant_consequent(self, rng):
        model = single_rule_model(a=[0.0], b=0.7)
        for _ in range(5):
            estimate = infer(model, rng.normal(size=1))
            assert estimate.raw == pytest.approx(0.7)
            assert estimate.clamped == pytest.approx(0.7)

    def test_identical_consequents_reduce_to_affine(self, rng):
        a, b = np.array([0.2, -0.1]), 0.4
        model = array_model([[0.0, 0.0], [1.0, 1.0]], [a, a], [b, b], [0.5, 0.5])
        for _ in range(5):
            v = rng.normal(size=2)
            assert infer(model, v).raw == pytest.approx(float(a @ v + b), rel=1e-12)

    def test_hand_traced_two_rule_model(self):
        model = array_model([[0.0, 1.0], [2.0, 3.0]], [[0.1, 0.2], [-0.3, 0.5]],
                            [0.1, 0.9], [1.0, 2.0])
        v = [1.0, 2.0]
        w1 = math.exp(-((1.0 - 0.0) ** 2 / 2.0 + (2.0 - 1.0) ** 2 / 8.0))
        w2 = math.exp(-((1.0 - 2.0) ** 2 / 2.0 + (2.0 - 3.0) ** 2 / 8.0))
        y1 = 0.1 * 1.0 + 0.2 * 2.0 + 0.1
        y2 = -0.3 * 1.0 + 0.5 * 2.0 + 0.9
        expected = (w1 * y1 + w2 * y2) / (w1 + w2)
        assert infer(model, v).raw == pytest.approx(expected, rel=1e-12)

    def test_clamping(self):
        model = single_rule_model(a=[0.0], b=1.7)
        estimate = infer(model, [0.0])
        assert estimate.raw == pytest.approx(1.7)
        assert estimate.clamped == 1.0

    def test_weighted_model_requires_tau(self):
        model = single_rule_model(a=[0.0], b=0.5, variant="weighted")
        with pytest.raises(ValueError):
            infer(model, [0.0])
        assert infer(model, [0.0], tau=10.0).raw == pytest.approx(0.5)

    def test_predict_table_matches_infer(self, rng):
        table = synth_bearing(5, noise=0.02)
        clusters = subtractive_cluster(table)
        for identify in (identify_baseline, identify_weighted):
            model = identify(table, clusters)
            rows = predict_table(model, table.features, table.taus)
            for k in (0, 7, 63, 119):
                one = infer(model, table.features[k], tau=table.taus[k])
                assert rows[k] == pytest.approx(one.raw, rel=1e-12)


    @pytest.mark.parametrize("bad_taus", [
        lambda taus: None, lambda taus: taus[:1], lambda taus: taus[:, None],
        lambda taus: taus[:-1],
    ], ids=["none", "one-tau-for-all-rows", "column", "one-short"])
    def test_weighted_batch_needs_one_tau_per_row(self, bad_taus):
        table = synth_bearing(5, noise=0.02)
        model = identify_weighted(table, subtractive_cluster(table))
        with pytest.raises(ValueError, match=r"one observation time per row: "
                                             rf"expected shape \({table.n_rows},\)"):
            predict_table(model, table.features, bad_taus(table.taus))

    def test_feature_count_checked_for_batch_and_row(self):
        model = array_model([[0.0, 1.0]], [[0.1, 0.2]], [0.1], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"expected K x 2 feature values, "
                                             r"got shape \(4, 3\)"):
            predict_table(model, np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"got shape \(1, 3\)"):
            infer(model, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"got shape \(2, 2, 1\)"):
            predict_table(model, np.zeros((2, 2, 1)))

    @pytest.mark.parametrize("variant", ["baseline", "weighted"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_feature_values_rejected(self, variant, bad):
        model = single_rule_model(a=[0.1], b=0.5, variant=variant)
        features = np.array([[0.2], [bad], [0.4]])
        with pytest.raises(ValueError, match="feature values must be finite"):
            predict_table(model, features, [10.0, 20.0, 30.0])
        with pytest.raises(ValueError, match="feature values must be finite"):
            infer(model, [bad], tau=20.0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_weighted_non_finite_times_rejected(self, bad):
        model = single_rule_model(a=[0.1], b=0.5, variant="weighted")
        with pytest.raises(ValueError, match="observation times must be finite"):
            predict_table(model, [[0.2], [0.3], [0.4]], [10.0, bad, 30.0])
        with pytest.raises(ValueError, match="observation times must be finite"):
            infer(model, [0.3], tau=bad)

    @given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans(),
           tau=st.one_of(st.floats(-50.0, 150.0),
                         st.sampled_from([-1e6, 1e6, 1e9])))
    @settings(max_examples=60, deadline=None)
    def test_infer_is_one_row_predict_table(self, seed, weighted, tau):
        rng = np.random.default_rng(seed)
        centers, sigmas, time_params = random_rule_base(rng)
        model = array_model(centers, rng.normal(size=centers.shape),
                            rng.normal(size=centers.shape[0]), sigmas,
                            time_params if weighted else None)
        x = rng.normal(0.0, 2.0, size=sigmas.size)
        assert infer(model, x, tau).raw == predict_table(model, x[None], [tau])[0]

    def test_tau_far_from_every_time_cluster_averages_rules(self):
        # every time membership underflows, so the degrees fall back to uniform
        params = TimeClusterParams([0.5, 0.5], [10.0, 20.0], [4.0, 4.0])
        model = array_model([[0.0], [1.0]], [[0.0], [0.0]], [0.2, 0.6], [0.5],
                            params)
        assert infer(model, [0.0], tau=1e9).raw == pytest.approx(0.4, rel=1e-15)

    @pytest.mark.parametrize("field, value", [
        ("centers", np.zeros((0, 1))), ("slopes", np.zeros((2, 1))),
        ("offsets", np.zeros(2)), ("sigmas", np.ones(2)),
    ])
    def test_shape_mismatch_rejected(self, field, value):
        arrays = {"centers": [[0.0]], "slopes": [[1.0]], "offsets": [0.5],
                  "sigmas": [1.0], field: value}
        with pytest.raises(ValueError):
            TSFISModel(**arrays, time_params=None, feature_set=("f1",))

    @pytest.mark.parametrize("sigma", [1e-320, 1e-160, math.nan])
    def test_spread_with_infinite_reciprocal_square_rejected(self, sigma):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            with pytest.raises(ValueError, match=r"finite 1/sigma\^2, got \["):
                single_rule_model([0.0], 0.5, sigma=(sigma,))

    @pytest.mark.parametrize("variance", [1e-320, 5e-324, math.nan])
    def test_time_variance_with_infinite_reciprocal_rejected(self, variance):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            with pytest.raises(ValueError, match=r"finite 1/\(2 variance\), got \["):
                TimeClusterParams([1.0], [50.0], [variance])

    @pytest.mark.parametrize("priors, centroids, message", [
        ([math.nan, 1.0], [10.0, 20.0], r"priors must lie in \[0, 1\] and sum to 1"),
        ([1.5, -0.5], [10.0, 20.0], r"priors must lie in \[0, 1\] and sum to 1, "
                                    r"got \[1.5, -0.5\]"),
        ([0.5, 0.5], [math.nan, 20.0], r"time centroids must be finite, got \[nan"),
        ([0.5, 0.5], [10.0, -math.inf], r"time centroids must be finite, got \[10.0"),
        ([[0.5, 0.5]], [[10.0, 20.0]], "must be 1-D, of one length"),
    ], ids=["nan-prior", "negative-prior", "nan-centroid", "infinite-centroid",
            "two-dimensional"])
    def test_bad_time_parameters_rejected(self, priors, centroids, message):
        variances = np.ones(np.shape(priors))
        with pytest.raises(ValueError, match=message):
            TimeClusterParams(priors, centroids, variances)

    def test_smallest_spreads_in_range_accepted(self):
        model = single_rule_model([0.0], 0.5, sigma=(1e-150,), variant="weighted")
        assert model.sigmas[0] == 1e-150
        assert TimeClusterParams([1.0], [0.0], [1e-300]).variances[0] == 1e-300

    def test_feature_set_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"feature_set has 1 name\(s\) for 2 "):
            TSFISModel(centers=[[0.0, 1.0]], slopes=[[1.0, 0.0]], offsets=[0.5],
                       sigmas=[1.0, 1.0], time_params=None, feature_set=("f1",))


class TestIdentifyBaseline:
    def test_exact_line_fit(self):
        table = TrainingTable(np.array([[0.0], [1.0], [2.0]]),
                              rho=np.array([0.0, 0.5, 1.0]),
                              taus=np.array([1.0, 2.0, 3.0]))
        clusters = ClusterSet(centers=np.array([[1.0, 0.5]]),
                              sigmas=np.array([0.5]))
        model = identify_baseline(table, clusters)
        assert model.rules[0].a[0] == pytest.approx(0.5, abs=1e-12)
        assert model.rules[0].b == pytest.approx(0.0, abs=1e-12)
        residual = predict_table(model, table.features) - table.rho
        assert np.abs(residual).max() < 1e-12

    def test_square_invertible_design_solved_exactly(self):
        table = TrainingTable(np.array([[0.0], [0.3], [0.7], [1.0]]),
                              rho=np.array([0.1, 0.4, 0.5, 0.9]),
                              taus=np.arange(4.0))
        clusters = ClusterSet(centers=np.array([[0.15, 0.2], [0.85, 0.8]]),
                              sigmas=np.array([0.3]))
        model = identify_baseline(table, clusters)
        w = normalize_rows(firing_matrix(table.features, clusters.input_centers,
                                         clusters.sigmas))
        phi = build_design_matrix(table.features, w)
        beta = np.concatenate([[r.a[0], r.b] for r in model.rules])
        np.testing.assert_allclose(phi @ beta, table.rho, atol=1e-9)
        np.testing.assert_allclose(beta, np.linalg.solve(phi, table.rho), atol=1e-9)

    def test_construct_then_recover(self, rng):
        features = rng.uniform(0.0, 1.0, size=(60, 2))
        taus = np.linspace(1.0, 60.0, 60)
        rough = TrainingTable(features, rho=np.linspace(0, 1, 60), taus=taus)
        clusters = subtractive_cluster(rough, ClusterConfig(ra=0.7))
        w = normalize_rows(firing_matrix(features, clusters.input_centers,
                                         clusters.sigmas))
        phi = build_design_matrix(features, w)
        true_beta = np.concatenate([
            np.concatenate([rng.uniform(-0.1, 0.1, 2), rng.uniform(0.3, 0.7, 1)])
            for _ in range(clusters.n_rules)
        ])
        rho = phi @ true_beta
        assert (rho >= 0).all() and (rho <= 1).all()
        table = TrainingTable(features, rho=rho, taus=taus)
        model = identify_baseline(table, clusters)
        beta = np.concatenate([np.append(r.a, r.b) for r in model.rules])
        np.testing.assert_allclose(beta, true_beta, atol=1e-8)


class TestIdentifyWeighted:
    def test_single_rule_reduces_to_ordinary_least_squares(self, rng):
        features = rng.uniform(0.0, 1.0, size=(30, 2))
        rho = np.clip(0.2 + 0.5 * features[:, 0] + 0.1 * rng.normal(size=30), 0, 1)
        table = TrainingTable(features, rho=rho, taus=np.linspace(1, 30, 30))
        clusters = ClusterSet(centers=np.array([[0.5, 0.5, 0.5]]),
                              sigmas=np.array([0.3, 0.3]))
        model = identify_weighted(table, clusters)
        design = np.hstack([features, np.ones((30, 1))])
        expected, *_ = np.linalg.lstsq(design, rho, rcond=None)
        got = np.append(model.rules[0].a, model.rules[0].b)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_reduces_to_baseline_when_weights_cancel(self):
        table, clusters = mirror_table_and_clusters()
        baseline = identify_baseline(table, clusters)
        weighted = identify_weighted(table, clusters)
        tp = weighted.time_params
        np.testing.assert_allclose(tp.priors, [0.5, 0.5], atol=1e-12)
        assert tp.centroids[0] == pytest.approx(tp.centroids[1], rel=1e-12)
        assert tp.variances[0] == pytest.approx(tp.variances[1], rel=1e-12)
        for rb, rw in zip(baseline.rules, weighted.rules):
            np.testing.assert_allclose(rw.a, rb.a, atol=1e-8)
            assert rw.b == pytest.approx(rb.b, abs=1e-8)

    def test_weighted_beats_baseline_on_regime_switching_data(self):
        from fisrul.clustering import concat_tables
        from fisrul.rul import evaluate_model

        train = concat_tables([synth_bearing(s) for s in (0, 1)])
        tests = {f"b{s}": synth_bearing(s) for s in (100, 101, 102)}
        clusters = subtractive_cluster(train)
        baseline = evaluate_model(identify_baseline(train, clusters), tests)
        weighted = evaluate_model(identify_weighted(train, clusters), tests)
        assert weighted.arrmse <= baseline.arrmse


class TestLeastSquaresOptimality:
    @pytest.mark.parametrize("identify", [identify_baseline, identify_weighted])
    def test_perturbations_never_reduce_residual(self, identify, rng):
        table = synth_bearing(11, noise=0.05)
        clusters = subtractive_cluster(table)
        model = identify(table, clusters)
        if model.variant == "weighted":
            from fisrul.mixture import weighted_firing_matrix
            w = weighted_firing_matrix(table.features, table.taus,
                                       model.centers, model.sigmas,
                                       model.time_params)
        else:
            w = normalize_rows(firing_matrix(table.features, model.centers,
                                             model.sigmas))
        phi = build_design_matrix(table.features, w)
        beta = np.concatenate([np.append(r.a, r.b) for r in model.rules])
        best = float(np.sum((table.rho - phi @ beta) ** 2))
        for _ in range(20):
            delta = rng.normal(size=beta.size)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = float(np.sum((table.rho - phi @ (beta + delta)) ** 2))
            assert perturbed >= best - 1e-12 * max(1.0, best)


class TestPersistence:
    def test_round_trip_reproduces_inference(self, tmp_path, rng):
        table = synth_bearing(2, noise=0.05)
        clusters = subtractive_cluster(table)
        model = identify_weighted(table, clusters,
                                  provenance={"datasets": ["synth-2"]})
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.variant == "weighted"
        assert loaded.feature_set == model.feature_set
        assert loaded.provenance == {"datasets": ["synth-2"]}
        for _ in range(10):
            v = rng.uniform(0.0, 1.2, size=2)
            tau = rng.uniform(0.0, 1200.0)
            assert infer(loaded, v, tau).raw == pytest.approx(
                infer(model, v, tau).raw, abs=1e-12)

    @pytest.mark.parametrize("identify", [identify_baseline, identify_weighted])
    def test_loaded_copy_predicts_bit_identically(self, identify, tmp_path):
        table = synth_bearing(6, noise=0.05)
        model = identify(table, subtractive_cluster(table))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            predict_table(loaded, table.features, table.taus),
            predict_table(model, table.features, table.taus))
        doc = json.loads(path.read_text())
        assert doc.keys() == {"schema_version", "feature_set", "sigmas", "centers",
                              "slopes", "offsets", "time_params", "provenance"}
        assert (doc["time_params"] is None) == (identify is identify_baseline)

    @pytest.mark.parametrize("text, message", [
        # json reads it, but math.isfinite or float() would overflow on it
        ("1" + "0" * 400,
         "offsets[0] must be a finite number, got 1" + "0" * 400),
        # past Python's 4300-digit int limit json itself raises ValueError
        ("1" + "0" * 5000, "not a JSON document: "),
    ], ids=["401-digits", "5001-digits"])
    def test_huge_integer_rejected_by_name(self, text, message, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema_version": 2, "feature_set": ["f1"], "sigmas": [0.5], '
                        '"centers": [[0.1]], "slopes": [[0.3]], '
                        f'"offsets": [{text}], "time_params": null, "provenance": {{}}}}')
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_model(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema_version": 99, "rules": []}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_identification_is_deterministic(self):
        runs = []
        for _ in range(2):
            table = synth_bearing(4, noise=0.05)
            clusters = subtractive_cluster(table)
            model = identify_weighted(table, clusters)
            runs.append(np.concatenate(
                [np.append(r.a, r.b) for r in model.rules]))
        np.testing.assert_array_equal(runs[0], runs[1])
