"""Ratio/RUL conversion, smoothing filter, and error metrics."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisrul.clustering import TrainingTable
from fisrul.errors import ConfigError
from fisrul.fis import TSFISModel
from fisrul.rul import (
    arrmse,
    check_filter,
    evaluate_model,
    pul_ratio,
    rrmse,
    rul_from_ratio,
    savitzky_golay,
    smooth_rul,
    write_curves_csv,
    write_summary_csv,
)
from fisrul.rul import rul_curves

from conftest import brute_force_savgol


def assert_cells(path, expected):
    """Each data cell of the CSV at ``path`` holds its expected value: text
    and ints as they are, other numbers reading back with float() exactly,
    and an empty cell exactly where the value is not finite."""
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        cells = line.split(",")
        assert len(cells) == len(want)
        for cell, value in zip(cells, want):
            if isinstance(value, (str, int)):
                assert cell == str(value)
            elif math.isfinite(value):
                assert float(cell) == value
            else:
                assert cell == ""


class TestPulRatio:
    def test_end_of_life(self):
        assert pul_ratio(100.0, 100.0) == 1.0

    def test_brand_new(self):
        assert pul_ratio(0.0, 100.0) == 0.0

    def test_quarter_life(self):
        assert pul_ratio(25.0, 100.0) == 0.25

    @pytest.mark.parametrize("tau,life", [(101.0, 100.0), (-1.0, 100.0),
                                          (1.0, 0.0), (1.0, -5.0)])
    def test_invalid_inputs_rejected(self, tau, life):
        with pytest.raises(ValueError):
            pul_ratio(tau, life)


class TestRulFromRatio:
    def test_half_life_symmetry(self):
        assert rul_from_ratio(0.5, 100.0) == pytest.approx(100.0)

    def test_end_of_life(self):
        assert rul_from_ratio(1.0, 250.0) == 0.0

    def test_arithmetic(self):
        assert rul_from_ratio(0.25, 50.0) == pytest.approx(150.0)

    @pytest.mark.parametrize("rho", [0.0, -0.2, 5e-4, math.nan])
    def test_indeterminate_below_floor(self, rho):
        assert math.isnan(rul_from_ratio(rho, 100.0))

    @pytest.mark.parametrize("rho", [1e-3, 0.5, 1.0])
    def test_indeterminate_at_time_zero(self, rho):
        # (1/rho - 1) * 0 would read as end of life whatever rho is
        assert math.isnan(rul_from_ratio(rho, 0.0))

    def test_ratio_above_one_rejected(self):
        with pytest.raises(ValueError):
            rul_from_ratio(1.2, 10.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=r"^tau must be non-negative, got -1.0$"):
            rul_from_ratio(0.5, -1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, seed):
        gen = np.random.default_rng(seed)
        life = gen.uniform(1.0, 1e5)
        tau = gen.uniform(0.0, life)
        rho = pul_ratio(tau, life)
        if rho >= 1e-3:
            assert rul_from_ratio(rho, tau) == pytest.approx(
                life - tau, abs=1e-12 * life)


class TestSavitzkyGolay:
    def test_constant_series_unchanged(self):
        x = np.full(100, 4.2)
        np.testing.assert_allclose(savitzky_golay(x), x, atol=1e-12)

    def test_exact_quadratic_reproduced_at_interior(self):
        t = np.linspace(-3.0, 3.0, 120)
        x = 1.5 * t**2 - 0.7 * t + 2.0
        smoothed = savitzky_golay(x, order=2, frame=61)
        np.testing.assert_allclose(smoothed[30:-30], x[30:-30], atol=1e-10)

    def test_impulse_center_coefficient(self):
        x = np.zeros(11)
        x[5] = 1.0
        smoothed = savitzky_golay(x, order=2, frame=5)
        assert smoothed[5] == pytest.approx(17.0 / 35.0, abs=1e-12)

    def test_interior_matches_windowed_polyfit(self, rng):
        x = rng.normal(size=50)
        smoothed = savitzky_golay(x, order=2, frame=5)
        for i in (10, 25, 40):
            coeffs = np.polyfit(np.arange(-2, 3), x[i - 2 : i + 3], 2)
            assert smoothed[i] == pytest.approx(np.polyval(coeffs, 0.0), abs=1e-10)

    def test_linearity(self, rng):
        x = rng.normal(size=80)
        y = rng.normal(size=80)
        lhs = savitzky_golay(2.0 * x + 3.0 * y, order=2, frame=7)
        rhs = 2.0 * savitzky_golay(x, order=2, frame=7) \
            + 3.0 * savitzky_golay(y, order=2, frame=7)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_even_frame_rejected(self):
        with pytest.raises(ConfigError):
            savitzky_golay(np.zeros(100), order=2, frame=60)

    def test_frame_not_above_order_rejected(self):
        with pytest.raises(ConfigError):
            savitzky_golay(np.zeros(100), order=3, frame=3)

    def test_negative_order_rejected(self):
        # order -1 would smooth every series to zeros
        with pytest.raises(ConfigError, match="0 <= order < frame"):
            check_filter(-1, 61)
        with pytest.raises(ConfigError, match="0 <= order < frame"):
            savitzky_golay(np.ones(100), order=-1, frame=61)

    @pytest.mark.parametrize("order, frame", [(2, 61.0), (2.0, 61), (True, 61)])
    def test_non_integer_order_or_frame_rejected(self, order, frame):
        name, value = ("sg_frame", frame) if type(order) is int else ("sg_order", order)
        with pytest.raises(ConfigError,
                           match=f"^{name} must be an integer, got {value!r}$"):
            savitzky_golay(np.ones(100), order, frame)

    def test_numpy_integer_order_and_frame_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_filter(np.int64(2), np.int64(11)) == (2, 11)

    def test_short_series_passes_through_with_warning(self):
        x = np.arange(10.0)
        with pytest.warns(RuntimeWarning):
            out = savitzky_golay(x, order=2, frame=61)
        np.testing.assert_array_equal(out, x)

    @staticmethod
    def rul_like(seed, length):
        """Positive, decreasing-ish series with noise, as RUL estimates are."""
        gen = np.random.default_rng(seed)
        trend = np.linspace(gen.uniform(50.0, 2e4), gen.uniform(0.0, 50.0), length)
        return trend * (1.0 + gen.normal(0.0, 0.1, length)) + gen.normal(0.0, 5.0, length)

    @staticmethod
    def assert_close(actual, expected, series):
        np.testing.assert_allclose(actual, expected, rtol=1e-9,
                                   atol=1e-12 * np.abs(series).max())

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_polyfit(self, data):
        frame = data.draw(st.integers(2, 30), label="half") * 2 + 1
        order = data.draw(st.integers(1, min(4, frame - 1)), label="order")
        length = data.draw(st.integers(frame, 3 * frame), label="length")
        x = self.rul_like(data.draw(st.integers(0, 2**32 - 1), label="seed"), length)
        self.assert_close(savitzky_golay(x, order, frame),
                          brute_force_savgol(x, order, frame), x)

    @pytest.mark.parametrize("frame,order,length", [
        (5, 1, 5), (5, 4, 12), (7, 2, 20), (31, 3, 64), (61, 2, 61), (61, 2, 750),
        (61, 4, 183)])
    def test_matches_scipy_interp_mode(self, frame, order, length):
        from scipy.signal import savgol_filter

        x = self.rul_like(frame * 100 + order, length)
        self.assert_close(savitzky_golay(x, order, frame),
                          savgol_filter(x, frame, order, mode="interp"), x)

    def test_smooth_rul_keeps_nan_runs(self):
        x = np.concatenate([[np.nan, np.nan], np.arange(20.0)])
        out = smooth_rul(x, order=2, frame=5)
        assert np.isnan(out[:2]).all()
        assert np.isfinite(out[2:]).all()

    def test_smooth_rul_all_nan_unchanged(self):
        x = np.full(8, np.nan)
        out = smooth_rul(x)
        assert out is not x
        assert np.isnan(out).all() and out.shape == x.shape


class TestRrmse:
    def test_perfect_estimate(self):
        assert rrmse([0.2, 0.5, 0.9], [0.2, 0.5, 0.9]) == 0.0

    def test_constant_relative_error(self):
        true = np.array([0.1, 0.4, 0.8])
        assert rrmse(true, 2.0 * true) == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self, rng):
        true = rng.uniform(0.1, 1.0, 20)
        est = true + rng.normal(0, 0.05, 20)
        assert rrmse(3.7 * true, 3.7 * est) == pytest.approx(
            rrmse(true, est), rel=1e-12)

    def test_zero_true_values_dropped_with_warning(self):
        with pytest.warns(RuntimeWarning):
            value = rrmse([0.0, 0.5], [0.3, 0.5])
        assert value == 0.0

    def test_all_zero_true_values_rejected(self):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError):
                rrmse([0.0, 0.0], [0.1, 0.2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rrmse([0.1, 0.2], [0.1])


class TestArrmse:
    def test_single_bearing(self):
        assert arrmse([0.42]) == 0.42

    def test_two_bearing_mean(self):
        assert arrmse([1.0, 3.0]) == 2.0

    def test_frozen_reference_row(self):
        values = [0.6979, 0.8263, 0.8106, 0.8556, 0.7991]
        assert arrmse(values) == pytest.approx(0.7979, abs=1e-12)

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_between_min_and_max(self, values):
        assert min(values) - 1e-12 <= arrmse(values) <= max(values) + 1e-12


class TestEvaluateModel:
    def perfect_model_and_table(self):
        # single rule with consequent rho = 0.5 * v: data on that exact line
        model = TSFISModel(
            centers=np.array([[1.0]]),
            slopes=np.array([[0.5]]),
            offsets=np.array([0.0]),
            sigmas=np.array([0.5]),
            time_params=None,
            feature_set=("f1",),
        )
        features = np.linspace(0.2, 2.0, 30)[:, None]
        table = TrainingTable(features, rho=0.5 * features[:, 0],
                              taus=np.linspace(10.0, 300.0, 30))
        return model, table

    def test_perfect_model_scores_zero(self):
        model, table = self.perfect_model_and_table()
        report = evaluate_model(model, {"b1": table})
        assert report.bearings[0].rrmse == pytest.approx(0.0, abs=1e-12)
        assert report.arrmse == pytest.approx(0.0, abs=1e-12)

    def test_single_bearing_arrmse_equals_rrmse(self):
        model, table = self.perfect_model_and_table()
        report = evaluate_model(model, {"b1": table})
        assert report.arrmse == report.bearings[0].rrmse

    @pytest.mark.parametrize("call, message", [
        (lambda model, table: rrmse([], []), "empty sequences"),
        (lambda model, table: arrmse([]), "need at least one bearing"),
        (lambda model, table: evaluate_model(model, {}), "no bearings to evaluate"),
        (lambda model, table: evaluate_model(
            model, {"b1": TrainingTable(table.features, taus=table.taus)}),
         "bearing b1: evaluation needs the rho column"),
    ], ids=["rrmse-empty", "arrmse-empty", "no-bearings", "unlabeled-bearing"])
    def test_nothing_to_score_rejected(self, call, message):
        model, table = self.perfect_model_and_table()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(model, table)

    def test_report_csvs(self, tmp_path):
        model, table = self.perfect_model_and_table()
        report = evaluate_model(model, {"b1": table, "b2": table})
        curves = tmp_path / "curves.csv"
        summary = tmp_path / "summary.csv"
        write_curves_csv(report, curves)
        write_summary_csv([report], summary)
        curve_lines = curves.read_text().strip().splitlines()
        assert curve_lines[0] == ("bearing,k,tau,rho_true,rho_hat,"
                                  "rul_true,rul_hat,rul_hat_smoothed")
        assert len(curve_lines) == 1 + 2 * 30
        summary_lines = summary.read_text().strip().splitlines()
        assert summary_lines[0] == "method,bearing,rrmse"
        assert len(summary_lines) == 4  # two bearings + ARRMSE row
        assert summary_lines[-1].startswith("baseline,ARRMSE,")


    def test_report_cells_read_back_exactly(self, tmp_path):
        _, table = self.perfect_model_and_table()
        # 0.5 v - 0.3 falls below RHO_FLOOR on the first 7 of the 30 rows
        model = TSFISModel(centers=[[1.0]], slopes=[[0.5]], offsets=[-0.3],
                           sigmas=[0.5], time_params=None, feature_set=("f1",))
        report = evaluate_model(model, {"b1": table}, sg_frame=11)
        b = report.bearings[0]
        assert np.count_nonzero(np.isnan(b.rul_hat)) == 7
        curves, summary = tmp_path / "curves.csv", tmp_path / "summary.csv"
        write_curves_csv(report, curves)
        write_summary_csv([report], summary)
        assert_cells(curves, [
            ["b1", k, *values] for k, values in enumerate(zip(
                b.taus, b.rho_true, b.rho_hat_raw, b.rul_true, b.rul_hat,
                b.rul_hat_smoothed), start=1)])
        assert_cells(summary, [["baseline", "b1", b.rrmse],
                               ["baseline", "ARRMSE", report.arrmse]])


class TestRulCurves:
    model_and_table = TestEvaluateModel.perfect_model_and_table

    def test_curves_are_the_clamped_conversion_smoothed(self):
        model, table = self.model_and_table()
        raw, clamped, rul_hat, smoothed = rul_curves(
            model, table.features, table.taus, 2, 11)
        np.testing.assert_array_equal(clamped, np.clip(raw, 0.0, 1.0))
        np.testing.assert_array_equal(
            rul_hat, [rul_from_ratio(r, t) for r, t in zip(clamped, table.taus)])
        np.testing.assert_array_equal(smoothed, smooth_rul(rul_hat, 2, 11))

    def test_evaluate_model_uses_the_same_curves(self):
        model, table = self.model_and_table()
        bearing = evaluate_model(model, {"b1": table}, sg_frame=11).bearings[0]
        curves = rul_curves(model, table.features, table.taus, sg_frame=11)
        for got, want in zip((bearing.rho_hat_raw, bearing.rho_hat, bearing.rul_hat,
                              bearing.rul_hat_smoothed), curves):
            np.testing.assert_array_equal(got, want)

    def test_out_of_order_rows_name_the_bearing(self):
        model, table = self.model_and_table()
        reversed_table = TrainingTable(table.features[::-1], rho=table.rho[::-1],
                                       taus=table.taus[::-1])
        with pytest.raises(ValueError, match="bearing b7: .*increasing time order"):
            evaluate_model(model, {"b1": table, "b7": reversed_table})

    def test_bad_filter_frame_stays_a_config_error(self):
        model, table = self.model_and_table()
        with pytest.raises(ConfigError, match="bearing b1: filter frame"):
            evaluate_model(model, {"b1": table}, sg_frame=10)
