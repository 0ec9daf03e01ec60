"""Feature extraction: frozen oracle values and invariants."""

import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fisrul import features
from fisrul.clustering import TrainingTable
from fisrul.errors import ConfigError
from fisrul.features import (
    FeatureParams,
    SignalWindow,
    _sorted_percentiles,
    _theiler_neighbors,
    approximate_entropy,
    correlation_dimension,
    degradation_index,
    extract_features,
    largest_lyapunov,
    normalize_feature_names,
    read_feature_csv,
    rms,
    spectral_entropy,
    write_csv,
    write_feature_csv,
)

from conftest import brute_force_apen, brute_force_theiler_neighbors


def make_window(samples, index=1, timestamp=0.0):
    return SignalWindow(np.asarray(samples, dtype=float), index, timestamp)


class TestFeatureParams:
    """Every kernel setting is checked once, when its FeatureParams is built."""

    @pytest.mark.parametrize("field, value, message", [
        ("ae_m", 0, "ae_m must be at least 1, got 0"),
        ("ae_m", 2.0, "ae_m must be an integer, got 2.0"),
        ("ae_m", None, "ae_m must be an integer, got None"),
        ("ae_m", True, "ae_m must be an integer, got True"),
        ("ae_r_tol", 0, "ae_r_tol must be positive, got 0"),
        # an infinite tolerance would make every template match: ApEn 0
        ("ae_r_tol", math.inf, "ae_r_tol must be a finite number, got inf"),
        ("ae_r_tol", "x", "ae_r_tol must be a number, got 'x'"),
        ("ae_r_tol", True, "ae_r_tol must be a number, got True"),
        # an int past the float range is rejected, not converted
        ("ae_r_tol", 10**400, f"ae_r_tol must be a finite number, got {10**400}"),
        ("lle_embed_dim", 0, "lle_embed_dim must be at least 1, got 0"),
        ("lle_embed_dim", 5.0, "lle_embed_dim must be an integer, got 5.0"),
        ("lle_lag", 0, "lle_lag must be at least 1, got 0"),
        ("lle_lag", 2.5, "lle_lag must be an integer, got 2.5"),
        ("lle_mean_period", -3, "lle_mean_period must be at least 0, got -3"),
        ("lle_mean_period", 1.5, "lle_mean_period must be an integer, got 1.5"),
        ("lle_fit_range", (4, 4), "lle_fit_range must be null or (lo, hi) with 0 <= lo < hi"),
        ("lle_fit_range", (-1, 4), "lle_fit_range must be null or (lo, hi)"),
        ("lle_fit_range", (0.5, 6), "lle_fit_range[0] must be an integer, got 0.5"),
        ("lle_fit_range", (0, 4, 8), "lle_fit_range must be null or (lo, hi)"),
        ("lle_fit_range", (False, True), "lle_fit_range[0] must be an integer, got False"),
        ("lle_fit_range", 5, "lle_fit_range must be null or (lo, hi)"),
        ("cd_embed_dim", 0, "cd_embed_dim must be at least 1, got 0"),
        ("cd_embed_dim", "5", "cd_embed_dim must be an integer, got '5'"),
        ("cd_lag", 0, "cd_lag must be at least 1, got 0"),
        ("cd_lag", 1.0, "cd_lag must be an integer, got 1.0"),
        ("diae_baseline_frac", 1, "diae_baseline_frac must lie in (0, 1), got 1"),
        ("diae_baseline_frac", "0.1", "diae_baseline_frac must be a number, got '0.1'"),
        ("diae_baseline_frac", -10**400, "diae_baseline_frac must be a finite number"),
        # a negative stride cap would reverse the window
        ("max_points", -600, "max_points must be at least 0, got -600"),
        ("max_points", 600.0, "max_points must be an integer, got 600.0"),
    ], ids=["ae-m-zero", "ae-m-float", "ae-m-null", "ae-m-boolean", "ae-r-tol-zero",
            "ae-r-tol-inf", "ae-r-tol-string", "ae-r-tol-boolean", "ae-r-tol-huge-integer",
            "lle-embed-dim-zero", "lle-embed-dim-float", "lle-lag-zero", "lle-lag-float",
            "lle-mean-period-negative", "lle-mean-period-float", "lle-fit-range-empty",
            "lle-fit-range-negative", "lle-fit-range-float", "lle-fit-range-triple",
            "lle-fit-range-booleans", "lle-fit-range-number", "cd-embed-dim-zero",
            "cd-embed-dim-string", "cd-lag-zero", "cd-lag-float", "diae-baseline-frac-one",
            "diae-baseline-frac-string", "diae-baseline-frac-huge-integer",
            "max-points-negative", "max-points-float"])
    def test_bad_value_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            FeatureParams(**{field: value})

    def test_null_zero_and_numpy_integer_settings_accepted(self):
        p = FeatureParams(ae_m=np.int64(3), lle_lag=None, lle_mean_period=0,
                          lle_fit_range=(np.int32(0), np.int32(6)), cd_lag=None,
                          max_points=0)
        assert (p.ae_m, p.lle_mean_period, p.max_points) == (3, 0, 0)

    def test_numpy_float_settings_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = FeatureParams(ae_r_tol=np.float32(0.25),
                              diae_baseline_frac=np.float32(0.1))
        assert (p.ae_r_tol, p.diae_baseline_frac) == (0.25, np.float32(0.1))

    def test_fit_range_list_stored_as_tuple(self):
        # a JSON config gives a list; the frozen params must stay hashable
        p = FeatureParams(lle_fit_range=[0, 5])
        assert p.lle_fit_range == (0, 5) and hash(p) == hash(FeatureParams(lle_fit_range=(0, 5)))


class TestRms:
    def test_constant_signal(self):
        assert rms(make_window(np.full(100, 2.0))) == pytest.approx(2.0)

    def test_analytic_case(self):
        assert rms(make_window([3.0, -4.0, 3.0, -4.0])) == pytest.approx(
            math.sqrt(12.5))

    def test_phm_scale_window_matches_direct_recomputation(self, rng):
        x = rng.normal(0.0, 1.5, size=2560)
        expected = math.sqrt(math.fsum(v * v for v in x) / x.size)
        assert rms(make_window(x)) == pytest.approx(expected, rel=1e-12)

    def test_amplitude_scaling(self, rng):
        x = rng.normal(size=256)
        assert rms(make_window(-3.0 * x)) == pytest.approx(3.0 * rms(make_window(x)),
                                                           rel=1e-12)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            make_window([])


class TestSpectralEntropy:
    def test_pure_on_bin_sinusoid_near_zero(self):
        t = np.arange(256)
        x = np.sin(2.0 * np.pi * 10.0 * t / 256.0)
        assert spectral_entropy(make_window(x)) < 0.01

    def test_flat_spectrum_near_one(self, rng):
        n = 512
        spectrum = np.exp(1j * rng.uniform(0, 2 * np.pi, n // 2 + 1))
        spectrum[0] = 1.0
        spectrum[-1] = 1.0
        x = np.fft.irfft(spectrum, n)
        assert spectral_entropy(make_window(x)) > 0.999

    def test_two_equal_sinusoids_closed_form(self):
        n = 256
        t = np.arange(n)
        x = np.sin(2 * np.pi * 12 * t / n) + np.sin(2 * np.pi * 40 * t / n)
        n_bins = n // 2 + 1
        expected = math.log(2.0) / math.log(n_bins)
        got = spectral_entropy(make_window(x))
        assert got == pytest.approx(expected, abs=1e-9)
        # independent direct-PSD recomputation
        psd = np.abs(np.fft.rfft(x)) ** 2
        p = psd / psd.sum()
        direct = -sum(v * math.log(v) for v in p if v > 0) / math.log(p.size)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_all_zero_signal(self):
        assert spectral_entropy(make_window(np.zeros(64))) == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            spectral_entropy(make_window([1.0, 2.0]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounds(self, seed):
        x = np.random.default_rng(seed).normal(size=128)
        value = spectral_entropy(make_window(x))
        assert 0.0 <= value <= 1.0 + 1e-12

    def test_amplitude_scaling_invariance(self, rng):
        x = rng.normal(size=200)
        a = spectral_entropy(make_window(x))
        b = spectral_entropy(make_window(17.5 * x))
        assert a == pytest.approx(b, abs=1e-12)


class TestApproximateEntropy:
    def test_constant_signal(self):
        assert approximate_entropy(make_window(np.full(64, 5.0))) == 0.0

    def test_periodic_series_matches_brute_force(self):
        x = np.tile([1.0, 3.0], 24)  # period 2, 48 samples
        r = 0.2 * float(np.std(x))
        expected = brute_force_apen(x, 2, r)
        assert approximate_entropy(make_window(x), FeatureParams(ae_m=2, ae_r_tol=0.2)) \
            == pytest.approx(expected, abs=1e-12)

    def test_random_series_matches_brute_force(self, rng):
        x = rng.normal(size=60)
        r = 0.2 * float(np.std(x))
        expected = brute_force_apen(x, 2, r)
        assert approximate_entropy(make_window(x)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kernel", [approximate_entropy, largest_lyapunov,
                                        correlation_dimension])
    def test_negative_decimation_cap_rejected(self, rng, kernel):
        # a negative stride cap would reverse the window; the settings that
        # carry it to a kernel refuse it before the kernel runs
        with pytest.raises(ValueError, match="max_points must be at least 0, got -600"):
            kernel(make_window(rng.normal(size=2560)), FeatureParams(max_points=-600))

    def test_integer_series_with_boundary_ties_matches_brute_force(self):
        # integer samples with r exactly 1.0: many template pairs sit on the
        # <= r boundary
        x = np.random.default_rng(3).integers(0, 5, 400).astype(float)
        r_tol = 1.0 / float(np.std(x))
        assert r_tol * float(np.std(x)) == 1.0
        expected = brute_force_apen(x, 2, 1.0)
        assert approximate_entropy(make_window(x), FeatureParams(ae_m=2, ae_r_tol=r_tol)) \
            == pytest.approx(expected, abs=1e-12)

    def test_noise_more_irregular_than_sinusoid(self, rng):
        n = 400
        sine = np.sin(2 * np.pi * np.arange(n) / 25.0)
        noise = rng.uniform(-1.0, 1.0, n)
        assert approximate_entropy(make_window(noise)) > approximate_entropy(
            make_window(sine))

    def test_amplitude_scaling_invariance(self, rng):
        # power-of-two scaling keeps every float comparison bit-identical
        x = rng.normal(size=120)
        assert approximate_entropy(make_window(2.0 * x)) == approximate_entropy(
            make_window(x))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_non_negative(self, seed):
        x = np.random.default_rng(seed).standard_normal(80)
        assert approximate_entropy(make_window(x)) >= 0.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            approximate_entropy(make_window([1.0, 2.0, 3.0]), FeatureParams(ae_m=2))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("block_rows", [1, 2, -1], ids=[
        "one-row-blocks", "blocks-shorter-than-halo", "last-block-in-halo"])
    def test_row_blocks_match_brute_force(self, monkeypatch, m, block_rows):
        # integer samples with r = 1.0 put many pairs on the <= r boundary;
        # block_rows -1 leaves the last length-m template, which has no
        # length-(m+1) extension, alone in the final block
        x = np.random.default_rng(21).integers(0, 5, 90).astype(float)
        count = x.size - m + 1
        rows = count - 1 if block_rows == -1 else block_rows
        monkeypatch.setattr(features, "_BLOCK_BYTES", rows * 8 * count)
        assert next(features._row_blocks(count)) == (0, rows)
        r_tol = 1.0 / float(np.std(x))
        assert r_tol * float(np.std(x)) == 1.0
        got = approximate_entropy(x, FeatureParams(ae_m=m, ae_r_tol=r_tol))
        assert got == pytest.approx(brute_force_apen(x, m, 1.0), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", [
        np.random.default_rng(22).integers(0, 4, 700).astype(float),
        np.round(np.random.default_rng(23).normal(size=900), 1),
        np.sin(np.arange(1200) / 9.0) + 0.2 * np.random.default_rng(24).normal(size=1200),
        np.tile(np.arange(7.0), 120),
    ], ids=["integers", "rounded", "sine-plus-noise", "periodic"])
    def test_bit_identical_to_chebyshev_distance_counts(self, x, m):
        """Same bits as counting cdist(..., "chebyshev") <= r row by row."""
        from scipy.spatial.distance import cdist

        def phi(length, r):
            templates = np.lib.stride_tricks.sliding_window_view(x, length)
            matches = np.count_nonzero(
                cdist(templates, templates, "chebyshev") <= r, axis=1)
            return float(np.mean(np.log(matches / templates.shape[0])))

        r = 0.2 * float(np.std(x))
        assert approximate_entropy(x, FeatureParams(ae_m=m)) == phi(m, r) - phi(m + 1, r)

    def test_undecimated_window_in_bounded_memory(self):
        """A full 6000 x 6000 closeness mask alone would take 36 MB."""
        x = np.random.default_rng(25).standard_normal(6000)
        tracemalloc.start()
        try:
            value = approximate_entropy(x, FeatureParams(max_points=0))
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak_mb < 4


class TestLargestLyapunov:
    def test_sinusoid_no_divergence(self):
        t = np.arange(2000)
        x = np.sin(2 * np.pi * t / 80.0)
        assert abs(largest_lyapunov(make_window(x))) < 0.05

    def test_fully_chaotic_logistic_map(self):
        x = np.empty(3000)
        x[0] = 0.2
        for i in range(1, x.size):
            x[i] = 4.0 * x[i - 1] * (1.0 - x[i - 1])
        x = x[500:2500]
        got = largest_lyapunov(make_window(x), FeatureParams(
            lle_embed_dim=2, lle_lag=1, lle_mean_period=1, lle_fit_range=(0, 6)))
        assert got == pytest.approx(math.log(2.0), rel=0.15)

    def test_white_noise_positive_and_above_sinusoid(self, rng):
        n = 2000
        sine = np.sin(2 * np.pi * np.arange(n) / 80.0)
        noise = rng.standard_normal(n)
        lle_noise = largest_lyapunov(make_window(noise))
        assert math.isfinite(lle_noise) and lle_noise > 0.0
        assert lle_noise > largest_lyapunov(make_window(sine))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            largest_lyapunov(make_window(np.arange(12.0)),
                             FeatureParams(lle_embed_dim=5, lle_lag=3))

    def test_empty_theiler_neighborhood_rejected(self, rng):
        with pytest.raises(ValueError, match=r"mean_period=100.*m=36"):
            largest_lyapunov(make_window(rng.standard_normal(40)),
                             FeatureParams(lle_lag=1, lle_mean_period=100))

    def test_coincident_neighbours_named(self):
        # every neighbour of an exactly periodic signal repeats it exactly
        with pytest.raises(ValueError, match="distance 0"):
            largest_lyapunov(make_window(np.tile(np.arange(7.0), 300)))

    @pytest.mark.parametrize("signal, width", [
        (np.tile(np.arange(7.0), 300), 5),
        (np.random.default_rng(11).integers(0, 4, 2000).astype(float), 5),
        (np.sin(2 * np.pi * np.arange(2000) / 80.0), 5),
        # up to 7 columns numpy sums the squares in the same order as cdist
        (np.random.default_rng(12).standard_normal(1500), 7),
    ], ids=["periodic-integers", "integer-noise", "sinusoid", "gaussian-width-7"])
    def test_theiler_neighbors_match_brute_force(self, signal, width):
        points = np.lib.stride_tricks.sliding_window_view(signal, width)
        expected = brute_force_theiler_neighbors(points, 7)
        assert _theiler_neighbors(points, 7).tolist() == expected


@pytest.mark.parametrize("mean_period", [0, 1, 4, 9])
@pytest.mark.parametrize("block_rows", [1, 3, 7, 40])
def test_theiler_band_matches_per_row_band(monkeypatch, mean_period, block_rows):
    """The strided band equals setting each row's band slice on its own,
    with bands crossing row-block edges and both ends of the matrix."""
    from scipy.spatial.distance import cdist

    points = np.random.default_rng(mean_period).standard_normal((41, 2))
    dist = cdist(points, points)
    for i in range(len(points)):
        dist[i, max(0, i - mean_period):i + mean_period + 1] = np.inf
    monkeypatch.setattr(features, "_BLOCK_BYTES", block_rows * 8 * len(points))
    assert next(features._row_blocks(len(points))) == (0, min(block_rows, 41))
    assert _theiler_neighbors(points, mean_period).tolist() \
        == dist.argmin(axis=1).tolist()


def step_loop_divergence(points, nn, n_steps):
    """The divergence loop `features._divergence` replaced: one gather of the
    tracked pairs per step.  Kept here as its oracle."""
    m = points.shape[0]
    idx = np.arange(m)
    divergence = np.full(n_steps, np.nan)
    coincident = np.zeros(n_steps, dtype=bool)
    for k in range(n_steps):
        keep = (idx + k < m) & (nn + k < m)
        if not np.any(keep):
            break
        d = np.sqrt(np.sum((points[idx[keep] + k] - points[nn[keep] + k]) ** 2, axis=1))
        d = d[d > 0.0]
        if d.size:
            divergence[k] = np.mean(np.log(d))
        else:
            coincident[k] = True
    return divergence, coincident


def vibration_window(seed, n, rate, life, decimals=None):
    """Carrier, a fault tone growing with ``life`` and rising noise, shaped
    like the benchmark's PHM and IMS windows."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    x = (0.25 * np.sin(2 * np.pi * 210.0 * t + rng.uniform(0, 2 * np.pi))
         + (0.02 + 0.6 * life ** 3) * np.sin(2 * np.pi * 2300.0 * t)
         + 0.05 * (1.0 + 4.0 * life ** 2) * rng.standard_normal(n))
    return x if decimals is None else np.round(x, decimals)


# Past 7 coordinates numpy sums a row with 8-lane partial sums, so the
# one-coordinate-at-a-time sum may differ from it in the last bits; the mean
# log distance has moved by at most 8.9e-16 in every case measured.
DIVERGENCE_ATOL_WIDE = 4e-15


class TestDivergenceCurve:
    """`largest_lyapunov`'s divergence curve against the per-step loop."""

    @pytest.mark.parametrize("x", [
        vibration_window(1, 2560, 25600.0, 0.6),
        vibration_window(2, 20480, 20000.0, 1.0, decimals=3),
    ], ids=["phm", "ims"])
    @pytest.mark.parametrize("lag", [1, 2, 3])
    def test_matches_step_loop(self, x, lag):
        x = features._decimate(x, features.MAX_PAIRWISE_POINTS)
        period = features._mean_period(x)
        for dim in range(1, 13):
            points = features._embed(x, dim, lag)
            nn = _theiler_neighbors(points, period)
            n_steps = max(3, min(50, points.shape[0] // 4))
            got, got_zero = features._divergence(x, nn, dim, lag, n_steps)
            want, want_zero = step_loop_divergence(points, nn, n_steps)
            assert got_zero.tolist() == want_zero.tolist()
            if dim <= 7:
                assert got.tobytes() == want.tobytes(), dim
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=DIVERGENCE_ATOL_WIDE)

    @pytest.mark.parametrize("lag", [1, 2, 3])
    def test_coincident_steps_match_step_loop(self, lag):
        x = np.tile(np.arange(7.0), 300)
        points = features._embed(x, 5, lag)
        nn = _theiler_neighbors(points, 3)
        got, got_zero = features._divergence(x, nn, 5, lag, 50)
        want, want_zero = step_loop_divergence(points, nn, 50)
        assert got_zero.all() and got_zero.tolist() == want_zero.tolist()
        assert got.tobytes() == want.tobytes()

    def test_short_curve_stops_where_pairs_run_out(self, rng):
        # with n_steps > m no pair is left after the last step any pair reaches
        x = rng.standard_normal(24)
        points = features._embed(x, 2, 1)
        nn = _theiler_neighbors(points, 1)
        got, _ = features._divergence(x, nn, 2, 1, 30)
        want, _ = step_loop_divergence(points, nn, 30)
        assert np.isnan(got[-1]) and got.tobytes() == want.tobytes()


def test_one_row_distance_blocks_match_brute_force(monkeypatch):
    # ties and <= r boundaries on integer samples, one distance row per block
    monkeypatch.setattr(features, "_BLOCK_BYTES", 1)
    x = np.random.default_rng(5).integers(0, 4, 300).astype(float)
    r_tol = 1.0 / float(np.std(x))
    r = r_tol * float(np.std(x))
    assert approximate_entropy(x, FeatureParams(ae_r_tol=r_tol)) \
        == pytest.approx(brute_force_apen(x, 2, r), abs=1e-12)
    points = np.lib.stride_tricks.sliding_window_view(x, 5)
    assert _theiler_neighbors(points, 3).tolist() \
        == brute_force_theiler_neighbors(points, 3)


@pytest.mark.parametrize("kernel", [rms, spectral_entropy, approximate_entropy,
                                    largest_lyapunov, correlation_dimension])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_samples_rejected(kernel, bad):
    x = np.sin(np.arange(200) / 5.0)
    x[17] = bad
    with pytest.raises(ValueError, match="non-finite"):
        kernel(make_window(x))
    with pytest.raises(ValueError, match="non-finite"):
        kernel(x)


@pytest.mark.parametrize("call, message", [
    (lambda: rms(np.array([])), "signal window has no samples"),
    (lambda: largest_lyapunov(make_window(np.sin(np.arange(20.0))),
                              FeatureParams(lle_embed_dim=5, lle_lag=3)),
     "too few embedded points for divergence tracking: 8"),
    # the fit range lies past the 50-step divergence curve
    (lambda: largest_lyapunov(make_window(np.sin(np.arange(400) / 5.0)),
                              FeatureParams(lle_fit_range=(60, 70))),
     "divergence curve too short to fit"),
    (lambda: degradation_index(np.ones(5), 1), "baseline needs at least 2 values, got 1"),
    (lambda: normalize_feature_names([]), "feature set is empty"),
], ids=["empty-array-window", "lle-few-points", "lle-fit-past-curve",
        "diae-one-value-baseline", "no-feature-names"])
def test_out_of_range_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestCorrelationDimension:
    def test_line_segment(self):
        x = np.linspace(0.0, 1.0, 600)
        got = correlation_dimension(make_window(x),
                                    FeatureParams(cd_embed_dim=2, cd_lag=1))
        assert got == pytest.approx(1.0, abs=0.15)

    def test_uniform_noise_in_two_dimensions(self, rng):
        x = rng.uniform(0.0, 1.0, 500)
        got = correlation_dimension(make_window(x),
                                    FeatureParams(cd_embed_dim=2, cd_lag=1))
        assert got == pytest.approx(2.0, abs=0.3)

    def test_correlation_sum_matches_brute_force(self, rng):
        x = rng.uniform(0.0, 1.0, 200)
        dim, lag = 2, 1
        n = x.size - (dim - 1) * lag
        points = [(x[i], x[i + lag]) for i in range(n)]
        dists = []
        for i in range(n):
            for j in range(i + 1, n):
                dists.append(math.hypot(points[i][0] - points[j][0],
                                        points[i][1] - points[j][1]))
        dists = [d for d in dists if d > 0]
        # the kernel's own radius grid
        lo, hi = np.percentile(dists, [2.0, 98.0])
        grid = np.geomspace(lo, hi, 20)
        corr = [sum(d < r for d in dists) / len(dists) for r in grid]
        slopes = np.diff(np.log(corr)) / np.diff(np.log(grid))
        got = correlation_dimension(make_window(x),
                                    FeatureParams(cd_embed_dim=2, cd_lag=1))
        assert slopes.min() - 0.01 <= got <= slopes.max() + 0.01

    def test_constant_signal(self):
        assert correlation_dimension(make_window(np.full(300, 7.0))) == 0.0

    @pytest.mark.parametrize("x, params, grid_ties", [
        (np.tile(np.arange(7.0), 200), FeatureParams(), True),
        (np.repeat(np.random.default_rng(31).normal(size=400), 3), FeatureParams(), True),
        (np.random.default_rng(32).integers(0, 4, 1500).astype(float),
         FeatureParams(cd_embed_dim=2, cd_lag=1), True),
        (np.round(np.random.default_rng(33).normal(size=1200), 1),
         FeatureParams(cd_embed_dim=2, cd_lag=1), True),
        (np.sin(np.arange(2560) / 6.0) + 0.3 * np.random.default_rng(34).normal(size=2560),
         FeatureParams(), False),
        # two embedded points, both (1, 1): every distance is 0
        (np.array([1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 1.0, 1.0]),
         FeatureParams(cd_embed_dim=2, cd_lag=8), False),
    ], ids=["periodic-zero-distances", "duplicated-samples", "integers", "rounded",
            "sine-plus-noise", "all-distances-zero"])
    @pytest.mark.filterwarnings("ignore:no stable scaling region")
    def test_bit_identical_to_percentile_and_count_formula(self, x, params, grid_ties):
        """Same bits as the > 0 filter, np.percentile and one count per radius.

        ``grid_ties``: some distance equals a grid radius, where ``<`` and a
        left binary search must agree.
        """
        from scipy.spatial.distance import pdist

        def reference():
            y = features._decimate(x, params.max_points)
            lag = params.cd_lag or features._first_acf_minimum(y)
            dists = pdist(features._embed(y, params.cd_embed_dim, lag))
            dists = dists[dists > 0.0]
            if dists.size == 0:
                return 0.0, 0
            lo, hi = np.percentile(dists, [2.0, 98.0])
            grid = np.geomspace(max(lo, hi * 1e-12), hi, 20)
            corr = np.array([np.count_nonzero(dists < r) for r in grid]) / dists.size
            valid = corr > 0.0
            log_r, log_c = np.log(grid[valid]), np.log(corr[valid])
            run = features._stable_slope_run(log_r, log_c) or slice(0, log_r.size)
            slope = np.polyfit(log_r[run], log_c[run], 1)[0]
            return float(slope), np.count_nonzero(np.isin(grid, dists))

        expected, ties = reference()
        assert (ties > 0) == grid_ties
        assert correlation_dimension(x, params) == expected

    @given(st.one_of(
        st.lists(st.floats(1e-5, 1e5), min_size=1, max_size=80),
        st.lists(st.sampled_from([1e-5, 0.3, 0.3 + 2**-50, 7.0, 1e5]),
                 min_size=1, max_size=80)))
    @example([4.2])
    @example([1e5, 1e-5])
    @example([0.3] * 50 + [7.0])
    @example([0.1, 1.21] + [5.0] * 24)  # 26 values: index 0.5, where numpy lerps down
    @settings(max_examples=200, deadline=None)
    def test_sorted_percentiles_equal_numpy(self, values):
        a = np.array(values)
        np.testing.assert_array_equal(
            _sorted_percentiles(np.sort(a), (2.0, 98.0)), np.percentile(a, [2.0, 98.0]))


class TestDegradationIndex:
    def test_all_values_at_baseline_mean(self):
        series = np.full(20, 3.3)
        series[:4] = [3.0, 3.6, 3.0, 3.6]  # mean 3.3
        assert degradation_index(series, 4)[4:] == pytest.approx(0.0)

    def test_degenerate_baseline_clamped(self):
        series = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        assert degradation_index(series, 4)[4] == 0.0

    def test_hand_arithmetic(self):
        series = np.array([1.5, 2.5, 1.5, 2.5, 3.0])  # mean 2.0, pop std 0.5
        assert degradation_index(series, 4)[4] == pytest.approx(2.0, rel=1e-12)

    def test_baseline_too_long_rejected(self):
        with pytest.raises(ValueError):
            degradation_index(np.ones(5), 5)


class TestExtractFeatures:
    def windows(self, rng, count=10, length=400):
        return [
            make_window(rng.normal(size=length) + 0.1 * k, timestamp=10.0 * k,
                        index=k + 1)
            for k in range(count)
        ]

    def test_single_feature_shape(self, rng):
        table = extract_features(self.windows(rng), ["rms"])
        assert table.features.shape == (10, 1)

    def test_five_feature_input_shape(self, rng):
        table = extract_features(self.windows(rng), ["rms", "se", "ae", "lle", "cd"])
        assert table.features.shape == (10, 5)

    def test_three_feature_input_with_diae(self, rng):
        table = extract_features(self.windows(rng, count=12), ["rms", "se", "diae"])
        assert table.features.shape == (12, 3)

    def test_rho_matches_ratio_formula(self, rng):
        from fisrul.rul import pul_ratio

        windows = self.windows(rng)
        windows = [make_window(w.samples, timestamp=w.timestamp + 10.0) for w in windows]
        table = extract_features(windows, ["rms"], labeled=True)
        life = windows[-1].timestamp
        for w, rho in zip(windows, table.rho):
            assert rho == pul_ratio(w.timestamp, life)

    def test_unlabeled_has_no_rho(self, rng):
        table = extract_features(self.windows(rng), ["rms"])
        assert table.rho is None

    def test_unknown_feature_rejected(self, rng):
        with pytest.raises(ConfigError, match="bogus"):
            extract_features(self.windows(rng), ["rms", "bogus"])

    def test_parallel_matches_serial(self, monkeypatch):
        names = ["rms", "se", "ae", "lle", "cd", "diae"]
        for length, rate in [(2560, 25600.0), (20480, 20000.0)]:  # PHM, IMS sizes
            windows = [make_window(vibration_window(k, length, rate, k / 3), k + 1,
                                   10.0 * k) for k in range(4)]
            monkeypatch.setattr(features, "_usable_cpus", lambda: 1)
            serial = extract_features(windows, names)
            for cpus in (2, 4):
                monkeypatch.setattr(features, "_usable_cpus", lambda: cpus)
                parallel = extract_features(windows, names)
                np.testing.assert_array_equal(serial.features, parallel.features)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_correlation_dimension_runs_on_calling_thread(self, rng, monkeypatch,
                                                          cpus):
        # cd holds the largest buffers; on the caller they never sit in a
        # pool thread's malloc arena, which keeps the peak RSS down
        monkeypatch.setattr(features, "_usable_cpus", lambda: cpus)
        threads = {}
        for name in ("rms", "spectral_entropy", "approximate_entropy",
                     "largest_lyapunov", "correlation_dimension"):
            def record(*args, _kernel=getattr(features, name), _name=name):
                threads.setdefault(_name, set()).add(threading.get_ident())
                return _kernel(*args)
            monkeypatch.setattr(features, name, record)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        extract_features(self.windows(rng, count=3), ["rms", "se", "ae", "lle", "cd"])
        caller = {threading.get_ident()}
        assert threads.pop("correlation_dimension") == caller
        if cpus == 1:
            assert not started
            assert all(idents == caller for idents in threads.values())
        else:
            assert 1 <= len(started) <= cpus - 1
            assert all(not idents & caller for idents in threads.values())

    def test_every_kernel_has_a_cost_rank(self):
        assert sorted(features._COST_ORDER) == sorted(features._KERNELS)

    @pytest.mark.parametrize("order, dim", [(["ae", "lle", "cd"], 5),
                                            (["ae", "cd", "lle"], 4)],
                             ids=["lle-before-cd", "cd-before-lle"])
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_first_failing_kernel_in_feature_order_raised(self, rng, monkeypatch,
                                                          order, dim, cpus):
        # lle and cd both fail on 6 samples, each naming its own embedding
        monkeypatch.setattr(features, "_usable_cpus", lambda: cpus)
        params = FeatureParams(lle_embed_dim=5, lle_lag=2, cd_embed_dim=4, cd_lag=2)
        window = make_window(rng.normal(size=6))
        with pytest.raises(ValueError,
                           match=f"^window too short for embedding dim={dim}, lag=2"):
            extract_features([window], order, params)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_timestamp_error_at_same_window(self, rng, monkeypatch, cpus):
        monkeypatch.setattr(features, "_usable_cpus", lambda: cpus)
        calls = []
        kernel = features.rms
        monkeypatch.setattr(features, "rms", lambda w: calls.append(w) or kernel(w))
        windows = self.windows(rng, count=6)
        windows[4] = make_window(windows[4].samples, timestamp=windows[3].timestamp)
        with pytest.raises(ValueError, match=r"strictly increasing \(30.0 after 30.0\)"):
            extract_features(windows, ["rms", "ae"])
        assert [w.timestamp for w in calls] == [0.0, 10.0, 20.0, 30.0]

    @pytest.mark.parametrize("order", [
        ["cd", "rms", "ae"], ["diae", "rms"], ["ae", "diae", "se", "lle"],
    ], ids=["cd-rms-ae", "diae-without-ae", "ae-diae-se-lle"])
    def test_columns_equal_direct_kernel_calls(self, rng, order):
        p = FeatureParams(ae_m=3, ae_r_tol=0.3, lle_embed_dim=4, lle_lag=2,
                          lle_mean_period=3, lle_fit_range=(1, 6), cd_embed_dim=3,
                          cd_lag=2, diae_baseline_frac=0.3, max_points=250)
        windows = self.windows(rng, count=12, length=400)
        table = extract_features(windows, order, p)
        ae = [approximate_entropy(w, p) for w in windows]
        direct = {
            "rms": lambda: [rms(w) for w in windows],
            "se": lambda: [spectral_entropy(w) for w in windows],
            "ae": lambda: ae,
            "lle": lambda: [largest_lyapunov(w, p) for w in windows],
            "cd": lambda: [correlation_dimension(w, p) for w in windows],
            "diae": lambda: degradation_index(ae, 4),  # round(0.3 * 12) rows
        }
        assert table.feature_names == tuple(order)
        for j, name in enumerate(order):
            np.testing.assert_array_equal(table.features[:, j], direct[name]())

    def test_non_increasing_timestamps_rejected(self, rng):
        windows = [make_window(rng.normal(size=64), timestamp=5.0),
                   make_window(rng.normal(size=64), timestamp=5.0)]
        with pytest.raises(ValueError):
            extract_features(windows, ["rms"])

    def test_csv_round_trip(self, rng, tmp_path):
        windows = self.windows(rng)
        extracted = extract_features(windows, ["rms", "se"], labeled=True)
        path = tmp_path / "features.csv"
        write_feature_csv(path, extracted)
        table = read_feature_csv(path)
        assert table.feature_names == ("rms", "se")
        np.testing.assert_array_equal(table.features, extracted.features)
        np.testing.assert_array_equal(table.rho, extracted.rho)
        np.testing.assert_array_equal(table.taus, extracted.taus)

    def test_zero_windows_rejected(self):
        with pytest.raises(ValueError, match="no windows"):
            extract_features(iter(()), ["rms"])

    def test_csv_without_feature_columns_rejected(self):
        with pytest.raises(ValueError, match="training table has no feature columns"):
            TrainingTable(np.empty((3, 0)), taus=[1.0, 2.0, 3.0])

    def test_determinism(self, rng):
        windows = self.windows(rng)
        params = FeatureParams()
        a = extract_features(windows, ["rms", "se", "ae"], params)
        b = extract_features(windows, ["rms", "se", "ae"], params)
        np.testing.assert_array_equal(a.features, b.features)


class TestWriteCsv:
    def test_cell_rules(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_csv(path, ["a", "b"], [
            ["id", 7, 0.1, np.float64(1 / 3), np.int64(2), None, math.nan, -math.inf],
        ])
        assert path.read_text().splitlines() == [
            "a,b", "id,7,0.1,0.3333333333333333,2.0,,,"]


class TestReadFeatureCsv:
    def write(self, tmp_path, rows):
        path = tmp_path / "table.csv"
        path.write_text("k,tau,rms,se,rho\n" + "".join(r + "\n" for r in rows))
        return path

    def test_non_numeric_feature_cell_located(self, tmp_path):
        path = self.write(tmp_path, ["1,10.0,0.5,0.2,0.1", "2,20.0,abc,0.3,0.2"])
        with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}:3: column 'rms': .*'abc'"):
            read_feature_csv(path)

    def test_non_finite_feature_cell_located(self, tmp_path):
        path = self.write(tmp_path, ["1,10.0,0.5,nan,0.1"])
        with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}:2: column 'se': non-finite"):
            read_feature_csv(path)

    def test_non_finite_tau_located(self, tmp_path):
        path = self.write(tmp_path, ["1,10.0,0.5,0.2,0.1", "2,inf,0.6,0.3,0.2"])
        with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}:3: column 'tau': non-finite"):
            read_feature_csv(path)

    @pytest.mark.parametrize("header, name", [
        ("k,tau,f1,f1,rho", "f1"),
        ("k,tau,f1,tau,rho", "tau"),
    ])
    def test_repeated_column_name_rejected(self, tmp_path, header, name):
        path = tmp_path / "table.csv"
        path.write_text(header + "\n1,10.0,0.5,0.2,0.1\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: "
                                              rf"repeated column name '{name}'$"):
            read_feature_csv(path)

    def test_empty_rho_allowed(self, tmp_path):
        table = read_feature_csv(self.write(tmp_path, ["1,10.0,0.5,0.2,",
                                                       "2,20.0,0.6,0.3,"]))
        assert table.rho is None
        np.testing.assert_array_equal(table.features, [[0.5, 0.2], [0.6, 0.3]])


class TestRhoColumn:
    """A rho column is all empty (unlabeled) or all finite numbers in [0, 1]."""

    write = TestReadFeatureCsv.write

    @pytest.mark.parametrize("rhos, line, message", [
        (["0.1", "nan", "0.3"], 3, "non-finite"),
        (["0.1", "0.2", "1.5"], 4, "'1.5' is outside"),
        (["-0.2", "0.2", "0.3"], 2, "'-0.2' is outside"),
        (["0.1", "", "0.3"], 3, "empty and filled cells mixed"),
        (["", "", "0.3"], 4, "empty and filled cells mixed"),
        (["nan", "nan", "nan"], 2, "non-finite"),
    ], ids=["partial-nan", "above-one", "negative", "filled-then-empty",
            "empty-then-filled", "all-nan"])
    def test_bad_rho_located(self, tmp_path, rhos, line, message):
        rows = [f"{k},{10.0 * k},0.5,0.2,{rho}" for k, rho in enumerate(rhos, start=1)]
        path = self.write(tmp_path, rows)
        with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}:{line}: "
                                              rf"column 'rho': .*{message}"):
            read_feature_csv(path)

    def test_bounds_are_labels(self, tmp_path):
        table = read_feature_csv(self.write(tmp_path, ["1,10.0,0.5,0.2,0",
                                                       "2,20.0,0.6,0.3,1.0"]))
        np.testing.assert_array_equal(table.rho, [0.0, 1.0])
