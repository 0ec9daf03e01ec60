"""Dataset loaders (desk-scale fixtures) and the synthetic generator."""

import re

import numpy as np
import pytest

from fisrul.clustering import subtractive_cluster
from fisrul.datasets import (
    IMS_WINDOW_LEN,
    PHM_WINDOW_LEN,
    iter_ims,
    iter_phm,
    synth_bearing,
)
from fisrul.errors import LoadError
from fisrul.fis import identify_weighted, predict_table
from fisrul.rul import rrmse


def write_phm_file(path, values, separator=",", rows=None):
    rows = rows if rows is not None else len(values)
    with open(path, "w") as fh:
        for i in range(rows):
            hour, minute, sec, micro = 9, 39, i % 60, 100 * i
            fh.write(separator.join(
                [str(hour), str(minute), str(sec), str(micro),
                 repr(float(values[i])), "0.01"]) + "\n")


def make_phm_dir(tmp_path, n_files=3, rng=None):
    rng = rng or np.random.default_rng(7)
    root = tmp_path / "Bearing1_1"
    root.mkdir()
    recordings = []
    for k in range(n_files):
        values = rng.normal(0.0, 1.0, PHM_WINDOW_LEN)
        write_phm_file(root / f"acc_{k + 1:05d}.csv", values)
        recordings.append(values)
    return root, recordings


class TestLoadPhm:
    def test_three_files(self, tmp_path):
        root, originals = make_phm_dir(tmp_path)
        windows = list(iter_phm(root))
        assert len(windows) == 3
        assert [w.timestamp for w in windows] == [0.0, 10.0, 20.0]
        for window, original in zip(windows, originals):
            assert window.sample_rate == 25600.0
            np.testing.assert_array_equal(window.samples, original)

    def test_lossless_round_trip(self, tmp_path):
        # text -> binary -> text at full precision is bit-exact
        root, originals = make_phm_dir(tmp_path, n_files=1)
        windows = list(iter_phm(root))
        reserialized = [repr(float(v)) for v in windows[0].samples]
        assert reserialized == [repr(float(v)) for v in originals[0]]

    def test_semicolon_separated_variant(self, tmp_path):
        root = tmp_path / "b"
        root.mkdir()
        values = np.random.default_rng(0).normal(size=PHM_WINDOW_LEN)
        write_phm_file(root / "acc_00001.csv", values, separator=";")
        windows = list(iter_phm(root))
        np.testing.assert_array_equal(windows[0].samples, values)

    def test_short_file_rejected(self, tmp_path):
        root = tmp_path / "b"
        root.mkdir()
        write_phm_file(root / "acc_00001.csv",
                       np.zeros(PHM_WINDOW_LEN - 1))
        with pytest.raises(LoadError, match="2559"):
            list(iter_phm(root))

    def test_empty_directory_rejected(self, tmp_path):
        root = tmp_path / "empty"
        root.mkdir()
        with pytest.raises(LoadError):
            list(iter_phm(root))

    def test_malformed_row_names_file_and_line(self, tmp_path):
        root = tmp_path / "b"
        root.mkdir()
        path = root / "acc_00001.csv"
        write_phm_file(path, np.zeros(PHM_WINDOW_LEN))
        lines = path.read_text().splitlines()
        lines[41] = "9,39,41,0,not-a-number,0.01"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError, match=r"acc_00001\.csv:42"):
            list(iter_phm(root))

    def test_wrong_column_count_rejected(self, tmp_path):
        root = tmp_path / "b"
        root.mkdir()
        (root / "acc_00001.csv").write_text("1,2,3\n" * PHM_WINDOW_LEN)
        with pytest.raises(LoadError, match="columns"):
            list(iter_phm(root))

    def test_non_monotone_file_indices_rejected(self, tmp_path):
        root = tmp_path / "b"
        root.mkdir()
        values = np.zeros(PHM_WINDOW_LEN)
        write_phm_file(root / "acc_1.csv", values)
        write_phm_file(root / "acc_02.csv", values)  # sorts before acc_1
        with pytest.raises(LoadError, match="increasing"):
            list(iter_phm(root))


def make_ims_dir(tmp_path, stamps, n_channels=4, rng=None):
    rng = rng or np.random.default_rng(3)
    root = tmp_path / "1st_test"
    root.mkdir()
    data = []
    for stamp in stamps:
        block = rng.normal(0.0, 0.5, size=(IMS_WINDOW_LEN, n_channels))
        with open(root / stamp, "w") as fh:
            for row in block:
                fh.write("\t".join(repr(float(v)) for v in row) + "\n")
        data.append(block)
    return root, data


class TestLoadIms:
    def test_two_files_channel_zero(self, tmp_path):
        stamps = ["2003.10.22.12.06.24", "2003.10.22.12.16.24"]
        root, data = make_ims_dir(tmp_path, stamps)
        windows = list(iter_ims(root, channel=0))
        assert len(windows) == 2
        assert [w.timestamp for w in windows] == [0.0, 600.0]
        for window, block in zip(windows, data):
            assert window.samples.size == IMS_WINDOW_LEN
            assert window.sample_rate == 20000.0
            np.testing.assert_array_equal(window.samples, block[:, 0])

    def test_channel_selection(self, tmp_path):
        stamps = ["2003.10.22.12.06.24"]
        root, data = make_ims_dir(tmp_path, stamps)
        windows = list(iter_ims(root, channel=2))
        np.testing.assert_array_equal(windows[0].samples, data[0][:, 2])

    def test_channel_out_of_range_rejected(self, tmp_path):
        stamps = ["2003.10.22.12.06.24"]
        root, _ = make_ims_dir(tmp_path, stamps, n_channels=2)
        with pytest.raises(LoadError, match="channel"):
            list(iter_ims(root, channel=5))

    @pytest.mark.parametrize("channel", [-1, -5])
    def test_negative_channel_rejected(self, tmp_path, channel):
        # -1 would otherwise read the last column, -5 index past the first
        root, _ = make_ims_dir(tmp_path, ["2003.10.22.12.06.24"])
        path = re.escape(str(root / "2003.10.22.12.06.24"))
        with pytest.raises(LoadError, match=rf"^{path}:1: channel {channel} out of "
                                            r"range \(4 columns\)$"):
            list(iter_ims(root, channel=channel))

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        # lexicographic order '2003.10...' < '2003.2...' inverts chronology
        stamps = ["2003.10.22.12.06.24", "2003.2.23.12.06.24"]
        root, _ = make_ims_dir(tmp_path, stamps)
        with pytest.raises(LoadError, match="increasing"):
            list(iter_ims(root))

    def test_short_file_rejected(self, tmp_path):
        root = tmp_path / "t"
        root.mkdir()
        (root / "2003.10.22.12.06.24").write_text("0.1\t0.2\n" * 100)
        with pytest.raises(LoadError, match="20480"):
            list(iter_ims(root))


class TestSynthBearing:
    def test_same_seed_identical(self):
        a = synth_bearing(42)
        b = synth_bearing(42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.rho, b.rho)
        np.testing.assert_array_equal(a.taus, b.taus)

    def test_noise_free_single_regime_is_affine(self):
        table = synth_bearing(0, regimes=1, noise=0.0)
        for i in range(table.n_features):
            coeffs = np.polyfit(table.taus, table.features[:, i], 1)
            np.testing.assert_allclose(
                np.polyval(coeffs, table.taus), table.features[:, i], atol=1e-9)

    def test_rho_follows_ratio_definition(self):
        table = synth_bearing(1, lifetime=500.0)
        np.testing.assert_allclose(table.rho, table.taus / 500.0, atol=1e-12)

    def test_noise_free_three_regime_recovery(self):
        train = synth_bearing(7, regimes=3, noise=0.0)
        clusters = subtractive_cluster(train)
        model = identify_weighted(train, clusters)
        held_out = synth_bearing(99, regimes=3, noise=0.0)
        estimate = predict_table(model, held_out.features, held_out.taus)
        assert rrmse(held_out.rho, estimate) < 0.05

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            synth_bearing(0, regimes=0)
        with pytest.raises(ValueError):
            synth_bearing(0, lifetime=0.0)
        with pytest.raises(ValueError):
            synth_bearing(0, start_frac=1.0)
