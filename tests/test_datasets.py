"""Dataset loaders (desk-scale fixtures) and the synthetic generator."""

import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisrul import datasets
from fisrul.clustering import subtractive_cluster
from fisrul.datasets import (
    IMS_WINDOW_LEN,
    PHM_WINDOW_LEN,
    iter_ims,
    iter_phm,
    synth_bearing,
)
from fisrul.errors import ConfigError, LoadError
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

    @pytest.mark.parametrize("channel", [-1, -5, 1.0, 2.5, True, False])
    def test_negative_channel_rejected(self, tmp_path, channel):
        # -1 would otherwise read the last column, -5 index past the first;
        # a float is no column index even when it is whole, nor a boolean.
        # Each is refused before the directory is listed.
        root, _ = make_ims_dir(tmp_path, ["2003.10.22.12.06.24"])
        message = (f"channel must be at least 0, got {channel}" if type(channel) is int
                   else f"channel must be an integer, got {channel!r}")
        with mock.patch.object(datasets, "_directory", side_effect=AssertionError), \
                pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            list(iter_ims(root, channel=channel))

    def test_numpy_integer_channel_accepted(self, tmp_path):
        root, data = make_ims_dir(tmp_path, ["2003.10.22.12.06.24"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (window,) = iter_ims(root, channel=np.int64(2))
        np.testing.assert_array_equal(window.samples, data[0][:, 2])

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


# The loader logic does not depend on the window length, so the property
# tests shrink it to a few rows and each example writes a tiny file.
SHORT_WINDOW = 6

FINITE_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5000, 5000).map(lambda milli: "%.3f" % (milli / 1000.0)))
# cells np.loadtxt refuses, reads as non-finite or must strip first, plus
# short arbitrary text; the line parser reads some of them ("1_0", " 2.5 ",
# Arabic-Indic digits) and rejects the rest
ODD_CELL = st.one_of(
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "1_0", "#3", "# 3", "", " ",
                     "x", " 2.5 ", "+.5", "0x10", "١٢", "1;2", "1\x00", "\x0c1"]),
    st.text(st.characters(codec="utf-8"), max_size=4))
JUNK_LINE = st.sampled_from(["", "   ", "\t", " \t ", "# comment", ";", ","])


@st.composite
def signal_text(draw, widths, separators, other_separators):
    """A window file of SHORT_WINDOW rows or about that many, then up to
    four mutations: an odd cell, a junk line, a row one cell wider or
    narrower, a row with another separator."""
    width = draw(st.sampled_from(widths))
    n_rows = draw(st.sampled_from([0, SHORT_WINDOW - 1, SHORT_WINDOW + 1]
                                  + [SHORT_WINDOW] * 5))
    separator = draw(st.sampled_from(separators))
    lines = [[separator, [draw(FINITE_CELL) for _ in range(width)]]
             for _ in range(n_rows)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 4]))):
        kind = draw(st.sampled_from(["cell", "junk", "width", "separator"]))
        if kind == "junk" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(JUNK_LINE))
            continue
        line = draw(st.sampled_from([line for line in lines if isinstance(line, list)]
                                    or [None]))
        if line is None:
            continue
        cells = line[1]
        if kind == "cell" and cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(ODD_CELL)
        elif kind == "width":
            if cells and draw(st.booleans()):
                cells.pop()
            else:
                cells.append(draw(FINITE_CELL))
        elif kind == "separator":
            line[0] = draw(st.sampled_from(other_separators))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(line if isinstance(line, str) else line[0].join(line[1])
                        for line in lines)
    return text + (newline if lines and draw(st.booleans()) else "")


def read_outcome(loader, root, **kwargs):
    """The sample bytes of every window, or the error type and message."""
    try:
        return [w.samples.tobytes() for w in loader(root, **kwargs)]
    except (LoadError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_reads_like_line_parser(loader, root, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = read_outcome(loader, root, **kwargs)
    assert [str(w.message) for w in caught] == []
    with mock.patch.object(datasets, "_load_column", lambda *args: None):
        assert got == read_outcome(loader, root, **kwargs)


def read_with_spy(loader, root, **kwargs):
    """The loader's outcome, and whether any file went to the line parser."""
    with mock.patch.object(datasets, "_parse_lines",
                           side_effect=datasets._parse_lines) as spy:
        return read_outcome(loader, root, **kwargs), spy.called


class TestFastPath:
    """np.loadtxt reads a file only where it reads what the line parser does."""

    @settings(max_examples=150, deadline=None)
    @given(text=signal_text(widths=[4, 5, 5, 6, 6, 7], separators=[",", ",", ",", ";"],
                            other_separators=[";", ",", "\t"]))
    def test_phm_same_as_line_parser(self, text):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(datasets, "PHM_WINDOW_LEN", SHORT_WINDOW):
            root = Path(tmp)
            (root / "acc_00001.csv").write_bytes(text.encode())
            assert_reads_like_line_parser(iter_phm, root)

    @settings(max_examples=150, deadline=None)
    @given(text=signal_text(widths=[1, 2, 4, 8], separators=["\t"],
                            other_separators=[",", " ", "\t\t"]),
           channel=st.integers(-1, 8) | st.sampled_from([1.0, 2.5, True, False]))
    def test_ims_same_as_line_parser(self, text, channel):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(datasets, "IMS_WINDOW_LEN", SHORT_WINDOW):
            root = Path(tmp)
            (root / "2003.10.22.12.06.24").write_bytes(text.encode())
            assert_reads_like_line_parser(iter_ims, root, channel=channel)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("width", [5, 6])
    def test_clean_phm_file_skips_line_parser(self, tmp_path, width, newline):
        values = np.random.default_rng(width).normal(size=PHM_WINDOW_LEN)
        rows = (",".join(["9", "39", "1", "100", repr(v), "0.01"][:width])
                for v in values.tolist())
        (tmp_path / "acc_00001.csv").write_bytes(newline.join(rows).encode())
        samples, line_parsed = read_with_spy(iter_phm, tmp_path)
        assert not line_parsed and samples[0] == values.tobytes()

    def test_clean_ims_file_skips_line_parser(self, tmp_path):
        root, data = make_ims_dir(tmp_path, ["2003.10.22.12.06.24"])
        samples, line_parsed = read_with_spy(iter_ims, root, channel=3)
        assert not line_parsed and samples[0] == data[0][:, 3].tobytes()

    @pytest.mark.parametrize("text", [
        "1;2;3;4;5;6\n" * SHORT_WINDOW,
        "1,2,3,4,5,6\n   \n" + "1,2,3,4,5,6\n" * (SHORT_WINDOW - 1),
        "1,2,3,4,5\n" + "1,2,3,4,5,6\n" * (SHORT_WINDOW - 1),
        "1,2,3,4\n" * SHORT_WINDOW,
        "1,2,3,4,5,6,7\n" * SHORT_WINDOW,
        "1,2,3,4,1_0,6\n" * SHORT_WINDOW,
        "1,2,3,4,nan,6\n" * SHORT_WINDOW,
        "1,2,3,4,5,6\n" * (SHORT_WINDOW + 1),
        "# header\n" + "1,2,3,4,5,6\n" * SHORT_WINDOW,
        "",
    ], ids=["semicolons", "whitespace-line", "mixed-width", "four-columns",
            "seven-columns", "underscore", "nan", "long", "comment", "empty"])
    def test_refused_phm_file_goes_to_line_parser(self, tmp_path, text):
        (tmp_path / "acc_00001.csv").write_text(text)
        with mock.patch.object(datasets, "PHM_WINDOW_LEN", SHORT_WINDOW):
            assert read_with_spy(iter_phm, tmp_path)[1]

    @pytest.mark.parametrize("channel", [-1, 2])
    def test_out_of_range_ims_channel_goes_to_line_parser(self, tmp_path, channel):
        # a negative channel is a bad setting, refused before any file is read
        (tmp_path / "2003.10.22.12.06.24").write_text("0.1\t0.2\n" * SHORT_WINDOW)
        with mock.patch.object(datasets, "IMS_WINDOW_LEN", SHORT_WINDOW):
            outcome, line_parsed = read_with_spy(iter_ims, tmp_path, channel=channel)
        assert line_parsed == (channel >= 0)
        if channel < 0:
            assert outcome == ("ConfigError", "channel must be at least 0, got -1")


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

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -1.0, 10**400])
    def test_bad_noise_rejected(self, noise):
        rule = "non-negative" if noise == -1.0 else "a finite number"
        with pytest.raises(ConfigError, match=f"^noise must be {rule}, got {noise!r}$"):
            synth_bearing(0, noise=noise)

    def test_numpy_scalar_settings_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = synth_bearing(np.int64(3), regimes=np.int64(2),
                                  lifetime=np.float32(600.0), noise=np.float32(0.05),
                                  n_obs=np.int64(40), start_frac=np.float32(0.25))
        assert table.n_rows == 40 and table.taus[-1] == 600.0

    @pytest.mark.parametrize("n_obs", [0, -3])
    def test_no_observations_rejected(self, n_obs):
        with pytest.raises(ValueError, match=f"^n_obs must be at least 1, got {n_obs}$"):
            synth_bearing(0, n_obs=n_obs)

    @pytest.mark.parametrize("n_features", [0, -2])
    def test_no_features_rejected(self, n_features):
        with pytest.raises(ValueError,
                           match=f"^n_features must be at least 1, got {n_features}$"):
            synth_bearing(0, n_features=n_features)
