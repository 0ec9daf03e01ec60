"""Command-line interface: full flows, determinism, exit codes."""

import contextlib
import hashlib
import inspect
import io
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisrul import datasets, features
from fisrul.cli import SECTIONS, main
from fisrul.clustering import ClusterConfig, subtractive_cluster
from fisrul.datasets import iter_ims, iter_phm
from fisrul.features import extract_features, read_feature_csv
from fisrul.fis import TSFISModel, load_model, save_model
from fisrul.rul import rul_curves

from test_datasets import make_ims_dir, make_phm_dir
from test_rul import assert_cells


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def synth_csvs(tmp_path):
    paths = {}
    for name, seed in [("train_a", 0), ("train_b", 1), ("test_a", 100),
                       ("test_b", 101), ("test_c", 102)]:
        out = tmp_path / f"{name}.csv"
        assert main(["synth", "--seed", str(seed), "--out", str(out)]) == 0
        paths[name] = out
    return paths


class TestFeaturesCommand:
    def test_phm_rms_extraction(self, tmp_path, capsys):
        root, _ = make_phm_dir(tmp_path)
        out = tmp_path / "features.csv"
        code = main(["features", "--input", str(root), "--format", "phm",
                     "--features", "rms", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,tau,rms,rho"
        assert len(lines) == 4
        assert "3 windows" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        root, _ = make_phm_dir(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["features", "--input", str(root), "--format", "phm",
                         "--features", "rms,se", "--out", str(out)]) == 0
        assert sha256(out1) == sha256(out2)

    def test_unknown_feature_exits_2(self, tmp_path, capsys):
        root, _ = make_phm_dir(tmp_path)
        code = main(["features", "--input", str(root), "--format", "phm",
                     "--features", "rms,wavelet", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 2
        assert "wavelet" in capsys.readouterr().err

    def test_missing_directory_exits_1(self, tmp_path):
        code = main(["features", "--input", str(tmp_path / "nope"),
                     "--format", "phm", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("fmt", ["phm", "ims"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_input_not_a_directory_exits_1(self, tmp_path, capsys, fmt, kind):
        path = tmp_path / "nope"
        if kind == "file":
            path.write_text("1.0\n")
        code = main(["features", "--input", str(path), "--format", fmt,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"error: {path}: not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("names, message", [
        ([], "{root}: no data files found"),
        (["notes.txt"], "{root}/notes.txt: file name is not a timestamp"),
    ], ids=["empty", "not-a-timestamp"])
    def test_ims_directory_without_data_files_exits_1(self, tmp_path, capsys,
                                                      names, message):
        root = tmp_path / "ims"
        root.mkdir()
        for name in names:
            (root / name).write_text("1.0\n")
        code = main(["features", "--input", str(root), "--format", "ims",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.strip() == f"error: {message.format(root=root)}"

    def test_non_finite_phm_sample_exits_1(self, tmp_path, capsys):
        root, _ = make_phm_dir(tmp_path)
        path = root / "acc_00002.csv"
        lines = path.read_text().splitlines()
        lines[9] = "9,39,9,900,nan,0.01"
        path.write_text("\n".join(lines) + "\n")
        code = main(["features", "--input", str(root), "--format", "phm",
                     "--features", "rms,ae", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "acc_00002.csv:10: non-finite" in capsys.readouterr().err

    def test_undecodable_phm_file_exits_1_naming_the_directory(self, tmp_path, capsys):
        # each line is decoded on its own, so the error names the file and line
        root, _ = make_phm_dir(tmp_path)
        path = root / "acc_00002.csv"
        path.write_bytes(b"9,39,9,900,0.1,0.01\r\n9,39,9,900,0.2,0.01\r\n"
                         b"9,39,9,900,\xff,0.01\r\n")
        code = main(["features", "--input", str(root), "--format", "phm",
                     "--features", "rms", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}:3: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            "in position 11: invalid start byte\n")

    def test_non_finite_ims_sample_exits_1(self, tmp_path, capsys):
        root, _ = make_ims_dir(tmp_path, ["2003.10.22.12.06.24"])
        path = root / "2003.10.22.12.06.24"
        lines = path.read_text().splitlines()
        cells = lines[99].split("\t")
        cells[0] = "nan"
        lines[99] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code = main(["features", "--input", str(root), "--format", "ims",
                     "--features", "rms", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "2003.10.22.12.06.24:100: non-finite" in capsys.readouterr().err

    def test_csv_format_subsets_columns(self, tmp_path):
        root, _ = make_phm_dir(tmp_path)
        full = tmp_path / "full.csv"
        assert main(["features", "--input", str(root), "--format", "phm",
                     "--features", "rms,se", "--out", str(full)]) == 0
        subset = tmp_path / "subset.csv"
        assert main(["features", "--input", str(full), "--format", "csv",
                     "--features", "se", "--out", str(subset)]) == 0
        lines = subset.read_text().strip().splitlines()
        assert lines[0] == "k,tau,se,rho"
        full_lines = full.read_text().strip().splitlines()
        assert [l.split(",")[2] for l in lines[1:]] == \
            [l.split(",")[3] for l in full_lines[1:]]

    def test_csv_format_subsets_columns_by_header_name(self, tmp_path):
        # synth's columns f1, f2 are no kernel names; the header decides
        full, subset = tmp_path / "s.csv", tmp_path / "f2.csv"
        assert main(["synth", "--n-obs", "5", "--out", str(full)]) == 0
        assert main(["features", "--input", str(full), "--format", "csv",
                     "--features", "f2", "--out", str(subset)]) == 0
        table, original = read_feature_csv(subset), read_feature_csv(full)
        assert table.feature_names == ("f2",)
        np.testing.assert_array_equal(table.features[:, 0], original.features[:, 1])
        np.testing.assert_array_equal(table.rho, original.rho)

    def test_csv_format_repeated_name_exits_2(self, tmp_path, capsys):
        full, out = tmp_path / "s.csv", tmp_path / "out.csv"
        assert main(["synth", "--n-obs", "5", "--out", str(full)]) == 0
        capsys.readouterr()
        assert main(["features", "--input", str(full), "--format", "csv",
                     "--features", "f1,f1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: repeated column name 'f1'\n"
        assert not out.exists()

    def test_csv_format_unlabeled_drops_rho(self, tmp_path):
        root, _ = make_phm_dir(tmp_path)
        full = tmp_path / "full.csv"
        assert main(["features", "--input", str(root), "--format", "phm",
                     "--features", "rms,se", "--out", str(full)]) == 0
        subset = tmp_path / "subset.csv"
        assert main(["features", "--input", str(full), "--format", "csv",
                     "--features", "rms", "--unlabeled", "--out", str(subset)]) == 0
        assert read_feature_csv(subset).rho is None
        assert all(line.endswith(",") for line in subset.read_text().splitlines()[1:])

    def test_one_cpu_writes_same_bytes_as_default(self, tmp_path, monkeypatch):
        root, _ = make_phm_dir(tmp_path)
        args = ["features", "--input", str(root), "--format", "phm",
                "--features", "rms,se,ae,lle,cd"]
        default, one = tmp_path / "default.csv", tmp_path / "one.csv"
        assert main(args + ["--out", str(default)]) == 0
        monkeypatch.setattr(features, "_usable_cpus", lambda: 1)
        assert main(args + ["--out", str(one)]) == 0
        assert default.read_bytes() == one.read_bytes()
        # the thread count follows the affinity mask; no flag sets it
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--jobs", "2", "--out", str(one)])
        assert exit_info.value.code == 2

    def test_csv_format_missing_column_exits_2(self, tmp_path):
        root, _ = make_phm_dir(tmp_path)
        full = tmp_path / "full.csv"
        assert main(["features", "--input", str(root), "--format", "phm",
                     "--features", "rms", "--out", str(full)]) == 0
        code = main(["features", "--input", str(full), "--format", "csv",
                     "--features", "se", "--out", str(tmp_path / "s.csv")])
        assert code == 2


class TestTablePath:
    """The library path of the c10 acceptance tests equals the CLI's CSV."""

    def assert_same_table(self, extracted, path):
        table = read_feature_csv(path)
        assert table.feature_names == extracted.feature_names
        for column in ("features", "taus", "rho"):
            np.testing.assert_array_equal(getattr(table, column),
                                          getattr(extracted, column))

    def test_phm(self, tmp_path):
        root, _ = make_phm_dir(tmp_path)
        out = tmp_path / "features.csv"
        assert main(["features", "--input", str(root), "--format", "phm",
                     "--features", "rms,se,ae", "--out", str(out)]) == 0
        self.assert_same_table(
            extract_features(iter_phm(root), ["rms", "se", "ae"], labeled=True), out)

    def test_ims_channel_1(self, tmp_path):
        root, _ = make_ims_dir(tmp_path, ["2003.10.22.12.06.24",
                                          "2003.10.22.12.16.24",
                                          "2003.10.22.12.26.24"])
        out = tmp_path / "features.csv"
        assert main(["features", "--input", str(root), "--format", "ims",
                     "--channel", "1", "--features", "rms,se", "--out", str(out)]) == 0
        self.assert_same_table(
            extract_features(iter_ims(root, 1), ["rms", "se"], labeled=True), out)

    @pytest.mark.parametrize("channel", ["-1", "-5"])
    def test_ims_negative_channel_rejected(self, tmp_path, capsys, channel):
        root, _ = make_ims_dir(tmp_path, ["2003.10.22.12.06.24"])
        out = tmp_path / "features.csv"
        # a bad setting fails before the directory is even listed
        with mock.patch.object(datasets, "_directory", side_effect=AssertionError):
            assert main(["features", "--input", str(root), "--format", "ims",
                         "--channel", channel, "--features", "rms",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {root}: channel must be at least 0, got {channel}")
        assert not out.exists()

    def test_ims_channel_past_last_column_names_file_and_line(self, tmp_path, capsys):
        root, _ = make_ims_dir(tmp_path, ["2003.10.22.12.06.24"])
        out = tmp_path / "features.csv"
        assert main(["features", "--input", str(root), "--format", "ims",
                     "--channel", "4", "--features", "rms", "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: {root / '2003.10.22.12.06.24'}:1: channel 4 out of range "
            "(4 columns)")
        assert not out.exists()


class TestTrainCommand:
    def test_weighted_training_reports_rules(self, synth_csvs, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main(["train", "--train", str(synth_csvs["train_a"]),
                     str(synth_csvs["train_b"]), "--variant", "weighted",
                     "--out", str(model_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rules:" in out and "priors:" in out and "time centroids:" in out
        doc = json.loads(model_path.read_text())
        assert doc["schema_version"] == 2 and "variant" not in doc
        assert set(doc["time_params"]) == {"priors", "centroids", "variances"}
        assert doc["provenance"]["config"]["cluster"]["ra"] == 0.5

    def test_training_deterministic(self, synth_csvs, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            assert main(["train", "--train", str(synth_csvs["train_a"]),
                         "--out", str(path)]) == 0
            outs.append(path)
        # identical apart from the output name: compare full bytes
        assert sha256(outs[0]) == sha256(outs[1])

    def test_exact_fit_on_noise_free_table(self, tmp_path):
        table_csv = tmp_path / "clean.csv"
        assert main(["synth", "--seed", "5", "--noise", "0.0",
                     "--out", str(table_csv)]) == 0
        model_path = tmp_path / "model.json"
        assert main(["train", "--train", str(table_csv),
                     "--out", str(model_path)]) == 0
        report = tmp_path / "report"
        assert main(["evaluate", "--model", str(model_path), "--test",
                     str(table_csv), "--out", str(report)]) == 0
        summary = (tmp_path / "report_summary.csv").read_text().splitlines()
        rrmse_value = float(summary[1].split(",")[2])
        assert rrmse_value < 1e-3

    def test_mismatched_feature_sets_exit_2(self, synth_csvs, tmp_path):
        odd = tmp_path / "odd.csv"
        assert main(["synth", "--seed", "3", "--n-features", "3",
                     "--out", str(odd)]) == 0
        code = main(["train", "--train", str(synth_csvs["train_a"]), str(odd),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_dump_clusters_writes_center_matrix(self, synth_csvs, tmp_path):
        model_path = tmp_path / "model.json"
        dump = tmp_path / "centers.csv"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--dump-clusters", str(dump),
                     "--out", str(model_path)]) == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "c_f1,c_f2,c_star"
        centers = json.loads(model_path.read_text())["centers"]
        assert len(lines) == 1 + len(centers)

    def test_config_file_sets_radius_and_flag_overrides(self, synth_csvs, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"version": 1, "cluster": {"ra": 0.8}}))
        m1 = tmp_path / "m1.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--config", str(config), "--out", str(m1)]) == 0
        assert json.loads(m1.read_text())["provenance"]["config"]["cluster"]["ra"] == 0.8
        m2 = tmp_path / "m2.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--config", str(config), "--ra", "0.4",
                     "--out", str(m2)]) == 0
        assert json.loads(m2.read_text())["provenance"]["config"]["cluster"]["ra"] == 0.4


class TestPredictCommand:
    def test_prediction_columns(self, synth_csvs, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     str(synth_csvs["train_b"]), "--out", str(model_path)]) == 0
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--input",
                     str(synth_csvs["test_a"]), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,tau,rho_hat,rho_hat_clamped,rul_hat,rul_hat_smoothed"
        assert len(lines) == 121

    def test_unlabeled_input_accepted(self, synth_csvs, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--out", str(model_path)]) == 0
        lines = synth_csvs["test_a"].read_text().strip().splitlines()
        unlabeled = tmp_path / "unlabeled.csv"
        stripped = [",".join(line.split(",")[:-1] + [""]) for line in lines[1:]]
        unlabeled.write_text("\n".join([lines[0]] + stripped) + "\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--input",
                     str(unlabeled), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 121

    def test_out_of_order_rows_rejected(self, synth_csvs, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--out", str(model_path)]) == 0
        scrambled = tmp_path / "scrambled.csv"
        lines = synth_csvs["test_a"].read_text().strip().splitlines()
        scrambled.write_text("\n".join([lines[0]] + lines[1:][::-1]) + "\n")
        code = main(["predict", "--model", str(model_path), "--input",
                     str(scrambled), "--out", str(tmp_path / "p.csv")])
        assert code == 1

    def test_feature_mismatch_exits_2(self, synth_csvs, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--out", str(model_path)]) == 0
        odd = tmp_path / "odd.csv"
        assert main(["synth", "--seed", "3", "--n-features", "3",
                     "--out", str(odd)]) == 0
        code = main(["predict", "--model", str(model_path), "--input",
                     str(odd), "--out", str(tmp_path / "p.csv")])
        assert code == 2


# A model file in the schema-1 layout: one object per rule, and a variant key.
SCHEMA_V1_DOCUMENT = {
    "schema_version": 1, "variant": "weighted", "feature_set": ["f1", "f2"],
    "sigmas": [0.5, 0.8], "provenance": {},
    "rules": [{"center": [0.1, 0.2], "a": [0.3, -0.1], "b": 0.2, "weight": 1.0,
               "prior": 0.25, "time_centroid": 100.0, "time_variance": 400.0},
              {"center": [0.9, 1.1], "a": [0.1, 0.4], "b": -0.1, "weight": 1.0,
               "prior": 0.75, "time_centroid": 700.0, "time_variance": 2500.0}]}


def negative_prior(doc):
    """Move mass from the second prior to the first, so the priors still sum
    to 1 but the second is negative."""
    priors = doc["time_params"]["priors"]
    priors[0] += priors[1] + 0.5
    priors[1] = -0.5


def drop_last_time_cluster(doc):
    """Fold the last prior into the first and drop the last time cluster, so
    the time parameters stay valid but cover one rule fewer."""
    time_params = doc["time_params"]
    time_params["priors"][0] += time_params["priors"].pop()
    time_params["centroids"].pop()
    time_params["variances"].pop()


@pytest.fixture(scope="module")
def tiny_models(tmp_path_factory):
    """Model text of each variant, trained on a 40-row synth table, and a
    40-row test table to predict on."""
    tmp = tmp_path_factory.mktemp("tiny")
    train, test = tmp / "train.csv", tmp / "test.csv"
    for seed, out in ((0, train), (100, test)):
        assert main(["synth", "--seed", str(seed), "--n-obs", "40",
                     "--out", str(out)]) == 0
    texts = {}
    for variant in ("baseline", "weighted"):
        model = tmp / f"{variant}.json"
        assert main(["train", "--train", str(train), "--variant", variant,
                     "--out", str(model)]) == 0
        texts[variant] = model.read_text()
    return texts, test


def json_nodes(node, path=()):
    """(key path, value) of every object member and list item below
    ``node``, skipping the contents of the free-form provenance block."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        if key != "provenance":
            yield from json_nodes(child, path + (key,))


# One change to a saved model: a structural edit, or a leaf replaced by a value.
MODEL_MUTATIONS = ["drop", "truncate", "extend", "nest",
                   None, True, "x", 10**400, 1e-320, -1, []]

# One change to a feature CSV: a structural edit, or a cell replaced by a text.
# Finite values from about 1e154 up are left out: predict still warns on them
# (overflow in firing_matrix and time_membership).
CSV_MUTATIONS = ["truncate-header", "drop-cell", "add-cell", "drop-line",
                 "duplicate-line", "swap-lines", "", "x", "nan", "inf", "-inf",
                 "1e400", "9" * 400, "1e-320", "-1", "0", "2", "1_0", " "]


@pytest.fixture(scope="module")
def tiny_csvs(tmp_path_factory):
    """The text of a 30-row synth CSV to mutate, a clean second training
    file, and a model trained on both."""
    tmp = tmp_path_factory.mktemp("tiny-csv")
    first, second, model = tmp / "first.csv", tmp / "second.csv", tmp / "m.json"
    for seed, out in ((1, first), (2, second)):
        assert main(["synth", "--seed", str(seed), "--n-obs", "30",
                     "--out", str(out)]) == 0
    assert main(["train", "--train", str(first), str(second),
                 "--out", str(model)]) == 0
    return first.read_text(), second, model


def mutated_csv(text, change, draw):
    """``text`` with one CSV mutation applied; ``draw`` picks from a range."""
    lines = text.splitlines()
    row = 0 if change == "truncate-header" else draw(0, len(lines) - 1)
    if change == "drop-line":
        del lines[row]
    elif change == "duplicate-line":
        lines.insert(row, lines[row])
    elif change == "swap-lines":
        other = draw(0, len(lines) - 1)
        lines[row], lines[other] = lines[other], lines[row]
    else:
        cells = lines[row].split(",")
        col = draw(0, len(cells) - 1)
        if change == "truncate-header":
            del cells[col:]
        elif change == "drop-cell":
            del cells[col]
        elif change == "add-cell":
            cells.insert(col, cells[col])
        else:
            cells[col] = change
        lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestMalformedInputs:
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("offsets"), "missing key(s) ['offsets']"),
        (lambda doc: doc["offsets"].append(0.5),
         "slopes, offsets and sigmas do not match the J x I centers"),
        (lambda doc: doc["centers"].__setitem__(0, ["x"] * len(doc["centers"][0])),
         "centers[0, 0] must be a number, got 'x'"),
        # the file has no rule weights: a weight key is refused like any other
        (lambda doc: doc.update(weight=0.5), "unknown key(s) ['weight']"),
        (lambda doc: doc.update(feature_set=5),
         "feature_set: expected a list of names, got 5"),
        (lambda doc: doc.update(feature_set="f1f2"),
         "feature_set: expected a list of names, got 'f1f2'"),
        (lambda doc: doc.update(feature_set=["f1"]),
         "feature_set has 1 name(s) for 2 feature columns"),
        (lambda doc: doc["sigmas"].__setitem__(0, 1e-320),
         "membership spreads must have a finite 1/sigma^2, got [1e-320]"),
        (lambda doc: doc["time_params"]["variances"].__setitem__(0, 1e-320),
         "time variances must have a finite 1/(2 variance), got [1e-320]"),
        (lambda doc: doc.pop("centers"), "missing key(s) ['centers']"),
        (lambda doc: doc.update(centers=[]),
         "model needs a J x I center matrix, J and I >= 1"),
        # the variant is read from time_params, so a variant key is unknown
        (lambda doc: doc.update(variant="foo"), "unknown key(s) ['variant']"),
        # true == 1.0 in Python, but a JSON boolean is no number
        (lambda doc: doc["offsets"].__setitem__(0, True),
         "offsets[0] must be a number, got True"),
        (lambda doc: doc.update(provenance=5), "provenance: expected an object, got 5"),
        (lambda doc: doc["offsets"].__setitem__(0, 10**400),
         f"offsets[0] must be a finite number, got {10**400}"),
        (lambda doc: (doc.clear(), doc.update(SCHEMA_V1_DOCUMENT)),
         "unsupported model schema version: 1 (re-run `fisrul train` to write "
         "version 2)"),
        (lambda doc: doc["time_params"].pop("priors"),
         "time_params: missing key(s) ['priors']"),
        (lambda doc: doc["time_params"].update(weights=[1.0]),
         "time_params: unknown key(s) ['weights']"),
        (lambda doc: doc.update(time_params="weighted"),
         "time_params: expected an object, got 'weighted'"),
        # all three nested one level deeper, so their shapes still agree
        (lambda doc: doc["time_params"].update(
            {key: [value] for key, value in doc["time_params"].items()}),
         "priors, centroids and variances must be 1-D, of one length"),
        (negative_prior, "priors must lie in [0, 1] and sum to 1, got ["),
        (lambda doc: doc["time_params"]["priors"].__setitem__(0, math.nan),
         "time_params: priors[0] must be a finite number, got nan"),
        (lambda doc: doc["slopes"][0].append(0.5),
         "slopes[0] must be a number, got ["),
        (lambda doc: doc["sigmas"].__setitem__(0, -0.5),
         "membership spreads must be strictly positive"),
        (lambda doc: doc["time_params"]["variances"].__setitem__(0, 0.0),
         "time variances must be strictly positive"),
        (drop_last_time_cluster, "time parameters do not match the rule count"),
    ], ids=["missing-key", "wrong-length", "non-numeric", "rule-weight",
            "feature-set-number", "feature-set-string", "feature-set-too-short",
            "sigma-reciprocal-overflows", "time-variance-reciprocal-overflows",
            "missing-rules", "no-rules", "unknown-variant", "boolean-offset",
            "provenance-not-an-object", "huge-integer-offset", "schema-v1-document",
            "time-params-missing-key", "time-params-extra-key",
            "time-params-not-an-object", "priors-2d", "negative-prior", "nan-prior",
            "ragged-slopes", "negative-sigma", "zero-time-variance",
            "time-params-one-rule-short"])
    def test_bad_model_rule_exits_2(self, edit, message, synth_csvs, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        edit(doc)
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--input",
                     str(synth_csvs["test_a"]), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert f"error: {model_path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, message", [
        (["features", "--input", "{phm}", "--format", "phm", "--features", "rms,rms"],
         2, "duplicate feature names in ('rms', 'rms')"),
        (["features", "--input", "{phm}", "--format", "phm"],
         1, "{phm}: total life must be positive, got 0.0: labeled rows take it from "
            "the last window's time; a loader's first is 0 s"),
        (["train", "--variant", "weighted", "--train", "{one_row}"],
         1, "need at least 2 observations to estimate time clusters"),
    ], ids=["duplicate-features", "one-file-phm-life", "weighted-train-one-row"])
    def test_input_check_exits_with_its_message(self, argv, code, message, tmp_path,
                                                capsys):
        phm, _ = make_phm_dir(tmp_path, n_files=1)
        one_row, out = tmp_path / "one_row.csv", tmp_path / "out"
        assert main(["synth", "--n-obs", "1", "--out", str(one_row)]) == 0
        capsys.readouterr()
        argv = [arg.format(phm=phm, one_row=one_row) for arg in argv]
        assert main(argv + ["--out", str(out)]) == code
        assert f"error: {message.format(phm=phm)}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_model_not_json_exits_2(self, synth_csvs, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        # the second text nests past Python's recursion limit
        for text in ("rules: 1\n", "[" * 100000 + "]" * 100000):
            model_path.write_text(text)
            code = main(["predict", "--model", str(model_path), "--input",
                         str(synth_csvs["test_a"]), "--out", str(tmp_path / "p.csv")])
            assert code == 2
            assert capsys.readouterr().err.startswith(
                f"error: {model_path}: not a JSON document: ")

    def test_model_integer_past_digit_limit_exits_2(self, synth_csvs, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"schema_version": 1' + "0" * 5000 + "}")
        code = main(["predict", "--model", str(model_path), "--input",
                     str(synth_csvs["test_a"]), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {model_path}: not a JSON document: ")

    @pytest.mark.parametrize("text, message", [
        ("a,b,c\n0,0,0\n", "{bad}: expected header k,tau,<features...>,rho"),
        ("k,tau,rho\n0,0,0.1\n", "{bad}: no feature columns"),
        ("k,tau,f1,rho\n0,0,0.5,0.1\n1,10,0.5\n", "{bad}:3: expected 4 columns"),
        ("k,tau,f1,rho\n", "{bad}: no data rows"),
        ("k\n1\n", "{bad}: expected header k,tau,<features...>,rho"),
    ], ids=["bad-header", "no-feature-columns", "short-row", "no-rows",
            "truncated-header"])
    def test_bad_feature_csv_exits_2(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = main(["train", "--train", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {message.format(bad=bad)}"
        assert not (tmp_path / "m.json").exists()

    def test_bad_feature_cell_exits_2(self, synth_csvs, tmp_path, capsys):
        lines = synth_csvs["train_a"].read_text().splitlines()
        cells = lines[5].split(",")
        cells[2] = "abc"
        lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["train", "--train", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert f"error: {bad}:6: column " in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(variant=st.sampled_from(["baseline", "weighted"]),
           change=st.sampled_from(MODEL_MUTATIONS), data=st.data())
    def test_mutated_model_never_ends_in_a_traceback(self, variant, change, data,
                                                     tiny_models):
        texts, test = tiny_models
        doc = json.loads(texts[variant])
        resize = change in ("truncate", "extend")
        *parents, key = data.draw(st.sampled_from(
            [path for path, value in json_nodes(doc)
             if isinstance(value, list) or not resize]))
        holder = doc
        for step in parents:
            holder = holder[step]
        if change == "drop":
            del holder[key]
        elif change == "truncate":
            holder[key].pop()
        elif change == "extend":
            holder[key].append(holder[key][-1])
        elif change == "nest":
            holder[key] = [holder[key]]
        else:
            holder[key] = change
        model = test.with_name(f"drawn-{variant}.json")
        model.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(["predict", "--model", str(model), "--input", str(test),
                         "--out", str(test.with_name("drawn.csv"))])
        errors = [line for line in stderr.getvalue().splitlines()
                  if line.startswith("error:")]
        assert code in (0, 1, 2)
        assert len(errors) == (code != 0)
        # numpy's floating-point warnings read "... encountered in ..."
        assert code or not [w for w in caught if "encountered" in str(w.message)]

    @settings(max_examples=100, deadline=None)
    @given(change=st.sampled_from(CSV_MUTATIONS), data=st.data())
    def test_mutated_csv_never_ends_in_a_traceback(self, change, data, tiny_csvs):
        text, second, model = tiny_csvs
        mutated = second.with_name("mutated.csv")
        mutated.write_text(mutated_csv(
            text, change, lambda lo, hi: data.draw(st.integers(lo, hi))))
        for argv in (["train", "--train", str(mutated), str(second),
                      "--out", str(second.with_name("drawn.json"))],
                     ["predict", "--model", str(model), "--input", str(mutated),
                      "--out", str(second.with_name("drawn.csv"))],
                     ["evaluate", "--model", str(model), "--test", str(mutated),
                      "--out", str(second.with_name("drawn"))]):
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main(argv)
            errors = [line for line in stderr.getvalue().splitlines()
                      if line.startswith("error:")]
            assert code in (0, 1, 2), argv[0]
            assert len(errors) == (code != 0), argv[0]
            assert code or not [w for w in caught if "encountered" in str(w.message)]

    def test_huge_training_time_exits_1(self, tmp_path, capsys):
        train = tmp_path / "huge.csv"
        assert main(["synth", "--seed", "1", "--n-obs", "30", "--out", str(train)]) == 0
        lines = train.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = "1e308"
        lines[5] = ",".join(cells)
        train.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--train", str(train), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: observation times span [156.0, 1e+308]: too wide to estimate "
            "time clusters over 30 rows"]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "m.json").exists()

    def test_repeated_column_name_exits_2(self, synth_csvs, tmp_path, capsys):
        lines = synth_csvs["train_a"].read_text().splitlines()
        assert lines[0] == "k,tau,f1,f2,rho"
        bad = tmp_path / "repeated.csv"
        bad.write_text("\n".join(["k,tau,f1,f1,rho"] + lines[1:]) + "\n")
        code = main(["train", "--train", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.strip() == \
            f"error: {bad}: repeated column name 'f1'"
        assert not (tmp_path / "m.json").exists()


class TestResultCells:
    """Result CSV cells read back exactly; empty exactly where indeterminate."""

    def test_predict_cells(self, synth_csvs, tmp_path):
        table = read_feature_csv(synth_csvs["test_a"])
        # one affine rule in f1: its output falls below RHO_FLOOR on half the rows
        model = TSFISModel(centers=[[0.0, 0.0]], slopes=[[1.0, 0.0]],
                           offsets=[-np.median(table.features[:, 0])],
                           sigmas=[1.0, 1.0], time_params=None,
                           feature_set=table.feature_names)
        model_path, out = tmp_path / "model.json", tmp_path / "pred.csv"
        save_model(model, model_path)
        assert main(["predict", "--model", str(model_path), "--input",
                     str(synth_csvs["test_a"]), "--out", str(out)]) == 0
        raw, clamped, rul, smoothed = rul_curves(
            load_model(model_path), table.features, table.taus)
        assert np.isnan(rul).any() and np.isfinite(rul).any()
        assert_cells(out, [[k, *values] for k, values in enumerate(
            zip(table.taus, raw, clamped, rul, smoothed), start=1)])

    def test_dump_clusters_cells(self, synth_csvs, tmp_path):
        dump = tmp_path / "centers.csv"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--dump-clusters", str(dump),
                     "--out", str(tmp_path / "model.json")]) == 0
        clusters = subtractive_cluster(read_feature_csv(synth_csvs["train_a"]),
                                       ClusterConfig())
        assert_cells(dump, clusters.centers.tolist())


class TestEvaluateCommand:
    def test_reports_written(self, synth_csvs, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     str(synth_csvs["train_b"]), "--out", str(model_path)]) == 0
        report = tmp_path / "report"
        code = main(["evaluate", "--model", str(model_path),
                     "--test", str(synth_csvs["test_a"]),
                     str(synth_csvs["test_b"]), "--out", str(report)])
        assert code == 0
        assert (tmp_path / "report_curves.csv").exists()
        summary = (tmp_path / "report_summary.csv").read_text().splitlines()
        assert len(summary) == 4  # header, 2 bearings, ARRMSE
        assert "arrmse:" in capsys.readouterr().out


class TestBenchmarkCommand:
    def test_two_method_rows_and_weighted_wins(self, synth_csvs, tmp_path):
        out = tmp_path / "benchmark.csv"
        code = main(["benchmark",
                     "--train", str(synth_csvs["train_a"]),
                     str(synth_csvs["train_b"]),
                     "--test", str(synth_csvs["test_a"]),
                     str(synth_csvs["test_b"]), str(synth_csvs["test_c"]),
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"baseline", "weighted"}
        scores = {}
        for line in lines[1:]:
            method, bearing, value = line.split(",")
            if bearing == "ARRMSE":
                scores[method] = float(value)
        assert scores["weighted"] <= scores["baseline"]

    def test_single_rule_data_makes_variants_agree(self, tmp_path):
        csvs = []
        for seed in (0, 1):
            path = tmp_path / f"flat{seed}.csv"
            assert main(["synth", "--seed", str(seed), "--regimes", "1",
                         "--noise", "0.01", "--out", str(path)]) == 0
            csvs.append(path)
        out = tmp_path / "benchmark.csv"
        # a wide influence radius collapses single-regime data to one rule
        assert main(["benchmark", "--train", str(csvs[0]), "--test",
                     str(csvs[1]), "--ra", "2.0", "--out", str(out)]) == 0
        scores = {}
        for line in out.read_text().strip().splitlines()[1:]:
            method, bearing, value = line.split(",")
            if bearing == "ARRMSE":
                scores[method] = float(value)
        assert scores["weighted"] == pytest.approx(scores["baseline"], abs=1e-8)

    def test_failing_variant_prints_no_result(self, synth_csvs, tmp_path, capsys):
        one_row, out = tmp_path / "one_row.csv", tmp_path / "benchmark.csv"
        assert main(["synth", "--n-obs", "1", "--out", str(one_row)]) == 0
        capsys.readouterr()
        assert main(["benchmark", "--train", str(one_row), "--test",
                     str(synth_csvs["test_a"]), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: need at least 2 observations to estimate time clusters\n")
        assert not out.exists()


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["synth", "--seed", "9", "--out", str(out)]) == 0
        assert sha256(a) == sha256(b)

    @pytest.mark.parametrize("n_obs", ["0", "-3"])
    def test_no_observations_exits_2(self, tmp_path, capsys, n_obs):
        out = tmp_path / "s.csv"
        assert main(["synth", "--n-obs", n_obs, "--out", str(out)]) == 2
        assert f"error: n_obs must be at least 1, got {n_obs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise, message", [
        ("nan", "a finite number, got nan"), ("inf", "a finite number, got inf"),
        ("-1", "non-negative, got -1.0"),
    ], ids=["nan", "inf", "-1"])
    def test_bad_noise_exits_2(self, tmp_path, capsys, noise, message):
        out = tmp_path / "s.csv"
        assert main(["synth", "--noise", noise, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: noise must be {message}"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lifetime", "inf", "lifetime must be a finite number, got inf"),
        ("--lifetime", "0", "lifetime must be positive, got 0.0"),
        ("--seed", "-1", "seed must be at least 0, got -1"),
    ], ids=["infinite-lifetime", "zero-lifetime", "negative-seed"])
    def test_bad_setting_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "s.csv"
        assert main(["synth", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("n_features", ["0", "-2"])
    def test_no_features_exits_2(self, tmp_path, capsys, n_features):
        out = tmp_path / "s.csv"
        assert main(["synth", "--n-features", n_features, "--out", str(out)]) == 2
        assert (f"error: n_features must be at least 1, got {n_features}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestFullDatasetPath:
    def test_phm_features_train_evaluate(self, tmp_path):
        """Loader -> features -> CSV -> train -> evaluate on a tiny PHM dir."""
        from fisrul.datasets import PHM_WINDOW_LEN
        from test_datasets import write_phm_file

        root = tmp_path / "Bearing1_1"
        root.mkdir()
        gen = np.random.default_rng(5)
        for k in range(12):  # amplitude grows with age
            values = gen.normal(0.0, 0.2 + 0.15 * k, PHM_WINDOW_LEN)
            write_phm_file(root / f"acc_{k + 1:05d}.csv", values)
        feats = tmp_path / "feats.csv"
        assert main(["features", "--input", str(root), "--format", "phm",
                     "--features", "rms,se", "--out", str(feats)]) == 0
        model = tmp_path / "model.json"
        with pytest.warns(RuntimeWarning, match="rank-deficient design matrix"):
            assert main(["train", "--train", str(feats), "--variant", "weighted",
                         "--out", str(model)]) == 0
        report = tmp_path / "rep"
        assert main(["evaluate", "--model", str(model), "--test", str(feats),
                     "--out", str(report)]) == 0
        summary = (tmp_path / "rep_summary.csv").read_text().splitlines()
        rrmse_value = float(summary[1].split(",")[2])
        assert np.isfinite(rrmse_value)
        # training-set closure: growing-amplitude data is nearly affine in
        # rms, so the fit should track its own labels reasonably well
        assert rrmse_value < 1.0


class TestPackaging:
    def test_console_entry_point(self, tmp_path):
        import shutil
        import subprocess

        exe = shutil.which("fisrul")
        if exe is None:
            pytest.skip("console script not installed")
        out, model = tmp_path / "s.csv", tmp_path / "m.json"
        for argv in (["synth", "--seed", "1", "--out", str(out)],
                     ["train", "--train", str(out), "--out", str(model)],
                     ["predict", "--model", str(model), "--input", str(out),
                      "--out", str(tmp_path / "p.csv")]):
            done = subprocess.run([exe, *argv], capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
        doc = json.loads(model.read_text())
        assert doc["schema_version"] == 2 and "variant" not in doc
        assert len((tmp_path / "p.csv").read_text().splitlines()) == 121
        bad = subprocess.run([exe, "features", "--input", str(tmp_path),
                              "--format", "phm", "--features", "bogus",
                              "--out", str(tmp_path / "x.csv")],
                             capture_output=True, text=True)
        assert bad.returncode == 2

    def test_same_stem_in_different_directories(self, tmp_path):
        for sub, seed in (("a", 0), ("b", 100)):
            d = tmp_path / sub
            d.mkdir()
            assert main(["synth", "--seed", str(seed),
                         "--out", str(d / "bearing.csv")]) == 0
        model = tmp_path / "m.json"
        assert main(["train", "--train", str(tmp_path / "a" / "bearing.csv"),
                     "--out", str(model)]) == 0
        report = tmp_path / "rep"
        assert main(["evaluate", "--model", str(model),
                     "--test", str(tmp_path / "a" / "bearing.csv"),
                     str(tmp_path / "b" / "bearing.csv"),
                     "--out", str(report)]) == 0
        summary = (tmp_path / "rep_summary.csv").read_text().splitlines()
        assert len(summary) == 4  # header + two distinct bearings + ARRMSE


def reversed_copy(src, dest):
    """``src`` with its data rows in reverse time order."""
    lines = src.read_text().strip().splitlines()
    dest.write_text("\n".join([lines[0]] + lines[1:][::-1]) + "\n")
    return dest


def unlabeled_copy(src, dest):
    """``src`` with every rho cell blanked."""
    lines = src.read_text().strip().splitlines()
    dest.write_text("\n".join([lines[0]] + [l.rsplit(",", 1)[0] + ","
                                            for l in lines[1:]]) + "\n")
    return dest


class TestUnlabeledTestFile:
    """evaluate and benchmark reject a test file without rho, naming it."""

    def test_evaluate_exits_2(self, synth_csvs, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--out", str(model)]) == 0
        unlabeled = unlabeled_copy(synth_csvs["test_a"], tmp_path / "u100.csv")
        capsys.readouterr()
        code = main(["evaluate", "--model", str(model), "--test", str(unlabeled),
                     "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "error: u100: evaluation needs the rho column" in capsys.readouterr().err
        assert not (tmp_path / "rep_summary.csv").exists()

    def test_benchmark_exits_2_before_training(self, synth_csvs, tmp_path, capsys):
        unlabeled = unlabeled_copy(synth_csvs["test_a"], tmp_path / "u100.csv")
        out = tmp_path / "bench.csv"
        capsys.readouterr()
        code = main(["benchmark", "--train", str(synth_csvs["train_a"]),
                     "--test", str(synth_csvs["test_b"]), str(unlabeled),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: u100: evaluation needs the rho column" in err
        assert "identified" not in err
        assert not out.exists()


# Each command that reads a feature CSV, with ``bad`` in the place under test.
TABLE_READERS = {
    "train": ["train", "--train", "{bad}"],
    "evaluate": ["evaluate", "--model", "{model}", "--test", "{bad}"],
    "benchmark-train": ["benchmark", "--train", "{bad}", "--test", "{good}"],
    "benchmark-test": ["benchmark", "--train", "{good}", "--test", "{bad}"],
    "features-csv": ["features", "--format", "csv", "--input", "{bad}",
                     "--features", "f1"],
}


# How a test CSV breaks a table rule, and the message naming it.
TABLE_BREACHES = {
    "repeated-feature": (lambda lines: ["k,tau,f1,f1,rho"] + lines[1:],
                         "{bad}: repeated column name 'f1'"),
    "repeated-tau": (lambda lines: ["k,tau,f1,tau,rho"] + lines[1:],
                     "{bad}: repeated column name 'tau'"),
    "no-rho-column": (lambda lines: [line.rsplit(",", 1)[0] for line in lines],
                      "{bad}: expected header k,tau,<features...>,rho"),
    "empty-rho-column": (lambda lines: [lines[0]] + [line.rsplit(",", 1)[0] + ","
                                                    for line in lines[1:]],
                         "bad: {purpose} needs the rho column"),
}


class TestTableRulesExit2:
    """A CSV that breaks a table rule exits 2 from every command that reads it
    (``features --format csv`` copies an empty rho column as it is)."""

    @pytest.mark.parametrize("command, breach", [
        (command, breach) for command in TABLE_READERS for breach in TABLE_BREACHES
        if (command, breach) != ("features-csv", "empty-rho-column")])
    def test_breach_exits_2(self, command, breach, synth_csvs, tmp_path, capsys):
        change, message = TABLE_BREACHES[breach]
        purpose = "training" if command in ("train", "benchmark-train") else "evaluation"
        good, model = synth_csvs["train_a"], tmp_path / "model.json"
        assert main(["train", "--train", str(good), "--out", str(model)]) == 0
        bad, out = tmp_path / "bad.csv", tmp_path / "out.csv"
        bad.write_text("\n".join(change(synth_csvs["test_a"].read_text().splitlines()))
                       + "\n")
        capsys.readouterr()
        argv = [arg.format(bad=bad, good=good, model=model)
                for arg in TABLE_READERS[command]]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {message.format(bad=bad, purpose=purpose)}\n"
        assert not out.exists()


class TestUnlabeledTrainingFile:
    def test_train_names_the_file_and_exits_2(self, tmp_path, capsys):
        root, _ = make_phm_dir(tmp_path)
        unlabeled = tmp_path / "bearing9.csv"
        assert main(["features", "--input", str(root), "--format", "phm",
                     "--unlabeled", "--out", str(unlabeled)]) == 0
        capsys.readouterr()
        code = main(["train", "--train", str(unlabeled),
                     "--out", str(tmp_path / "model.json")])
        assert code == 2
        assert ("error: bearing9: training needs the rho column"
                in capsys.readouterr().err)
        assert not (tmp_path / "model.json").exists()


class TestOneCurvePath:
    """evaluate and benchmark check what predict checks."""

    def test_evaluate_rejects_out_of_order_rows(self, synth_csvs, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--train", str(synth_csvs["train_a"]),
                     "--out", str(model)]) == 0
        scrambled = reversed_copy(synth_csvs["test_a"], tmp_path / "scrambled.csv")
        capsys.readouterr()
        code = main(["evaluate", "--model", str(model), "--test",
                     str(synth_csvs["test_b"]), str(scrambled),
                     "--out", str(tmp_path / "rep")])
        assert code == 1
        assert "error: bearing scrambled: input rows are not in increasing time " \
               "order" in capsys.readouterr().err
        assert not (tmp_path / "rep_summary.csv").exists()

    def test_benchmark_rejects_out_of_order_rows(self, synth_csvs, tmp_path, capsys):
        scrambled = reversed_copy(synth_csvs["test_a"], tmp_path / "scrambled.csv")
        out = tmp_path / "bench.csv"
        code = main(["benchmark", "--train", str(synth_csvs["train_a"]),
                     str(synth_csvs["train_b"]), "--test", str(scrambled),
                     "--out", str(out)])
        assert code == 1
        assert "error: bearing scrambled: input rows are not in increasing time " \
               "order" in capsys.readouterr().err
        assert not out.exists()

    def test_benchmark_rejects_renamed_feature_columns(self, synth_csvs, tmp_path,
                                                       capsys, monkeypatch):
        lines = synth_csvs["test_a"].read_text().splitlines()
        renamed = tmp_path / "renamed.csv"
        renamed.write_text("\n".join(["k,tau,rms,se,rho"] + lines[1:]) + "\n")
        out = tmp_path / "bench.csv"
        clustered = []
        monkeypatch.setattr("fisrul.cli.subtractive_cluster",
                            lambda *args: clustered.append(args))
        code = main(["benchmark", "--train", str(synth_csvs["train_a"]),
                     str(synth_csvs["train_b"]), "--test", str(renamed),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: renamed: feature set ('rms', 'se') does not match the " \
               "model's ('f1', 'f2')" in err
        assert not out.exists()
        assert clustered == []


class TestMalformedConfig:
    @pytest.mark.parametrize("text, message", [
        ("[1]", "expected a JSON object"),
        ('{"cluster": 5}', "section 'cluster' is not an object"),
        ('{"filter": [61]}', "section 'filter' is not an object"),
        ('{"cluster": {"ra": "big"}}', "cluster: ra must be a number, got 'big'"),
        ('{"cluster": {"ra": true}}', "cluster: ra must be a number, got True"),
        ('{"filter": {"sg_frame": 31.5}}', "filter: sg_frame must be an integer, "
                                          "got 31.5"),
        ('{"cluster": {"radius": 0.4}}', "cluster: unknown key 'radius'"),
        ('{"filter": {"frame": 31}}', "filter: unknown key 'frame'"),
        ('{"cluster": {"ra": 0.4,}}', "not a JSON document"),
        ('{"version": 2}', "unsupported config version: 2"),
        # past Python's 4300-digit int limit json raises a plain ValueError
        ('{"cluster": {"ra": 1' + "0" * 5000 + "}}", "not a JSON document: "),
        # past Python's recursion limit json raises RecursionError
        ('{"cluster": {"ra": ' + "[" * 100000 + "]" * 100000 + "}}",
         "not a JSON document: maximum recursion depth exceeded"),
    ], ids=["not-an-object", "cluster-not-an-object", "filter-not-an-object",
            "non-numeric", "boolean", "non-integer-frame", "unknown-cluster-key",
            "unknown-filter-key", "invalid-json", "unsupported-version",
            "integer-past-digit-limit", "nested-past-recursion-limit"])
    def test_benchmark_names_file_and_key(self, text, message, synth_csvs,
                                          tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["benchmark", "--train", str(synth_csvs["train_a"]),
                     "--test", str(synth_csvs["test_a"]), "--config", str(cfg),
                     "--out", str(tmp_path / "bench.csv")])
        assert code == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err

    def test_undecodable_bytes_name_the_file(self, synth_csvs, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"cluster": {"ra": 0.5\xff}}')
        code = main(["train", "--train", str(synth_csvs["train_a"]), "--config",
                     str(cfg), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: not a JSON document: ")

    def test_features_section_non_numeric_value(self, tmp_path, capsys):
        root, _ = make_phm_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"features": {"ae_m": "two"}}')
        code = main(["features", "--input", str(root), "--format", "phm",
                     "--features", "ae", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"error: {cfg}: features: ae_m must be an integer, got 'two'" \
            in capsys.readouterr().err

    def test_short_fit_range_rejected(self, tmp_path, capsys):
        root, _ = make_phm_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"features": {"lle_fit_range": [1]}}')
        code = main(["features", "--input", str(root), "--format", "phm",
                     "--features", "lle", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"error: {cfg}: features: lle_fit_range must be null or (lo, hi) " \
            "with 0 <= lo < hi, both integers, got [1]" \
            in capsys.readouterr().err

    def test_null_radius_accepted(self, synth_csvs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cluster": {"rb": null, "ra": 1}}')
        assert main(["train", "--train", str(synth_csvs["train_a"]), "--config",
                     str(cfg), "--out", str(tmp_path / "m.json")]) == 0

    def test_null_lag_and_fit_range_accepted(self, tmp_path):
        root, _ = make_phm_dir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"features": {"lle_lag": null, "lle_fit_range": [1, 8]}}')
        assert main(["features", "--input", str(root), "--format", "phm",
                     "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("text, message", [
        ('{"cluster": {"ra": -1}}', "cluster: ra must be positive, got -1"),
        ('{"cluster": {"eps_accept": 2}}', "cluster: thresholds must satisfy "
                                          "0 < eps_reject < eps_accept <= 1"),
    ], ids=["negative-radius", "threshold-above-one"])
    def test_out_of_range_cluster_value_names_file(self, text, message,
                                                   synth_csvs, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["train", "--train", str(synth_csvs["train_a"]), "--config",
                     str(cfg), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err

    def test_out_of_range_radius_flag_unchanged(self, synth_csvs, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cluster": {"eps_accept": 0.6}}')
        code = main(["train", "--train", str(synth_csvs["train_a"]), "--config",
                     str(cfg), "--ra", "-1", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "error: ra must be positive, got -1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name, value", [
        (["--ra", "1e-200"], "ra", "1e-200"),
        (["--ra", "1e308"], "ra", "1e+308"),
        (["--rb", "1e300"], "rb", "1e+300"),
    ], ids=["ra-square-underflows", "ra-square-overflows", "rb-square-overflows"])
    def test_radius_flag_outside_float_range_exits_2(self, flags, name, value,
                                                     synth_csvs, tmp_path, capsys):
        code = main(["train", "--train", str(synth_csvs["train_a"]), *flags,
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {name} out of range: 4/{name}^2 must be a finite positive "
            f"number, got {name}={value}")

    def test_flag_overrides_out_of_range_file_value(self, synth_csvs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cluster": {"ra": -1}}')
        assert main(["train", "--train", str(synth_csvs["train_a"]), "--config",
                     str(cfg), "--ra", "0.5", "--out", str(tmp_path / "m.json")]) == 0


@pytest.fixture(scope="module")
def three_feature_csvs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("three-features")
    paths = [tmp / f"s{seed}.csv" for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        assert main(["synth", "--seed", str(seed), "--n-features", "3",
                     "--out", str(path)]) == 0
    return [str(path) for path in paths]


class TestTinyRadius:
    """A radius that passes ClusterConfig but is too small for the data fails
    before clustering sums a potential, naming ra; no numpy warning escapes."""

    @pytest.mark.parametrize("ra, rules", [
        ("1.5e-154", None), ("2e-154", None), ("3e-154", None),
        ("5e-154", 240), ("1e-153", 240), ("1e-152", 240),
    ])
    @pytest.mark.parametrize("variant", ["baseline", "weighted"])
    def test_sweep(self, ra, rules, variant, three_feature_csvs, tmp_path, capsys):
        out = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--train", *three_feature_csvs, "--variant",
                         variant, "--ra", ra, "--out", str(out)])
        assert [str(w.message) for w in caught
                if "encountered in" in str(w.message)] == []
        err = capsys.readouterr().err
        if rules is None:
            assert code == 1
            assert err.splitlines() == [
                "error: ra out of range for this data: 1/sigma^2 of every spread "
                f"and 8 I/ra^2 (I=3) must be finite, got ra={float(ra)}"]
            assert not out.exists()
        else:
            assert code == 0
            assert load_model(out).n_rules == rules


@pytest.fixture(scope="module")
def command_lines(tmp_path_factory):
    """One argument list per command that reads --config, on small inputs."""
    tmp = tmp_path_factory.mktemp("commands")
    phm, _ = make_phm_dir(tmp)
    train, test, model = tmp / "train.csv", tmp / "test.csv", tmp / "m.json"
    for seed, out in ((0, train), (100, test)):
        assert main(["synth", "--seed", str(seed), "--out", str(out)]) == 0
    assert main(["train", "--train", str(train), "--out", str(model)]) == 0
    return {
        "features": ["features", "--input", str(phm), "--format", "phm",
                     "--out", str(tmp / "f.csv")],
        "train": ["train", "--train", str(train), "--out", str(tmp / "t.json")],
        "predict": ["predict", "--model", str(model), "--input", str(test),
                    "--out", str(tmp / "p.csv")],
        "evaluate": ["evaluate", "--model", str(model), "--test", str(test),
                     "--out", str(tmp / "e")],
        "benchmark": ["benchmark", "--train", str(train), "--test", str(test),
                      "--out", str(tmp / "b.csv")],
    }


class TestOneConfigCheck:
    """Every command checks the whole --config document the same way."""

    @pytest.mark.parametrize("document, message", [
        ({"clustr": {"ra": 0.3}}, "unknown section 'clustr'"),
        ({"cluster": {"ra": "x"}}, "cluster: ra must be a number, got 'x'"),
        ({"cluster": {"ra": 1e308}}, "cluster: ra out of range: 4/ra^2 must be a "
                                     "finite positive number, got ra=1e+308"),
        ({"filter": {"sg_frame": 60}}, "filter: filter frame length must be odd, got 60"),
        ({"filter": {"sg_order": -1}}, "filter: polynomial order must satisfy "
                                       "0 <= order < frame (61), got -1"),
        ({"features": {"ae_m": 0}}, "features: ae_m must be at least 1, got 0"),
        ({"features": {"ae_r_tol": 0}}, "features: ae_r_tol must be positive, got 0"),
        ({"features": {"lle_embed_dim": 0}},
         "features: lle_embed_dim must be at least 1, got 0"),
        ({"features": {"cd_embed_dim": 0}},
         "features: cd_embed_dim must be at least 1, got 0"),
        ({"features": {"lle_lag": 0}}, "features: lle_lag must be at least 1, got 0"),
        ({"features": {"cd_lag": 0}}, "features: cd_lag must be at least 1, got 0"),
        ({"features": {"lle_mean_period": -3}},
         "features: lle_mean_period must be at least 0, got -3"),
        ({"features": {"lle_fit_range": [4, 4]}},
         "features: lle_fit_range must be null or (lo, hi) with 0 <= lo < hi"),
        ({"features": {"diae_baseline_frac": 1}},
         "features: diae_baseline_frac must lie in (0, 1), got 1"),
        ({"features": {"max_points": -600}},
         "features: max_points must be at least 0, got -600"),
        ({"cluster": {"ra": 10**400}}, f"cluster: ra must be a finite number, got {10**400}"),
        ({"features": {"ae_r_tol": 10**400}},
         f"features: ae_r_tol must be a finite number, got {10**400}"),
    ], ids=["unknown-section", "non-numeric-radius", "radius-square-overflows",
            "even-frame", "negative-order",
            "ae-m", "ae-r-tol", "lle-embed-dim", "cd-embed-dim", "lle-lag", "cd-lag",
            "lle-mean-period", "lle-fit-range", "diae-baseline-frac", "max-points",
            "huge-integer-radius", "huge-integer-r-tol"])
    def test_bad_document_fails_every_command_alike(self, document, message,
                                                    command_lines, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        errors = set()
        for command, argv in command_lines.items():
            assert main([*argv, "--config", str(cfg)]) == 2, command
            errors.add(capsys.readouterr().err.strip())
        assert len(errors) == 1
        assert errors.pop().startswith(f"error: {cfg}: {message}")

    def test_valid_document_passes_every_command(self, command_lines, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "cluster": {"ra": 0.5, "rb": None},
            "features": {"max_points": 0, "lle_lag": None, "lle_fit_range": [0, 8]},
            "filter": {"sg_order": 2, "sg_frame": 11}}))
        for command, argv in command_lines.items():
            assert main([*argv, "--config", str(cfg)]) == 0, command

    @settings(max_examples=150, deadline=None)
    @given(where=st.sampled_from([(name, key) for name, build in SECTIONS.items()
                                  for key in inspect.signature(build).parameters]),
           value=st.sampled_from([None, True, "x", [], {}, [0, 5], [1], 0, -1, 2, 61,
                                  0.5, 5e-324, 1e-200, 1e308, 10**400, -10**400,
                                  math.nan, math.inf, -math.inf]))
    def test_one_key_document_never_ends_in_a_traceback(self, where, value,
                                                         command_lines):
        section, key = where
        argv = command_lines["train"]
        cfg = Path(argv[-1]).with_name("drawn.json")
        cfg.write_text(json.dumps({section: {key: value}}))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(cfg)])
        errors = [line for line in stderr.getvalue().splitlines()
                  if line.startswith("error:")]
        assert code in (0, 1, 2)
        assert len(errors) == (code != 0)
        if code == 2:
            assert errors[0].startswith(f"error: {cfg}: {section}: ")

    def test_flag_is_checked_without_a_file(self, command_lines, capsys):
        assert main([*command_lines["predict"], "--sg-frame", "60"]) == 2
        assert capsys.readouterr().err.strip() == \
            "error: filter frame length must be odd, got 60"
