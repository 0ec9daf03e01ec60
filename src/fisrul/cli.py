"""Command-line orchestration: features, train, predict, evaluate, benchmark.

Diagnostics (progress, timings, warnings) go to stderr; results go to the
output files and stdout, so reruns with identical inputs produce identical
artifacts.  Configuration may come from a JSON file (--config); explicit
command-line flags override file values, and the effective configuration is
embedded in the model provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import sys
import time
from pathlib import Path

from .clustering import ClusterConfig, TrainingTable, concat_tables, subtractive_cluster
from .datasets import iter_ims, iter_phm, synth_bearing
from .errors import ConfigError, LoadError, located, read_json
from .features import (
    FEATURE_NAMES,
    FeatureParams,
    extract_features,
    normalize_feature_names,
    read_feature_csv,
    write_csv,
    write_feature_csv,
)
from .fis import identify_baseline, identify_weighted, load_model, save_model
from .mixture import check_time_rows
from .rul import (check_filter, evaluate_model, rul_curves, write_curves_csv,
                  write_summary_csv)

CONFIG_SCHEMA_VERSION = 1

IDENTIFY = {"baseline": identify_baseline, "weighted": identify_weighted}


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# Config sections and what builds each; a builder's parameters are the
# section's keys, and their defaults the defaults.
SECTIONS = {"cluster": ClusterConfig, "features": FeatureParams, "filter": check_filter}


def _settings(args) -> dict:
    """Every section's settings, built from the whole ``--config`` document
    with the command-line flags on top (a flag is an argument named like a
    builder parameter).  A bad flag raises its own error; every other problem
    is a ConfigError naming the file and the section or key."""
    path, doc = args.config, {}
    if path is not None:
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {doc!r}")
    version = doc.get("version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported config version: {version}")
    unknown = sorted(doc.keys() - SECTIONS.keys() - {"version"})
    if unknown:
        raise ConfigError(f"{path}: unknown section {unknown[0]!r}")
    settings = {}
    for name, build in SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: section {name!r} is not an object")
        params = inspect.signature(build).parameters
        for key in section:
            if key not in params:
                raise ConfigError(f"{path}: {name}: unknown key {key!r}")
        flags = {k: getattr(args, k) for k in params
                 if getattr(args, k, None) is not None}
        try:
            settings[name] = build(**{**section, **flags})
        except ValueError as exc:
            build(**flags)  # a bad flag raises its own error
            raise ConfigError(f"{path}: {name}: {exc}") from None
    return settings


def _provenance(datasets, cluster_config: ClusterConfig, variant: str) -> dict:
    config = {"cluster": dataclasses.asdict(cluster_config), "variant": variant}
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]
    return {"datasets": [str(d) for d in datasets],
            "config": config, "config_hash": digest}


def _read_tables(paths, purpose: str | None, names=None):
    """Feature tables keyed by file stem (by path when two stems collide), each
    with the columns ``names`` (the model's; the first file's before training)
    and, unless ``purpose`` ("training", "evaluation") is None, the rho column."""
    tables = {}
    for path in paths:
        table = read_feature_csv(path)
        key = Path(path).stem
        if key in tables:  # same stem from different directories
            key = str(path)
        names = names or table.feature_names
        with located(key):
            if table.feature_names != names:
                raise ConfigError(f"feature set {table.feature_names} does not "
                                  f"match the model's {names}")
            if purpose:
                table.labels(purpose)
        tables[key] = table
    return tables


def _training_table(args, variants) -> TrainingTable:
    """The pooled ``--train`` rows, refused before any clustering when the
    weighted variant is among ``variants`` and they are too few for it."""
    pooled = concat_tables(_read_tables(args.train, "training").values())
    if "weighted" in variants:
        check_time_rows(pooled.n_rows)
    return pooled


def cmd_features(args) -> int:
    start = time.perf_counter()
    # a CSV's columns are named by its header, a dataset's by the kernels
    names = (tuple(args.features.split(",")) if args.format == "csv"
             else normalize_feature_names(args.features.split(",")))
    params = _settings(args)["features"]
    if args.format == "csv":
        table = read_feature_csv(args.input)
        missing = [n for n in names if n not in table.feature_names]
        if missing:
            raise ConfigError(f"{args.input}: feature(s) {missing} not present in "
                              f"{table.feature_names}")
        columns = [table.feature_names.index(n) for n in names]
        table = TrainingTable(table.features[:, columns], taus=table.taus,
                              rho=None if args.unlabeled else table.rho,
                              feature_names=names)
    else:
        windows = (iter_phm(args.input) if args.format == "phm"
                   else iter_ims(args.input, args.channel))
        with located(args.input):
            table = extract_features(windows, names, params, labeled=not args.unlabeled)
    write_feature_csv(args.out, table)
    _log(f"{table.n_rows} windows -> {args.out} "
         f"in {time.perf_counter() - start:.2f}s")
    return 0


def cmd_train(args) -> int:
    start = time.perf_counter()
    cluster_config = _settings(args)["cluster"]
    pooled = _training_table(args, [args.variant])
    clusters = subtractive_cluster(pooled, cluster_config)
    if args.dump_clusters:
        write_csv(args.dump_clusters,
                  [f"c_{name}" for name in pooled.feature_names] + ["c_star"],
                  clusters.centers)
    model = IDENTIFY[args.variant](
        pooled, clusters, _provenance(args.train, cluster_config, args.variant))
    save_model(model, args.out)
    print(f"rules: {model.n_rules}")
    if model.variant == "weighted":
        tp = model.time_params
        print("priors: " + " ".join(f"{p:.6f}" for p in tp.priors))
        print("time centroids: " + " ".join(f"{c:.3f}" for c in tp.centroids))
    _log(f"trained {model.variant} model on {pooled.n_rows} rows "
         f"in {time.perf_counter() - start:.2f}s")
    return 0


def cmd_predict(args) -> int:
    order, frame = _settings(args)["filter"]
    model = load_model(args.model)
    (table,) = _read_tables([args.input], None, model.feature_set).values()
    raw, clamped, rul, smoothed = rul_curves(
        model, table.features, table.taus, order, frame)
    write_csv(args.out, ["k", "tau", "rho_hat", "rho_hat_clamped", "rul_hat",
                         "rul_hat_smoothed"],
              zip(range(1, table.n_rows + 1), table.taus, raw, clamped, rul,
                  smoothed))
    _log(f"{table.n_rows} predictions -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    order, frame = _settings(args)["filter"]
    model = load_model(args.model)
    tables = _read_tables(args.test, "evaluation", model.feature_set)
    report = evaluate_model(model, tables, sg_order=order, sg_frame=frame)
    write_curves_csv(report, f"{args.out}_curves.csv")
    write_summary_csv([report], f"{args.out}_summary.csv")
    for bearing in report.bearings:
        print(f"{bearing.bearing_id} rrmse: {bearing.rrmse:.6f}")
    print(f"arrmse: {report.arrmse:.6f}")
    return 0


def cmd_benchmark(args) -> int:
    settings = _settings(args)
    order, frame = settings["filter"]
    pooled = _training_table(args, IDENTIFY)
    test_tables = _read_tables(args.test, "evaluation", pooled.feature_names)
    clusters = subtractive_cluster(pooled, settings["cluster"])
    models = []
    for variant, identify in IDENTIFY.items():
        start = time.perf_counter()
        models.append(identify(pooled, clusters,
                               _provenance(args.train, settings["cluster"], variant)))
        _log(f"{variant}: identified in {time.perf_counter() - start:.4f}s")
    # every variant is identified and scored before any result is printed
    reports = [evaluate_model(model, test_tables, sg_order=order, sg_frame=frame)
               for model in models]
    for report in reports:
        print(f"{report.method} arrmse: {report.arrmse:.6f}")
    write_summary_csv(reports, args.out)
    return 0


def cmd_synth(args) -> int:
    table = synth_bearing(**{name: getattr(args, name)
                             for name in inspect.signature(synth_bearing).parameters})
    write_feature_csv(args.out, table)
    _log(f"{table.n_rows} synthetic observations -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisrul",
        description="Fuzzy-model identification for bearing RUL estimation")
    sub = parser.add_subparsers(dest="command", required=True)
    # options shared by several commands, each declared once
    config, radii, frame = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    config.add_argument("--config", default=None)
    radii.add_argument("--ra", type=float, default=None)
    radii.add_argument("--rb", type=float, default=None)
    frame.add_argument("--sg-frame", type=int, default=None)

    features = sub.add_parser("features", parents=[config],
                              help="extract features from a dataset")
    features.add_argument("--input", required=True,
                          help="dataset directory (or feature CSV with --format csv)")
    features.add_argument("--format", choices=["phm", "ims", "csv"], required=True)
    features.add_argument("--features", default="rms", help="comma-separated "
                          f"feature names ({','.join(FEATURE_NAMES)})")
    features.add_argument("--channel", type=int, default=0, help="IMS channel index")
    features.add_argument("--unlabeled", action="store_true",
                          help="omit the rho column (online prediction input)")
    features.add_argument("--out", required=True)
    features.set_defaults(func=cmd_features)

    train = sub.add_parser("train", parents=[radii, config],
                           help="identify a model from feature CSVs")
    train.add_argument("--train", nargs="+", required=True,
                       help="labeled feature CSVs (one per training bearing)")
    train.add_argument("--variant", choices=list(IDENTIFY), default="weighted")
    train.add_argument("--dump-clusters", default=None,
                       help="also write the cluster-center matrix to this CSV")
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", parents=[frame, config],
                             help="estimate rho and RUL for a CSV")
    predict.add_argument("--model", required=True)
    predict.add_argument("--input", required=True)
    predict.add_argument("--out", required=True)
    predict.set_defaults(func=cmd_predict)

    evaluate = sub.add_parser("evaluate", parents=[frame, config],
                              help="score a model on labeled CSVs")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--test", nargs="+", required=True)
    evaluate.add_argument("--out", required=True,
                          help="report prefix (writes <out>_curves.csv and "
                               "<out>_summary.csv)")
    evaluate.set_defaults(func=cmd_evaluate)

    benchmark = sub.add_parser("benchmark", parents=[radii, frame, config],
                               help="train both variants and compare on the same folds")
    benchmark.add_argument("--train", nargs="+", required=True)
    benchmark.add_argument("--test", nargs="+", required=True)
    benchmark.add_argument("--out", required=True, help="summary CSV path")
    benchmark.set_defaults(func=cmd_benchmark)

    synth = sub.add_parser("synth", help="generate a synthetic feature CSV")
    # synth_bearing's parameters and defaults are synth's flags
    for name, param in inspect.signature(synth_bearing).parameters.items():
        synth.add_argument("--" + name.replace("_", "-"), type=type(param.default),
                           default=param.default)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoadError, ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
