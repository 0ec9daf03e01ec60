"""The benchmark's workloads; each run of this file measures one of them.

One caller, closed loop, one process, no worker threads (the CLI's
default ``--jobs 1``); the BLAS pool keeps its default size.  The workload
repeats whole passes until ``--seconds`` have elapsed and reports medians
over them.  Inputs exist before timing starts: signal files come from
``--inputs`` (written by run.py), fleet tables are generated here from the
seed before the first pass.  Every pass is checked after it ends; a failed
check counts as a failed operation.

With ``--trace 1`` passes alternate between untraced and traced, so the
per-layer numbers and the tracing overhead come from one process.

    python perfbench/workloads.py --workload fleet_train_monitor --seed 1 \
        --seconds 20 --trace 0 --inputs DIR --work DIR --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time

import numpy as np

import fisrul.cli as cli
from fisrul import clustering, datasets, fis, rul
from fisrul.clustering import ClusterConfig, concat_tables

import spans as tracing
from specs import FLEET, NONLINEAR_SPEC, PHM_TEST, PHM_TRAIN, RMS_SPEC, SPECS

# Traced passes whose spans are written out; the rest are only summarized,
# which keeps memory bounded on long traced runs.
SPAN_PASSES = 3


class Checks:
    """Output checks; each is one attempted operation that passed or failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows(name, 1, 0 if ok else 1, detail)

    def rows(self, name: str, total: int, bad: int, detail: str = "") -> None:
        self.attempted += total
        if bad:
            self.failed += bad
            if len(self.messages) < 50:
                self.messages.append(f"{name}: {bad} of {total} failed {detail}".strip())


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``fisrul.cli.main`` in-process; return its code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def summary_arrmse(path: Path) -> dict[str, float]:
    _, rows = read_csv_rows(path)
    return {method: float(value) for method, bearing, value in rows
            if bearing == "ARRMSE"}


def check_feature_csv(checks: Checks, path: Path, expected_rms, finite: bool) -> None:
    header, rows = read_csv_rows(path)
    rms_col = header.index("rms")
    got = np.array([float(r[rms_col]) for r in rows])
    want = np.asarray(expected_rms, dtype=float)
    if got.shape != want.shape:
        checks.check(f"{path.name} rows", False, f"{got.size} != {want.size}")
        return
    bad = np.abs(got - want) > 1e-12 * np.abs(want)
    checks.rows(f"{path.name} rms vs numpy", got.size, int(np.count_nonzero(bad)))
    if finite:
        values = np.array([[float(v) for v in r[2:-1]] for r in rows])
        checks.rows(f"{path.name} finite features", values.size,
                    int(np.count_nonzero(~np.isfinite(values))))


class FeatureWorkload:
    """Shared part of the two signal-file workloads: run ``features`` per dir."""

    def __init__(self, inputs: Path, work: Path, manifest: dict):
        self.inputs, self.work, self.manifest = inputs, work, manifest
        self.reference: dict | None = None

    def features(self, name: str, fmt: str, names: str, channel: int | None,
                 codes: list) -> float:
        argv = ["features", "--input", str(self.inputs / name), "--format", fmt,
                "--features", names, "--out", str(self.work / f"{name}.csv")]
        if channel is not None:
            argv += ["--channel", str(channel)]
        start = perf_counter()
        codes.append((name,) + run_cli(argv))
        return perf_counter() - start

    def check_codes(self, checks: Checks, codes) -> None:
        for name, code, err in codes:
            checks.check(f"{name} exit code", code == 0, err.strip()[-300:])

    def check_repeat(self, checks: Checks, key: dict) -> None:
        """Later passes must reproduce the first pass's outputs bit for bit."""
        if self.reference is None:
            self.reference = key
        else:
            checks.check("repeat gives identical outputs", key == self.reference,
                         f"{key} != {self.reference}")


class RmsProtocol(FeatureWorkload):
    """PHM (c10a split) and IMS (c10b split) with RMS input, through the CLI."""

    def sizes(self) -> dict:
        return {"dirs": {n: e["files"] for n, e in RMS_SPEC.items()},
                "windows": sum(e["files"] for e in RMS_SPEC.values())}

    def run_pass(self) -> dict:
        codes: list = []
        start, cpu = perf_counter(), process_time()
        features_s = 0.0
        for name in PHM_TRAIN + PHM_TEST:
            features_s += self.features(name, "phm", "rms", None, codes)
        for name in ("1st_test", "2nd_test"):
            features_s += self.features(name, "ims", "rms",
                                        RMS_SPEC[name]["channel"], codes)
        csvs = {n: str(self.work / f"{n}.csv") for n in RMS_SPEC}
        for fold, train, test in (
                ("phm", [csvs[n] for n in PHM_TRAIN], [csvs[n] for n in PHM_TEST]),
                ("ims", [csvs["1st_test"]], [csvs["2nd_test"]])):
            codes.append((f"benchmark {fold}",) + run_cli(
                ["benchmark", "--train", *train, "--test", *test,
                 "--out", str(self.work / f"{fold}_summary.csv")]))
        return {"total_s": perf_counter() - start, "cpu_s": process_time() - cpu,
                "windows_per_s": self.sizes()["windows"] / features_s,
                "codes": codes}

    def check(self, result: dict, checks: Checks) -> dict:
        self.check_codes(checks, result["codes"])
        if any(code for _, code, _ in result["codes"]):
            return {}
        for name in RMS_SPEC:
            check_feature_csv(checks, self.work / f"{name}.csv",
                              self.manifest["expected_rms"][name], finite=False)
        phm = summary_arrmse(self.work / "phm_summary.csv")
        ims = summary_arrmse(self.work / "ims_summary.csv")
        scores = {"arrmse_weighted": phm["weighted"], "arrmse_baseline": phm["baseline"],
                  "rrmse_weighted_ims": ims["weighted"],
                  "rrmse_baseline_ims": ims["baseline"]}
        outputs = [self.work / f"{n}.csv" for n in RMS_SPEC]
        outputs += [self.work / "phm_summary.csv", self.work / "ims_summary.csv"]
        self.check_repeat(checks, {"scores": scores, "files": digest(outputs)})
        return scores


class NonlinearFeatures(FeatureWorkload):
    """The README's nonlinear extractions on one PHM dir and one IMS channel."""

    PHM_SET = "rms,se,ae,lle,cd"
    IMS_SET = "rms,se,ae,lle,cd,diae"

    def sizes(self) -> dict:
        return {"dirs": {n: e["files"] for n, e in NONLINEAR_SPEC.items()},
                "windows": sum(e["files"] for e in NONLINEAR_SPEC.values()),
                "phm_features": self.PHM_SET, "ims_features": self.IMS_SET}

    def run_pass(self) -> dict:
        codes: list = []
        start, cpu = perf_counter(), process_time()
        features_s = self.features("Bearing1_3", "phm", self.PHM_SET, None, codes)
        features_s += self.features("2nd_test", "ims", self.IMS_SET,
                                    NONLINEAR_SPEC["2nd_test"]["channel"], codes)
        return {"total_s": perf_counter() - start, "cpu_s": process_time() - cpu,
                "windows_per_s": self.sizes()["windows"] / features_s,
                "codes": codes}

    def check(self, result: dict, checks: Checks) -> dict:
        self.check_codes(checks, result["codes"])
        if any(code for _, code, _ in result["codes"]):
            return {}
        outputs = [self.work / f"{n}.csv" for n in NONLINEAR_SPEC]
        for path in outputs:
            check_feature_csv(checks, path, self.manifest["expected_rms"][path.stem],
                              finite=True)
        self.check_repeat(checks, {"files": digest(outputs)})
        return {}


class FleetTrainMonitor:
    """Train on a pooled synthetic fleet, then monitor test bearings row by row."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        # per-bearing seeds derived from the workload seed; train and test
        # bearings never share a seed
        cfg = FLEET
        make = lambda s: datasets.synth_bearing(
            s, regimes=cfg["regimes"], noise=cfg["noise"], n_obs=cfg["n_obs"],
            n_features=cfg["n_features"])
        base = 1000 * seed
        self.pooled = concat_tables(make(base + i) for i in range(cfg["train_bearings"]))
        self.tests = {f"test-{i}": make(base + 100 + i)
                      for i in range(cfg["test_bearings"])}
        self.rows = [(x, tau) for table in self.tests.values()
                     for x, tau in zip(table.features, table.taus.tolist())]
        self.reference = None
        self.n_rules = None

    def sizes(self) -> dict:
        return {**FLEET, "K": self.pooled.n_rows, "replayed_rows": len(self.rows),
                "J": self.n_rules}

    def replay(self, model) -> tuple[list[float], list[float]]:
        latency_us, raws = [], []
        for x, tau in self.rows:
            start = perf_counter_ns()
            estimate = fis.infer(model, x, tau)
            rul.rul_from_ratio(estimate.clamped, tau)
            latency_us.append((perf_counter_ns() - start) * 1e-3)
            raws.append(estimate.raw)
        return latency_us, raws

    def run_pass(self) -> dict:
        start, cpu = perf_counter(), process_time()
        clusters = clustering.subtractive_cluster(self.pooled, ClusterConfig(ra=0.5))
        trained = {"baseline": fis.identify_baseline(self.pooled, clusters),
                   "weighted": fis.identify_weighted(self.pooled, clusters)}
        train_s = perf_counter() - start
        loaded = {}
        for variant, model in trained.items():
            path = self.work / f"{variant}.json"
            fis.save_model(model, path)
            loaded[variant] = fis.load_model(path)
        replays = {v: self.replay(loaded[v]) for v in ("weighted", "baseline")}
        reports = {v: rul.evaluate_model(loaded[v], self.tests) for v in loaded}
        return {"total_s": perf_counter() - start, "cpu_s": process_time() - cpu,
                "train_s": train_s, "trained": trained, "loaded": loaded,
                "replays": replays, "reports": reports}

    def check(self, result: dict, checks: Checks) -> dict:
        loaded, trained = result["loaded"], result["trained"]
        self.n_rules = loaded["weighted"].n_rules
        features = np.vstack([t.features for t in self.tests.values()])
        taus = np.concatenate([t.taus for t in self.tests.values()])
        for variant, model in loaded.items():
            batch = fis.predict_table(model, features, taus)
            rows = np.asarray(result["replays"][variant][1])
            bad = np.abs(rows - batch) > 1e-12
            checks.rows(f"{variant} infer vs predict_table", rows.size,
                        int(np.count_nonzero(bad)))
            same = np.array_equal(batch, fis.predict_table(trained[variant], features, taus))
            checks.check(f"{variant} save/load round trip", same)
        scores = {"arrmse_weighted": result["reports"]["weighted"].arrmse,
                  "arrmse_baseline": result["reports"]["baseline"].arrmse}
        checks.check("weighted ARRMSE <= baseline",
                     scores["arrmse_weighted"] <= scores["arrmse_baseline"], str(scores))
        if self.reference is None:
            self.reference = scores
        else:
            checks.check("repeat gives identical ARRMSE", scores == self.reference,
                         f"{scores} != {self.reference}")
        return scores


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_pass(workload, tracer):
    """One pass; when ``tracer`` is given, with the fisrul functions wrapped."""
    if tracer is None:
        return workload.run_pass()
    restore = tracing.install(tracer)
    try:
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            root = tracer.begin("pass")
            result = workload.run_pass()
            tracer.end(root)
    finally:
        tracing.uninstall(restore)
    tracing.count_warnings(tracer, records)
    return result


def run_passes(workload, seconds: float, trace: bool, checks: Checks, spans_path):
    """Run and check passes until ``seconds`` elapse.

    Returns (untraced passes, traced passes, per-layer summaries of the
    traced ones); with ``trace`` every second pass is traced.  Spans of the
    first SPAN_PASSES traced passes are written to ``spans_path``.
    """
    untraced, traced, summaries, kept = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        tracer = tracing.Tracer() if trace and len(untraced) > len(traced) else None
        result = run_pass(workload, tracer)
        result["scores"] = workload.check(result, checks)
        if tracer is None:
            untraced.append(result)
        else:
            traced.append(result)
            summaries.append(tracing.summarize(tracer))
            if len(kept) < SPAN_PASSES:
                kept.append(tracer)
        if untraced and (traced or not trace) and perf_counter() >= deadline:
            break
    if trace:
        tracing.write_spans(spans_path, kept)
    return untraced, traced, summaries


def workload_metrics(name: str, untraced: list[dict]) -> tuple[dict, dict]:
    """The workload-specific figures (untraced passes) and their sample counts."""
    n = len(untraced)
    values = {"cpu_s": statistics.median(p["cpu_s"] for p in untraced)}
    samples = {"cpu_s": n}
    if name in ("rms_protocol", "nonlinear_features"):
        values["windows_per_s"] = statistics.median(p["windows_per_s"] for p in untraced)
        samples["windows_per_s"] = n
    if name == "fleet_train_monitor":
        values["train_s"] = statistics.median(p["train_s"] for p in untraced)
        samples["train_s"] = n
        weighted = [x for p in untraced for x in p["replays"]["weighted"][0]]
        baseline = [x for p in untraced for x in p["replays"]["baseline"][0]]
        values["infer_p50_us"] = percentile(weighted, 50)
        values["infer_p99_us"] = percentile(weighted, 99)
        values["infer_baseline_p50_us"] = percentile(baseline, 50)
        samples.update(infer_p50_us=len(weighted), infer_p99_us=len(weighted),
                       infer_baseline_p50_us=len(baseline))
    scores = untraced[0].get("scores") or {}
    for key, value in scores.items():
        values[key] = value
        samples[key] = n
    return values, samples


def per_layer(traced: list[dict], summaries, untraced: list[dict]) -> tuple[dict, dict]:
    """Per-pass means of the traced passes' layer totals, plus per-call medians."""
    totals: dict[str, list[float]] = {}
    calls: dict[str, list[float]] = {}
    for values, samples in summaries:
        for key, value in values.items():
            totals.setdefault(key, []).append(value)
        for key, value in samples.items():
            calls.setdefault(key, []).extend(value)
    out = {key: float(np.mean(v)) for key, v in totals.items()}
    counts = {key: len(summaries) for key in out}
    for name in ("fis.infer", "mixture.rule_firing", "mixture.weighted_firing"):
        per_call = calls.get(f"{name}.self_us", [])
        out[f"{name}.self_us_p50"] = percentile(per_call, 50) if per_call else 0.0
        counts[f"{name}.self_us_p50"] = len(per_call)
    for kernel in tracing.KERNELS:
        for size in tracing.WINDOW_SIZES:
            per_call = calls.get(f"features.{kernel}.ms.{size}", [])
            key = f"features.{kernel}.ms_per_call_{size}"
            out[key] = percentile(per_call, 50) if per_call else 0.0
            counts[key] = len(per_call)
    plain = statistics.median(p["total_s"] for p in untraced)
    with_trace = statistics.median(p["total_s"] for p in traced)
    out["trace.overhead_pct"] = 100.0 * (with_trace - plain) / plain
    counts["trace.overhead_pct"] = len(untraced) + len(traced)
    return out, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checks = Checks()
    if args.workload == "fleet_train_monitor":
        workload = FleetTrainMonitor(args.seed, args.work)
    else:
        manifest = json.loads((args.inputs / "manifest.json").read_text())
        kind = RmsProtocol if args.workload == "rms_protocol" else NonlinearFeatures
        workload = kind(args.inputs, args.work, manifest)

    doc: dict = {"workload": args.workload, "seed": args.seed}
    try:
        untraced, traced, summaries = run_passes(
            workload, args.seconds, bool(args.trace), checks,
            args.out.with_suffix(".spans.json.gz"))
    except Exception:  # a crashed pass is a failed operation; report it
        checks.check("pass completed", False, traceback.format_exc()[-2000:])
        untraced, traced, summaries = [], [], []

    doc["sizes"] = workload.sizes()
    doc["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                     "messages": checks.messages}
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if untraced:
        doc["passes"] = {"untraced": len(untraced), "traced": len(traced)}
        doc["total_s"] = statistics.median(p["total_s"] for p in untraced)
        doc["pass_total_s"] = [p["total_s"] for p in untraced]
        doc["workload_metrics"], doc["workload_samples"] = workload_metrics(
            args.workload, untraced)
        if traced:
            doc["per_layer"], doc["per_layer_samples"] = per_layer(traced, summaries, untraced)
    args.out.write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
