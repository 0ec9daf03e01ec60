"""Spans and safety-net counts recorded from outside the fisrul package.

``install`` replaces the public functions of each fisrul module with timing
wrappers, at every module attribute that binds them (``fisrul.cli`` binds
``subtractive_cluster``, ``fisrul.features`` resolves ``approximate_entropy``
as a global, and so on), so calls made inside the package are timed too.
``uninstall`` puts the originals back.  Spans (name, start, end, parent)
are kept in memory; ``summarize`` turns one pass of them into per-layer
metrics, with self time = span duration minus the time of its child spans.

Safety nets are counted from the arguments and results of public functions
and from the warnings recorded during a pass; each count has a base.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (module, function) pairs timed as spans named "<module>.<function>".
TIMED = {
    "datasets": ("iter_phm", "iter_ims"),
    "features": ("extract_features", "rms", "spectral_entropy",
                 "approximate_entropy", "largest_lyapunov",
                 "correlation_dimension", "degradation_index",
                 "write_feature_csv", "read_feature_csv"),
    "clustering": ("subtractive_cluster", "input_sigmas"),
    "mixture": ("rule_firing", "firing_matrix", "normalize_firing",
                "normalize_rows", "time_membership", "weighted_firing",
                "weighted_firing_matrix", "estimate_time_clusters"),
    "fis": ("infer", "predict_table", "identify_baseline", "identify_weighted",
            "build_design_matrix", "solve_consequents", "save_model",
            "load_model"),
    "rul": ("evaluate_model", "smooth_rul", "savitzky_golay", "rul_from_ratio",
            "rrmse"),
    "cli": ("main",),
}

KERNELS = ("rms", "spectral_entropy", "approximate_entropy",
           "largest_lyapunov", "correlation_dimension")
WINDOW_SIZES = (2560, 20480)

# warning text -> counter name
WARNING_COUNTERS = {
    "rank-deficient design matrix": "fis.rank_deficient",
    "no stable scaling region": "features.cd_full_grid_fallback",
}

INSPECT = "trace.inspect"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, attrs]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, None])
        self.stack.append(index)
        return index

    def end(self, index: int, attrs=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter_ns()
        span[4] = attrs
        self.stack.pop()

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n


def _window_size(window) -> int:
    samples = getattr(window, "samples", window)
    return int(np.asarray(samples).size)


def _inspect(tracer: Tracer, name: str, args, kwargs, result) -> None:
    """Count safety nets and work from a call's arguments and result."""
    from fisrul.mixture import UNDERFLOW_FLOOR

    if name == "mixture.normalize_rows":
        totals = np.atleast_2d(np.asarray(args[0], dtype=float)).sum(axis=1)
        tracer.count("mixture.normalized_rows", totals.size)
        tracer.count("mixture.uniform_fallback",
                     int(np.count_nonzero(totals < UNDERFLOW_FLOOR)))
    elif name == "mixture.normalize_firing":
        tracer.count("mixture.normalized_rows")
        if np.asarray(args[0], dtype=float).sum() < UNDERFLOW_FLOOR:
            tracer.count("mixture.uniform_fallback")
    elif name == "clustering.input_sigmas":
        table = args[0]
        tracer.count("clustering.sigma_columns", table.n_features)
        flat = np.ptp(table.features, axis=0) * args[1] <= 0.0
        tracer.count("clustering.sigma_clamped", int(np.count_nonzero(flat)))
    elif name == "clustering.subtractive_cluster":
        tracer.count("clustering.subtractive_cluster.rows", args[0].n_rows)
        tracer.count("clustering.subtractive_cluster.rules", result.n_rules)
    elif name == "fis.predict_table":
        raw = np.asarray(result)
        tracer.count("rul.estimates", raw.size)
        tracer.count("rul.clamped_points",
                     int(np.count_nonzero((raw < 0.0) | (raw > 1.0))))
    elif name == "fis.infer":
        tracer.count("rul.estimates")
        if not 0.0 <= result.raw <= 1.0:
            tracer.count("rul.clamped_points")
    elif name == "rul.rul_from_ratio":
        if math.isnan(result):
            tracer.count("rul.indeterminate_points")
    elif name == "rul.savitzky_golay":
        frame = args[2] if len(args) > 2 else kwargs.get("frame", 61)
        tracer.count("rul.smoothed_segments")
        if np.asarray(args[0]).size < frame:
            tracer.count("rul.short_series_passthrough")
    elif name == "rul.rrmse":
        truth = np.asarray(args[0], dtype=float)
        tracer.count("rul.rrmse_points", truth.size)
        tracer.count("rul.zero_ratio_dropped", int(np.count_nonzero(truth == 0.0)))


_INSPECTED = {
    "mixture.normalize_rows", "mixture.normalize_firing",
    "clustering.input_sigmas", "clustering.subtractive_cluster",
    "fis.predict_table", "fis.infer", "rul.rul_from_ratio",
    "rul.savitzky_golay", "rul.rrmse",
}


def _wrap_function(tracer: Tracer, name: str, fn):
    inspect = name in _INSPECTED
    sized = name.split(".")[1] in KERNELS and name.startswith("features.")
    alloc = name == "clustering.subtractive_cluster"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if alloc:
            tracemalloc.start()
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            attrs = None
            if sized:
                attrs = _window_size(args[0])
            elif alloc:
                attrs = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            tracer.end(index, attrs)
        if inspect:
            probe = tracer.begin(INSPECT)
            _inspect(tracer, name, args, kwargs, result)
            tracer.end(probe)
        return result

    return traced


def _wrap_main(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(argv=None):
        index = tracer.begin(f"cli.{argv[0]}")
        try:
            return fn(argv)
        finally:
            tracer.end(index)

    return traced


def _wrap_loader(tracer: Tracer, name: str, fn):
    """Time each next() of a streaming loader and count files and bytes."""

    @functools.wraps(fn)
    def traced(dir_path, *args, **kwargs):
        probe = tracer.begin(INSPECT)
        pattern = "acc_*.csv" if name.endswith("phm") else "*"
        sizes = [p.stat().st_size for p in sorted(Path(dir_path).glob(pattern))
                 if p.is_file()]
        tracer.end(probe)
        windows = fn(dir_path, *args, **kwargs)
        while True:
            index = tracer.begin(name)
            try:
                window = next(windows)
            except StopIteration:
                tracer.end(index)
                return
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index, sizes[window.index - 1])
            yield window

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every binding of the TIMED functions; return what to restore."""
    import fisrul.cli  # noqa: F401  (loads every fisrul module)

    modules = [m for n, m in list(sys.modules.items())
               if n == "fisrul" or n.startswith("fisrul.")]
    restore = []
    for short, names in TIMED.items():
        home = sys.modules[f"fisrul.{short}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            span = f"{short}.{fn_name}"
            if short == "datasets":
                wrapper = _wrap_loader(tracer, span, original)
            elif short == "cli":
                wrapper = _wrap_main(tracer, original)
            else:
                wrapper = _wrap_function(tracer, span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, original))
    return restore


def uninstall(restore: list[tuple]) -> None:
    for module, attr, original in reversed(restore):
        setattr(module, attr, original)


def count_warnings(tracer: Tracer, records) -> None:
    for record in records:
        text = str(record.message)
        for needle, counter in WARNING_COUNTERS.items():
            if needle in text:
                tracer.count(counter)


def per_layer_names() -> list[str]:
    """Every per-layer metric ``summarize`` reports, in a fixed order."""
    names = [
        "datasets.iter_phm.self_s", "datasets.iter_phm.files",
        "datasets.iter_phm.mb_per_s",
        "datasets.iter_ims.self_s", "datasets.iter_ims.files",
        "datasets.iter_ims.mb_per_s",
        "features.extract_features.self_s",
    ]
    for kernel in KERNELS:
        names += [f"features.{kernel}.self_s", f"features.{kernel}.calls"]
        names += [f"features.{kernel}.ms_per_call_{n}" for n in WINDOW_SIZES]
    names += [
        "features.degradation_index.self_s", "features.write_feature_csv.self_s",
        "features.read_feature_csv.self_s", "features.cd_full_grid_fallback",
        "clustering.subtractive_cluster.self_s", "clustering.subtractive_cluster.rows",
        "clustering.subtractive_cluster.rules",
        "clustering.subtractive_cluster.peak_alloc_mb",
        "clustering.sigma_clamped", "clustering.sigma_columns",
        "mixture.firing_matrix.self_s", "mixture.weighted_firing_matrix.self_s",
        "mixture.estimate_time_clusters.self_s", "mixture.rule_firing.self_us_p50",
        "mixture.weighted_firing.self_us_p50", "mixture.uniform_fallback",
        "mixture.normalized_rows",
        "fis.infer.self_us_p50", "fis.infer.calls", "fis.identify_baseline.self_s",
        "fis.identify_weighted.self_s", "fis.solve_consequents.self_s",
        "fis.solve_consequents.calls", "fis.rank_deficient",
        "fis.predict_table.self_s", "fis.save_model.self_s", "fis.load_model.self_s",
        "rul.evaluate_model.self_s", "rul.smooth_rul.self_s",
        "rul.rul_from_ratio.calls", "rul.indeterminate_points",
        "rul.estimates", "rul.clamped_points", "rul.smoothed_segments",
        "rul.short_series_passthrough", "rul.rrmse_points",
        "rul.zero_ratio_dropped",
        "cli.features.s", "cli.benchmark.s",
    ]
    return names


def summarize(tracer: Tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-layer values of one pass, and the per-call samples behind them.

    Times are totals over the pass; ``*_p50`` and ``ms_per_call_*`` are
    taken later over the per-call samples of all traced passes.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    inclusive_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    samples: dict[str, list[float]] = defaultdict(list)
    loader_bytes: dict[str, int] = defaultdict(int)
    alloc_peak = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        own = (end - start - child_ns[i]) * 1e-9
        self_s[name] += own
        inclusive_s[name] += (end - start) * 1e-9
        calls[name] += 1
        if name in ("fis.infer", "mixture.rule_firing", "mixture.weighted_firing"):
            samples[f"{name}.self_us"].append(own * 1e6)
        elif name.startswith("features.") and attrs is not None:
            samples[f"{name}.ms.{attrs}"].append(own * 1e3)
        elif name.startswith("datasets.") and attrs is not None:
            loader_bytes[name] += attrs
        elif name == "clustering.subtractive_cluster" and attrs is not None:
            alloc_peak = max(alloc_peak, attrs)

    out: dict[str, float] = {}
    for loader in ("datasets.iter_phm", "datasets.iter_ims"):
        seconds = self_s.get(loader, 0.0)
        files = sum(1 for s in spans if s[0] == loader and s[4] is not None)
        out[f"{loader}.self_s"] = seconds
        out[f"{loader}.files"] = files
        out[f"{loader}.mb_per_s"] = loader_bytes[loader] / 1e6 / seconds if files else 0.0
    for name in ("features.extract_features", "features.degradation_index",
                 "features.write_feature_csv", "features.read_feature_csv",
                 "clustering.subtractive_cluster", "mixture.firing_matrix",
                 "mixture.weighted_firing_matrix", "mixture.estimate_time_clusters",
                 "fis.identify_baseline", "fis.identify_weighted",
                 "fis.solve_consequents", "fis.predict_table", "fis.save_model",
                 "fis.load_model", "rul.evaluate_model", "rul.smooth_rul"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for kernel in KERNELS:
        out[f"features.{kernel}.self_s"] = self_s.get(f"features.{kernel}", 0.0)
        out[f"features.{kernel}.calls"] = calls.get(f"features.{kernel}", 0)
    out["fis.infer.calls"] = calls.get("fis.infer", 0)
    out["fis.solve_consequents.calls"] = calls.get("fis.solve_consequents", 0)
    out["rul.rul_from_ratio.calls"] = calls.get("rul.rul_from_ratio", 0)
    out["clustering.subtractive_cluster.peak_alloc_mb"] = alloc_peak / 2**20
    out["cli.features.s"] = inclusive_s.get("cli.features", 0.0)
    out["cli.benchmark.s"] = inclusive_s.get("cli.benchmark", 0.0)
    for counter in ("features.cd_full_grid_fallback",
                    "clustering.subtractive_cluster.rows",
                    "clustering.subtractive_cluster.rules",
                    "clustering.sigma_clamped", "clustering.sigma_columns",
                    "mixture.uniform_fallback", "mixture.normalized_rows",
                    "fis.rank_deficient", "rul.indeterminate_points",
                    "rul.estimates", "rul.clamped_points", "rul.smoothed_segments",
                    "rul.short_series_passthrough", "rul.rrmse_points",
                    "rul.zero_ratio_dropped"):
        out[counter] = tracer.counts.get(counter, 0)
    return out, dict(samples)


def write_spans(path: Path, passes: list[Tracer]) -> None:
    """Write every span as [pass, name, start_ns, end_ns, parent] (gzip JSON)."""
    rows = [[p, name, start, end, parent]
            for p, tracer in enumerate(passes)
            for name, start, end, parent, _ in tracer.spans]
    with gzip.open(path, "wt") as fh:
        json.dump({"columns": ["pass", "name", "start_ns", "end_ns", "parent"],
                   "spans": rows}, fh)
