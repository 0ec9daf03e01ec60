"""fisrul benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload rms_protocol --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 2

Run from anywhere; paths resolve against the checkout holding this file,
whose ``src/`` must contain the fisrul package.  Inputs are generated from
``--seed`` (cached under ``.bench_data/cache``), then the workload runs in
a fresh process (perfbench/workloads.py).  With ``--trace 0`` the last
stdout line is a JSON object whose metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are the per-layer metrics.  The
full result, with provenance and sample counts, goes to
``.bench_data/results/``.  Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import signals
import spans
import specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / ".bench_data"
WORKLOADS = ("rms_protocol", "nonlinear_features", "fleet_train_monitor")

SETUP_REPEATS = 3
CACHE_ENTRIES = 24
RUN_LIMIT_S = 170.0

# Figures of single workloads, measured on the untraced passes.
WORKLOAD_KEYS = ("windows_per_s", "train_s", "infer_p50_us", "infer_p99_us",
                 "infer_baseline_p50_us", "arrmse_weighted", "arrmse_baseline",
                 "rrmse_weighted_ims", "rrmse_baseline_ims")

# One fresh interpreter: import the CLI module (and, for fleet_train_monitor,
# load its two saved models), printing the elapsed seconds.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import fisrul.cli
from fisrul.fis import load_model
for path in sys.argv[1:]:
    load_model(path)
print(repr(time.perf_counter() - start))
"""

# metric-name suffix -> unit, first match wins
UNIT_SUFFIXES = (("mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_us", "us"),
                 ("_us_p50", "us"), ("_pct", "%"), ("_mb", "MB"), ("_s", "s"),
                 (".s", "s"))


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name; plain counts otherwise."""
    if ".ms_per_call_" in name:
        return "ms"
    if name.startswith("workload.") and "rrmse" in name or name.startswith("arrmse") \
            or name.startswith("rrmse"):
        return "ratio"
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_times(model_paths: list[str], deadline: float) -> list[float]:
    """Fresh-interpreter import (+ model load) times, one per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *model_paths],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(5.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def import_profile(deadline: float) -> dict:
    """Cumulative import times from ``python -X importtime`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fisrul.cli"],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=max(5.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"import profile failed: {proc.stderr.strip()[-500:]}")
    total_us, cumulative = 0, {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cum, module = (part.strip() for part in line[len("import time:"):].split("|"))
        total_us += int(own)
        cumulative.setdefault(module.strip(), int(cum))
    return {"cli.import.scipy_signal_s": cumulative.get("scipy.signal", 0) * 1e-6,
            "cli.import.scipy_spatial_s": cumulative.get("scipy.spatial", 0) * 1e-6,
            "cli.import.total_s": total_us * 1e-6}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # older numpy has no dict mode; provenance stays partial
        pass
    blas["threads_env"] = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "fisrul").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, run the workload process, measure set-up; return the result."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    inputs, manifest = None, None
    spec = specs.SPECS[name]
    if spec is not None:
        inputs, manifest = signals.ensure(DATA / "cache", seed, spec)
        signals.prune(DATA / "cache", CACHE_ENTRIES)
    results = DATA / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = DATA / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    out = results / f"{stem}.json"
    try:
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--work", str(work), "--out", str(out)]
        if inputs is not None:
            cmd += ["--inputs", str(inputs)]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              timeout=max(5.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited with {proc.returncode}")
        doc = json.loads(out.read_text())
        if trace:
            doc["import_profile"] = import_profile(deadline)
        else:
            models = ([str(work / f"{v}.json") for v in ("baseline", "weighted")]
                      if name == "fleet_train_monitor" else [])
            doc["setup_samples_s"] = setup_times(models, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc["provenance"] = provenance(seed)
    doc["inputs"] = None if manifest is None else {
        "cache_entry": inputs.name, "bytes": manifest["bytes"],
        "generate_s": manifest["generate_s"]}
    doc["wall_s"] = time.monotonic() - started
    out.write_text(json.dumps(doc, indent=1))
    return doc


def per_layer_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    return (spans.per_layer_names() + ["trace.overhead_pct"]
            + [f"workload.{key}" for key in WORKLOAD_KEYS]
            + ["cli.import.scipy_signal_s", "cli.import.scipy_spatial_s",
               "cli.import.total_s"])


def metrics_of(doc: dict, trace: bool) -> tuple[dict, dict]:
    """(metrics, sample counts) as BENCHMARK.json names them.

    Workload figures a workload does not produce (windows on the fleet,
    infer latency on the feature workloads) read 0 with 0 samples.
    """
    if not trace:
        passes = doc["passes"]["untraced"]
        values = {
            "setup_s": statistics.median(doc["setup_samples_s"]),
            "total_s": doc["total_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        samples = {"setup_s": len(doc["setup_samples_s"]), "total_s": passes,
                   "peak_rss_mb": 1}
        return values, samples
    found = dict(doc["per_layer"])
    counts = dict(doc["per_layer_samples"])
    for key in WORKLOAD_KEYS:
        found[f"workload.{key}"] = doc["workload_metrics"].get(key, 0.0)
        counts[f"workload.{key}"] = doc["workload_samples"].get(key, 0)
    found.update(doc["import_profile"])
    counts.update(dict.fromkeys(doc["import_profile"], 1))
    names = per_layer_names()
    if set(found) != set(names):
        raise RuntimeError(f"per-layer metrics differ from the list: "
                           f"{sorted(set(found) ^ set(names))}")
    return ({name: found[name] for name in names},
            {name: counts[name] for name in names})


def report(name: str, doc: dict, values: dict, samples: dict) -> None:
    """Human-readable lines: metrics with units and sample counts, then checks."""
    print(f"== {name} (seed {doc['seed']}) ==")
    for key, value in values.items():
        print(f"  {key:<48} {value:>14.6g} {unit_of(key):<6} n={samples.get(key)}")
    if "workload_metrics" in doc and "per_layer" not in doc:
        for key, value in doc["workload_metrics"].items():
            print(f"  {key:<48} {value:>14.6g} {unit_of(key):<6} "
                  f"n={doc['workload_samples'][key]}")
    checks = doc["checks"]
    print(f"  checks: {checks['attempted'] - checks['failed']}/{checks['attempted']} passed")
    for message in checks["messages"]:
        print(f"  FAILED {message}")
    print(f"  sizes: {json.dumps(doc['sizes'])}")
    print(f"  provenance: {json.dumps(doc['provenance'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fisrul benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fisrul" / "cli.py").is_file():
        print(f"error: no fisrul package under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            doc = run_workload(name, args.seed, args.seconds, trace)
            checks = doc["checks"]
            attempted += checks["attempted"]
            failed += checks["failed"]
            if checks["failed"] or "total_s" not in doc:
                report(name, doc, {}, {})
                print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                                  "failed": max(failed, 1), "metrics": {}}))
                return 1
            values, samples = metrics_of(doc, trace)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, doc, values, samples)
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit_of(key)}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
