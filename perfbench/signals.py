"""Seeded run-to-failure vibration files in the PHM and IMS on-disk formats.

Each window holds a carrier tone, a fault tone whose amplitude grows over
the bearing's life, and Gaussian noise whose amplitude rises toward
failure.  Window k of an N-window recording sits at life fraction
k / (N - 1).  The same seed and sizes always give the same bytes.

Files are cached under ``<cache>/<key>/``, where the key hashes the
generator version, the seed and the sizes; a directory appears only once
it is complete.  ``manifest.json`` in each cache entry records the expected
RMS of every written window (computed with numpy from the exact values the
files hold) and the disk footprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 1

PHM_RATE, PHM_LEN, PHM_INTERVAL_S = 25600.0, 2560, 10.0
IMS_RATE, IMS_LEN, IMS_INTERVAL_S = 20000.0, 20480, 600.0

# IMS test directories: start stamp and column count (test 1 records two
# channels per bearing, test 2 one).
IMS_TESTS = {
    "1st_test": (datetime(2003, 10, 22, 12, 6, 24), 8),
    "2nd_test": (datetime(2004, 2, 12, 10, 32, 39), 4),
}


def _window(rng, n, rate, rho, growth, carrier_hz, fault_hz):
    """One window at life fraction ``rho`` (0 healthy, 1 failed)."""
    t = np.arange(n) / rate
    carrier = 0.25 * np.sin(2 * np.pi * carrier_hz * t + rng.uniform(0, 2 * np.pi))
    fault_amp = 0.02 + 0.6 * rho ** growth
    fault = fault_amp * np.sin(2 * np.pi * fault_hz * t + rng.uniform(0, 2 * np.pi))
    noise = 0.05 * (1.0 + 4.0 * rho ** 2) * rng.standard_normal(n)
    return carrier + fault + noise


def _healthy(rng, n, rate, carrier_hz):
    t = np.arange(n) / rate
    return (0.2 * np.sin(2 * np.pi * carrier_hz * t + rng.uniform(0, 2 * np.pi))
            + 0.05 * rng.standard_normal(n))


def _rms(x) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def write_phm_dir(root: Path, n_files: int, seed) -> list[float]:
    """Write ``acc_00001.csv`` ... with 6 comma-separated columns, 2560 rows.

    Columns: hour, minute, second, microsecond, horizontal and vertical
    acceleration.  Values are written with ``repr`` of a Python float, so
    they parse back to the exact doubles.  Returns the horizontal RMS of
    each file.
    """
    rng = np.random.default_rng(seed)
    growth = rng.uniform(2.5, 3.5)
    root.mkdir(parents=True)
    row_us = np.arange(PHM_LEN) * (1e6 / PHM_RATE)
    expected = []
    for k in range(n_files):
        rho = k / (n_files - 1)
        horiz = _window(rng, PHM_LEN, PHM_RATE, rho, growth, 210.0, 3100.0)
        vert = _window(rng, PHM_LEN, PHM_RATE, rho, growth, 170.0, 2700.0)
        start_s = 9 * 3600 + 39 * 60 + PHM_INTERVAL_S * k
        lines = []
        for us, h, v in zip(row_us.tolist(), horiz.tolist(), vert.tolist()):
            sec, frac = divmod(start_s + us * 1e-6, 1.0)
            sec = int(sec)
            lines.append("%d,%d,%d,%d,%r,%r\n" % (
                sec // 3600 % 24, sec // 60 % 60, sec % 60, int(frac * 1e6), h, v))
        (root / f"acc_{k + 1:05d}.csv").write_text("".join(lines))
        expected.append(_rms(horiz))
    return expected


def write_ims_dir(root: Path, test: str, n_files: int, channel: int, seed) -> list[float]:
    """Write timestamp-named, tab-separated files of 20480 rows.

    Column ``channel`` degrades over the recording; the other columns are
    healthy bearings.  Values have 3 decimals, as in the published files.
    Returns the RMS of column ``channel`` in each file, computed from the
    rounded values the file holds.
    """
    start, n_cols = IMS_TESTS[test]
    rng = np.random.default_rng(seed)
    growth = rng.uniform(2.5, 3.5)
    root.mkdir(parents=True)
    row_fmt = "\t".join(["%.3f"] * n_cols) + "\n"
    expected = []
    for k in range(n_files):
        rho = k / (n_files - 1)
        cols = [_healthy(rng, IMS_LEN, IMS_RATE, 150.0 + 20 * c) for c in range(n_cols)]
        cols[channel] = _window(rng, IMS_LEN, IMS_RATE, rho, growth, 230.0, 2300.0)
        # integer thousandths: m / 1000.0 is exactly the double that
        # float("%.3f" % (m / 1000.0)) parses back to
        milli = np.rint(np.column_stack(cols) * 1000.0)
        values = milli / 1000.0
        text = "".join(row_fmt % tuple(row) for row in values.tolist())
        stamp = start + timedelta(seconds=IMS_INTERVAL_S * k)
        (root / stamp.strftime("%Y.%m.%d.%H.%M.%S")).write_text(text)
        expected.append(_rms(values[:, channel]))
    return expected


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def ensure(cache_root: Path, seed: int, spec: dict) -> tuple[Path, dict]:
    """Return (directory, manifest) for ``spec`` at ``seed``, writing it if absent.

    ``spec`` maps a directory name to ``{"format": "phm", "files": n}`` or
    ``{"format": "ims", "test": "1st_test", "files": n, "channel": c}``.
    """
    key_doc = json.dumps({"v": GENERATOR_VERSION, "seed": seed, "spec": spec},
                         sort_keys=True)
    key = hashlib.sha256(key_doc.encode()).hexdigest()[:16]
    final = cache_root / key
    manifest_path = final / "manifest.json"
    if manifest_path.is_file():
        os.utime(final)  # marks the entry as recently used for prune()
        return final, json.loads(manifest_path.read_text())

    staging = cache_root / f".{key}.{os.getpid()}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    start = time.perf_counter()
    expected = {}
    for index, (name, entry) in enumerate(sorted(spec.items())):
        sub_seed = [seed, GENERATOR_VERSION, index]
        if entry["format"] == "phm":
            expected[name] = write_phm_dir(staging / name, entry["files"], sub_seed)
        else:
            expected[name] = write_ims_dir(staging / name, entry["test"],
                                           entry["files"], entry["channel"], sub_seed)
    manifest = {
        "key": json.loads(key_doc),
        "expected_rms": expected,
        "bytes": {name: _dir_bytes(staging / name) for name in spec},
        "generate_s": time.perf_counter() - start,
    }
    (staging / "manifest.json").write_text(json.dumps(manifest))
    try:
        staging.rename(final)
    except OSError:  # another process finished the same entry first
        shutil.rmtree(staging, ignore_errors=True)
    return final, json.loads(manifest_path.read_text())


def prune(cache_root: Path, keep: int) -> None:
    """Delete all but the ``keep`` most recently used cache entries."""
    if not cache_root.is_dir():
        return
    entries = sorted((p for p in cache_root.iterdir()
                      if p.is_dir() and not p.name.startswith(".")),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[keep:]:
        shutil.rmtree(stale, ignore_errors=True)
