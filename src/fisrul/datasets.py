"""Ingestion of the two public run-to-failure formats plus a synthetic generator.

Loaders stream windows one file at a time so full recordings never need to
sit in memory; `list(iter_phm(path))` materializes one.  The synthetic
generator emits a feature table directly (no signal level), which is the
desk-scale stand-in for the multi-GB benchmarks.

Each file is read twice at most.  ``np.loadtxt`` reads every column first
(no comment character, so ``#`` is not special).  Its table is kept only
when nothing about it needs the line parser: the row count is the window
length, the width is one the format allows, every kept sample is finite
and numpy raised no warning (it warns on an empty file).  Anything else --
a parse error, ``;``-separated PHM rows, rows of mixed width,
whitespace-only lines, ``1_0``-style numbers, a short, long or empty file
-- sends the file to the line parser, which is the one source of every
``LoadError`` and its ``file:line``.  Both skip empty lines, take the
sample column from the format's one ``column(width)`` rule and read the
same doubles, so the path taken never shows in the samples.
"""

from __future__ import annotations

import math
import re
import warnings
from datetime import datetime
from pathlib import Path
from typing import Iterator

import numpy as np

from .clustering import TrainingTable
from .errors import ConfigError, LoadError, integer, number
from .features import SignalWindow

PHM_WINDOW_LEN = 2560
PHM_INTERVAL = 10.0

IMS_WINDOW_LEN = 20480

_PHM_NAME = re.compile(r"^acc_(\d+)\.csv$")


def _parse_float(token: str, path: Path, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise LoadError(f"{path}:{lineno}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise LoadError(f"{path}:{lineno}: non-finite sample: {token!r}")
    return value


def _parse_lines(path: Path, n_rows: int, split, column) -> np.ndarray:
    """The line parser: blank lines are skipped and every other line is cut
    by ``split(line)``; a ``column`` message raises LoadError."""
    samples = np.empty(n_rows)
    count, width = 0, None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = split(line)
            if len(cells) != width:  # the rule reads the width only
                width, col = len(cells), column(len(cells))
                if isinstance(col, str):
                    raise LoadError(f"{path}:{lineno}: {col}")
            if count >= n_rows:
                raise LoadError(f"{path}:{lineno}: more than {n_rows} rows")
            samples[count] = _parse_float(cells[col], path, lineno)
            count += 1
    if count != n_rows:
        raise LoadError(f"{path}: expected {n_rows} rows, got {count}")
    return samples


def _load_column(path: Path, n_rows: int, delimiter: str, column) -> np.ndarray | None:
    """The samples of ``path`` as ``np.loadtxt`` reads them, or None when the
    line parser must read the file."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = np.loadtxt(path, delimiter=delimiter, comments=None, ndmin=2)
    except (OSError, ValueError):
        return None
    if caught or table.shape[0] != n_rows:
        return None
    col = column(table.shape[1])
    if isinstance(col, str):
        return None
    samples = table[:, col].copy()
    return samples if np.isfinite(samples).all() else None


def _read_windows(paths, timestamps, n_rows: int, delimiter: str,
                  split, column) -> Iterator[SignalWindow]:
    """One window of ``n_rows`` samples per file, read by ``np.loadtxt``
    where it reads the file as the line parser would, else by the line
    parser.  The format's rule ``column(width)`` is the sample column of a
    row ``width`` cells wide, or a message saying why that width is not
    allowed; both parsers follow it."""
    for order, (path, timestamp) in enumerate(zip(paths, timestamps)):
        samples = _load_column(path, n_rows, delimiter, column)
        if samples is None:
            samples = _parse_lines(path, n_rows, split, column)
        yield SignalWindow(samples, index=order + 1, timestamp=timestamp)


def _directory(dir_path) -> Path:
    root = Path(dir_path)
    if not root.is_dir():
        raise LoadError(f"{root}: not a directory")
    return root


def iter_phm(dir_path) -> Iterator[SignalWindow]:
    """Stream the horizontal-channel windows of one PHM bearing directory.

    Files are `acc_<index>.csv` with one sample per row; columns are hour,
    minute, second, microsecond, horizontal and vertical acceleration
    (some distributions use ';' instead of ',').  Only the horizontal
    channel is kept; window k sits at tau = 10 (k - 1) seconds.
    """
    root = _directory(dir_path)
    names = []
    for entry in sorted(p.name for p in root.glob("acc_*.csv")):
        match = _PHM_NAME.match(entry)
        if match:
            names.append((int(match.group(1)), entry))
    if not names:
        raise LoadError(f"{root}: no acc_*.csv files found")
    indices = [idx for idx, _ in names]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise LoadError(f"{root}: file indices are not strictly increasing")
    yield from _read_windows(
        [root / name for _, name in names], [PHM_INTERVAL * k for k in range(len(names))],
        PHM_WINDOW_LEN, ",", lambda line: line.strip().split(";" if ";" in line else ","),
        lambda width: 4 if width in (5, 6) else f"expected 5 or 6 columns, got {width}")


def _ims_timestamp(name: str, root: Path) -> datetime:
    try:
        return datetime.strptime(name, "%Y.%m.%d.%H.%M.%S")
    except ValueError:
        raise LoadError(f"{root / name}: file name is not a timestamp") from None


def iter_ims(dir_path, channel: int = 0) -> Iterator[SignalWindow]:
    """Stream one channel of an IMS test directory.

    Files are named by their acquisition timestamp and hold 20480
    tab-separated rows, one sample per row and one column per channel;
    observation times are the timestamp offsets from the first file.  A bad
    channel raises ConfigError before any file is read.
    """
    integer(channel, "channel", 0)
    root = _directory(dir_path)
    names = sorted(p.name for p in root.iterdir() if p.is_file())
    if not names:
        raise LoadError(f"{root}: no data files found")
    stamps = [_ims_timestamp(name, root) for name in names]
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        raise LoadError(f"{root}: file timestamps are not strictly increasing")
    yield from _read_windows(
        [root / name for name in names],
        [(stamp - stamps[0]).total_seconds() for stamp in stamps], IMS_WINDOW_LEN, "\t",
        lambda line: line.rstrip("\n").split("\t"),
        lambda width: channel if channel < width
        else f"channel {channel} out of range ({width} columns)")


# Per-regime slope patterns of the synthetic feature trajectories (features
# alternate between the two).  The late-life slopes fold the trajectories
# back toward the early-life value band -- the partial late recovery seen in
# real degradation features -- so feature values alias across regimes and
# only the observation time disambiguates them.
_SLOPE_PATTERNS = (
    np.array([1.2, -0.2, -1.0, 0.8, -0.4, 1.0]),
    np.array([0.6, 1.0, -1.6, 0.6, -0.9, 1.1]),
)


def synth_bearing(seed: int = 0, regimes: int = 3, lifetime: float = 1200.0,
                  noise: float = 0.05, n_obs: int = 120,
                  n_features: int = 2, start_frac: float = 0.1) -> TrainingTable:
    """Deterministic piecewise-linear run-to-failure feature table.

    Each feature follows a continuous piecewise-linear trajectory over
    ``regimes`` contiguous time segments, plus seeded Gaussian noise scaled
    by ``noise`` times the trajectory amplitude.  Observations sit on a
    uniform grid from ``start_frac`` of the lifetime (monitoring starts
    after a warm-up, which also keeps the relative error metric finite at
    desk scale) up to the failure time, so rho spans (start_frac, 1].
    """
    integer(seed, "seed", 0)
    for name, value in (("regimes", regimes), ("n_obs", n_obs),
                        ("n_features", n_features)):
        integer(value, name, 1)
    for name, value in (("lifetime", lifetime), ("noise", noise),
                        ("start_frac", start_frac)):
        number(value, name)
    if not lifetime > 0:
        raise ConfigError(f"lifetime must be positive, got {lifetime}")
    if not noise >= 0:
        raise ConfigError(f"noise must be non-negative, got {noise}")
    if not 0.0 <= start_frac < 1.0:
        raise ConfigError(f"start_frac must lie in [0, 1), got {start_frac}")
    rng = np.random.default_rng(seed)
    grid = np.arange(1, n_obs + 1) / n_obs  # ends at exactly 1.0
    rho = start_frac + (1.0 - start_frac) * grid
    taus = lifetime * rho
    edges = np.linspace(0.0, 1.0, regimes + 1)
    features = np.empty((n_obs, n_features))
    for i in range(n_features):
        pattern = _SLOPE_PATTERNS[i % len(_SLOPE_PATTERNS)]
        reps = math.ceil(regimes / pattern.size)
        slopes = np.tile(pattern, reps)[:regimes] * (1.0 + 0.25 * (i // 2))
        nodes = np.concatenate([[0.5], 0.5 + np.cumsum(slopes * np.diff(edges))])
        trajectory = np.interp(rho, edges, nodes)
        amplitude = float(np.ptp(trajectory)) or 1.0
        features[:, i] = trajectory + noise * amplitude * rng.standard_normal(n_obs)
    return TrainingTable(
        features=features,
        rho=rho,
        taus=taus,
        feature_names=tuple(f"f{i + 1}" for i in range(n_features)),
    )
