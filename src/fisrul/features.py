"""Scalar condition indicators extracted from fixed-length vibration windows.

Six indicators are supported: root mean square (rms), normalized spectral
entropy (se), approximate entropy (ae), largest Lyapunov exponent (lle),
correlation dimension (cd) and the degradation index of the approximate
entropy series (diae).  Every indicator is a pure function of its window and
settings, so a window's kernels may run concurrently in any order.  The
pairwise-distance kernels (ae, lle, cd) are called as ``kernel(window,
params)``: a ``FeatureParams`` is the one way to set their parameters, and
its checks are the only ones on them.  ApEn counts template matches along
the diagonals of a closeness mask |x_i - x_j| <= r, built in row blocks with
numpy alone; the Lyapunov neighbor search takes the row-wise argmin over row
blocks of the full distance matrix, and its divergence curve comes from one
gather of every neighbor pair over all steps; the correlation dimension
sorts its pairwise distances once and counts C(r) by binary search.  All
three cost time quadratic in the (decimated) window length.
"""

from __future__ import annotations

import csv
import math
import mmap
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clustering import TrainingTable, row_blocks
from .errors import ConfigError, cell, integer, located, number

# Per-window kernels by feature name, from cheapest to costliest per window.
# Each looks its kernel up as a module global at call time, so rebinding a
# kernel (as a profiler does) reaches it.
_KERNELS = {
    "rms": lambda w, p: rms(w),
    "se": lambda w, p: spectral_entropy(w),
    "ae": lambda w, p: approximate_entropy(w, p),
    "lle": lambda w, p: largest_lyapunov(w, p),
    "cd": lambda w, p: correlation_dimension(w, p),
}
FEATURE_NAMES = (*_KERNELS, "diae")  # diae scores the whole ae series

# Pairwise-distance features (ae, lle, cd) decimate the window to at most
# this many samples so 20480-sample windows stay tractable.
MAX_PAIRWISE_POINTS = 2000


@dataclass(frozen=True)
class SignalWindow:
    """One fixed-length acceleration snapshot recorded at ``timestamp`` seconds;
    its samples are checked once, here: at least one, all finite, and held in
    a read-only array (a copy when the one given is writable)."""

    samples: np.ndarray
    index: int = 1
    timestamp: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.flags.writeable:
            samples = samples.copy()
            samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if samples.size == 0:
            raise ValueError("signal window has no samples")
        if not np.isfinite(samples).all():
            raise ValueError("signal window has non-finite samples (NaN or infinity)")


@dataclass(frozen=True)
class FeatureParams:
    """Tunable parameters of the indicator computations.

    The defaults are the standard settings from the respective method
    literature: ae uses embedding dimension 2 with tolerance 0.2 std,
    lle/cd use delay embeddings with the lag taken at the first
    autocorrelation minimum (capped at 10).
    """

    ae_m: int = 2
    ae_r_tol: float = 0.2
    lle_embed_dim: int = 5
    lle_lag: int | None = None
    lle_mean_period: int | None = None
    lle_fit_range: tuple[int, int] | None = None
    cd_embed_dim: int = 5
    cd_lag: int | None = None
    diae_baseline_frac: float = 0.1
    max_points: int = MAX_PAIRWISE_POINTS

    def __post_init__(self):
        # max_points 0 means no decimation; a null lag or period is estimated
        for name, low in (("ae_m", 1), ("lle_embed_dim", 1), ("lle_lag", 1),
                          ("lle_mean_period", 0), ("cd_embed_dim", 1), ("cd_lag", 1),
                          ("max_points", 0)):
            value = getattr(self, name)
            if not (value is None and getattr(FeatureParams, name) is None):
                integer(value, name, low)
        for name in ("ae_r_tol", "diae_baseline_frac"):
            number(getattr(self, name), name)
        if not self.ae_r_tol > 0:
            raise ConfigError(f"ae_r_tol must be positive, got {self.ae_r_tol}")
        if not 0 < self.diae_baseline_frac < 1:
            raise ConfigError(f"diae_baseline_frac must lie in (0, 1), "
                              f"got {self.diae_baseline_frac}")
        fit = self.lle_fit_range
        if fit is not None:
            if isinstance(fit, (tuple, list)) and len(fit) == 2:
                fit = tuple(integer(v, f"lle_fit_range[{i}]") for i, v in enumerate(fit))
            if not (isinstance(fit, tuple) and len(fit) == 2 and 0 <= fit[0] < fit[1]):
                raise ConfigError("lle_fit_range must be null or (lo, hi) with 0 <= lo "
                                  f"< hi, both integers, got {self.lle_fit_range}")
            object.__setattr__(self, "lle_fit_range", fit)


# The settings a kernel uses when called without its own FeatureParams.
DEFAULT_PARAMS = FeatureParams()


def _samples(window) -> np.ndarray:
    return (window if isinstance(window, SignalWindow) else SignalWindow(window)).samples


def _decimate(x: np.ndarray, max_points: int) -> np.ndarray:
    """Deterministic stride subsampling used by the pairwise-distance
    features; a cap of 0 keeps every sample."""
    if max_points and x.size > max_points:
        stride = math.ceil(x.size / max_points)
        return x[::stride]
    return x


def rms(window) -> float:
    """Root mean square of the window samples."""
    x = _samples(window)
    return float(np.sqrt(np.mean(np.square(x))))


def spectral_entropy(window) -> float:
    """Shannon entropy of the normalized power spectral density.

    The PSD is built from the magnitude-squared one-sided DFT bins (DC
    included) and normalized to sum to one; the entropy is divided by
    ``ln(number of bins)`` so the result lies in [0, 1].  An all-zero window
    has a degenerate spectrum and is defined to score 0.
    """
    x = _samples(window)
    if x.size < 4:
        raise ValueError(f"spectral entropy needs at least 4 samples, got {x.size}")
    psd = np.abs(np.fft.rfft(x)) ** 2
    total = psd.sum()
    if total <= 0.0:
        return 0.0
    p = psd / total
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)) / math.log(psd.size))


def approximate_entropy(window, params: FeatureParams = DEFAULT_PARAMS) -> float:
    """Approximate entropy ApEn(m, r) with m = ``params.ae_m`` and r =
    ``params.ae_r_tol`` times the window std.

    Uses the standard formulation: phi(m) - phi(m+1) with self-matches
    included and Chebyshev distance between templates.  A constant window is
    perfectly regular and returns 0.

    Templates i and j match at length m when |x[i+k] - x[j+k]| <= r for
    every k < m, i.e. along m consecutive entries of one diagonal of the
    closeness mask |x_i - x_j| <= r.  The mask is built one row block at a
    time, with m more rows below the block for the diagonals, so the work
    is quadratic in the (decimated) window length and the memory is not.
    """
    x = _decimate(_samples(window), params.max_points)
    m = params.ae_m
    if x.size <= m + 1:
        raise ValueError(f"window too short for ApEn(m={m}): {x.size} samples")
    sd = float(np.std(x))
    if sd == 0.0:
        return 0.0
    r = params.ae_r_tol * sd
    n = x.size
    count = n - m + 1  # templates of length m; those of length m+1 are one fewer
    matches = np.empty(count, dtype=np.intp)
    longer_matches = np.empty(count - 1, dtype=np.intp)
    blocks = row_blocks(count, count)
    height = min(blocks[0][1] + m, n)
    diff = np.empty((height, n))
    close = np.empty((height, n), dtype=bool)
    match = np.empty((blocks[0][1], count), dtype=bool)
    for a, b in blocks:
        stop = min(b + m, n)  # the m rows below the block complete its diagonals
        d = diff[:stop - a]
        np.subtract(x[a:stop, None], x, out=d)
        np.abs(d, out=d)
        np.less_equal(d, r, out=close[:stop - a])
        block = match[:b - a]
        np.copyto(block, close[:b - a, :count])
        for k in range(1, m):
            block &= close[k:k + b - a, k:k + count]
        matches[a:b] = np.count_nonzero(block, axis=1)
        # the last length-m template has no length-(m+1) extension
        rows = min(b, count - 1) - a
        block = block[:rows, :count - 1]
        block &= close[m:m + rows, m:m + count - 1]
        longer_matches[a:a + rows] = np.count_nonzero(block, axis=1)
    return (float(np.mean(np.log(matches / count)))
            - float(np.mean(np.log(longer_matches / (count - 1)))))


def _embed(x: np.ndarray, dim: int, lag: int) -> np.ndarray:
    """Delay embedding: rows are (x[t], x[t+lag], ..., x[t+(dim-1)lag])."""
    n = x.size - (dim - 1) * lag
    if n < 2:
        raise ValueError(
            f"window too short for embedding dim={dim}, lag={lag}: {x.size} samples"
        )
    return np.column_stack([x[i * lag : i * lag + n] for i in range(dim)])


def _first_acf_minimum(x: np.ndarray) -> int:
    """Lag of the first local minimum of the autocorrelation, capped at 10."""
    cap = 10
    x = x - x.mean()
    denom = float(np.dot(x, x))
    max_lag = min(cap + 1, x.size - 1)
    if denom == 0.0 or max_lag < 2:
        return 1
    acf = np.array([np.dot(x[: x.size - k], x[k:]) / denom for k in range(max_lag + 1)])
    for k in range(1, len(acf) - 1):
        if acf[k] < acf[k - 1] and acf[k] <= acf[k + 1]:
            return k
    return max(1, min(cap, len(acf) - 1))


def _mean_period(x: np.ndarray) -> int:
    """Reciprocal of the PSD mean frequency, in samples (at least 1)."""
    psd = np.abs(np.fft.rfft(x - x.mean())) ** 2
    freqs = np.fft.rfftfreq(x.size)
    total = psd[1:].sum()
    if total <= 0.0:
        return 1
    mean_freq = float(np.dot(freqs[1:], psd[1:]) / total)
    if mean_freq <= 0.0:
        return 1
    return max(1, int(round(1.0 / mean_freq)))


def _theiler_neighbors(points: np.ndarray, mean_period: int) -> np.ndarray:
    """Index of each point's Euclidean nearest neighbor more than
    ``mean_period`` steps away in time, ties going to the lowest index.

    Each row block of the full distance matrix has its Theiler band
    ``[i - mean_period, i + mean_period]`` set to infinity before the
    row-wise argmin.  Raises ValueError when the window leaves some point
    without any neighbor.
    """
    from scipy.spatial.distance import cdist

    m = points.shape[0]
    if 2 * mean_period >= m - 1:
        # the middle point has no neighbor outside its Theiler window
        raise ValueError(
            f"Theiler window mean_period={mean_period} leaves no neighbor for "
            f"some of the m={m} embedded points (need 2*mean_period < m-1)")
    nn = np.empty(m, dtype=np.intp)
    blocks = row_blocks(m, m)
    buf = np.empty((blocks[0][1], m))
    for a, b in blocks:
        dist = cdist(points[a:b], points, out=buf[:b - a])
        # entry (i - a, i + d) of the block sits at flat index (i - a)(m + 1) + a + d,
        # so each offset d of the band is one strided slice of the flat block
        flat = dist.ravel()
        for d in range(-mean_period, mean_period + 1):
            lo, hi = max(0, -a - d), min(b - a, m - a - d)  # rows with 0 <= i + d < m
            if lo < hi:
                start = lo * (m + 1) + a + d
                flat[start:start + (hi - lo) * (m + 1):m + 1] = np.inf
        nn[a:b] = dist.argmin(axis=1)
    return nn


def _divergence(x: np.ndarray, nn: np.ndarray, dim: int, lag: int,
                n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean log distance of the pairs (point i, point nn[i]) of
    ``_embed(x, dim, lag)`` after each of k = 0 .. n_steps-1 steps (NaN once
    no pair is left), and whether at step k every pair sat at distance 0.

    Pair i counts at step k while both points stay embedded: k < m -
    max(i, nn[i]).  Every step comes from one gather: row t of ``win`` is
    x[t : t + span], so column k + c*lag of row i is coordinate c of point
    i + k.  The squared differences are summed one coordinate at a time, in
    the order numpy sums a row of fewer than 8 coordinates, so the curve is
    the same to the bit up to dim 7 and within ulps from dim 8 on.
    """
    m = nn.size
    span = n_steps + (dim - 1) * lag
    # the padding reaches only steps past the last embedded point
    win = sliding_window_view(np.concatenate([x, np.zeros(n_steps - 1)]), span)
    sq = win[nn]
    np.subtract(win[:m], sq, out=sq)
    sq *= sq
    dist = sq[:, :n_steps].copy()
    for c in range(1, dim):
        dist += sq[:, c * lag:c * lag + n_steps]
    np.sqrt(dist, out=dist)
    steps = m - np.maximum(np.arange(m), nn)  # pair i counts while k < steps[i]
    divergence = np.full(n_steps, np.nan)
    coincident = np.zeros(n_steps, dtype=bool)
    for k in range(n_steps):
        d = dist[steps > k, k]
        if not d.size:
            break
        d = d[d > 0.0]
        if d.size:
            divergence[k] = np.mean(np.log(d))
        else:
            coincident[k] = True
    return divergence, coincident


def largest_lyapunov(window, params: FeatureParams = DEFAULT_PARAMS) -> float:
    """Largest Lyapunov exponent per sample step, Rosenstein's method.

    The window is delay-embedded in ``params.lle_embed_dim`` dimensions at
    lag ``params.lle_lag``.  Each embedded point is paired with its nearest
    neighbor more than ``params.lle_mean_period`` steps away in time; the
    slope of the mean log divergence of those pairs over
    ``params.lle_fit_range`` estimates the exponent.  A null setting is
    estimated: lag at the first autocorrelation minimum, mean period from the
    PSD mean frequency, fit over the first third of the divergence curve.
    """
    x = _decimate(_samples(window), params.max_points)
    lag = params.lle_lag if params.lle_lag is not None else _first_acf_minimum(x)
    points = _embed(x, params.lle_embed_dim, lag)
    m = points.shape[0]
    if m < 10:
        raise ValueError(f"too few embedded points for divergence tracking: {m}")
    mean_period = params.lle_mean_period
    if mean_period is None:
        mean_period = _mean_period(x)

    nn = _theiler_neighbors(points, mean_period)
    n_steps = max(3, min(50, m // 4))
    divergence, coincident = _divergence(x, nn, params.lle_embed_dim, lag, n_steps)

    fit_range = params.lle_fit_range
    if fit_range is None:
        fit_range = (0, max(2, n_steps // 3))
    lo, hi = fit_range
    ks = np.arange(lo, min(hi + 1, n_steps))
    ys = divergence[ks]
    keep = np.isfinite(ys)
    if np.count_nonzero(keep) < 2:
        if coincident[ks].any():
            raise ValueError(
                "divergence curve too short to fit: at "
                f"{np.count_nonzero(coincident[ks])} of {ks.size} fit steps every "
                "tracked neighbour pair sits at distance 0 (coincident "
                "neighbours, as in an exactly periodic signal)")
        raise ValueError("divergence curve too short to fit")
    slope = np.polyfit(ks[keep], ys[keep], 1)[0]
    return float(slope)


def _stable_slope_run(log_r: np.ndarray, log_c: np.ndarray) -> slice | None:
    """Longest run of 5+ grid points whose local log-log slopes vary by less
    than 20% of their mean."""
    min_points, rel_var = 5, 0.2
    slopes = np.diff(log_c) / np.diff(log_r)
    n = slopes.size
    best: slice | None = None
    for start in range(n):
        for stop in range(start + min_points - 1, n + 1):
            seg = slopes[start:stop]
            mean = np.mean(seg)
            if mean == 0.0 or (seg.max() - seg.min()) >= rel_var * abs(mean):
                break
            if best is None or stop - start > (best.stop - best.start - 1):
                best = slice(start, stop + 1)  # slopes -> grid points
    return best


def _sorted_percentiles(a: np.ndarray, q) -> np.ndarray:
    """``np.percentile(a, q)`` of an ascending array, to the bit: numpy's
    default 'linear' rule read off ``a`` without its copy and partition."""
    index = (a.size - 1) * (np.asarray(q, dtype=float) / 100)
    below = np.floor(index)
    t = index - below
    lo = a[np.minimum(below, a.size - 1).astype(np.intp)]
    hi = a[np.minimum(below + 1, a.size - 1).astype(np.intp)]
    step = hi - lo
    # numpy's lerp, including its branch that interpolates down from hi
    return np.where(t >= 0.5, hi - step * (1 - t), lo + step * t)


def _mapped_array(size: int) -> np.ndarray:
    """A float array of ``size`` zeros in its own private anonymous mapping,
    outside every malloc arena; CPython unmaps it when the last view dies."""
    buf = mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray(size, buffer=buf)


def correlation_dimension(window, params: FeatureParams = DEFAULT_PARAMS) -> float:
    """Correlation dimension via the Grassberger-Procaccia correlation sum.

    The window is delay-embedded in ``params.cd_embed_dim`` dimensions at
    lag ``params.cd_lag`` (null: the first autocorrelation minimum).  C(r) is
    the fraction of embedded point pairs closer than r, evaluated on a
    log-spaced radius grid between the 2nd and 98th percentile of the
    nonzero pairwise distances; the dimension is the log-log slope fitted
    over the longest stable linear region (5+ grid points with local slopes
    within 20%).  A degenerate (constant) window returns 0.

    The distances are sorted once: the percentiles are read off the sorted
    array and C(r) is the rank of r in it, found by binary search.  They live
    in their own mapping (``_mapped_array``), so the largest buffer of the
    feature pipeline never enters a malloc arena or raises glibc's mmap
    threshold for the smaller buffers after it.
    """
    from scipy.spatial.distance import pdist

    x = _decimate(_samples(window), params.max_points)
    if np.ptp(x) == 0.0:
        return 0.0
    lag = params.cd_lag if params.cd_lag is not None else _first_acf_minimum(x)
    points = _embed(x, params.cd_embed_dim, lag)
    m = points.shape[0]
    dists = pdist(points, out=_mapped_array(m * (m - 1) // 2))
    dists.sort()
    dists = dists[np.searchsorted(dists, 0.0, "right"):]  # drop coincident pairs
    if dists.size == 0:
        return 0.0
    lo, hi = _sorted_percentiles(dists, (2.0, 98.0))
    lo = max(lo, hi * 1e-12)
    radius_grid = np.geomspace(lo, hi, 20)
    corr = np.searchsorted(dists, radius_grid, side="left") / dists.size
    valid = corr > 0.0
    if np.count_nonzero(valid) < 2:
        return 0.0
    log_r = np.log(radius_grid[valid])
    log_c = np.log(corr[valid])
    run = _stable_slope_run(log_r, log_c)
    if run is None:
        warnings.warn("no stable scaling region found; fitting the full grid",
                      RuntimeWarning, stacklevel=2)
        run = slice(0, log_r.size)
    slope = np.polyfit(log_r[run], log_c[run], 1)[0]
    return float(slope)


def degradation_index(ae_series: Sequence[float], baseline_len: int) -> np.ndarray:
    """Deviation of each value from the healthy baseline, in baseline std units.

    The first ``baseline_len`` values define the healthy regime; each value
    is scored as |value - baseline mean| / baseline std (population std,
    clamped below by 1e-12).
    """
    ae = np.asarray(ae_series, dtype=float)
    if baseline_len < 2:
        raise ValueError(f"baseline needs at least 2 values, got {baseline_len}")
    if baseline_len >= ae.size:
        raise ValueError(
            f"baseline length {baseline_len} must be shorter than the series ({ae.size})"
        )
    base = ae[:baseline_len]
    sd = max(float(np.std(base)), 1e-12)
    return np.abs(ae - base.mean()) / sd


def normalize_feature_names(feature_set: Iterable[str]) -> tuple[str, ...]:
    """Lowercase and validate feature names against the supported set."""
    names = tuple(str(name).strip().lower() for name in feature_set)
    if not names:
        raise ConfigError("feature set is empty")
    for name in names:
        if name not in FEATURE_NAMES:
            raise ConfigError(
                f"unknown feature name: {name!r} (choose from {', '.join(FEATURE_NAMES)})"
            )
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate feature names in {names}")
    return names


def _outcome(name: str, window: SignalWindow, params: FeatureParams):
    """Kernel ``name``'s value on the window, or the exception it raised."""
    try:
        return _KERNELS[name](window, params)
    except Exception as exc:
        return exc


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def extract_features(windows: Iterable[SignalWindow], feature_set: Iterable[str],
                     params: FeatureParams = DEFAULT_PARAMS,
                     labeled: bool = False) -> TrainingTable:
    """Compute one feature row per window, columns in ``feature_set`` order.

    Windows are consumed lazily, one at a time, so recordings never have to
    be materialized; only the scalar feature values are retained.  With
    ``labeled=True`` each row gets rho = tau / total life, the total life
    being the last window timestamp (run-to-failure convention).

    A window's kernels run on the CPUs this process may use, at most one
    thread per kernel.  The calling thread computes the costliest kernel (the
    latest in ``_KERNELS``) and a pool runs the others; on one CPU every kernel
    runs inline and no thread starts.  Results, and the error raised (the first
    failing kernel in ``feature_set`` order), do not depend on the CPU count.
    """
    names = normalize_feature_names(feature_set)
    base_names = tuple(n for n in names if n != "diae")
    if "diae" in names and "ae" not in base_names:
        base_names = base_names + ("ae",)
    by_cost = sorted(base_names, key=list(_KERNELS).index, reverse=True)
    threads = min(_usable_cpus(), len(by_cost)) - 1
    inline = by_cost[:1] if threads else by_cost
    pooled = by_cost[len(inline):]

    taus: list[float] = []
    rows: list[list[float]] = []
    # threads start at the first submit, so an empty ``pooled`` starts none
    with ThreadPoolExecutor(max(1, threads)) as pool:
        for w in windows:
            if taus and w.timestamp <= taus[-1]:
                raise ValueError(
                    f"window timestamps must be strictly increasing "
                    f"({w.timestamp} after {taus[-1]})")
            taus.append(w.timestamp)
            pending = {n: pool.submit(_outcome, n, w, params) for n in pooled}
            done = {n: _outcome(n, w, params) for n in inline}
            row = [done[n] if n in done else pending[n].result() for n in base_names]
            for value in row:
                if isinstance(value, Exception):
                    raise value
            rows.append(row)

    if not rows:
        raise ValueError("no windows to extract features from")

    columns = dict(zip(base_names, np.array(rows).T))
    if "diae" in names:
        baseline_len = max(2, int(round(params.diae_baseline_frac * len(rows))))
        columns["diae"] = degradation_index(columns["ae"], baseline_len)

    taus = np.array(taus)
    if labeled and not taus[-1] > 0:
        raise ValueError(f"total life must be positive, got {taus[-1]}: labeled rows "
                         "take it from the last window's time; a loader's first is 0 s")
    return TrainingTable(
        features=np.column_stack([columns[n] for n in names]),
        rho=taus / taus[-1] if labeled else None,
        taus=taus,
        feature_names=names,
    )


def write_feature_csv(path, table: TrainingTable) -> None:
    """Persist a table as `k,tau,<features...>,rho` (rho blank when absent),
    which read_feature_csv reads back as an equal table."""
    rhos = [None] * table.n_rows if table.rho is None else table.rho
    write_csv(path, ["k", "tau", *table.feature_names, "rho"],
              ([k, tau, *values, rho] for k, (tau, values, rho)
               in enumerate(zip(table.taus, table.features, rhos), start=1)))


def _cell(value) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    if value is None or not math.isfinite(value):
        return ""  # indeterminate or absent
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """The one result-CSV writer: strings and ints as they are, other numbers
    at full precision, None and non-finite values as empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def read_feature_csv(path):
    """Load a feature CSV back into a TrainingTable (rho None when unlabeled);
    the table's own checks, the column names' included, name the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["k", "tau"] or header[-1] != "rho":
            raise ConfigError(f"{path}: expected header k,tau,<features...>,rho")
        names = tuple(header[2:-1])
        if not names:
            raise ConfigError(f"{path}: no feature columns")
        taus, values, rhos = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ConfigError(f"{path}:{lineno}: expected {len(header)} columns")
            cells = [cell(text, ConfigError, path, lineno, name)
                     for text, name in zip(row[1:-1], header[1:-1])]
            taus.append(cells[0])
            values.append(cells[1:])
            labeled = row[-1] != ""  # an empty rho column means unlabeled rows
            if len(taus) > 1 and labeled != bool(rhos):
                raise ConfigError(f"{path}:{lineno}: column 'rho': empty and "
                                  "filled cells mixed")
            if labeled:
                rhos.append(cell(row[-1], ConfigError, path, lineno, "rho"))
                if not 0.0 <= rhos[-1] <= 1.0:
                    raise ConfigError(f"{path}:{lineno}: column 'rho': {row[-1]!r} "
                                      "is outside [0, 1]")
    if not taus:
        raise ConfigError(f"{path}: no data rows")
    with located(path):
        return TrainingTable(
            features=np.array(values),
            rho=np.array(rhos) if rhos else None,
            taus=np.array(taus),
            feature_names=names,
        )
