"""Lifetime bookkeeping, RUL conversion, smoothing and evaluation metrics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, integer, located
from .features import write_csv
from .fis import TSFISModel, predict_table

# Ratio estimates below this floor make the remaining-life conversion blow
# up; they are reported as indeterminate (NaN) instead.
RHO_FLOOR = 1e-3

INDETERMINATE = math.nan

# Savitzky-Golay polynomial order and frame length of the RUL smoothing.
SG_ORDER, SG_FRAME = 2, 61


def pul_ratio(tau: float, total_life: float) -> float:
    """Past-useful-life ratio tau / total_life, in [0, 1]."""
    if not total_life > 0:
        raise ValueError(f"total life must be positive, got {total_life}")
    if tau < 0 or tau > total_life:
        raise ValueError(f"tau must lie in [0, {total_life}], got {tau}")
    return tau / total_life


def rul_from_ratio(rho_hat: float, tau: float) -> float:
    """Remaining useful life (1/rho - 1) * tau; NaN when rho is below
    RHO_FLOOR or at tau = 0, where the product is 0 whatever the ratio."""
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    if rho_hat > 1.0:
        raise ValueError(f"ratio estimate must not exceed 1, got {rho_hat}")
    if not rho_hat >= RHO_FLOOR or tau == 0:  # also catches NaN
        return INDETERMINATE
    return (1.0 / rho_hat - 1.0) * tau


def check_filter(sg_order: int = SG_ORDER, sg_frame: int = SG_FRAME) -> tuple[int, int]:
    """``(sg_order, sg_frame)``; ConfigError unless integers, frame odd, 0 <= order < frame."""
    integer(sg_order, "sg_order")
    integer(sg_frame, "sg_frame")
    if sg_frame % 2 == 0:
        raise ConfigError(f"filter frame length must be odd, got {sg_frame}")
    if not 0 <= sg_order < sg_frame:
        raise ConfigError(f"polynomial order must satisfy 0 <= order < frame "
                          f"({sg_frame}), got {sg_order}")
    return sg_order, sg_frame


def savitzky_golay(series, order: int = SG_ORDER, frame: int = SG_FRAME) -> np.ndarray:
    """Least-squares polynomial smoothing over a centered frame.

    Each point takes the degree-``order`` least-squares polynomial over its
    frame, applied as a row of the projection ``V @ pinv(V)``, where ``V`` is
    the Vandermonde matrix of the offsets -h..h and h = frame // 2.  The
    first and last h points take the first or last frame's polynomial
    evaluated off-center (scipy's ``interp`` mode), so the output length
    equals the input length.  Series shorter than the frame pass through
    unchanged with a warning.
    """
    check_filter(order, frame)
    x = np.asarray(series, dtype=float)
    if x.size < frame:
        warnings.warn(
            f"series of {x.size} points is shorter than the filter frame "
            f"({frame}); returning it unsmoothed", RuntimeWarning, stacklevel=2)
        return x.copy()
    h = frame // 2
    vander = np.arange(-h, h + 1, dtype=float)[:, None] ** np.arange(order + 1)
    proj = vander @ np.linalg.pinv(vander)
    out = np.empty_like(x)
    out[h:x.size - h] = np.lib.stride_tricks.sliding_window_view(x, frame) @ proj[h]
    out[:h] = proj[:h] @ x[:frame]
    out[x.size - h:] = proj[h + 1:] @ x[x.size - frame:]
    return out


def smooth_rul(series, order: int = SG_ORDER, frame: int = SG_FRAME) -> np.ndarray:
    """Savitzky-Golay smoothing applied per contiguous finite run.

    Indeterminate (NaN) entries stay NaN; each maximal finite run is
    smoothed independently (short runs pass through unchanged).
    """
    x = np.asarray(series, dtype=float)
    out = x.copy()
    finite = np.isfinite(x)
    if not finite.any():
        return out
    boundaries = np.flatnonzero(np.diff(finite.astype(int)) != 0) + 1
    for segment in np.split(np.arange(x.size), boundaries):
        if segment.size and finite[segment[0]]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out[segment] = savitzky_golay(x[segment], order, frame)
    return out


def rrmse(true_rho, est_rho) -> float:
    """Relative root mean square error of the ratio estimates.

    Observations with a zero true ratio are dropped with a warning (the
    relative error divides by the true value).
    """
    t = np.asarray(true_rho, dtype=float)
    e = np.asarray(est_rho, dtype=float)
    if t.shape != e.shape or t.ndim != 1:
        raise ValueError("true and estimated sequences must be equal-length 1-D")
    if t.size == 0:
        raise ValueError("empty sequences")
    keep = t != 0.0
    if not keep.all():
        warnings.warn(
            f"dropping {np.count_nonzero(~keep)} observation(s) with zero true "
            "ratio from the relative error", RuntimeWarning, stacklevel=2)
    if not keep.any():
        raise ValueError("no observations with nonzero true ratio")
    rel = (t[keep] - e[keep]) / t[keep]
    return float(np.sqrt(np.mean(rel * rel)))


def arrmse(per_bearing) -> float:
    """Arithmetic mean of per-bearing RRMSE values."""
    values = np.asarray(per_bearing, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one bearing")
    return float(values.mean())


@dataclass
class BearingEvaluation:
    """Per-observation curves and the summary error for one test bearing."""

    bearing_id: str
    taus: np.ndarray
    rho_true: np.ndarray
    rho_hat_raw: np.ndarray
    rho_hat: np.ndarray          # clamped to [0, 1]
    rul_true: np.ndarray
    rul_hat: np.ndarray
    rul_hat_smoothed: np.ndarray
    rrmse: float


@dataclass
class EvaluationReport:
    """Evaluation of one identification method over several test bearings."""

    method: str
    bearings: list[BearingEvaluation]

    @property
    def arrmse(self) -> float:
        return arrmse([b.rrmse for b in self.bearings])


def rul_curves(model: TSFISModel, features, taus, sg_order: int = SG_ORDER,
               sg_frame: int = SG_FRAME):
    """``(raw, clamped, rul_hat, smoothed)`` for one bearing's rows: the model
    output, its [0, 1] clamp, the clamp's floored RUL conversion and that
    curve smoothed.  Rows out of time order are rejected."""
    taus = np.asarray(taus, dtype=float)
    if np.any(np.diff(taus) <= 0):
        raise ValueError("input rows are not in increasing time order")
    raw = predict_table(model, features, taus)
    clamped = np.clip(raw, 0.0, 1.0)
    rul_hat = np.array([rul_from_ratio(r, t) for r, t in zip(clamped, taus)])
    return raw, clamped, rul_hat, smooth_rul(rul_hat, sg_order, sg_frame)


def evaluate_model(model: TSFISModel, tables, sg_order: int = SG_ORDER,
                   sg_frame: int = SG_FRAME) -> EvaluationReport:
    """Run the model over labeled tables and collect error metrics and curves.

    ``tables`` maps bearing ids to labeled TrainingTable objects.  The error
    metric uses the raw model output; the RUL curves are those of rul_curves.
    The report's method is the model's variant.
    """
    evaluations = []
    for bearing_id, table in tables.items():
        with located(f"bearing {bearing_id}"):
            rho = table.labels("evaluation")
            raw, clamped, rul_hat, smoothed = rul_curves(
                model, table.features, table.taus, sg_order, sg_frame)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            error = rrmse(rho, raw)
        evaluations.append(BearingEvaluation(
            bearing_id=str(bearing_id),
            taus=np.asarray(table.taus, dtype=float),
            rho_true=rho,
            rho_hat_raw=raw,
            rho_hat=clamped,
            rul_true=np.array([
                rul_from_ratio(r, t) for r, t in zip(rho, table.taus)]),
            rul_hat=rul_hat,
            rul_hat_smoothed=smoothed,
            rrmse=error,
        ))
    if not evaluations:
        raise ValueError("no bearings to evaluate")
    return EvaluationReport(method=model.variant, bearings=evaluations)


def write_curves_csv(report: EvaluationReport, path) -> None:
    """Per-observation curves for external plotting; an empty RUL cell marks
    an indeterminate point."""
    write_csv(path, ["bearing", "k", "tau", "rho_true", "rho_hat", "rul_true",
                     "rul_hat", "rul_hat_smoothed"],
              ((b.bearing_id, k, *values) for b in report.bearings
               for k, values in enumerate(zip(
                   b.taus, b.rho_true, b.rho_hat_raw, b.rul_true, b.rul_hat,
                   b.rul_hat_smoothed), start=1)))


def write_summary_csv(reports, path) -> None:
    """Per-bearing RRMSE rows plus one ARRMSE row per method."""
    rows = []
    for report in reports:
        rows += [(report.method, b.bearing_id, b.rrmse) for b in report.bearings]
        rows.append((report.method, "ARRMSE", report.arrmse))
    write_csv(path, ["method", "bearing", "rrmse"], rows)
