"""Rule fulfillment degrees and their maximum-likelihood time projection.

The normalized degree of fulfillment of each rule doubles as the estimated
probability that an observation belongs to the rule's degradation regime.
Averaging those probabilities gives per-rule priors, and projecting them
onto the observation times gives a Gaussian time cluster per rule; both are
then used to weight the fulfillment degrees during identification and
online inference.  Every operation works on K x J matrices; the one-row
names (rule_firing, normalize_firing, weighted_firing) return row 0 of
their batch twin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Any normalization whose denominator falls below this floor returns the
# uniform distribution over rules, keeping inference total far from all
# centers.
UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True)
class TimeClusterParams:
    """Per-rule prior probability and Gaussian time-cluster parameters."""

    priors: np.ndarray          # J, sums to 1
    centroids: np.ndarray       # J, seconds
    variances: np.ndarray       # J, seconds^2, strictly positive

    def __post_init__(self):
        object.__setattr__(self, "priors", np.asarray(self.priors, dtype=float))
        object.__setattr__(self, "centroids", np.asarray(self.centroids, dtype=float))
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        p = self.priors
        if not (p.ndim == 1 and p.shape == self.centroids.shape == self.variances.shape):
            raise ValueError("priors, centroids and variances must be 1-D, of one length")
        if not (((p >= 0.0) & (p <= 1.0)).all() and abs(p.sum() - 1.0) <= 1e-9):
            raise ValueError(f"priors must lie in [0, 1] and sum to 1, got {p.tolist()}")
        if not np.isfinite(self.centroids).all():
            raise ValueError(f"time centroids must be finite, got {self.centroids.tolist()}")
        if (self.variances <= 0.0).any():
            raise ValueError("time variances must be strictly positive")
        with np.errstate(over="ignore"):
            bad = self.variances[~np.isfinite(1.0 / (2.0 * self.variances))]
        if bad.size:
            raise ValueError(f"time variances must have a finite 1/(2 variance), "
                             f"got {bad.tolist()}")

    @property
    def n_rules(self) -> int:
        return self.priors.size


def firing_matrix(features, centers, sigmas) -> np.ndarray:
    """Unnormalized fulfillment degrees for every row, K x J: the product of
    per-feature Gaussian memberships of each rule."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    s = np.asarray(sigmas, dtype=float)
    z = (x[:, None, :] - c[None, :, :]) / s
    return np.exp(-0.5 * np.sum(z * z, axis=2))


def rule_firing(values, centers, sigmas) -> np.ndarray:
    """Degrees of one observation: the single row of firing_matrix."""
    return firing_matrix(values, centers, sigmas)[0]


def normalize_rows(w_matrix) -> np.ndarray:
    """Normalize each row of a K x J degree matrix to sum to 1; a row whose
    sum underflows turns uniform."""
    w = np.atleast_2d(np.asarray(w_matrix, dtype=float))
    totals = w.sum(axis=1, keepdims=True)
    underflow = totals[:, 0] < UNDERFLOW_FLOOR
    safe = np.where(underflow[:, None], 1.0, totals)
    out = w / safe
    if underflow.any():
        out[underflow] = 1.0 / w.shape[1]
    return out


def normalize_firing(w) -> np.ndarray:
    """Normalize degrees to sum to 1; an all-underflowed vector turns uniform."""
    return normalize_rows(w)[0]


def check_time_rows(n_rows: int) -> None:
    """ValueError unless ``n_rows`` observations are enough (2) to estimate
    time clusters from."""
    if n_rows < 2:
        raise ValueError("need at least 2 observations to estimate time clusters")


def estimate_time_clusters(taus, wbar) -> TimeClusterParams:
    """Closed-form ML estimates of priors and per-rule time clusters.

    With the normalized fulfillment degrees read as membership probabilities,
    the prior of rule j is their mean over the K observations, and the time
    centroid/variance are the degree-weighted mean and variance of the
    observation times.  A zero variance (all of a rule's mass on one time)
    is clamped to (1% of the observation time span) squared.
    """
    taus = np.asarray(taus, dtype=float)
    w = np.atleast_2d(np.asarray(wbar, dtype=float))
    if taus.ndim != 1 or taus.size != w.shape[0]:
        raise ValueError("taus length must match the degree-matrix row count")
    check_time_rows(taus.size)
    # the sums below reach K max|tau| and K span^2; Python floats overflow quietly
    lo, hi = float(taus.min()), float(taus.max())
    span = hi - lo
    if not taus.size * max(hi, -lo, span * span) < np.inf:
        raise ValueError(f"observation times span [{lo}, {hi}]: too wide to estimate "
                         f"time clusters over {taus.size} rows")
    if not np.allclose(w.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("each degree-matrix row must sum to 1")

    priors = w.mean(axis=0)
    mass = w.sum(axis=0)
    # a fully underflowed rule column carries no mass; park its time cluster
    # at the series midpoint (its prior is 0, so it never fires anyway)
    empty = mass <= 0.0
    safe_mass = np.where(empty, 1.0, mass)
    centroids = (taus[:, None] * w).sum(axis=0) / safe_mass
    centroids = np.where(empty, taus.mean(), centroids)
    variances = (((taus[:, None] - centroids[None, :]) ** 2) * w).sum(axis=0) / safe_mass

    floor = (0.01 * span) ** 2 if span > 0.0 else 1.0
    degenerate = empty | (variances <= (1e-8 * max(span, 1.0)) ** 2)
    variances = np.where(degenerate, floor, variances)
    return TimeClusterParams(priors, centroids, variances)


def time_membership(tau, centroid, variance):
    """Gaussian time-cluster membership; broadcasts over rules."""
    tau = np.asarray(tau, dtype=float)
    return np.exp(-((tau - centroid) ** 2) / (2.0 * np.asarray(variance, dtype=float)))


def weighted_firing_matrix(features, taus, centers, sigmas,
                           time_params: TimeClusterParams) -> np.ndarray:
    """Row-normalized prior- and time-weighted degrees for every row: K x J."""
    w = firing_matrix(features, centers, sigmas)
    taus = np.asarray(taus, dtype=float)
    mt = time_membership(taus[:, None], time_params.centroids[None, :],
                         time_params.variances[None, :])
    return normalize_rows(time_params.priors[None, :] * mt * w)


def weighted_firing(values, tau, centers, sigmas,
                    time_params: TimeClusterParams) -> np.ndarray:
    """Weighted, normalized degrees of one observation at time tau."""
    return weighted_firing_matrix(values, [tau], centers, sigmas, time_params)[0]
