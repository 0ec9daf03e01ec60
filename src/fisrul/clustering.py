"""Subtractive clustering of the joint input-output training matrix.

Cluster centers are selected among the data rows by iterative potential
subtraction on min-max normalized columns; the number of accepted centers
fixes the rule count of the downstream fuzzy model, and the per-dimension
membership spreads follow from the influence radius and the raw column
ranges.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, number

# Byte budget of one row block of every quadratic kernel's buffer (clustering
# potentials, ApEn's closeness mask, the Lyapunov neighbour search), so their
# memory does not grow with the square of the row count.
_BLOCK_BYTES = 2**20


def row_blocks(n_rows: int, row_floats: int) -> list[tuple[int, int]]:
    """(start, stop) ranges over ``n_rows`` rows of ``row_floats`` floats
    each, every block within ``_BLOCK_BYTES`` (at least one row)."""
    step = max(1, _BLOCK_BYTES // (8 * row_floats))
    return [(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


@dataclass
class TrainingTable:
    """K observation rows: feature values, optional rho target, and times."""

    features: np.ndarray                 # K x I
    rho: np.ndarray | None = None        # K
    taus: np.ndarray = field(kw_only=True)  # K
    feature_names: tuple[str, ...] = ()  # distinct, none of the CSV's k, tau, rho

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        self.features = np.atleast_2d(features)  # a 1-D array is one row
        if self.features.shape[0] < 1 or features.ndim < 2 and not features.size:
            raise ValueError("training table has no rows")
        if self.features.shape[1] < 1:
            raise ValueError("training table has no feature columns")
        if not np.isfinite(self.features).all():
            raise ValueError("training table contains non-finite feature values")
        self.feature_names = tuple(self.feature_names) or tuple(
            f"f{i + 1}" for i in range(self.features.shape[1]))
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length does not match feature columns")
        for i, name in enumerate(self.feature_names):
            if not isinstance(name, str):
                raise ConfigError(f"column name {name!r} is not a string")
            if name in ("k", "tau", "rho", *self.feature_names[:i]):
                raise ConfigError(f"repeated column name {name!r}")
        if self.rho is not None:
            self.rho = np.asarray(self.rho, dtype=float)
            if self.rho.shape != (self.features.shape[0],):
                raise ValueError("rho length does not match row count")
            if not np.isfinite(self.rho).all():
                raise ValueError("rho contains non-finite values")
            if ((self.rho < 0) | (self.rho > 1)).any():
                raise ValueError("rho values must lie in [0, 1]")
        self.taus = np.asarray(self.taus, dtype=float)
        if self.taus.shape != (self.features.shape[0],):
            raise ValueError("taus length does not match row count")
        if not np.isfinite(self.taus).all():
            raise ValueError("taus contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def labels(self, purpose: str) -> np.ndarray:
        """The rho column, or a ConfigError saying that ``purpose`` needs it."""
        if self.rho is None:
            raise ConfigError(f"{purpose} needs the rho column")
        return self.rho

    @property
    def matrix(self) -> np.ndarray:
        """Joint input-output matrix: feature columns plus the rho column."""
        return np.hstack([self.features, self.labels("the joint matrix")[:, None]])


def concat_tables(tables) -> TrainingTable:
    """Pool several tables (e.g. training bearings) into one row stack."""
    tables = list(tables)
    if not tables:
        raise ValueError("no tables to concatenate")
    names = tables[0].feature_names
    for t in tables[1:]:
        if t.feature_names != names:
            raise ValueError(
                f"feature sets differ: {names} vs {t.feature_names}")
    has_rho = all(t.rho is not None for t in tables)
    if not has_rho and any(t.rho is not None for t in tables):
        raise ValueError("cannot pool labeled and unlabeled tables (rho column)")
    return TrainingTable(
        features=np.vstack([t.features for t in tables]),
        rho=np.concatenate([t.rho for t in tables]) if has_rho else None,
        taus=np.concatenate([t.taus for t in tables]),
        feature_names=names,
    )


@dataclass(frozen=True)
class ClusterConfig:
    """Subtractive-clustering radii and thresholds.

    ``ra`` is the influence radius and ``rb`` the squash radius (defaults to
    1.25 ra); candidates above ``eps_accept`` of the first potential are
    accepted, below ``eps_reject`` rejected, and the gray zone in between is
    resolved by the distance-ratio test.
    """

    ra: float = 0.5
    rb: float | None = None
    eps_accept: float = 0.5
    eps_reject: float = 0.15

    def __post_init__(self):
        for name in ("ra", "rb", "eps_accept", "eps_reject"):
            if not (name == "rb" and self.rb is None):
                number(getattr(self, name), name)
        if self.rb is None:
            object.__setattr__(self, "rb", 1.25 * self.ra)
        if not self.ra > 0:
            raise ConfigError(f"ra must be positive, got {self.ra}")
        if not self.rb > self.ra:
            raise ConfigError(f"rb must exceed ra, got rb={self.rb} ra={self.ra}")
        for name in ("ra", "rb"):
            r = float(getattr(self, name))
            # r * r overflows to inf where r**2 or an int square would raise,
            # and a zero square is never divided by
            if not (r * r > 0.0 and 0.0 < 4.0 / (r * r) < math.inf):
                raise ConfigError(f"{name} out of range: 4/{name}^2 must be a finite "
                                  f"positive number, got {name}={r}")
        if not 0 < self.eps_reject < self.eps_accept <= 1:
            raise ConfigError(
                f"thresholds must satisfy 0 < eps_reject < eps_accept <= 1, "
                f"got {self.eps_reject}, {self.eps_accept}")


@dataclass
class ClusterSet:
    """Accepted cluster centers (original units) and input membership spreads."""

    centers: np.ndarray        # J x (I+1): input coordinates plus output coordinate
    sigmas: np.ndarray         # I
    row_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def input_centers(self) -> np.ndarray:
        """Centers restricted to the input dimensions (the output column dropped)."""
        return self.centers[:, :-1]


def input_sigmas(table: TrainingTable, ra: float) -> np.ndarray:
    """Gaussian membership spreads: ra * column range / (2 sqrt 2), raw units.

    Constant columns carry no spread information; they are clamped to a tiny
    positive value with a warning so the membership functions stay defined.
    """
    vmax = table.features.max(axis=0)
    vmin = table.features.min(axis=0)
    sigmas = ra * (vmax - vmin) / (2.0 * np.sqrt(2.0))
    flat = sigmas <= 0.0
    if flat.any():
        cols = [table.feature_names[i] for i in np.flatnonzero(flat)]
        warnings.warn(
            f"constant feature column(s) {cols}: sigma clamped to a tiny value",
            RuntimeWarning, stacklevel=2)
        sigmas[flat] = 1e-9 * np.maximum(1.0, np.abs(vmax[flat]))
    return sigmas


def _sq_dists(normed: np.ndarray, start: int, stop: int, buf: np.ndarray) -> np.ndarray:
    """Squared distances from rows ``start:stop`` to every row: difference
    (written into ``buf``), then sum of squares, so each entry rounds the
    same whatever the block."""
    diff = np.subtract(normed[start:stop, None, :], normed[None, :, :],
                       out=buf[:stop - start])
    diff *= diff
    return diff.sum(axis=2)


def subtractive_cluster(table: TrainingTable, config: ClusterConfig | None = None
                        ) -> ClusterSet:
    """Select cluster centers among the joint input-output rows.

    Rows are min-max normalized per column, each row's potential is the sum
    of exp(-4 d^2 / ra^2) over all rows, and centers are picked greedily:
    the max-potential row is taken (ties broken by lowest row index), its
    exp(-4 d^2 / rb^2)-weighted potential is subtracted everywhere, and the
    next candidate is accepted or rejected against the thresholds, with the
    distance-ratio test arbitrating the gray zone.  The first candidate is
    always accepted, so at least one center is returned.

    Cost: O(K^2) time for K rows.  Potentials are summed over blocks of rows
    sized to ``_BLOCK_BYTES``, all in one difference buffer per call, and a
    distance row is formed only for an accepted center, so extra memory is
    bounded by that budget plus O(K).
    """
    config = config or ClusterConfig()
    data = table.matrix
    n_rows = data.shape[0]

    lo = data.min(axis=0)
    span = data.max(axis=0) - lo
    denom = np.where(span > 0.0, span, 1.0)
    normed = (data - lo) / denom

    alpha = 4.0 / config.ra**2
    beta = 4.0 / config.rb**2
    sigmas = input_sigmas(table, config.ra)
    # On the training rows each firing exponent sums I terms (v - c)^2/sigma^2
    # of at most 2 alpha; the potentials' alpha d^2, d^2 <= I+1, stay below that
    with np.errstate(divide="ignore", over="ignore"):
        finite = np.isfinite(1.0 / sigmas**2).all()
    if not (finite and math.isfinite(2.0 * table.n_features * alpha)):
        raise ValueError(f"ra out of range for this data: 1/sigma^2 of every spread "
                         f"and 8 I/ra^2 (I={table.n_features}) must be finite, "
                         f"got ra={config.ra}")
    blocks = row_blocks(n_rows, normed.size)
    buf = np.empty((blocks[0][1], *normed.shape))
    potential = np.empty(n_rows)
    for start, stop in blocks:
        potential[start:stop] = np.exp(
            -alpha * _sq_dists(normed, start, stop, buf)).sum(axis=1)

    def falloff(center: int) -> np.ndarray:
        return np.exp(-beta * _sq_dists(normed, center, center + 1, buf)[0])

    first = int(np.argmax(potential))
    p_ref = float(potential[first])
    accepted = [first]
    potential = potential - p_ref * falloff(first)

    while len(accepted) < n_rows:
        candidate = int(np.argmax(potential))
        p_star = float(potential[candidate])
        if p_star <= 0.0 or candidate in accepted:
            break
        ratio = p_star / p_ref
        if ratio > config.eps_accept:
            pass
        elif ratio < config.eps_reject:
            break
        else:
            gaps = normed[accepted] - normed[candidate]
            d_min = float(np.sqrt(np.sum(gaps * gaps, axis=1).min()))
            if d_min / config.ra + ratio < 1.0:
                potential[candidate] = 0.0
                continue
        accepted.append(candidate)
        potential = potential - p_star * falloff(candidate)

    indices = np.array(accepted, dtype=int)
    return ClusterSet(
        centers=data[indices].copy(),
        sigmas=sigmas,
        row_indices=indices,
    )
