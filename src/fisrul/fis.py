"""Takagi-Sugeno rule base: inference and the two identification variants.

Both identifiers take the same cluster structure.  The baseline fits the
affine consequents against the plain normalized fulfillment degrees; the
weighted variant first estimates per-rule priors and Gaussian time clusters
from the training times and fits against the prior- and time-weighted
degrees, so the consequents absorb population and lifetime information.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .clustering import ClusterSet, TrainingTable
from .errors import ConfigError, number, read_json
from .mixture import (
    TimeClusterParams,
    estimate_time_clusters,
    firing_matrix,
    normalize_rows,
    weighted_firing_matrix,
)

MODEL_SCHEMA_VERSION = 2
ARRAY_KEYS = ("sigmas", "centers", "slopes", "offsets")
TIME_KEYS = ("priors", "centroids", "variances")  # time_params: null or these
MODEL_KEYS = ("schema_version", "feature_set", *ARRAY_KEYS, "time_params", "provenance")

# Relative singular-value cutoff for the consequent least-squares solve.
SVD_RCOND = 1e-10


class Rule(NamedTuple):
    """Read-only view of one rule, taken from a model's arrays: input center,
    affine consequent ``a . v + b`` and, for weighted models, its prior and
    time cluster."""

    center: np.ndarray
    a: np.ndarray
    b: float
    prior: float | None = None
    time_centroid: float | None = None
    time_variance: float | None = None


@dataclass
class TSFISModel:
    """Identified rule base of J rules over I features, stored as arrays."""

    centers: np.ndarray                   # J x I rule centers
    slopes: np.ndarray                    # J x I consequent slopes
    offsets: np.ndarray                   # J consequent offsets
    sigmas: np.ndarray                    # I shared membership spreads
    time_params: TimeClusterParams | None  # weighted variant only
    feature_set: tuple[str, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        self.slopes = np.asarray(self.slopes, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        self.feature_set = tuple(self.feature_set)
        if self.centers.ndim != 2 or 0 in self.centers.shape:
            raise ValueError("model needs a J x I center matrix, J and I >= 1")
        j, i = self.centers.shape
        shapes = (self.slopes.shape, self.offsets.shape, self.sigmas.shape)
        if shapes != ((j, i), (j,), (i,)):
            raise ValueError("slopes, offsets and sigmas do not match the J x I centers")
        if len(self.feature_set) != i:
            raise ValueError(f"feature_set has {len(self.feature_set)} name(s) "
                             f"for {i} feature columns")
        if (self.sigmas <= 0.0).any():
            raise ValueError("membership spreads must be strictly positive")
        with np.errstate(divide="ignore", over="ignore"):
            bad = self.sigmas[~np.isfinite(1.0 / self.sigmas**2)]
        if bad.size:
            raise ValueError(f"membership spreads must have a finite 1/sigma^2, "
                             f"got {bad.tolist()}")
        if self.time_params is not None and self.time_params.n_rules != j:
            raise ValueError("time parameters do not match the rule count")

    @property
    def variant(self) -> str:
        """"weighted" when the model has time parameters, else "baseline"."""
        return "baseline" if self.time_params is None else "weighted"

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def n_features(self) -> int:
        return self.sigmas.size

    @property
    def rules(self) -> tuple[Rule, ...]:
        """One read-only Rule view per rule, taken from the arrays."""
        tp = self.time_params
        return tuple(
            Rule(self.centers[j], self.slopes[j], float(self.offsets[j]),
                 *(() if tp is None else (float(tp.priors[j]),
                                          float(tp.centroids[j]),
                                          float(tp.variances[j]))))
            for j in range(self.n_rules))


class Estimate(NamedTuple):
    """Past-useful-life ratio estimate: raw aggregation output and the
    [0, 1]-clamped value used for RUL conversion."""

    raw: float
    clamped: float


def _estimates(model: TSFISModel, x: np.ndarray, taus) -> np.ndarray:
    """Raw estimates for the rows of a K x I float matrix, I the model's
    feature count; a weighted model needs the K observation times.  The one
    firing path, and the one input check (shape and finiteness), behind both
    infer and predict_table."""
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"expected K x {model.n_features} feature values, "
                         f"got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("feature values must be finite (no NaN or infinity)")
    if model.time_params is not None:
        taus = np.asarray(taus, dtype=float)  # None (no times) has shape ()
        if taus.shape != (x.shape[0],):
            raise ValueError(f"weighted model requires one observation time per "
                             f"row: expected shape ({x.shape[0]},), got {taus.shape}")
        if not np.isfinite(taus).all():
            raise ValueError("observation times must be finite (no NaN or infinity)")
        w = weighted_firing_matrix(x, taus, model.centers, model.sigmas,
                                   model.time_params)
    else:
        w = normalize_rows(firing_matrix(x, model.centers, model.sigmas))
    consequents = x @ model.slopes.T + model.offsets[None, :]
    return np.sum(w * consequents, axis=1)


def infer(model: TSFISModel, values, tau: float | None = None) -> Estimate:
    """Evaluate the rule base on one observation: the one-row predict_table.

    Weighted models additionally weight each rule by its prior and by the
    time membership of the observation, so ``tau`` must be provided.
    """
    v = np.asarray(values, dtype=float).reshape(1, -1)
    raw = float(_estimates(model, v, None if tau is None else [tau])[0])
    return Estimate(raw, min(max(raw, 0.0), 1.0))


def predict_table(model: TSFISModel, features, taus=None) -> np.ndarray:
    """Raw ratio estimates for every row of a K x I feature matrix; a
    weighted model needs the K observation times ``taus``."""
    return _estimates(model, np.atleast_2d(np.asarray(features, dtype=float)), taus)


def build_design_matrix(features, degrees) -> np.ndarray:
    """Stack rule-major blocks [w_j * v_1..v_I, w_j] for each row.

    Row k is the concatenation over rules j of the row's features scaled by
    the rule's degree, followed by the degree itself, so the least-squares
    coefficient vector reads [a_1, b_1, ..., a_J, b_J].
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    w = np.atleast_2d(np.asarray(degrees, dtype=float))
    if x.shape[0] != w.shape[0]:
        raise ValueError("feature rows must match degree rows")
    k = x.shape[0]
    extended = np.hstack([x, np.ones((k, 1))])
    blocks = w[:, :, None] * extended[:, None, :]
    return blocks.reshape(k, -1)


def solve_consequents(design, targets) -> np.ndarray:
    """Minimum-norm least squares via SVD with a relative cutoff.

    The normal-equations inverse is numerically unsafe for near-collinear
    designs; the SVD route honors the same minimization problem and warns
    when the design is rank deficient.
    """
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    beta, _, rank, _ = np.linalg.lstsq(design, targets, rcond=SVD_RCOND)
    if rank < design.shape[1]:
        warnings.warn(
            f"rank-deficient design matrix (rank {rank} < {design.shape[1]}); "
            "returning the minimum-norm solution", RuntimeWarning, stacklevel=2)
    return beta


def _identified(table: TrainingTable, clusters: ClusterSet, degrees: np.ndarray,
                time_params: TimeClusterParams | None,
                provenance: dict | None) -> TSFISModel:
    """Fit the consequents against the K x J rule degrees; the rule-major
    solution [a_1, b_1, ..., a_J, b_J] splits into slopes and offsets."""
    beta = solve_consequents(build_design_matrix(table.features, degrees), table.rho)
    blocks = beta.reshape(clusters.n_rules, -1)
    return TSFISModel(
        centers=clusters.input_centers.copy(),
        slopes=blocks[:, :-1],
        offsets=blocks[:, -1],
        sigmas=clusters.sigmas.copy(),
        time_params=time_params,
        feature_set=table.feature_names,
        provenance=provenance or {},
    )


def identify_baseline(table: TrainingTable, clusters: ClusterSet,
                      provenance: dict | None = None) -> TSFISModel:
    """Classic subtractive-clustering + least-squares identification."""
    if table.rho is None:
        raise ValueError("identification requires labeled rows (rho present)")
    w = firing_matrix(table.features, clusters.input_centers, clusters.sigmas)
    return _identified(table, clusters, normalize_rows(w), None, provenance)


def identify_weighted(table: TrainingTable, clusters: ClusterSet,
                      provenance: dict | None = None) -> TSFISModel:
    """Prior- and time-weighted least-squares identification.

    Steps: fulfillment degrees from the cluster structure; per-rule priors
    and Gaussian time clusters from their time projection; degrees reweighted
    by prior times time membership; consequents from the weighted
    least-squares solve.
    """
    if table.rho is None:
        raise ValueError("identification requires labeled rows (rho present)")
    w = firing_matrix(table.features, clusters.input_centers, clusters.sigmas)
    time_params = estimate_time_clusters(table.taus, normalize_rows(w))
    wtil = weighted_firing_matrix(table.features, table.taus,
                                  clusters.input_centers, clusters.sigmas,
                                  time_params)
    return _identified(table, clusters, wtil, time_params, provenance)


def save_model(model: TSFISModel, path) -> None:
    """Persist the model's arrays as a versioned JSON document (full float
    precision); ``time_params`` is null for a baseline model."""
    tp = model.time_params
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "feature_set": list(model.feature_set),
        **{key: getattr(model, key).tolist() for key in ARRAY_KEYS},
        "time_params": None if tp is None else {
            key: getattr(tp, key).tolist() for key in TIME_KEYS},
        "provenance": model.provenance,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _keys(obj, keys, where: str) -> None:
    """ConfigError naming ``where`` unless ``obj`` is an object with exactly
    the given keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    for problem, names in (("missing", [k for k in keys if k not in obj]),
                           ("unknown", [k for k in obj if k not in keys])):
        if names:
            raise ConfigError(f"{where}: {problem} key(s) {names}")


def _numbers(value, where: str) -> np.ndarray:
    """``value``, a JSON number or nested lists of them, as a float array; a
    ConfigError names its first cell that is no finite number, as ``where[i, j]``.
    Shapes are left to TSFISModel and TimeClusterParams."""
    cells = np.array(value, dtype=object)  # a ragged list keeps list cells
    for index, cell in np.ndenumerate(cells):
        number(cell, where + (str(list(index)) if index else ""))
    return cells.astype(float)


def load_model(path) -> TSFISModel:
    """Load a model persisted by save_model; inference round-trips exactly.

    Only schema 2, the arrays layout, is read: a schema-1 file (one object
    per rule) is refused, and re-running ``fisrul train`` writes a new one.
    A malformed document raises ConfigError naming the file and the key.
    """
    doc = read_json(path)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != MODEL_SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported model schema version: {version} (re-run "
                          f"`fisrul train` to write version {MODEL_SCHEMA_VERSION})")
    _keys(doc, MODEL_KEYS, str(path))
    names, tp, provenance = doc["feature_set"], doc["time_params"], doc["provenance"]
    if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
        raise ConfigError(f"{path}: feature_set: expected a list of names, got {names!r}")
    if not isinstance(provenance, dict):
        raise ConfigError(f"{path}: provenance: expected an object, got {provenance!r}")
    if tp is not None:
        _keys(tp, TIME_KEYS, f"{path}: time_params")
        tp = {key: _numbers(tp[key], f"{path}: time_params: {key}") for key in TIME_KEYS}
    arrays = {key: _numbers(doc[key], f"{path}: {key}") for key in ARRAY_KEYS}
    try:
        return TSFISModel(**arrays, feature_set=tuple(names), provenance=provenance,
                          time_params=None if tp is None else TimeClusterParams(**tp))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
