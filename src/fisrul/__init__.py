"""Takagi-Sugeno fuzzy model identification for bearing RUL estimation."""

from .clustering import (
    ClusterConfig,
    ClusterSet,
    TrainingTable,
    concat_tables,
    input_sigmas,
    subtractive_cluster,
)
from .errors import ConfigError, LoadError
from .features import (
    FEATURE_NAMES,
    FeatureParams,
    SignalWindow,
    approximate_entropy,
    correlation_dimension,
    degradation_index,
    extract_features,
    largest_lyapunov,
    read_feature_csv,
    rms,
    spectral_entropy,
    write_feature_csv,
)
from .fis import (
    Estimate,
    TSFISModel,
    build_design_matrix,
    identify_baseline,
    identify_weighted,
    infer,
    load_model,
    predict_table,
    save_model,
)
from .mixture import TimeClusterParams, estimate_time_clusters
from .datasets import iter_ims, iter_phm, synth_bearing
from .rul import (
    EvaluationReport,
    arrmse,
    evaluate_model,
    pul_ratio,
    rrmse,
    rul_from_ratio,
    savitzky_golay,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterConfig", "ClusterSet", "TrainingTable", "concat_tables",
    "input_sigmas", "subtractive_cluster",
    "ConfigError", "LoadError",
    "FEATURE_NAMES", "FeatureParams", "SignalWindow",
    "approximate_entropy", "correlation_dimension", "degradation_index",
    "extract_features", "largest_lyapunov", "read_feature_csv", "rms",
    "spectral_entropy", "write_feature_csv",
    "Estimate", "TSFISModel", "build_design_matrix",
    "identify_baseline", "identify_weighted", "infer", "load_model",
    "predict_table", "save_model",
    "TimeClusterParams", "estimate_time_clusters",
    "iter_ims", "iter_phm", "synth_bearing",
    "EvaluationReport", "arrmse", "evaluate_model", "pul_ratio", "rrmse",
    "rul_from_ratio", "savitzky_golay",
    "__version__",
]
