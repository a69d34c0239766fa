"""Root-cause diagnosis: baselines, rule engine, normalization, scoring."""
from .baseline import (
    RATE_METRICS,
    BaselineProfile,
    fit_baseline,
    fit_baseline_from_dataset,
)
from .centroid import (
    FEATURE_ORDER,
    CentroidModel,
    centroid_fit,
    centroid_predict,
    centroid_predict_many,
    feature_vector,
)
from .normalize import normalize_row, normalize_rows, unit_baseline
from .rules import (
    DEFAULT_RULE_CONFIG,
    RULE_OPERANDS,
    RULES,
    Diagnosis,
    MissingMetricError,
    RuleConfig,
    RuleId,
    classify,
    classify_run_windows,
)
from .scoring import LABEL_SPACE, ClassScore, ScoreReport, score

__all__ = [
    "RATE_METRICS",
    "BaselineProfile",
    "fit_baseline",
    "fit_baseline_from_dataset",
    "FEATURE_ORDER",
    "CentroidModel",
    "centroid_fit",
    "centroid_predict",
    "centroid_predict_many",
    "feature_vector",
    "normalize_row",
    "normalize_rows",
    "unit_baseline",
    "DEFAULT_RULE_CONFIG",
    "RULE_OPERANDS",
    "RULES",
    "Diagnosis",
    "MissingMetricError",
    "RuleConfig",
    "RuleId",
    "classify",
    "classify_run_windows",
    "LABEL_SPACE",
    "ClassScore",
    "ScoreReport",
    "score",
]
