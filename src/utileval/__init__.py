"""utileval: decision-utility evaluation for probabilistic binary classifiers.

The package turns scored, labeled datasets into utility-centric evaluations:
cost-weighted empirical utility and its exact threshold sweep, ranking and
calibration quality, uncertainty via bootstrap resampling, a reproducible
synthetic study, small reference learners, and capacity-constrained selection
with group-dependent bonuses.  A command line front end (``utileval``) wraps
the main workflows with deterministic, manifest-carrying report files.

The package needs NumPy alone: the inverse normal CDF and the logistic
function it uses are in :mod:`utileval.special`.
"""

from .core import (
    ConfusionCounts,
    CostCoefficients,
    DecisionRule,
    DegenerateDataError,
    LabeledScores,
    ValidationError,
    confusion_at,
)
from .metrics import (
    CalibrationBin,
    CalibrationCurve,
    accuracy,
    auc_pairwise,
    auc_rank,
    brier,
    calibration_curve,
    ece,
    net_trust,
    roc_points,
)
from .utility import (
    UtilityCurve,
    age_discounted_coeffs,
    bayes_threshold,
    cost_family,
    empirical_utility,
    monotone_transform,
    utility_at_thresholds,
    utility_curve,
)
from .ranking import (
    EquityUtility,
    SelectionResult,
    equity_brute_force,
    equity_select,
    preserves_ranking,
    preserves_ranking_by_group,
)
from .simstudy import (
    CLASSIFIERS,
    Realization,
    SimStudyConfig,
    StudySummary,
    ThresholdBands,
    generate_realization,
    run_study,
    utility_threshold_curves,
)
from .learners import (
    ConvergenceError,
    CvResult,
    FeatureMatrix,
    LogisticModel,
    TuneResult,
    fit_logistic,
    kfold_cv,
    knn_scores,
    tune_and_compare,
)
from .stats import (
    BootstrapConfig,
    BootstrapResult,
    PairedTestResult,
    bootstrap_ci,
    paired_max_utility_test,
    sem,
)
from .dataio import (
    FeatureTable,
    file_digest,
    read_bonus_table,
    read_features,
    read_scores,
    write_csv,
    write_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "ValidationError",
    "DegenerateDataError",
    "CostCoefficients",
    "LabeledScores",
    "DecisionRule",
    "ConfusionCounts",
    "confusion_at",
    # metrics
    "CalibrationBin",
    "CalibrationCurve",
    "accuracy",
    "auc_pairwise",
    "auc_rank",
    "brier",
    "calibration_curve",
    "ece",
    "net_trust",
    "roc_points",
    # utility
    "UtilityCurve",
    "age_discounted_coeffs",
    "bayes_threshold",
    "cost_family",
    "empirical_utility",
    "monotone_transform",
    "utility_at_thresholds",
    "utility_curve",
    # ranking / equity
    "EquityUtility",
    "SelectionResult",
    "equity_brute_force",
    "equity_select",
    "preserves_ranking",
    "preserves_ranking_by_group",
    # simulation study
    "CLASSIFIERS",
    "Realization",
    "SimStudyConfig",
    "StudySummary",
    "ThresholdBands",
    "generate_realization",
    "run_study",
    "utility_threshold_curves",
    # learners
    "ConvergenceError",
    "CvResult",
    "FeatureMatrix",
    "LogisticModel",
    "TuneResult",
    "fit_logistic",
    "kfold_cv",
    "knn_scores",
    "tune_and_compare",
    # statistics
    "BootstrapConfig",
    "BootstrapResult",
    "PairedTestResult",
    "bootstrap_ci",
    "paired_max_utility_test",
    "sem",
    # data I/O
    "FeatureTable",
    "file_digest",
    "read_bonus_table",
    "read_features",
    "read_scores",
    "write_csv",
    "write_json",
]
