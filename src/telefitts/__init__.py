"""Movement-time model fitting, comparison, and throughput analysis for
3D teleportation pointing, with a headless task simulator for ground-truth
validation."""

from .trials import (
    ConditionKey,
    ConditionSummary,
    IncompleteGridError,
    LogFormatError,
    Posture,
    Technique,
    Trial,
    TrialTable,
    Violation,
    collapse_over,
    group_by_condition,
    read_trial_log,
    sample_sd,
    validate_log,
    write_trial_log,
)
from .models import (
    AmplitudeMode,
    ModelKind,
    ModelSpec,
    MODEL_SPECS,
    PredictorRow,
    START_CUBE_DEPTH_M,
    TargetGeometry,
    amplitude_from_grid,
    geometry_for_condition,
    id_shannon,
    predict_mt,
    predictors_for,
    predictors_proposed,
    predictors_standard,
    predictors_two_part,
    predictors_vergence,
)
from .regression import (
    CollinearPredictorsError,
    FitResult,
    adj_r2,
    aic,
    bic,
    f_tail_probability,
    information_criteria,
    ols_fit,
    overall_f,
    partial_f,
)
from .comparison import (
    AicEvidence,
    BicEvidence,
    ComparisonReport,
    Criterion,
    EvidenceGrade,
    TABLE_GROUPS,
    compare_models,
    grade_delta,
    group_summaries,
    parse_records,
    render_records,
    render_table,
    run_table1_suite,
)
from .throughput import (
    ThroughputCell,
    ThroughputSummary,
    WE_SD_FACTOR,
    effective_amplitude,
    effective_id,
    effective_width,
    throughput_by_group,
    throughput_mean_of_means,
)

__version__ = "0.1.0"
