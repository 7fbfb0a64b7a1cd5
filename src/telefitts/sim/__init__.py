"""Headless teleportation-task simulator."""

from .hands import HandSample, HandTrace, StationaryHand, minimum_jerk_profile, synth_hand_trace
from .filters import kalman_smooth, sample_at, spike_compensate
from .kinematics import parabola_landing, sphere_hit_test
from .techniques import (
    DwellState,
    SceneSpec,
    TargetPlacement,
    TechniqueConfig,
    TrialOutcome,
    dwell_update,
    run_trial,
)
from .study import (
    ConfigError,
    GroundTruth,
    REFERENCE_PROPOSED_ALL,
    REFERENCE_STANDARD_ALL,
    SIMULABLE_PROPOSED_ALL,
    StudyConfig,
    TECHNIQUE_MEAN_MT_S,
    balanced_latin_square,
    generate_study,
    load_study_config,
    model_exact_preset,
    realistic_preset,
    technique_offsets_from_means,
)
