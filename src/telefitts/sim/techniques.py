"""Selection state machines for the five teleportation techniques.

Pointer control and confirmation are routed per technique: the pointer hand
casts the arc; confirmation is a pinch rising edge on the configured hand,
or dwell (arm held inside a radius for a threshold time) for RPDW, which
ignores pinches entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..models import START_CUBE_DEPTH_M
from ..trials import Technique
from .hands import HandSample
from .kinematics import parabola_landing, sphere_hit_test
from .filters import kalman_smooth, spike_compensate

_POINTER_HAND = {
    Technique.RPRG: "right",
    Technique.RPLG: "right",
    Technique.LPLG: "left",
    Technique.LPRG: "left",
    Technique.RPDW: "right",
}

# None = confirmation comes from dwell, not a pinch edge.
_CONFIRM_HAND = {
    Technique.RPRG: "right",
    Technique.RPLG: "left",
    Technique.LPLG: "left",
    Technique.LPRG: "right",
    Technique.RPDW: None,
}


@dataclass(frozen=True)
class TechniqueConfig:
    technique: Technique
    dwell_threshold_s: float = 0.8
    dwell_radius_m: float = 0.3
    spike_lookback_s: float = 0.1
    kalman_process_noise: float = 50.0
    kalman_measurement_noise: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("dwell_threshold_s", "dwell_radius_m", "spike_lookback_s",
                     "kalman_process_noise", "kalman_measurement_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def pointer_hand(self) -> str:
        return _POINTER_HAND[self.technique]

    @property
    def confirm_hand(self) -> str | None:
        return _CONFIRM_HAND[self.technique]


@dataclass(frozen=True)
class LaunchSpeedModel:
    """Arm extension controls how far the arc flies: speed = base + gain * extension."""

    base_speed_m_s: float = 3.0
    extension_gain_m_s: float = 9.0

    def speed(self, extension_fraction: float) -> float:
        return self.base_speed_m_s + self.extension_gain_m_s * min(max(extension_fraction, 0.0), 1.0)


@dataclass(frozen=True)
class TargetPlacement:
    width_m: float
    distance_m: float
    height_m: float
    angle_deg: float = 0.0

    def center(self) -> np.ndarray:
        rad = math.radians(self.angle_deg)
        return np.array(
            [
                self.distance_m * math.sin(rad),
                self.height_m,
                self.distance_m * math.cos(rad),
            ]
        )


@dataclass(frozen=True)
class SceneSpec:
    """Task scene: fixed start cube, one spherical target on its platform."""

    target: TargetPlacement
    gravity_m_s2: float = 9.81
    launch: LaunchSpeedModel = LaunchSpeedModel()
    shoulder_m: tuple[float, float, float] = (0.0, 1.4, 0.0)
    arm_length_m: float = 0.7
    start_cube_height_m: float = 1.4

    def start_cube_center(self) -> np.ndarray:
        return np.array([0.0, self.start_cube_height_m, START_CUBE_DEPTH_M])

    def launch_velocity(self, sample: HandSample) -> np.ndarray:
        reach = float(np.linalg.norm(sample.position_m - np.asarray(self.shoulder_m)))
        extension = reach / self.arm_length_m if self.arm_length_m > 0 else 1.0
        return sample.direction * self.launch.speed(extension)


@dataclass
class DwellState:
    anchor_position_m: np.ndarray
    anchor_t_s: float
    elapsed_s: float = 0.0

    def progress(self, threshold_s: float) -> float:
        """Feedback fraction shown to the user while the timer runs."""
        if threshold_s <= 0:
            return 1.0
        return min(self.elapsed_s / threshold_s, 1.0)


def dwell_update(
    state: DwellState | None,
    sample: HandSample,
    radius_m: float = 0.3,
    threshold_s: float = 0.8,
) -> tuple[DwellState, bool]:
    """Advance the dwell timer; True when a selection fires on this sample.

    The anchor is the position where holding began; drifting beyond the
    radius re-anchors at the current sample and restarts the timer. After a
    selection fires the timer restarts from the current sample.
    """
    if state is None:
        state = DwellState(sample.position_m.copy(), sample.t_s)
    dist = float(np.linalg.norm(sample.position_m - state.anchor_position_m))
    if dist > radius_m:
        state = DwellState(sample.position_m.copy(), sample.t_s)
    state.elapsed_s = sample.t_s - state.anchor_t_s
    if state.elapsed_s >= threshold_s:
        return DwellState(sample.position_m.copy(), sample.t_s), True
    return state, False


@dataclass(frozen=True)
class TrialOutcome:
    movement_time_s: float
    endpoint_deviation_m: float
    error_attempts: int
    success: bool
    realized_amplitude_m: float
    selection_point_m: tuple[float, float, float]


@dataclass
class TechniqueState:
    """Mutable per-trial state threaded through technique_step."""

    start_t_s: float | None = None
    error_attempts: int = 0
    prev_pinch_left: bool = False
    prev_pinch_right: bool = False
    dwell: DwellState | None = None
    pointer_trace: list[HandSample] = field(default_factory=list)


def technique_step(
    config: TechniqueConfig,
    scene: SceneSpec,
    state: TechniqueState,
    left_sample: HandSample,
    right_sample: HandSample,
) -> TrialOutcome | None:
    """Feed one time-aligned pair of hand samples through the state machine.

    A confirmation (pinch rising edge on the configured hand, or dwell
    timeout for RPDW) rolls the pointer back by the spike lookback, casts
    the arc, and hit-tests the target sphere. Misses count as error attempts
    and the trial continues; a hit ends the trial.
    """
    if abs(left_sample.t_s - right_sample.t_s) > 1e-9:
        raise ValueError("left/right samples must be time-aligned")
    pointer = right_sample if config.pointer_hand == "right" else left_sample
    if state.start_t_s is None:
        state.start_t_s = pointer.t_s
    state.pointer_trace.append(pointer)

    confirmed = False
    if config.technique is Technique.RPDW:
        state.dwell, confirmed = dwell_update(
            state.dwell, pointer, config.dwell_radius_m, config.dwell_threshold_s
        )
    else:
        confirm_sample = right_sample if config.confirm_hand == "right" else left_sample
        prev = (
            state.prev_pinch_right
            if config.confirm_hand == "right"
            else state.prev_pinch_left
        )
        confirmed = confirm_sample.pinch and not prev
    state.prev_pinch_left = left_sample.pinch
    state.prev_pinch_right = right_sample.pinch

    if not confirmed:
        return None

    selection = spike_compensate(
        state.pointer_trace, pointer.t_s, config.spike_lookback_s
    )
    velocity = scene.launch_velocity(selection)
    landing = parabola_landing(
        selection.position_m,
        velocity,
        scene.gravity_m_s2,
        landing_height_m=scene.target.height_m,
    )
    target_center = scene.target.center()
    if landing is None:
        hit, deviation = False, math.inf
        point = selection.position_m
    else:
        point, _flight = landing
        hit, deviation = sphere_hit_test(point, target_center, scene.target.width_m)

    if not hit:
        state.error_attempts += 1
        return None
    return TrialOutcome(
        movement_time_s=pointer.t_s - state.start_t_s,
        endpoint_deviation_m=deviation,
        error_attempts=state.error_attempts,
        success=True,
        realized_amplitude_m=float(
            np.linalg.norm(point - scene.start_cube_center())
        ),
        selection_point_m=tuple(float(v) for v in point),
    )


def run_trial(
    config: TechniqueConfig,
    scene: SceneSpec,
    left_trace: list[HandSample],
    right_trace: list[HandSample],
    smooth_pointer: bool = False,
) -> TrialOutcome | None:
    """Run a full scripted trial; None if no successful selection occurs.

    ``smooth_pointer`` runs the pointer hand's trace through the Kalman
    filter with the config's tuning before stepping, the way a live
    pipeline stabilizes tracking jitter.
    """
    if len(left_trace) != len(right_trace):
        raise ValueError("hand traces must be sample-aligned")
    if smooth_pointer:
        smoothed = kalman_smooth(
            right_trace if config.pointer_hand == "right" else left_trace,
            config.kalman_process_noise,
            config.kalman_measurement_noise,
        )
        if config.pointer_hand == "right":
            right_trace = smoothed
        else:
            left_trace = smoothed
    state = TechniqueState()
    for left, right in zip(left_trace, right_trace):
        outcome = technique_step(config, scene, state, left, right)
        if outcome is not None:
            return outcome
    return None
