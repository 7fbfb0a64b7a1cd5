"""Selection state machines for the five teleportation techniques.

Pointer control and confirmation are routed per technique: the pointer hand
casts the arc; confirmation is a pinch rising edge on the configured hand,
or dwell (arm held inside a radius for a threshold time) for RPDW, which
ignores pinches entirely.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields

import numpy as np

from ..models import START_CUBE_DEPTH_M
from ..trials import Technique
from .hands import HandSample, HandTrace, _time_aligned
from .kinematics import parabola_landing, sphere_hit_test
from .filters import kalman_smooth, spike_compensate

#: (pointer hand, confirming hand); None = dwell confirms, not a pinch edge.
_HANDS = {
    Technique.RPRG: ("right", "right"),
    Technique.RPLG: ("right", "left"),
    Technique.LPLG: ("left", "left"),
    Technique.LPRG: ("left", "right"),
    Technique.RPDW: ("right", None),
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
        if not isinstance(self.technique, Technique):
            raise ValueError(f"technique must be a Technique, got {self.technique!r}")
        for name, positive in _TECHNIQUE_CONFIG_CHECKS:
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                kind = "positive" if positive else "non-negative"
                raise ValueError(f"{name} must be finite and {kind}, got {value}")

    @property
    def pointer_hand(self) -> str:
        return _HANDS[self.technique][0]

    @property
    def confirm_hand(self) -> str | None:
        return _HANDS[self.technique][1]


#: (field, must be positive) of each number TechniqueConfig checks: every
#: field after the technique; kalman_smooth needs noise > 0.
_TECHNIQUE_CONFIG_CHECKS = tuple(
    (f.name, f.name.startswith("kalman")) for f in fields(TechniqueConfig)[1:]
)


@dataclass(frozen=True)
class LaunchSpeedModel:
    """Arm extension controls how far the arc flies: speed = base + gain * extension."""

    base_speed_m_s: float = 3.0
    extension_gain_m_s: float = 9.0

    def __post_init__(self) -> None:
        _check_fields(self, base_speed_m_s="non-negative", extension_gain_m_s="non-negative")

    def speed(self, extension_fraction: float) -> float:
        return self.base_speed_m_s + self.extension_gain_m_s * min(max(extension_fraction, 0.0), 1.0)


def _check_fields(spec: object, **kinds: str) -> None:
    """Raise ValueError unless each named field of ``spec`` (a number or a
    vector) is finite and, for kind "positive" or "non-negative", > 0 or >= 0."""
    for name, kind in kinds.items():
        value = getattr(spec, name)
        array = np.asarray(value, dtype=float)
        ok = np.isfinite(array)
        if kind != "finite":
            ok &= array > 0 if kind == "positive" else array >= 0
        if not ok.all():
            rule = "finite" if kind == "finite" else f"finite and {kind}"
            raise ValueError(f"{type(spec).__name__}.{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class TargetPlacement:
    width_m: float
    distance_m: float
    height_m: float
    angle_deg: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self, width_m="positive", distance_m="positive", height_m="non-negative",
                      angle_deg="finite")

    def center(self) -> np.ndarray:
        rad = math.radians(self.angle_deg)
        return np.array([self.distance_m * math.sin(rad), self.height_m,
                         self.distance_m * math.cos(rad)])


@dataclass(frozen=True)
class SceneSpec:
    """Task scene: fixed start cube, one spherical target on its platform."""

    target: TargetPlacement
    gravity_m_s2: float = 9.81
    launch: LaunchSpeedModel = LaunchSpeedModel()
    shoulder_m: tuple[float, float, float] = (0.0, 1.4, 0.0)
    arm_length_m: float = 0.7
    start_cube_height_m: float = 1.4

    def __post_init__(self) -> None:
        _check_fields(self, gravity_m_s2="positive", arm_length_m="positive",
                      start_cube_height_m="non-negative", shoulder_m="finite")

    def start_cube_center(self) -> np.ndarray:
        return np.array([0.0, self.start_cube_height_m, START_CUBE_DEPTH_M])

    def launch_velocity(self, sample: HandSample) -> np.ndarray:
        reach = float(np.linalg.norm(sample.position_m - np.asarray(self.shoulder_m)))
        return sample.direction * self.launch.speed(reach / self.arm_length_m)


@dataclass
class DwellState:
    anchor_position_m: np.ndarray
    anchor_t_s: float
    elapsed_s: float = 0.0

    def progress(self, threshold_s: float) -> float:
        """Feedback fraction shown to the user while the timer runs."""
        return 1.0 if threshold_s <= 0 else min(self.elapsed_s / threshold_s, 1.0)


def _dwell_events(
    t_s: np.ndarray, position_m: np.ndarray, radius_m: float, threshold_s: float,
    anchored: bool = False,
) -> Iterator[tuple[int, bool]]:
    """(index, fired) for each sample at which the dwell anchor moves.

    Sample 0 is the first anchor (``anchored``: its zero-elapsed check was
    made already). A sample beyond ``radius_m`` of the anchor re-anchors
    there; a timer reaching ``threshold_s`` fires and restarts from that
    sample. Look-ahead windows double until the next event: O(T) in all.
    """
    if not anchored and threshold_s <= 0 and len(t_s):
        yield 0, True
    anchor, start, window = 0, 1, 16
    while start < len(t_s):
        stop = min(start + window, len(t_s))
        far = np.linalg.norm(position_m[start:stop] - position_m[anchor], axis=1) > radius_m
        moved = np.flatnonzero(far | (t_s[start:stop] - t_s[anchor] >= threshold_s))
        if not moved.size:
            start, window = stop, 2 * window
            continue
        anchor, start, window = start + moved[0], start + moved[0] + 1, 16
        yield int(anchor), bool(not far[moved[0]] or threshold_s <= 0)


def dwell_update(
    state: DwellState | None,
    sample: HandSample,
    radius_m: float = 0.3,
    threshold_s: float = 0.8,
) -> tuple[DwellState, bool]:
    """Advance the dwell timer; True when a selection fires on this sample.

    The anchor is the position where holding began; drifting beyond the
    radius re-anchors at the current sample and restarts the timer, as does
    a selection. This is :func:`run_trial`'s scan, one sample at a time.
    """
    held = [] if state is None else [(state.anchor_t_s, state.anchor_position_m)]
    t_s, position_m = zip(*held, (sample.t_s, sample.position_m))
    anchor, fired = 0, False
    for anchor, fired in _dwell_events(np.array(t_s, dtype=float), np.array(position_m),
                                       radius_m, threshold_s, anchored=state is not None):
        pass
    return DwellState(position_m[anchor].copy(), t_s[anchor], t_s[-1] - t_s[anchor]), fired


@dataclass(frozen=True)
class TrialOutcome:
    movement_time_s: float
    endpoint_deviation_m: float
    error_attempts: int
    success: bool
    realized_amplitude_m: float
    selection_point_m: tuple[float, float, float]


def run_trial(
    config: TechniqueConfig,
    scene: SceneSpec,
    left_trace: Sequence[HandSample],
    right_trace: Sequence[HandSample],
    smooth_pointer: bool = False,
) -> TrialOutcome | None:
    """Run a full scripted trial; None if no successful selection occurs.

    Each confirmation (pinch rising edge on the configured hand, or dwell
    timeout of the pointer hand for RPDW) rolls the pointer back by the spike
    lookback, casts the arc and hit-tests the target sphere; a miss counts as
    an error attempt and the trial goes on. ``smooth_pointer`` first runs the
    pointer trace through the config's Kalman filter, as a live pipeline
    stabilizes tracking jitter.
    """
    left, right = HandTrace.from_samples(left_trace), HandTrace.from_samples(right_trace)
    hands = {"left": left, "right": right}
    if len(left) != len(right):
        raise ValueError("hand traces must be sample-aligned")
    if not _time_aligned(left, right):
        raise ValueError("left/right samples must be time-aligned")
    pointer = hands[config.pointer_hand]
    if smooth_pointer:
        pointer = kalman_smooth(pointer, config.kalman_process_noise,
                                config.kalman_measurement_noise)
    if config.confirm_hand is None:
        events = _dwell_events(pointer.t_s, pointer.position_m, config.dwell_radius_m,
                               config.dwell_threshold_s)
        confirmations: Iterable[int] = (i for i, fired in events if fired)
    else:
        pinch = hands[config.confirm_hand].pinch
        rising = pinch.copy()  # a pinch held from the first sample is an edge there
        rising[1:] &= ~pinch[:-1]
        confirmations = np.flatnonzero(rising).tolist()

    error_attempts = 0
    for i in confirmations:
        selection = spike_compensate(pointer[: i + 1], float(pointer.t_s[i]),
                                     config.spike_lookback_s)
        landing = parabola_landing(selection.position_m, scene.launch_velocity(selection),
                                   scene.gravity_m_s2, landing_height_m=scene.target.height_m)
        if landing is not None:
            point = landing[0]
            hit, deviation = sphere_hit_test(point, scene.target.center(), scene.target.width_m)
            if hit:
                return TrialOutcome(
                    movement_time_s=float(pointer.t_s[i] - pointer.t_s[0]),
                    endpoint_deviation_m=deviation,
                    error_attempts=error_attempts,
                    success=True,
                    realized_amplitude_m=float(np.linalg.norm(point - scene.start_cube_center())),
                    selection_point_m=tuple(point.tolist()),
                )
        error_attempts += 1
    return None
