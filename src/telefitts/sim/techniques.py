"""Selection state machines for the five teleportation techniques.

Pointer control and confirmation are routed per technique: the pointer hand
casts the arc; confirmation is a pinch rising edge on the configured hand,
or dwell (arm held inside a radius for a threshold time) for RPDW, which
ignores pinches entirely.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..models import START_CUBE_DEPTH_M
from ..trials import Technique
from .hands import HandSample, HandTrace, _read_only, _time_aligned
from .kinematics import parabola_landing, sphere_hit_test
from .filters import KALMAN_MEASUREMENT_NOISE, KALMAN_PROCESS_NOISE, kalman_smooth, \
    spike_compensate

#: RPDW selects when the pointer hand stays within this radius of where it
#: began holding for this long.
DWELL_RADIUS_M = 0.3
DWELL_THRESHOLD_S = 0.8
#: Launch speed = base + gain * arm extension, the hand's distance from the
#: shoulder over the arm length, clamped to [0, 1].
LAUNCH_BASE_SPEED_M_S = 3.0
LAUNCH_EXTENSION_GAIN_M_S = 9.0
SHOULDER_M = _read_only(np.array([0.0, 1.4, 0.0]))
ARM_LENGTH_M = 0.7
START_CUBE_HEIGHT_M = 1.4

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
    spike_lookback_s: float = 0.1

    def __post_init__(self) -> None:
        if not isinstance(self.technique, Technique):
            raise ValueError(f"technique must be a Technique, got {self.technique!r}")
        if not (math.isfinite(self.spike_lookback_s) and self.spike_lookback_s >= 0):
            raise ValueError(f"spike_lookback_s must be finite and non-negative, "
                             f"got {self.spike_lookback_s}")

    @property
    def pointer_hand(self) -> str:
        return _HANDS[self.technique][0]

    @property
    def confirm_hand(self) -> str | None:
        return _HANDS[self.technique][1]


def _check_number(name: str, value: object, kind: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a real number, not
    a bool, that is finite and, for kind "positive" or "non-negative", > 0 or
    >= 0."""
    ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
          and math.isfinite(value))
    if ok and kind != "finite":
        ok = value > 0 if kind == "positive" else value >= 0
    if not ok:
        rule = "finite" if kind == "finite" else f"finite, {kind}"
        raise ValueError(f"{name} must be a {rule} number, got {value!r}")


def _check_fields(spec: object, **kinds: str) -> None:
    """:func:`_check_number` for each named field of ``spec``."""
    for name, kind in kinds.items():
        _check_number(f"{type(spec).__name__}.{name}", getattr(spec, name), kind)


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
    gravity_m_s2: ClassVar[float] = 9.81

    def start_cube_center(self) -> np.ndarray:
        return np.array([0.0, START_CUBE_HEIGHT_M, START_CUBE_DEPTH_M])

    def launch_velocity(self, sample: HandSample) -> np.ndarray:
        reach = float(np.linalg.norm(sample.position_m - SHOULDER_M))
        extension = min(max(reach / ARM_LENGTH_M, 0.0), 1.0)
        return sample.direction * (LAUNCH_BASE_SPEED_M_S + LAUNCH_EXTENSION_GAIN_M_S * extension)


@dataclass
class DwellState:
    anchor_position_m: np.ndarray
    anchor_t_s: float
    elapsed_s: float = 0.0


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
    radius_m: float = DWELL_RADIUS_M,
    threshold_s: float = DWELL_THRESHOLD_S,
) -> tuple[DwellState, bool]:
    """Advance the dwell timer; True when a selection fires on this sample.

    The anchor is the position where holding began; drifting beyond the
    radius re-anchors at the current sample and restarts the timer, as does
    a selection. This is :func:`run_trial`'s scan, one sample at a time.
    Raises ValueError naming ``radius_m`` or ``threshold_s`` unless it is a
    finite, non-negative number.
    """
    _check_number("radius_m", radius_m, "non-negative")
    _check_number("threshold_s", threshold_s, "non-negative")
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
    pointer trace through the Kalman filter, as a live pipeline stabilizes
    tracking jitter.
    """
    left, right = HandTrace.from_samples(left_trace), HandTrace.from_samples(right_trace)
    hands = {"left": left, "right": right}
    if len(left) != len(right):
        raise ValueError("hand traces must be sample-aligned")
    if not _time_aligned(left, right):
        raise ValueError("left/right samples must be time-aligned")
    pointer = hands[config.pointer_hand]
    if smooth_pointer:
        pointer = kalman_smooth(pointer, KALMAN_PROCESS_NOISE, KALMAN_MEASUREMENT_NOISE)
    if config.confirm_hand is None:
        events = _dwell_events(pointer.t_s, pointer.position_m, DWELL_RADIUS_M,
                               DWELL_THRESHOLD_S)
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
