"""Synthetic hand-tracking traces.

Coordinate frame: x right, y up, z forward (meters). A trace holds
time-stamped samples with position, unit pointing direction, and the
index-finger pinch state, one array per field (:class:`HandTrace`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-9
_NOT_FINITE = "hand trace times, positions and directions must be finite"


def _check_motion(position_m: np.ndarray, direction: np.ndarray) -> None:
    """The rules for a trace's (T, 3) float positions and directions: all
    finite, and every direction of unit length."""
    if not (np.isfinite(position_m).all() and np.isfinite(direction).all()):
        raise ValueError(_NOT_FINITE)
    norm = np.sqrt((direction * direction).sum(axis=1))  # as np.linalg.norm computes it
    if not np.abs(norm - 1.0).max(initial=0.0) <= _UNIT_TOL:
        raise ValueError("directions must be unit length")


def _read_only(column: np.ndarray) -> np.ndarray:
    """A read-only view of ``column``; the caller's array stays writeable."""
    view = column.view()
    view.flags.writeable = False
    return view


@dataclass
class HandSample:
    t_s: float
    position_m: np.ndarray
    direction: np.ndarray
    pinch: bool = False

    def __post_init__(self) -> None:
        self.position_m = np.asarray(self.position_m, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)
        if not (self.position_m.shape == self.direction.shape == (3,) and math.isfinite(self.t_s)
                and all(map(math.isfinite, self.position_m.tolist()))
                and abs(math.hypot(*self.direction.tolist()) - 1.0) <= _UNIT_TOL):
            raise ValueError(f"a hand sample needs a finite time and position and a unit "
                             f"direction (3-vectors), got {self}")


class HandTrace(Sequence):
    """A hand trace as read-only arrays: ``t_s`` (T,), ``position_m`` (T, 3),
    ``direction`` (T, 3) and ``pinch`` (T,); checked like :class:`HandSample`,
    with strictly increasing times. As a ``Sequence[HandSample]`` it builds
    samples only when indexed (a slice is a trace viewing the same arrays),
    and it compares equal to a list of the same samples.
    """

    def __init__(self, t_s, position_m, direction, pinch=None) -> None:
        t_s = np.asarray(t_s, dtype=float)
        position_m = np.asarray(position_m, dtype=float)
        direction = np.asarray(direction, dtype=float)
        pinch = np.zeros(t_s.shape, dtype=bool) if pinch is None else np.asarray(pinch, dtype=bool)
        if t_s.ndim != 1 or pinch.shape != t_s.shape \
                or not position_m.shape == direction.shape == (len(t_s), 3):
            raise ValueError("a hand trace needs times and pinch (T,), "
                             "positions and directions (T, 3)")
        if not np.isfinite(t_s).all():
            raise ValueError(_NOT_FINITE)
        _check_motion(position_m, direction)
        if not (t_s[1:] > t_s[:-1]).all():
            raise ValueError("timestamps must be strictly increasing")
        self.t_s, self.position_m = _read_only(t_s), _read_only(position_m)
        self.direction, self.pinch = _read_only(direction), _read_only(pinch)

    @classmethod
    def _of_checked(cls, t_s, position_m, direction, pinch) -> "HandTrace":
        """A trace of read-only columns that already pass the checks."""
        trace = object.__new__(cls)
        trace.t_s, trace.position_m, trace.direction, trace.pinch = t_s, position_m, direction, pinch
        return trace

    def _with_motion(self, position_m: np.ndarray, direction: np.ndarray) -> "HandTrace":
        """This trace's times and pinch with new (T, 3) float positions and
        directions; only the new columns are checked."""
        _check_motion(position_m, direction)
        return HandTrace._of_checked(self.t_s, _read_only(position_m), _read_only(direction),
                                     self.pinch)

    @classmethod
    def from_samples(cls, samples: Sequence[HandSample]) -> "HandTrace":
        """The arrays of a sequence of samples; a trace is returned as is."""
        if isinstance(samples, HandTrace):
            return samples
        samples = list(samples)
        return cls([s.t_s for s in samples], np.reshape([s.position_m for s in samples], (-1, 3)),
                   np.reshape([s.direction for s in samples], (-1, 3)), [s.pinch for s in samples])

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.t_s, self.position_m, self.direction, self.pinch

    def __len__(self) -> int:
        return len(self.t_s)

    def __getitem__(self, index):
        if isinstance(index, slice):
            columns = [col[index] for col in self.columns]
            if (index.step or 1) < 0:  # reversed times, which the checks reject
                return HandTrace(*columns)
            return HandTrace._of_checked(*columns)  # read-only, in-order slices
        i = range(len(self))[index]
        return HandSample(float(self.t_s[i]), self.position_m[i].copy(),
                          self.direction[i].copy(), bool(self.pinch[i]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, list) and all(isinstance(s, HandSample) for s in other):
            try:
                other = HandTrace.from_samples(other)
            except ValueError:  # samples that no trace can hold
                return False
        if not isinstance(other, HandTrace):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))

    def __repr__(self) -> str:
        return f"HandTrace({len(self)} samples)"


def minimum_jerk_profile(tau):
    """Normalized minimum-jerk position profile: 10 tau^3 - 15 tau^4 + 6 tau^5."""
    return tau * tau * tau * (10.0 + tau * (-15.0 + 6.0 * tau))


def _sample_times(duration_s: float, sample_rate_hz: float) -> np.ndarray:
    for name, value in (("duration_s", duration_s), ("sample_rate_hz", sample_rate_hz)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    samples = duration_s * sample_rate_hz
    if not math.isfinite(samples):
        raise ValueError(f"no trace holds duration_s={duration_s} at "
                         f"sample_rate_hz={sample_rate_hz}: the sample count overflows")
    return np.arange(int(round(samples)) + 1) / sample_rate_hz


def _pinch_column(t: np.ndarray, pinch_at_s: float | None) -> np.ndarray | None:
    """Pinch closed from ``pinch_at_s`` onward; None (never) when it is None."""
    if pinch_at_s is None:
        return None
    if math.isnan(pinch_at_s):
        raise ValueError(f"pinch_at_s must be a time or None, got {pinch_at_s}")
    return t >= pinch_at_s


def synth_hand_trace(
    from_point_m: np.ndarray,
    to_point_m: np.ndarray,
    duration_s: float,
    tremor_sd_m: float = 0.0,
    sample_rate_hz: float = 100.0,
    seed: int = 0,
    direction: np.ndarray | None = None,
    pinch_at_s: float | None = None,
) -> HandTrace:
    """Point-to-point reach with a minimum-jerk profile plus Gaussian tremor.

    Deterministic per seed. ``direction`` (default +z) is scaled to unit
    length; it must be a finite, non-zero 3-vector. ``pinch_at_s`` closes the
    index finger from that time onward, producing a single rising edge.
    """
    if not (math.isfinite(tremor_sd_m) and tremor_sd_m >= 0):
        raise ValueError(f"tremor_sd_m must be finite and non-negative, got {tremor_sd_m}")
    t = _sample_times(duration_s, sample_rate_hz)
    pinch = _pinch_column(t, pinch_at_s)
    aim = np.asarray((0.0, 0.0, 1.0) if direction is None else direction, dtype=float)
    norm = float(np.linalg.norm(aim)) if aim.shape == (3,) else math.nan
    if not (math.isfinite(norm) and norm > 0):
        raise ValueError(f"direction must be a finite, non-zero 3-vector, got {direction}")
    start = np.asarray(from_point_m, dtype=float)
    end = np.asarray(to_point_m, dtype=float)
    tau = np.minimum(t / duration_s, 1.0)
    pos = start + (end - start) * minimum_jerk_profile(tau)[:, None]
    if tremor_sd_m > 0:
        pos = pos + np.random.default_rng(seed).normal(0.0, tremor_sd_m, size=pos.shape)
    return HandTrace(t, pos, (aim / norm)[None].repeat(len(t), axis=0), pinch)


@dataclass
class StationaryHand:
    """Convenience factory for a hand that stays put (confirmation hand)."""

    position_m: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.2, 0.2]))
    direction: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def trace(self, duration_s: float, sample_rate_hz: float = 100.0,
              pinch_at_s: float | None = None) -> HandTrace:
        t = _sample_times(duration_s, sample_rate_hz)
        position = np.asarray(self.position_m, dtype=float)[None].repeat(len(t), axis=0)
        direction = np.asarray(self.direction, dtype=float)[None].repeat(len(t), axis=0)
        return HandTrace(t, position, direction, _pinch_column(t, pinch_at_s))
