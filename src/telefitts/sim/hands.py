"""Synthetic hand-tracking traces.

Coordinate frame: x right, y up, z forward (meters). A trace holds
time-stamped samples with position, unit pointing direction, and the
index-finger pinch state, one array per field (:class:`HandTrace`).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-9
_NOT_FINITE = "hand trace times, positions and directions must be finite"


def _read_only(column: np.ndarray) -> np.ndarray:
    """A read-only view of ``column``; the caller's array stays writeable."""
    view = column.view()
    view.flags.writeable = False
    return view


def _vector(name: str, value, unit: bool = False) -> np.ndarray:
    """``value`` as a float 3-vector; ValueError naming ``name`` unless it is
    finite and, if ``unit``, of unit length by the trace's rule."""
    vector = np.asarray(value, dtype=float)
    if vector.shape == (3,):
        x, y, z = vector.tolist()
        if math.isfinite(x) and math.isfinite(y) and math.isfinite(z) and (
                not unit or abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= _UNIT_TOL):
            return vector
    rule = "a finite unit 3-vector" if unit else "a finite 3-vector"
    raise ValueError(f"{name} must be {rule}, got {value}")


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
        if not (np.isfinite(t_s).all() and np.isfinite(position_m).all()
                and np.isfinite(direction).all()):
            raise ValueError(_NOT_FINITE)
        norm = np.sqrt((direction * direction).sum(axis=1))  # as np.linalg.norm computes it
        if not np.abs(norm - 1.0).max(initial=0.0) <= _UNIT_TOL:
            raise ValueError("directions must be unit length")
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


#: Most pinch columns one grid keeps; past it a column is built per call.
_PINCHES_PER_GRID = 8


class _SampleGrid:
    """The read-only columns that every trace of one (duration, rate) shares:
    the times, checked once, the minimum-jerk reach profile as a (T, 1)
    column, and the pinch column of each ``pinch_at_s`` asked for."""

    def __init__(self, duration_s: float, sample_rate_hz: float) -> None:
        t = np.arange(int(round(duration_s * sample_rate_hz)) + 1) / sample_rate_hz
        if not np.isfinite(t).all():
            raise ValueError(_NOT_FINITE)
        if not (t[1:] > t[:-1]).all():
            raise ValueError("timestamps must be strictly increasing")
        reach = minimum_jerk_profile(np.minimum(t / duration_s, 1.0))[:, None]
        t.flags.writeable = reach.flags.writeable = False
        self.t_s, self.reach, self._pinches = t, reach, {}

    def pinch(self, pinch_at_s: float | None) -> np.ndarray:
        """Closed from ``pinch_at_s`` onward; never when it is None."""
        column = self._pinches.get(pinch_at_s)
        if column is None:
            if pinch_at_s is not None and math.isnan(pinch_at_s):
                raise ValueError(f"pinch_at_s must be a time or None, got {pinch_at_s}")
            column = self.t_s >= (math.inf if pinch_at_s is None else pinch_at_s)
            column.flags.writeable = False
            if len(self._pinches) < _PINCHES_PER_GRID:
                self._pinches[pinch_at_s] = column
        return column


@functools.lru_cache(maxsize=8)
def _cached_grid(duration_s: float, sample_rate_hz: float) -> _SampleGrid:
    return _SampleGrid(duration_s, sample_rate_hz)


def _sample_times(duration_s: float, sample_rate_hz: float) -> _SampleGrid:
    """The shared grid of a trace of ``duration_s`` at ``sample_rate_hz``,
    cached per (duration, rate) as floats once both are checked."""
    for name, value in (("duration_s", duration_s), ("sample_rate_hz", sample_rate_hz)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not math.isfinite(duration_s * sample_rate_hz):
        raise ValueError(f"no trace holds duration_s={duration_s} at "
                         f"sample_rate_hz={sample_rate_hz}: the sample count overflows")
    return _cached_grid(float(duration_s), float(sample_rate_hz))


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

    Deterministic per ``seed``, a non-negative integer. The endpoints must
    be finite 3-vectors. ``direction`` (default +z) is scaled to unit
    length; it must be a finite, non-zero 3-vector. ``pinch_at_s`` closes the
    index finger from that time onward, producing a single rising edge. The
    times and pinch come from the grid shared by every trace of this
    duration and rate; only the positions and the one direction are checked.
    """
    if not (math.isfinite(tremor_sd_m) and tremor_sd_m >= 0):
        raise ValueError(f"tremor_sd_m must be finite and non-negative, got {tremor_sd_m}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    grid = _sample_times(duration_s, sample_rate_hz)
    pinch = grid.pinch(pinch_at_s)
    aim = np.asarray((0.0, 0.0, 1.0) if direction is None else direction, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(aim)) if aim.shape == (3,) else math.nan
    if not 0.0 < norm < math.inf and aim.shape == (3,) and np.isfinite(aim).all() and aim.any():
        aim = aim / np.abs(aim).max()  # the squares overflow or underflow: rescale first
        norm = float(np.linalg.norm(aim))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"direction must be a finite, non-zero 3-vector, got {direction}")
    aim = _vector("direction", aim / norm, unit=True)
    start = _vector("from_point_m", from_point_m)
    end = _vector("to_point_m", to_point_m)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite positions are rejected below
        pos = start + (end - start) * grid.reach
        if tremor_sd_m > 0:
            pos += np.random.default_rng(seed).normal(0.0, tremor_sd_m, size=pos.shape)
    if not np.isfinite(pos).all():
        raise ValueError(f"the reach from {from_point_m} to {to_point_m} with tremor_sd_m="
                         f"{tremor_sd_m} leaves the float range")
    aims = aim[None].repeat(len(pos), axis=0)
    pos.flags.writeable = aims.flags.writeable = False
    return HandTrace._of_checked(grid.t_s, pos, aims, pinch)


@functools.lru_cache(maxsize=16)
def _stationary_trace(position: bytes, direction: bytes, duration_s: float,
                      sample_rate_hz: float, pinch_at_s: float | None) -> HandTrace:
    """A checked stationary hand's trace; its constant columns are read-only
    broadcasts of one row, so an entry holds no (T, 3) array."""
    grid = _cached_grid(duration_s, sample_rate_hz)
    shape = (len(grid.t_s), 3)
    return HandTrace._of_checked(grid.t_s, np.broadcast_to(np.frombuffer(position), shape),
                                 np.broadcast_to(np.frombuffer(direction), shape),
                                 grid.pinch(pinch_at_s))


@dataclass
class StationaryHand:
    """Convenience factory for a hand that stays put (confirmation hand)."""

    position_m: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.2, 0.2]))
    direction: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def trace(self, duration_s: float, sample_rate_hz: float = 100.0,
              pinch_at_s: float | None = None) -> HandTrace:
        """The hand's position and unit direction, checked once, over the
        grid of ``duration_s`` at ``sample_rate_hz``; the whole read-only
        trace is cached per (position, direction, grid, pinch time)."""
        _sample_times(duration_s, sample_rate_hz)  # checks both before they key the cache
        position = _vector("StationaryHand.position_m", self.position_m)
        direction = _vector("StationaryHand.direction", self.direction, unit=True)
        return _stationary_trace(position.tobytes(), direction.tobytes(), float(duration_s),
                                 float(sample_rate_hz), pinch_at_s)
