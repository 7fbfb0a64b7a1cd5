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
        self._grid_rate_hz: float | None = None  # the rate whose _grid_times t_s is a prefix of

    @classmethod
    def _of_checked(cls, t_s, position_m, direction, pinch, grid_rate_hz=None) -> "HandTrace":
        """A trace of read-only columns that already pass the checks."""
        trace = object.__new__(cls)
        trace.t_s, trace.position_m, trace.direction, trace.pinch = t_s, position_m, direction, pinch
        trace._grid_rate_hz = grid_rate_hz
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
            start, _, step = index.indices(len(self))
            if step < 0:  # reversed times, which the checks reject
                return HandTrace(*columns)
            return HandTrace._of_checked(*columns, self._grid_rate_hz if (start, step) == (0, 1)
                                         else None)  # a prefix keeps the grid rate
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


def _time_aligned(left: HandTrace, right: HandTrace) -> bool:
    """Whether two equally long traces sample the same times, to 1e-9 s; two
    prefixes of one rate's grid do without a comparison."""
    rate = left._grid_rate_hz
    return (rate is not None and rate == right._grid_rate_hz) \
        or not np.any(np.abs(left.t_s - right.t_s) > 1e-9)


def minimum_jerk_profile(tau):
    """Normalized minimum-jerk position profile: 10 tau^3 - 15 tau^4 + 6 tau^5."""
    return tau * tau * tau * (10.0 + tau * (-15.0 + 6.0 * tau))


@functools.lru_cache(maxsize=8)
def _rate_times(sample_rate_hz: float) -> list[np.ndarray]:
    """The one time column kept per rate, in a list that _grid_times grows."""
    return [np.empty(0)]


def _grid_times(n: int, sample_rate_hz: float) -> np.ndarray:
    """The read-only times k / ``sample_rate_hz``, k < ``n``: a prefix of the
    rate's one column, rebuilt and checked (finite, strictly increasing) when
    a longer trace asks. A time depends on k alone, so all prefixes agree."""
    kept = _rate_times(sample_rate_hz)
    if len(kept[0]) < n:
        times = np.arange(n) / sample_rate_hz
        if not np.isfinite(times).all():
            raise ValueError(_NOT_FINITE)
        if not (times[1:] > times[:-1]).all():
            raise ValueError("timestamps must be strictly increasing")
        times.flags.writeable = False
        kept[0] = times
    return kept[0][:n]


def _grid(duration_s: float, sample_rate_hz: float, pinch_at_s: float | None) -> tuple:
    """(times, pinch, rate as a float) of a trace of ``duration_s`` at
    ``sample_rate_hz``, pinching from ``pinch_at_s`` on (never when None)."""
    for name, value in (("duration_s", duration_s), ("sample_rate_hz", sample_rate_hz)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not math.isfinite(duration_s * sample_rate_hz):
        raise ValueError(f"no trace holds duration_s={duration_s} at "
                         f"sample_rate_hz={sample_rate_hz}: the sample count overflows")
    if pinch_at_s is not None and math.isnan(pinch_at_s):
        raise ValueError(f"pinch_at_s must be a time or None, got {pinch_at_s}")
    t = _grid_times(int(round(duration_s * sample_rate_hz)) + 1, float(sample_rate_hz))
    pinch = np.zeros(len(t), dtype=bool) if pinch_at_s is None else t >= pinch_at_s
    pinch.flags.writeable = False
    return t, pinch, float(sample_rate_hz)


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
    times are a view of the rate's shared, checked column; only the
    positions and the one direction are checked.
    """
    if not (math.isfinite(tremor_sd_m) and tremor_sd_m >= 0):
        raise ValueError(f"tremor_sd_m must be finite and non-negative, got {tremor_sd_m}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    t, pinch, rate = _grid(duration_s, sample_rate_hz, pinch_at_s)
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
    tau = t / duration_s  # past 1 only where the rounded sample count overshoots
    reach = minimum_jerk_profile(tau if t[-1] <= duration_s else np.minimum(tau, 1.0))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite positions are rejected below
        pos = start + (end - start) * reach
        if tremor_sd_m > 0:
            pos += np.random.default_rng(seed).normal(0.0, tremor_sd_m, size=pos.shape)
    if not np.isfinite(pos).all():
        raise ValueError(f"the reach from {from_point_m} to {to_point_m} with tremor_sd_m="
                         f"{tremor_sd_m} leaves the float range")
    aims = aim[None].repeat(len(pos), axis=0)
    pos.flags.writeable = aims.flags.writeable = False
    return HandTrace._of_checked(t, pos, aims, pinch, rate)


@dataclass
class StationaryHand:
    """Convenience factory for a hand that stays put (confirmation hand)."""

    position_m: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.2, 0.2]))
    direction: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def trace(self, duration_s: float, sample_rate_hz: float = 100.0,
              pinch_at_s: float | None = None) -> HandTrace:
        """The hand's position and unit direction, checked once, over the
        times of ``duration_s`` at ``sample_rate_hz``. The constant columns
        repeat one read-only row with stride 0, so no (T, 3) array is made."""
        t, pinch, rate = _grid(duration_s, sample_rate_hz, pinch_at_s)
        position = _vector("StationaryHand.position_m", self.position_m).tobytes()
        direction = _vector("StationaryHand.direction", self.direction, unit=True).tobytes()
        # read-only (T, 3) views of one immutable copy of each row
        position = np.ndarray((len(t), 3), float, position, strides=(0, 8))
        direction = np.ndarray((len(t), 3), float, direction, strides=(0, 8))
        return HandTrace._of_checked(t, position, direction, pinch, rate)
