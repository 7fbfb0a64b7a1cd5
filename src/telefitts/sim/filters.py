"""Pointer stabilization: constant-velocity Kalman smoothing and the
last-moment rollback that cancels confirmation-gesture spikes."""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .hands import _NOT_FINITE, HandSample, HandTrace, _grid_times, _read_only


#: Most samples of each rate's cached (T, T) operator, and the longest grid trace
#: it smooths. Its memory grows as T^2, and past about 410 samples OpenBLAS
#: threads the (T, T) x (T, 6) product: on a 2-vCPU VM it then took 7 ms where
#: the O(T) loop took 0.85 ms, and at 400 samples 0.25 ms against 0.76 ms.
_OPERATOR_MAX_SAMPLES = 400
#: The noise model run_trial smooths a pointer with.
KALMAN_PROCESS_NOISE = 50.0
KALMAN_MEASUREMENT_NOISE = 1e-4


def kalman_smooth(trace: Sequence[HandSample], process_noise: float = KALMAN_PROCESS_NOISE,
                  measurement_noise: float = KALMAN_MEASUREMENT_NOISE) -> HandTrace:
    """Per-axis constant-velocity Kalman filter over positions and directions.

    State per channel is (value, velocity). The six channels (three position
    axes, three direction components) share one noise model, so one gain
    sequence, computed from the time steps alone, serves all; with its gains
    fixed the filter is a linear map, ``z[0] + M @ (z - z[0])`` on the
    stacked (T, 6) channels. The filter is causal, so on a rate's grid a
    trace's M is a leading block of its ``_grid_filter``'s, bit for bit: a
    grid trace of at most ``_OPERATOR_MAX_SAMPLES`` samples takes a slice of
    M; longer grid traces and traces off a grid compute their gains and run
    the O(T) loop.
    The first sample and a constant trace pass through untouched; directions
    are renormalized and positions checked finite. The result shares times,
    pinch and grid.
    """
    if not all(math.isfinite(v) and v > 0 for v in (process_noise, measurement_noise)):
        raise ValueError("noise parameters must be positive and finite")
    trace = HandTrace.from_samples(trace)
    if not len(trace):
        return trace
    n, rate, q, r = len(trace), trace._grid_rate_hz, float(process_noise), float(measurement_noise)
    z = np.concatenate((trace.position_m, trace.direction), axis=1)
    if rate is not None and 1 < n <= _OPERATOR_MAX_SAMPLES:  # n = 1: no steps
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite output is rejected below
            out = z[0] + _grid_filter(rate, q, r).operator(n) @ (z - z[0])
    else:
        gains = _kalman_gains(np.diff(trace.t_s), q, r).tolist()
        out = np.array([_filter_channel(c, *gains) for c in z.T.tolist()]).T
    position, direction = out[:, :3], _unit(out[:, 3:])
    if not np.isfinite(position).all():
        raise ValueError(_NOT_FINITE)
    position.flags.writeable = direction.flags.writeable = False
    return HandTrace._of_checked(trace.t_s, position, direction, trace.pinch, rate)


class _GridFilter:
    """The read-only operator of one rate's grid and (q, r), grown when a
    longer grid trace asks, up to ``_OPERATOR_MAX_SAMPLES`` samples."""

    def __init__(self, rate_hz: float, q: float, r: float) -> None:
        self.rate_hz, self.noise = rate_hz, (q, r)
        self._operator = np.empty((0, 0))

    def operator(self, n: int) -> np.ndarray:
        """The (n, n) operator of an n-sample grid trace; a rebuild at least
        doubles it, up to the bound, so rising lengths rebuild it few times."""
        if len(self._operator) < n:
            size = min(max(n, 2 * len(self._operator)), _OPERATOR_MAX_SAMPLES)
            steps = np.diff(_grid_times(size, self.rate_hz))
            self._operator = _read_only(_kalman_operator(_kalman_gains(steps, *self.noise)))
        return self._operator[:n, :n]


#: The _GridFilter of each (rate, q, r), for the 8 used last.
_grid_filter = functools.lru_cache(maxsize=8)(_GridFilter)


def _kalman_gains(dts: np.ndarray, q: float, r: float) -> np.ndarray:
    """(3, T - 1) rows dt, position gain and velocity gain per step
    of the Riccati recursion for a scalar position measurement, from
    P0 = diag(r, 1), for the time steps ``dts``. The recursion never sees
    the data, and gain i depends on the steps up to i alone. A step whose
    power overflows a float raises ValueError naming it."""
    p00, p01, p10, p11 = r, 0.0, 0.0, 1.0
    dts = dts.tolist()
    k0s, k1s = [], []
    try:
        for dt in dts:
            # predict: P = F P F' + Q with F = [[1, dt], [0, 1]]
            a, b = p00 + dt * p10, p01 + dt * p11
            p00 = a + b * dt + q * dt ** 4 / 4.0
            p01 = b + q * dt ** 3 / 2.0
            p10 = p10 + dt * p11 + q * dt ** 3 / 2.0
            p11 = p11 + q * dt ** 2
            # update: K = P H' / (H P H' + r), P = (I - K H) P
            k0, k1 = p00 / (p00 + r), p10 / (p00 + r)
            p00, p01, p10, p11 = p00 - k0 * p00, p01 - k0 * p01, p10 - k1 * p00, p11 - k1 * p01
            k0s.append(k0)
            k1s.append(k1)
    except OverflowError:  # from a power; a product that overflows gives inf
        step = len(k0s)
        raise ValueError(f"time step {step} of the trace ({dts[step]!r} s) is too long "
                         f"to smooth") from None
    return np.array([dts, k0s, k1s], dtype=float)


def _kalman_operator(gains: np.ndarray) -> np.ndarray:
    """The (T, T) lower-triangular M whose row i weighs the samples in the
    filtered value i of a channel that starts at zero, for ``gains``.

    With fixed gains a step is linear: it maps the state rows (value,
    velocity) over the samples, beside the indicator row of the new sample,
    to [[1 - k0, (1 - k0) dt, k0], [-k1, 1 - k1 dt, k1]] times them, one
    small product per step; row i depends on the gains before step i alone.
    Column 0 is zero: the first sample is the filter's start, which the
    caller subtracts."""
    n = gains.shape[1] + 1
    updates = np.empty((n - 1, 2, 3))
    updates[:, :, 2] = gains[1:].T
    updates[:, :, 0] = (1.0, 0.0) - updates[:, :, 2]
    updates[:, :, 1] = updates[:, :, 0] * gains[0, :, None] + (0.0, 1.0)
    operator, state, following = np.zeros((n, n)), np.zeros((3, n)), np.empty((2, n))
    for i, update in enumerate(updates):
        state[2, i:i + 2] = 0.0, 1.0  # state: value, velocity, indicator of sample i + 1
        np.dot(update, state, out=following)
        state[:2] = following
        operator[i + 1] = following[0]
    return operator


def _filter_channel(z: list[float], dts: list[float], k0s: list[float],
                    k1s: list[float]) -> list[float]:
    x, v = z[0], 0.0
    out = [x]
    for dt, k0, k1, measured in zip(dts, k0s, k1s, z[1:]):
        x = x + dt * v
        innovation = measured - x
        x, v = x + k0 * innovation, v + k1 * innovation
        out.append(x)
    return out


def _unit(v: np.ndarray) -> np.ndarray:
    """(T, 3) ``v`` scaled to unit length along its rows; near-zero rows become
    +z. A row whose norm is not finite raises ValueError, so every row
    returned is a unit vector by the trace's rule."""
    x, y, z = v.T
    norm = np.sqrt(x * x + y * y + z * z)[:, None]  # summed in np.linalg.norm's order
    if not np.isfinite(norm).all():
        raise ValueError(_NOT_FINITE)
    if norm.min(initial=math.inf) < 1e-12:
        small = norm < 1e-12
        return np.where(small, np.array([0.0, 0.0, 1.0]), v / np.where(small, 1.0, norm))
    return v / norm


def spike_compensate(
    trace: Sequence[HandSample], confirmation_time_s: float, lookback_s: float = 0.1
) -> HandSample:
    """Pointer sample used for the selection: the state ``lookback_s`` before
    the confirmation, linearly interpolated.

    The confirmation gesture itself jerks the hand, so the selection rolls
    back to just before the gesture started. A lookback reaching past the
    trace start clamps to the first sample.
    """
    trace = HandTrace.from_samples(trace)
    if not len(trace):
        raise ValueError("empty trace")
    if not lookback_s >= 0:
        raise ValueError(f"lookback_s must be non-negative, got {lookback_s}")
    if not (trace.t_s[0] <= confirmation_time_s <= trace.t_s[-1]):
        raise ValueError(f"confirmation time {confirmation_time_s} outside trace span "
                         f"[{trace.t_s[0]}, {trace.t_s[-1]}]")
    return sample_at(trace, confirmation_time_s - lookback_s)


def sample_at(trace: Sequence[HandSample], t_s: float) -> HandSample:
    """Linearly interpolated sample at ``t_s``, clamped to the trace span
    (so +-inf give the last and first samples; NaN is rejected)."""
    trace = HandTrace.from_samples(trace)
    if not len(trace):
        raise ValueError("empty trace")
    if math.isnan(t_s):
        raise ValueError(f"cannot sample a trace at time t_s = {t_s}")
    if t_s <= trace.t_s[0]:
        return trace[0]
    if t_s >= trace.t_s[-1]:
        return trace[-1]
    hi = int(np.searchsorted(trace.t_s, t_s, side="right"))
    lo = hi - 1
    t_lo, t_hi = trace.t_s[lo:hi + 1].tolist()
    w = (t_s - t_lo) / (t_hi - t_lo)
    pos = trace.position_m[lo] * (1 - w) + trace.position_m[hi] * w
    x, y, z = (trace.direction[lo] * (1 - w) + trace.direction[hi] * w).tolist()
    norm = math.sqrt(x * x + y * y + z * z)  # summed in np.linalg.norm's order
    direction = np.array([0.0, 0.0, 1.0] if norm < 1e-12 else [x / norm, y / norm, z / norm])
    return HandSample(t_s, pos, direction, bool(trace.pinch[lo]))
