"""Pointer stabilization: constant-velocity Kalman smoothing and the
last-moment rollback that cancels confirmation-gesture spikes."""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .hands import _NOT_FINITE, HandSample, HandTrace


#: Longest trace smoothed by the cached (T, T) operator; a longer one runs
#: the O(T) loop. The operator's memory grows as T^2, and past about 410
#: samples OpenBLAS splits its (T, T) x (T, 6) product across threads: on a
#: 2-vCPU VM that product then took about 7 ms where the loop took 0.85 ms,
#: while at 400 samples the operator took 0.25 ms against the loop's 0.76 ms.
_OPERATOR_MAX_SAMPLES = 400


def kalman_smooth(trace: Sequence[HandSample], process_noise: float = 50.0,
                  measurement_noise: float = 1e-4) -> HandTrace:
    """Per-axis constant-velocity Kalman filter over positions and directions.

    State per channel is (value, velocity). The six channels (three position
    axes, three direction components) share one noise model, so one gain
    sequence, computed from the time steps alone, serves all. With its gains
    fixed the filter is a linear map of the samples, so a trace of at most
    ``_OPERATOR_MAX_SAMPLES`` samples is smoothed as ``z[0] + M @ (z - z[0])``
    on the stacked (T, 6) channels, with M the lower-triangular operator of
    ``_kalman_operator``; a longer trace runs each channel as one O(T) pass.
    The gains and the operator are cached per (time steps, process noise,
    measurement noise), as the QR factors of a design are: every trace
    sampled on the same grid reuses them. Directions are renormalized to unit
    length after filtering. The filter starts at the first sample with zero
    velocity, so the first sample and a constant trace pass through
    untouched. The result shares the input's times and pinch; its positions
    are checked finite, and the renormalizing vouches for its directions.
    """
    if not all(math.isfinite(v) and v > 0 for v in (process_noise, measurement_noise)):
        raise ValueError("noise parameters must be positive and finite")
    trace = HandTrace.from_samples(trace)
    if not len(trace):
        return trace
    key = (np.diff(trace.t_s).tobytes(), float(process_noise), float(measurement_noise))
    z = np.concatenate((trace.position_m, trace.direction), axis=1)
    if len(trace) <= _OPERATOR_MAX_SAMPLES:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite output is rejected below
            out = z[0] + _kalman_operator(*key) @ (z - z[0])
    else:
        gains = _kalman_gains(*key).tolist()
        out = np.array([_filter_channel(c, *gains) for c in z.T.tolist()], dtype=float).T
    position, direction = out[:, :3], _unit(out[:, 3:])
    if not np.isfinite(position).all():
        raise ValueError(_NOT_FINITE)
    position.flags.writeable = direction.flags.writeable = False
    return HandTrace._of_checked(trace.t_s, position, direction, trace.pinch)


@functools.lru_cache(maxsize=8)
def _kalman_gains(steps: bytes, q: float, r: float) -> np.ndarray:
    """Read-only (3, T - 1) rows dt, position gain and velocity gain per step
    of the Riccati recursion for a scalar position measurement, from
    P0 = diag(r, 1), for the float64 time steps in ``steps``. The recursion
    never sees the data, so a grid seen before costs one lookup."""
    p00, p01, p10, p11 = r, 0.0, 0.0, 1.0
    dts = np.frombuffer(steps).tolist()
    k0s, k1s = [], []
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
    gains = np.array([dts, k0s, k1s], dtype=float)
    gains.flags.writeable = False
    return gains


@functools.lru_cache(maxsize=8)
def _kalman_operator(steps: bytes, q: float, r: float) -> np.ndarray:
    """Read-only (T, T) lower-triangular M whose row i holds the weights of
    the samples in the filtered value i of a channel that starts at zero,
    built from the gains of ``_kalman_gains`` under the same key.

    With fixed gains a step is linear: it maps the state rows (value,
    velocity) over the samples, beside the indicator row of the new sample,
    to [[1 - k0, (1 - k0) dt, k0], [-k1, 1 - k1 dt, k1]] times them, one
    small product per step. Column 0 is zero: the first sample is the
    filter's start, which the caller subtracts."""
    gains = _kalman_gains(steps, q, r)
    n = gains.shape[1] + 1
    updates = np.empty((n - 1, 2, 3))
    updates[:, :, 2] = gains[1:].T
    updates[:, :, 0] = (1.0, 0.0) - updates[:, :, 2]
    updates[:, :, 1] = updates[:, :, 0] * gains[0, :, None] + (0.0, 1.0)
    states = np.zeros((n, 3, n))  # after step i: value, velocity, indicator of sample i + 1
    states[np.arange(n - 1), 2, np.arange(1, n)] = 1.0
    for update, state, following in zip(updates, states, states[1:, :2]):
        np.dot(update, state, out=following)
    operator = states[:, 0].copy()
    operator.flags.writeable = False
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
