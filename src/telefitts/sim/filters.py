"""Pointer stabilization: constant-velocity Kalman smoothing and the
last-moment rollback that cancels confirmation-gesture spikes."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .hands import HandSample, HandTrace


def kalman_smooth(trace: Sequence[HandSample], process_noise: float = 50.0,
                  measurement_noise: float = 1e-4) -> HandTrace:
    """Per-axis constant-velocity Kalman filter over positions and directions.

    State per channel is (value, velocity). The six channels (three position
    axes, three direction components) share one noise model, so one gain
    sequence, computed from the time steps alone, serves all; each channel is
    then one O(T) pass. Directions are renormalized to unit length after
    filtering. The filter starts at the first sample with zero velocity, so a
    constant trace passes through untouched.
    """
    if not all(math.isfinite(v) and v > 0 for v in (process_noise, measurement_noise)):
        raise ValueError("noise parameters must be positive and finite")
    trace = HandTrace.from_samples(trace)
    if not len(trace):
        return trace
    gains = _kalman_gains(np.diff(trace.t_s).tolist(), process_noise, measurement_noise)
    channels = np.hstack([trace.position_m, trace.direction]).T.tolist()
    out = np.array([_filter_channel(z, gains) for z in channels]).T
    return HandTrace(trace.t_s, out[:, :3], _unit(out[:, 3:]), trace.pinch)


def _kalman_gains(dts: list[float], q: float, r: float) -> list[tuple[float, float, float]]:
    """(dt, position gain, velocity gain) per step of the Riccati recursion
    for a scalar position measurement, from P0 = diag(r, 1)."""
    p00, p01, p10, p11 = r, 0.0, 0.0, 1.0
    gains = []
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
        gains.append((dt, k0, k1))
    return gains


def _filter_channel(z: list[float], gains: list[tuple[float, float, float]]) -> list[float]:
    x, v = z[0], 0.0
    out = [x]
    for (dt, k0, k1), measured in zip(gains, z[1:]):
        x = x + dt * v
        innovation = measured - x
        x, v = x + k0 * innovation, v + k1 * innovation
        out.append(x)
    return out


def _unit(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit length along its last axis; near-zero vectors become +z."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    small = norm < 1e-12
    return np.where(small, np.array([0.0, 0.0, 1.0]), v / np.where(small, 1.0, norm))


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
    """Linearly interpolated sample at ``t_s``, clamped to the trace span."""
    trace = HandTrace.from_samples(trace)
    if t_s <= trace.t_s[0]:
        return trace[0]
    if t_s >= trace.t_s[-1]:
        return trace[-1]
    hi = int(np.searchsorted(trace.t_s, t_s, side="right"))
    lo = hi - 1
    w = (t_s - trace.t_s[lo]) / (trace.t_s[hi] - trace.t_s[lo])
    pos = trace.position_m[lo] * (1 - w) + trace.position_m[hi] * w
    direction = _unit(trace.direction[lo] * (1 - w) + trace.direction[hi] * w)
    return HandSample(t_s, pos, direction, bool(trace.pinch[lo]))
