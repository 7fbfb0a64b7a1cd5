"""Ballistic pointer arc: closed-form landing point and sphere hit testing."""

from __future__ import annotations

import math

import numpy as np


def parabola_landing(
    origin_m: np.ndarray,
    velocity_m_s: np.ndarray,
    gravity_m_s2: float = 9.81,
    landing_height_m: float = 0.0,
) -> tuple[np.ndarray, float] | None:
    """Where and when the arc cast from ``origin_m`` reaches the landing plane.

    Solves origin_y + v_y*t - g*t^2/2 = landing_height for the largest real
    non-negative root; x and z travel linearly. Returns None when the arc
    never reaches the requested height (apex below the plane).
    """
    if not gravity_m_s2 > 0:
        raise ValueError(f"gravity must be positive, got {gravity_m_s2}")
    origin = np.asarray(origin_m, dtype=float)
    vel = np.asarray(velocity_m_s, dtype=float)
    oy, vy = float(origin[1]), float(vel[1])
    g = float(gravity_m_s2)
    # g/2 t^2 - vy t + (h - oy) = 0
    disc = vy * vy - 2.0 * g * (landing_height_m - oy)
    if disc < 0:
        return None
    t = (vy + math.sqrt(disc)) / g
    if t < 0:
        return None
    landing = np.array([origin[0] + vel[0] * t, landing_height_m, origin[2] + vel[2] * t])
    return landing, t


def sphere_hit_test(
    landing_point_m: np.ndarray, target_center_m: np.ndarray, width_m: float
) -> tuple[bool, float]:
    """(hit, deviation): deviation is the distance from landing to center.

    The boundary is inclusive: a landing exactly on the sphere surface counts
    as a hit, since only selections outside the boundary are errors.
    """
    if not width_m > 0:
        raise ValueError(f"width_m must be positive, got {width_m}")
    offset = np.asarray(landing_point_m, float) - np.asarray(target_center_m, float)
    deviation = float(np.linalg.norm(offset))
    return deviation <= width_m / 2.0, deviation
