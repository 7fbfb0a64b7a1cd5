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
    never reaches the requested height (apex below the plane). Raises
    ValueError unless the origin and velocity are finite 3-vectors and the
    gravity and landing height finite, and when the landing overflows.
    """
    if not (math.isfinite(gravity_m_s2) and gravity_m_s2 > 0):
        raise ValueError(f"gravity must be positive and finite, got {gravity_m_s2}")
    origin = np.asarray(origin_m, dtype=float)
    vel = np.asarray(velocity_m_s, dtype=float)
    if not (origin.shape == vel.shape == (3,) and math.isfinite(landing_height_m)
            and all(map(math.isfinite, origin.tolist() + vel.tolist()))):
        raise ValueError(f"the arc needs a finite origin, velocity (3-vectors) and landing "
                         f"height, got {origin_m}, {velocity_m_s} and {landing_height_m}")
    (ox, oy, oz), (vx, vy, vz) = origin.tolist(), vel.tolist()
    g = float(gravity_m_s2)
    # g/2 t^2 - vy t + (h - oy) = 0
    disc = vy * vy - 2.0 * g * (landing_height_m - oy)
    if disc < 0:
        return None
    t = (vy + math.sqrt(disc)) / g
    if t < 0:
        return None
    x, z = ox + vx * t, oz + vz * t
    if not (math.isfinite(x) and math.isfinite(z)):  # t too: x or z is then not finite
        raise ValueError(f"the arc from {origin_m} at {velocity_m_s} lands beyond the "
                         f"float range")
    return np.array([x, landing_height_m, z]), t


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
