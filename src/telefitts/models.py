"""Predictor construction and prediction for the four movement-time models.

All four variants are linear in their predictors:

    Standard:  MT = a + b * log2(A/W + 1)
    Two-part:  MT = a + b1 * log2(A + W) - b2 * log2(W)
    Vergence:  MT = a + b  * log2(A/W + 1) + c * CTD
    Proposed:  MT = a + b1 * log2(A/W + 1) - b2 * log2(W / max(D, H) + 1)

Negative-signed terms are folded into the stored predictor, not the
coefficient, so fitted slopes are expected positive across the board;
``MODEL_SPECS`` writes equations in the conventional sign placement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

#: The study's condition grid: target widths W, teleport distances D and
#: heights H, meters, and the yaw angles a target is placed at, degrees.
GRID_WIDTHS_M = (0.2, 1.35)
GRID_DISTANCES_M = (3.0, 9.0)
GRID_HEIGHTS_M = (0.0, 3.0)
GRID_ANGLES_DEG = (-10.0, 0.0, 10.0)

#: Depth of the fixed start cube in front of the user, meters. Every trial
#: re-homes at the cube, so the change in target depth for a target at
#: depth D is |D - START_CUBE_DEPTH_M|.
START_CUBE_DEPTH_M = 0.59


def _frozen(cls: type, **fields):
    """An instance of ``cls`` holding these fields as given, without its
    ``__init__`` and ``__post_init__``: for values that are already checked,
    such as the group-by's quantized keys or a fit's diagnostics. A frozen
    dataclass's fields must come in declaration order, the order its
    ``__init__`` would set them in ``vars()``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def left_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` added one at a time, left to right, from 0: the
    bits ``sum`` gives up to Python 3.11. From 3.12 ``sum`` compensates the
    rounding of float sums, which would make every sum of floats, and the
    outputs built on them, depend on the Python version."""
    total = 0
    for value in values:
        total += value
    return total


class ModelKind(Enum):
    # Declaration order doubles as the deterministic tie-break order.
    STANDARD = "Standard"
    TWO_PART = "TwoPart"
    VERGENCE = "Vergence"
    PROPOSED = "Proposed"

    # Members are singletons, so identity hashes them; Enum's own __hash__
    # hashes the name in Python on every dict lookup.
    __hash__ = object.__hash__


class AmplitudeMode(Enum):
    """How nominal movement amplitude is built from the (D, H) grid."""

    EUCLIDEAN = "euclidean"
    DEPTH_ONLY = "depth"

    __hash__ = object.__hash__  # as for ModelKind


@dataclass(frozen=True)
class TargetGeometry:
    """Geometry of one pointing task.

    ``amplitude_m`` is the movement amplitude A, ``depth_m`` the horizontal
    depth D from user to target, ``altitude_m`` the magnitude H of the
    elevation difference, and ``ctd_m`` the change in target depth relative
    to the previous target.
    """

    amplitude_m: float
    width_m: float
    depth_m: float
    altitude_m: float
    ctd_m: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.width_m) and self.width_m > 0):
            raise ValueError(f"width_m must be positive, got {self.width_m}")
        if not (math.isfinite(self.amplitude_m) and self.amplitude_m >= 0):
            raise ValueError(f"amplitude_m must be non-negative, got {self.amplitude_m}")
        if not (math.isfinite(self.depth_m) and self.depth_m > 0):
            raise ValueError(f"depth_m must be positive, got {self.depth_m}")
        if not (math.isfinite(self.altitude_m) and self.altitude_m >= 0):
            raise ValueError(f"altitude_m must be non-negative, got {self.altitude_m}")
        if not (math.isfinite(self.ctd_m) and self.ctd_m >= 0):
            raise ValueError(f"ctd_m must be non-negative, got {self.ctd_m}")


def id_shannon(amplitude_m: float, width_m: float) -> float:
    """Index of difficulty in bits: log2(A/W + 1)."""
    if not (math.isfinite(width_m) and width_m > 0):
        raise ValueError(f"width_m must be positive, got {width_m}")
    if not (math.isfinite(amplitude_m) and amplitude_m >= 0):
        raise ValueError(f"amplitude_m must be non-negative, got {amplitude_m}")
    return math.log2(amplitude_m / width_m + 1.0)


def predictors_standard(g: TargetGeometry) -> tuple[float, ...]:
    return (id_shannon(g.amplitude_m, g.width_m),)


def predictors_two_part(g: TargetGeometry) -> tuple[float, ...]:
    # Second predictor stored as -log2(W) so its fitted slope is positive.
    return (math.log2(g.amplitude_m + g.width_m), -math.log2(g.width_m))


def predictors_vergence(g: TargetGeometry) -> tuple[float, ...]:
    # The depth-change predictor carries meters; the model family accepts
    # the unit-bearing term as defined.
    return (id_shannon(g.amplitude_m, g.width_m), g.ctd_m)


def predictors_proposed(g: TargetGeometry) -> tuple[float, ...]:
    dominant = max(g.depth_m, g.altitude_m)
    if dominant <= 0:
        raise ValueError("max(depth_m, altitude_m) must be positive")
    return (
        id_shannon(g.amplitude_m, g.width_m),
        -math.log2(g.width_m / dominant + 1.0),
    )


@dataclass(frozen=True)
class ModelSpec:
    """Everything that defines one model.

    ``labels`` name the slopes in the short equation and ``terms`` are the
    same predictors written out with their conventional sign; both follow
    the order of the tuple ``predictors`` returns.
    """

    kind: ModelKind
    predictors: Callable[[TargetGeometry], tuple[float, ...]]
    labels: tuple[str, ...]
    terms: tuple[str, ...]

    @property
    def predictor_count(self) -> int:
        return len(self.labels)

    def short_equation(self, coefficients: Sequence[float]) -> str:
        """The short equation for (intercept, slopes...), e.g. ``MT=0.83*ID-0.41``."""
        return self._formats[0].format(*coefficients)

    def signed_equation(self, coefficients: Sequence[float]) -> str:
        """The equation with its terms written out, e.g.
        ``MT = 0.8300*log2(A/W+1) -0.4100``."""
        return self._formats[1].format(*coefficients)

    @functools.cached_property
    def _formats(self) -> tuple[str, str]:
        """``str.format`` templates of the short and the signed equation, with
        the intercept as argument 0. The first slope is written without a
        leading plus sign."""
        short = "".join(f"{{{i}:{'+' if i > 1 else ''}.2f}}*{label}"
                        for i, label in enumerate(self.labels, 1))
        signed = " ".join(f"{term[0]} {{{i}:.4f}}*{term[2:]}"
                          for i, term in enumerate(self.terms, 1))
        return f"MT={short}{{0:+.2f}}", f"MT = {signed.removeprefix('+ ')} {{0:+.4f}}"


MODEL_SPECS: dict[ModelKind, ModelSpec] = {
    ModelKind.STANDARD: ModelSpec(
        ModelKind.STANDARD, predictors_standard, ("ID",), ("+ log2(A/W+1)",)
    ),
    ModelKind.TWO_PART: ModelSpec(
        ModelKind.TWO_PART, predictors_two_part, ("A", "B"),
        ("+ log2(A+W)", "- log2(W)"),
    ),
    ModelKind.VERGENCE: ModelSpec(
        ModelKind.VERGENCE, predictors_vergence, ("A", "B"),
        ("+ log2(A/W+1)", "+ CTD"),
    ),
    ModelKind.PROPOSED: ModelSpec(
        ModelKind.PROPOSED, predictors_proposed, ("A", "B"),
        ("+ log2(A/W+1)", "- log2(W/max(D,H)+1)"),
    ),
}


def predictors_for(kind: ModelKind, g: TargetGeometry) -> tuple[float, ...]:
    return MODEL_SPECS[kind].predictors(g)


def predict_mt(kind: ModelKind, coefficients: Sequence[float], g: TargetGeometry) -> float:
    """Movement time from fitted coefficients: intercept + slopes . predictors."""
    preds = predictors_for(kind, g)
    expected = MODEL_SPECS[kind].predictor_count + 1
    if len(coefficients) != expected:
        raise ValueError(
            f"{kind.value} needs {expected} coefficients (intercept + slopes), "
            f"got {len(coefficients)}"
        )
    return coefficients[0] + left_sum(c * x for c, x in zip(coefficients[1:], preds))


def amplitude_from_grid(distance_m: float, height_m: float,
                        mode: AmplitudeMode = AmplitudeMode.EUCLIDEAN) -> float:
    """Nominal movement amplitude for a grid cell.

    Euclidean treats the move as covering depth and elevation jointly;
    DepthOnly reads the labeled teleport distance as the amplitude.
    """
    if not (math.isfinite(distance_m) and distance_m > 0):
        raise ValueError(f"distance_m must be positive, got {distance_m}")
    if not (math.isfinite(height_m) and height_m >= 0):
        raise ValueError(f"height_m must be non-negative, got {height_m}")
    if mode is AmplitudeMode.EUCLIDEAN:
        return math.hypot(distance_m, height_m)
    return distance_m


def geometry_for_condition(
    width_m: float,
    distance_m: float,
    height_m: float,
    mode: AmplitudeMode = AmplitudeMode.EUCLIDEAN,
) -> TargetGeometry:
    """Build the task geometry for one (W, D, H) grid cell."""
    return TargetGeometry(
        amplitude_m=amplitude_from_grid(distance_m, height_m, mode),
        width_m=width_m,
        depth_m=distance_m,
        altitude_m=height_m,
        ctd_m=abs(distance_m - START_CUBE_DEPTH_M),
    )
