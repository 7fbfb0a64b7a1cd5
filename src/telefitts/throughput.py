"""ISO-9241-9-style throughput with the accuracy correction.

Effective width rescales the nominal target width to the spread actually
produced by the user (W_e = 4.133 x SD of selection endpoints), effective
amplitude is the realized movement distance, and throughput is the
means-of-means average of ID_e / MT over the amplitude x width grid.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from .models import (
    GRID_DISTANCES_M,
    GRID_HEIGHTS_M,
    GRID_WIDTHS_M,
    AmplitudeMode,
    amplitude_from_grid,
)
from .trials import (
    ConditionSummary,
    IncompleteGridError,
    Posture,
    Technique,
    Trial,
    group_by_condition,
    sample_sd,
)

#: Endpoint-spread multiplier mapping an SD to the width containing ~96% of hits.
WE_SD_FACTOR = 4.133


def effective_width(endpoint_deviations_m: Sequence[float]) -> float:
    """W_e = 4.133 x sample SD (n-1 denominator) of the scalar deviations."""
    if len(endpoint_deviations_m) < 2:
        raise ValueError(
            f"effective width needs >= 2 endpoint samples, got {len(endpoint_deviations_m)}"
        )
    return WE_SD_FACTOR * sample_sd(endpoint_deviations_m)


def effective_amplitude(amplitudes_m: Sequence[float]) -> float:
    """Mean realized movement amplitude over a cell's trials."""
    if len(amplitudes_m) == 0:
        raise ValueError("effective amplitude needs at least one trial")
    return statistics.fmean(amplitudes_m)


def effective_id(ae_m: float, we_m: float) -> float:
    """Accuracy-adjusted index of difficulty: log2(A_e / W_e + 1)."""
    if we_m <= 0:
        raise ValueError(f"effective width must be positive, got {we_m}")
    if ae_m < 0:
        raise ValueError(f"effective amplitude must be non-negative, got {ae_m}")
    return math.log2(ae_m / we_m + 1.0)


@dataclass(frozen=True)
class ThroughputCell:
    """One amplitude x width cell of a technique/posture group."""

    technique: Technique
    posture: Posture
    width_m: float
    distance_m: float
    height_m: float
    n_trials: int
    ae_m: float
    we_m: float
    ide_bits: float
    mean_mt_s: float
    tp_bits_per_s: float


@dataclass(frozen=True)
class ThroughputSummary:
    """Per-(technique, posture) throughput with its per-cell detail."""

    technique: Technique
    posture: Posture
    tp_bits_per_s: float
    cells: tuple[ThroughputCell, ...]
    degenerate_cells: int


def _require_full_grid(have: set[tuple[float, float, float]], prefix: str) -> None:
    """Raise IncompleteGridError naming each (D, H, W) cell of the amplitude x
    width grid that ``have`` lacks, each name prefixed by ``prefix``."""
    missing = [
        f"{prefix}D={d}m H={h}m W={w}m"
        for d in GRID_DISTANCES_M
        for h in GRID_HEIGHTS_M
        for w in GRID_WIDTHS_M
        if (d, h, w) not in have
    ]
    if missing:
        raise IncompleteGridError(missing)


def throughput_mean_of_means(cells: Sequence[ThroughputCell]) -> float:
    """Unweighted mean of per-cell ID_e / MT."""
    if not cells:
        raise ValueError("no throughput cells")
    return statistics.fmean(c.tp_bits_per_s for c in cells)


def throughput_by_group(
    trials: Sequence[Trial],
    amplitude_mode: AmplitudeMode = AmplitudeMode.EUCLIDEAN,
    allow_partial_grid: bool = False,
) -> list[ThroughputSummary]:
    """Throughput for every (technique, posture) present in the log.

    Cells are the condition cells of ``group_by_condition``: W_e is 4.133 x
    a cell's ``sd_deviation_m`` and MT its ``mean_mt_s``. Logs carry no
    realized pointer amplitudes, so A_e falls back to the nominal grid
    amplitude. Cells whose endpoint spread is exactly zero cannot produce a
    finite ID_e; they are dropped and counted, shrinking that group's cell
    average.
    """
    groups: dict[tuple[Technique, Posture], list[ConditionSummary]] = {}
    for key, summary in group_by_condition(trials).items():
        groups.setdefault((key.technique, key.posture), []).append(summary)

    summaries: list[ThroughputSummary] = []
    for (technique, posture), group in groups.items():
        if not allow_partial_grid:
            _require_full_grid(
                {(s.key.distance_m, s.key.height_m, s.key.width_m) for s in group},
                f"{technique.value}/{posture.value} ",
            )
        cells: list[ThroughputCell] = []
        degenerate = 0
        for s in sorted(group, key=lambda s: (s.key.distance_m, s.key.height_m, s.key.width_m)):
            we = WE_SD_FACTOR * s.sd_deviation_m
            if s.n_trials < 2 or we == 0.0:
                degenerate += 1
                continue
            k = s.key
            ae = amplitude_from_grid(k.distance_m, k.height_m, amplitude_mode)
            ide = effective_id(ae, we)
            cells.append(
                ThroughputCell(
                    technique=technique,
                    posture=posture,
                    width_m=k.width_m,
                    distance_m=k.distance_m,
                    height_m=k.height_m,
                    n_trials=s.n_trials,
                    ae_m=ae,
                    we_m=we,
                    ide_bits=ide,
                    mean_mt_s=s.mean_mt_s,
                    tp_bits_per_s=ide / s.mean_mt_s,
                )
            )
        if not cells:
            raise ValueError(
                f"all cells of group {technique.value}/{posture.value} have zero "
                f"endpoint spread; throughput undefined"
            )
        tp = throughput_mean_of_means(cells)
        summaries.append(
            ThroughputSummary(
                technique=technique,
                posture=posture,
                tp_bits_per_s=tp,
                cells=tuple(cells),
                degenerate_cells=degenerate,
            )
        )
    return summaries


def render_throughput_records(summaries: Sequence[ThroughputSummary]) -> str:
    """One JSON record per (technique, posture) with nested cell detail."""
    import json

    lines = []
    for s in summaries:
        record = {
            "technique": s.technique.value,
            "posture": s.posture.value,
            "tp_bits_per_s": s.tp_bits_per_s,
            "degenerate_cells": s.degenerate_cells,
            "cells": [
                {
                    "width_m": c.width_m,
                    "distance_m": c.distance_m,
                    "height_m": c.height_m,
                    "n_trials": c.n_trials,
                    "ae_m": c.ae_m,
                    "we_m": c.we_m,
                    "ide_bits": c.ide_bits,
                    "mean_mt_s": c.mean_mt_s,
                    "tp_bits_per_s": c.tp_bits_per_s,
                }
                for c in s.cells
            ],
        }
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)
