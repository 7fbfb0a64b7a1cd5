"""Headless study generator: full condition grid, counterbalanced blocks,
and trial logs with known ground truth.

The generator is statistical, not kinematic: movement times come from a
ground-truth model plus per-technique offsets and Gaussian noise, endpoint
deviations from a folded Gaussian scaled to the target width, and failed
attempts from redrawing deviations that land outside the target. That keeps
full studies fast while the technique state machines are exercised by the
scripted-trace layer.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from ..models import (
    GRID_ANGLES_DEG,
    GRID_DISTANCES_M,
    GRID_HEIGHTS_M,
    GRID_WIDTHS_M,
    MODEL_SPECS,
    AmplitudeMode,
    ModelKind,
    geometry_for_condition,
    predict_mt,
)
from ..trials import POSTURES, TECHNIQUES, Posture, Technique, TrialTable


class ConfigError(ValueError):
    """A simulation config file is missing or misusing a field."""


def balanced_latin_square(n: int) -> list[list[int]]:
    """Order matrix for counterbalancing n conditions (n even).

    Row 0 interleaves from both ends (0, 1, n-1, 2, n-2, ...); each later
    row increments mod n. Every condition appears once per row and column,
    and every ordered adjacent pair occurs exactly once across rows.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"balanced construction requires an even count, got {n}")
    first = [0]
    lo, hi = 1, n - 1
    while len(first) < n:
        first.append(lo)
        lo += 1
        if len(first) < n:
            first.append(hi)
            hi -= 1
    return [[(c + r) % n for c in first] for r in range(n)]


#: Observed per-technique mean movement times (seconds) used to give the
#: realistic preset its technique separation; applied as deltas around the
#: grand mean so the ground-truth model keeps the overall level.
TECHNIQUE_MEAN_MT_S = {
    Technique.RPRG: 2.58,
    Technique.RPLG: 2.41,
    Technique.LPLG: 2.71,
    Technique.LPRG: 2.61,
    Technique.RPDW: 2.88,
}


def technique_offsets_from_means(
    means: dict[Technique, float] | None = None,
) -> dict[Technique, float]:
    means = dict(TECHNIQUE_MEAN_MT_S if means is None else means)
    grand = sum(means.values()) / len(means)
    return {t: m - grand for t, m in means.items()}


@dataclass(frozen=True)
class GroundTruth:
    """Generating model: kind plus (intercept, slopes...) coefficients."""

    kind: ModelKind
    coefficients: tuple[float, ...]


#: Published overall single-predictor fit; positive over the whole grid, so
#: it can drive simulated movement times directly.
REFERENCE_STANDARD_ALL = GroundTruth(ModelKind.STANDARD, (-0.41, 0.83))

#: Published overall two-predictor fit under the stored sign convention.
#: Its intercept makes easy cells negative, so simulation presets use the
#: positive-intercept variant below; slopes (and therefore every ranking
#: and delta) are unaffected by the intercept shift.
REFERENCE_PROPOSED_ALL = GroundTruth(ModelKind.PROPOSED, (-2.46, 1.21, 3.00))
SIMULABLE_PROPOSED_ALL = GroundTruth(ModelKind.PROPOSED, (2.46, 1.21, 3.00))

#: Most trials one study may generate (participants x trials per participant);
#: the generated table holds every row in memory, about 100 bytes each.
_MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class StudyConfig:
    ground_truth: GroundTruth
    participants: int
    seed: int
    preset: str = "custom"
    mt_noise_sd_s: float = 0.0
    endpoint_sd_fraction_of_width: float = 0.0
    technique_offsets_s: dict[Technique, float] = field(default_factory=dict)
    amplitude_mode: AmplitudeMode = AmplitudeMode.EUCLIDEAN

    #: The paper's condition grid and repetitions; every study runs all of it.
    widths_m: ClassVar[tuple[float, ...]] = GRID_WIDTHS_M
    distances_m: ClassVar[tuple[float, ...]] = GRID_DISTANCES_M
    heights_m: ClassVar[tuple[float, ...]] = GRID_HEIGHTS_M
    angles_deg: ClassVar[tuple[float, ...]] = GRID_ANGLES_DEG
    repetitions: ClassVar[int] = 5

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.participants < 1:
            raise ConfigError(f"participants must be >= 1, got {self.participants}")
        for name, values in (
            ("mt_noise_sd_s", [self.mt_noise_sd_s]),
            ("endpoint_sd_fraction_of_width", [self.endpoint_sd_fraction_of_width]),
            ("technique_offsets_s", list(self.technique_offsets_s.values())),
            ("ground_truth.coefficients", self.ground_truth.coefficients),
        ):
            bad = [v for v in values if not math.isfinite(v)]
            if bad:
                raise ConfigError(f"{name} must be finite, got {bad[0]!r}")
        if self.mt_noise_sd_s < 0 or self.endpoint_sd_fraction_of_width < 0:
            raise ConfigError("noise parameters must be non-negative")
        n_trials = self.participants * self.trials_per_participant
        if n_trials > _MAX_TRIALS:
            raise ConfigError(
                f"{self.participants} participants x {self.trials_per_participant} "
                f"trials = {n_trials} trials exceeds the limit of {_MAX_TRIALS}"
            )

    @property
    def trials_per_participant(self) -> int:
        return (
            len(Technique)
            * len(Posture)
            * len(self.widths_m)
            * len(self.distances_m)
            * len(self.heights_m)
            * self.repetitions
        )


def realistic_preset(participants: int = 20, seed: int = 0) -> StudyConfig:
    """Human-plausible study: the published overall fit drives the grid
    effects, technique deltas match the observed means, moderate noise."""
    return StudyConfig(
        ground_truth=REFERENCE_STANDARD_ALL,
        participants=participants,
        seed=seed,
        preset="realistic",
        mt_noise_sd_s=0.15,
        endpoint_sd_fraction_of_width=0.28,
        technique_offsets_s=technique_offsets_from_means(),
    )


def model_exact_preset(
    ground_truth: GroundTruth,
    participants: int = 20,
    seed: int = 0,
    mt_noise_sd_s: float = 0.0,
    endpoint_sd_fraction_of_width: float = 0.0,
) -> StudyConfig:
    """No offsets: every trial's expected movement time is the model value."""
    return StudyConfig(
        ground_truth=ground_truth,
        participants=participants,
        seed=seed,
        preset="model-exact",
        mt_noise_sd_s=mt_noise_sd_s,
        endpoint_sd_fraction_of_width=endpoint_sd_fraction_of_width,
    )


_MAX_REDRAWS = 1000


def generate_study(config: StudyConfig) -> TrialTable:
    """Simulate the full within-subjects study for every participant.

    Each participant runs all 10 technique x posture blocks, ordered by
    their row of the balanced Latin square (participant index mod 10), with
    the size/distance/height grid shuffled within each block. Per-participant
    RNG streams are spawned from the study seed, so the log is byte-stable
    regardless of scheduling. The table is filled one block at a time from
    the arrays drawn for that block.
    """
    combos = [(t, p) for t in Technique for p in Posture]
    square = balanced_latin_square(len(combos))
    streams = np.random.SeedSequence(config.seed).spawn(config.participants)

    cell_grid = [
        (w, d, h)
        for w in config.widths_m
        for d in config.distances_m
        for h in config.heights_m
    ]
    cell_w, cell_d, cell_h = (np.array(axis, dtype=float) for axis in zip(*cell_grid))
    base_mt = np.array([
        predict_mt(
            config.ground_truth.kind,
            config.ground_truth.coefficients,
            geometry_for_condition(*cell, config.amplitude_mode),
        )
        for cell in cell_grid
    ])
    angle_choices = np.asarray(config.angles_deg, float)
    block_cells = np.repeat(np.arange(len(cell_grid)), config.repetitions)
    n_block = len(block_cells)
    n_total = config.participants * len(combos) * n_block
    columns = {
        "participant_code": np.repeat(np.arange(config.participants), len(combos) * n_block),
        "technique_code": np.empty(n_total, np.int8),
        "posture_code": np.empty(n_total, np.int8),
        "block": np.empty(n_total, np.int64),
        "trial_index": np.tile(np.arange(n_block), config.participants * len(combos)),
        "width_m": np.empty(n_total),
        "distance_m": np.empty(n_total),
        "height_m": np.empty(n_total),
        "angle_deg": np.empty(n_total),
        "movement_time_s": np.empty(n_total),
        "endpoint_deviation_m": np.empty(n_total),
        "error_attempts": np.empty(n_total, np.int64),
        "success": np.ones(n_total, bool),
    }

    start = 0
    for pi in range(config.participants):
        rng = np.random.default_rng(streams[pi])
        row = square[pi % len(square)]
        for block_idx, combo_idx in enumerate(row):
            technique, posture = combos[combo_idx]
            offset = config.technique_offsets_s.get(technique, 0.0)
            ordered = block_cells[rng.permutation(n_block)]

            angles = rng.choice(angle_choices, size=n_block)
            widths = cell_w[ordered]
            mt_mean = base_mt[ordered] + offset

            mt = mt_mean + rng.normal(0.0, config.mt_noise_sd_s, n_block) \
                if config.mt_noise_sd_s > 0 else mt_mean.copy()
            bad = mt <= 0
            redraws = 0
            while bad.any():
                if config.mt_noise_sd_s == 0.0 or redraws >= _MAX_REDRAWS:
                    cell = cell_grid[ordered[int(np.argmax(bad))]]
                    raise ConfigError(
                        f"ground truth produces non-positive movement time for "
                        f"cell W={cell[0]} D={cell[1]} H={cell[2]}"
                    )
                mt[bad] = mt_mean[bad] + rng.normal(0.0, config.mt_noise_sd_s, int(bad.sum()))
                bad = mt <= 0
                redraws += 1

            sigma = config.endpoint_sd_fraction_of_width * widths
            if config.endpoint_sd_fraction_of_width > 0:
                dev = np.abs(rng.normal(0.0, 1.0, n_block)) * sigma
            else:
                dev = np.zeros(n_block)
            attempts = np.zeros(n_block, dtype=int)
            outside = dev > widths / 2.0
            redraws = 0
            while outside.any():
                if redraws >= _MAX_REDRAWS:
                    raise ConfigError(
                        f"endpoint deviations still land outside the target after "
                        f"{_MAX_REDRAWS} redraws; endpoint_sd_fraction_of_width="
                        f"{config.endpoint_sd_fraction_of_width} is too large"
                    )
                attempts[outside] += 1
                dev[outside] = np.abs(
                    rng.normal(0.0, 1.0, int(outside.sum()))
                ) * sigma[outside]
                outside = dev > widths / 2.0
                redraws += 1

            block = slice(start, start + n_block)
            columns["technique_code"][block] = TECHNIQUES.index(technique)
            columns["posture_code"][block] = POSTURES.index(posture)
            columns["block"][block] = block_idx
            columns["width_m"][block] = widths
            columns["distance_m"][block] = cell_d[ordered]
            columns["height_m"][block] = cell_h[ordered]
            columns["angle_deg"][block] = angles
            columns["movement_time_s"][block] = mt
            columns["endpoint_deviation_m"][block] = dev
            columns["error_attempts"][block] = attempts
            start += n_block
    participant_ids = [f"P{pi + 1:02d}" for pi in range(config.participants)]
    return TrialTable(participant_ids, **columns)


# --- config files -------------------------------------------------------

_PRESETS = ("realistic", "model-exact", "custom")


def load_study_config(path: str, seed_override: int | None = None) -> StudyConfig:
    """Parse a YAML/key-value study config.

    Recognized keys: preset, participants, seed, ground_truth
    {model, coefficients}, mt_noise_sd_s, endpoint_sd_fraction_of_width,
    technique_offsets_s, amplitude_mode. The seed is required (here or via
    the override) so every run is reproducible on purpose.
    """
    import yaml  # imported here: no other command needs PyYAML's import time

    class UniqueKeyLoader(yaml.SafeLoader):
        """A safe loader that rejects a key repeated in one mapping, where
        ``safe_load`` would keep the last value. A key that overrides one
        pulled in by a merge key (``<<``) is not a repeat."""

        def __init__(self, stream):
            super().__init__(stream)
            self.checked: set[yaml.Node] = set()

        def flatten_mapping(self, node):
            # Check a mapping's own keys before merging puts the merged pairs
            # in front of them, and only once: a mapping merged into others
            # is flattened again.
            if node not in self.checked:
                self.checked.add(node)
                lines: dict[object, int] = {}
                for key_node, _ in node.value:
                    if key_node.tag == "tag:yaml.org,2002:merge":
                        continue
                    key, line = self.construct_object(key_node), key_node.start_mark.line + 1
                    if not isinstance(key, Hashable):
                        continue  # construct_mapping rejects it with its position
                    if key in lines:
                        raise ConfigError(f"config key {key!r} is repeated on line {line} "
                                          f"(first on line {lines[key]})")
                    lines[key] = line
            super().flatten_mapping(node)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=UniqueKeyLoader)
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config file: {_yaml_problem(exc)}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    known = {
        "preset", "participants", "seed", "ground_truth", "mt_noise_sd_s",
        "endpoint_sd_fraction_of_width", "technique_offsets_s", "amplitude_mode",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("missing required field: seed")
    seed = _config_int("seed", seed)
    participants = _config_int("participants", raw.get("participants", 20))

    preset = raw.get("preset", "realistic")
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}, expected one of {_PRESETS}")

    if preset == "realistic":
        config = realistic_preset(participants, seed)
    else:
        gt = _parse_ground_truth(raw.get("ground_truth"))
        config = model_exact_preset(gt, participants, seed)
        if preset == "custom":
            config = replace(config, preset="custom")

    for name in ("mt_noise_sd_s", "endpoint_sd_fraction_of_width"):
        if name in raw:
            config = replace(config, **{name: _config_float(name, raw[name])})
    if "technique_offsets_s" in raw:
        offsets = raw["technique_offsets_s"]
        if not isinstance(offsets, dict):
            raise ConfigError("technique_offsets_s must be a mapping")
        parsed = {}
        for name, value in offsets.items():
            if name not in Technique.__members__:
                raise ConfigError(f"unknown technique in offsets: {name}")
            parsed[Technique[name]] = _config_float(f"technique_offsets_s.{name}", value)
        config = replace(config, technique_offsets_s=parsed)
    if "amplitude_mode" in raw:
        try:
            config = replace(config, amplitude_mode=AmplitudeMode(raw["amplitude_mode"]))
        except ValueError:
            raise ConfigError(
                f"amplitude_mode must be one of "
                f"{[m.value for m in AmplitudeMode]}, got {raw['amplitude_mode']!r}"
            ) from None
    return config


def _yaml_problem(exc: Exception) -> str:
    """What the YAML parser rejected and where, on one line."""
    problem, mark = getattr(exc, "problem", None), getattr(exc, "problem_mark", None)
    if problem and mark:
        text = f"{problem} at line {mark.line + 1}, column {mark.column + 1}"
    else:
        text = str(exc)
    return " ".join(text.split())


def _config_int(name: str, value: object) -> int:
    """An integer field; booleans and non-integral numbers are rejected
    rather than truncated."""
    message = f"{name} must be an integer, got {value!r}"
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(message)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(message) from None


def _config_float(name: str, value: object) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def _parse_ground_truth(raw: object) -> GroundTruth:
    if raw is None:
        raise ConfigError("missing required field: ground_truth (for non-realistic presets)")
    if not isinstance(raw, dict):
        raise ConfigError("ground_truth must be a mapping with model and coefficients")
    model = raw.get("model")
    if model not in [k.value for k in ModelKind]:
        raise ConfigError(
            f"ground_truth.model must be one of {[k.value for k in ModelKind]}, got {model!r}"
        )
    kind = ModelKind(model)
    coeffs = raw.get("coefficients")
    if not isinstance(coeffs, (list, tuple)):
        raise ConfigError("ground_truth.coefficients must be a list")
    coeffs = tuple(_config_float("ground_truth.coefficients", c) for c in coeffs)
    expected = MODEL_SPECS[kind].predictor_count + 1
    if len(coeffs) != expected:
        raise ConfigError(
            f"ground_truth.coefficients needs {expected} values for {kind.value}, "
            f"got {len(coeffs)}"
        )
    if not all(math.isfinite(c) for c in coeffs):
        raise ConfigError("ground_truth.coefficients must be finite")
    return GroundTruth(kind, coeffs)
