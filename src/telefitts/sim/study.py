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
import re
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
    left_sum,
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
    grand = left_sum(means.values()) / len(means)
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


@np.errstate(over="ignore")  # a movement time that overflows is a ConfigError naming its cell
def generate_study(config: StudyConfig) -> TrialTable:
    """Simulate the full within-subjects study for every participant.

    Each participant runs all 10 technique x posture blocks, ordered by
    their row of the balanced Latin square (participant index mod 10), with
    the size/distance/height grid shuffled within each block. Per-participant
    RNG streams are spawned from the study seed, so the log is byte-stable
    regardless of scheduling.

    The per-block loop makes only the random draws, in one fixed order on
    each participant's stream: the block's permutation of the grid, its
    angles, the movement-time noise and its redraws, then the endpoint
    noise and its redraws. That draw order is what keeps the log bytes
    stable; every other column is filled after the loop from the stacked
    permutations, and the movement times are the expected times plus the
    noise. A block's noise is redrawn only where the loop's one check,
    that no draw reaches below minus the lowest expected time, fails; with
    no noise and a positive lowest time it cannot fail and is skipped.

    Each block's draws go straight into its rows of the study's arrays: the
    grid is shuffled in place in its row of the block orders, as
    ``permutation`` would order it, and the noise is drawn in place and then
    scaled, as ``normal`` would draw it.
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
    # Per (technique x posture, cell) and per cell: the expected movement
    # time, the endpoint SD and the target radius.
    offsets = np.array([config.technique_offsets_s.get(t, 0.0) for t, _ in combos])
    combo_mt = base_mt + offsets[:, None]
    cell_sigma = config.endpoint_sd_fraction_of_width * cell_w
    cell_radius = cell_w / 2.0
    angle_choices = np.asarray(config.angles_deg, float)
    block_cells = np.repeat(np.arange(len(cell_grid)), config.repetitions)
    n_block = len(block_cells)
    block_combos = np.array([c for pi in range(config.participants)
                             for c in square[pi % len(square)]])
    n_blocks = len(block_combos)

    ordered = np.tile(block_cells, (n_blocks, 1))
    angles = np.empty((n_blocks, n_block), np.intp)
    noise = np.zeros((n_blocks, n_block))
    dev = np.zeros((n_blocks, n_block))
    attempts = np.zeros((n_blocks, n_block), np.int64)
    mt_sd, dev_sd = config.mt_noise_sd_s, config.endpoint_sd_fraction_of_width
    # mean + noise > 0 for every mean >= lowest_mt whenever noise > -lowest_mt,
    # and a float sum that is positive does not round to 0
    lowest_mt = float(np.min(combo_mt))
    always_positive = mt_sd == 0 and lowest_mt > 0  # the check cannot fail

    def movement_times(start: int, stop: int) -> np.ndarray:
        """The movement times of blocks ``[start, stop)``; ConfigError at the
        first one that is not finite."""
        blocks = slice(start, stop)
        mt = combo_mt[block_combos[blocks, None], ordered[blocks]] + noise[blocks]
        finite = np.isfinite(mt)
        if not finite.all():
            raise _cell_error("movement time overflows to a non-finite value",
                              cell_grid[ordered[blocks].ravel()[np.argmin(finite.ravel())]])
        return mt

    checked = 0  # blocks [0, checked) have finite movement times
    for pi in range(config.participants):
        rng = np.random.default_rng(streams[pi])
        for b in range(pi * len(combos), (pi + 1) * len(combos)):
            cells, block_noise = ordered[b], noise[b]
            rng.shuffle(cells)
            angles[b] = rng.integers(0, len(angle_choices), n_block)

            if mt_sd > 0:
                rng.standard_normal(out=block_noise)
                block_noise *= mt_sd
            if not (always_positive or block_noise.min() > -lowest_mt):
                # A movement time may be <= 0: redraw its noise. The earlier
                # blocks are checked first, so errors come in block order.
                movement_times(checked, b)
                checked = b
                mt_mean = combo_mt[block_combos[b]][cells]
                block_mt = mt_mean + block_noise
                bad = block_mt <= 0
                redraws = 0
                while n_bad := np.count_nonzero(bad):
                    if mt_sd == 0.0 or redraws >= _MAX_REDRAWS:
                        raise _cell_error("ground truth produces non-positive movement time",
                                          cell_grid[cells[np.argmax(bad)]])
                    block_noise[bad] = rng.normal(0.0, mt_sd, n_bad)
                    block_mt[bad] = mt_mean[bad] + block_noise[bad]
                    bad = block_mt <= 0
                    redraws += 1

            if dev_sd == 0:
                continue
            sigma, radius = cell_sigma[cells], cell_radius[cells]
            block_dev, block_attempts = dev[b], attempts[b]
            rng.standard_normal(out=block_dev)
            np.abs(block_dev, out=block_dev)
            block_dev *= sigma
            outside = block_dev > radius
            redraws = 0
            while n_outside := np.count_nonzero(outside):
                if redraws >= _MAX_REDRAWS:
                    movement_times(checked, b + 1)
                    raise ConfigError(
                        f"endpoint deviations still land outside the target after "
                        f"{_MAX_REDRAWS} redraws; endpoint_sd_fraction_of_width="
                        f"{config.endpoint_sd_fraction_of_width} is too large"
                    )
                block_attempts[outside] += 1
                block_dev[outside] = np.abs(rng.normal(0.0, 1.0, n_outside)) * sigma[outside]
                outside = block_dev > radius
                redraws += 1

    mt = movement_times(0, n_blocks)
    cells, combo_of_row = ordered.ravel(), np.repeat(block_combos, n_block)
    combo_codes = np.array([(TECHNIQUES.index(t), POSTURES.index(p)) for t, p in combos])
    participant_ids = [f"P{pi + 1:02d}" for pi in range(config.participants)]
    return TrialTable(
        participant_ids,
        participant_code=np.repeat(np.arange(config.participants), len(combos) * n_block),
        technique_code=combo_codes[combo_of_row, 0],
        posture_code=combo_codes[combo_of_row, 1],
        block=np.tile(np.repeat(np.arange(len(combos)), n_block), config.participants),
        trial_index=np.tile(np.arange(n_block), n_blocks),
        width_m=cell_w[cells],
        distance_m=cell_d[cells],
        height_m=cell_h[cells],
        angle_deg=angle_choices[angles.ravel()],
        movement_time_s=mt.ravel(),
        endpoint_deviation_m=dev.ravel(),
        error_attempts=attempts.ravel(),
        success=np.ones(mt.size, bool),
    )


def _cell_error(message: str, cell: tuple[float, float, float]) -> ConfigError:
    return ConfigError(f"{message} for cell W={cell[0]} D={cell[1]} H={cell[2]}")


# --- config files -------------------------------------------------------

_PRESETS = ("realistic", "model-exact", "custom")
#: Plain scalars that are numbers, by the YAML 1.2 core schema. PyYAML
#: resolves them by YAML 1.1, which reads a leading 0 as octal (``010`` is 8),
#: ``0b`` as binary and ``:`` as base 60 (``1:20`` is 80), drops ``_``
#: (``1_0.5`` is 10.5) and leaves ``1e-3`` a string. Under these rules those
#: forms are strings, which the number fields reject, and ``010`` is 10.
_CORE_INT = re.compile(r"^(?:[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+)$")
_CORE_FLOAT = re.compile(r"^(?:[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?"
                         r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$")
_INT_TAG, _FLOAT_TAG = "tag:yaml.org,2002:int", "tag:yaml.org,2002:float"


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

    UniqueKeyLoader.yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers if tag not in (_INT_TAG, _FLOAT_TAG)]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
    }
    UniqueKeyLoader.add_implicit_resolver(_INT_TAG, _CORE_INT, list("-+0123456789"))
    UniqueKeyLoader.add_implicit_resolver(_FLOAT_TAG, _CORE_FLOAT, list("-+.0123456789"))

    def construct_core_number(loader, node):
        """An int or float by the YAML 1.2 core schema, under an explicit tag
        too: ``!!int 0b101`` and ``!!float 1_0.5`` are rejected."""
        text, is_int = loader.construct_scalar(node), node.tag == _INT_TAG
        if (_CORE_INT if is_int else _CORE_FLOAT).match(text):
            try:
                if is_int:
                    return int(text, {"0o": 8, "0x": 16}.get(text[:2], 10))
                return float(text.lower().replace(".inf", "inf").replace(".nan", "nan"))
            except ValueError:  # more digits than int() converts
                pass
        raise yaml.constructor.ConstructorError(
            None, None, f"cannot read {text[:40]!r} as a YAML 1.2 "
            f"{'integer' if is_int else 'float'}", node.start_mark)

    for tag in (_INT_TAG, _FLOAT_TAG):
        UniqueKeyLoader.add_constructor(tag, construct_core_number)
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
    """An integer field: a YAML integer, or a float of integral value.
    Booleans, strings and other numbers are rejected rather than coerced."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _config_float(name: str, value: object) -> float:
    """A number field: a YAML integer or float. Booleans and strings are
    rejected rather than coerced."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got an integer beyond the float range") from None


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
