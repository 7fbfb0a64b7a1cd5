"""The four benchmark workloads and their correctness checks.

Each workload is built once from the workload seed (that is its set-up),
then runs unit ``i`` on inputs drawn from ``seed + i``. Units call only the
public functions of ``telefitts.trials``, ``models``, ``regression``,
``comparison``, ``throughput`` and ``sim``, and always through the module
attribute, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from types import SimpleNamespace

import numpy as np

import telefitts.comparison as comparison
import telefitts.sim as sim
import telefitts.throughput as throughput
import telefitts.trials as trials
from telefitts.comparison import TABLE_GROUPS, AicEvidence
from telefitts.models import AmplitudeMode, ModelKind

AMPLITUDE_MODES = (AmplitudeMode.EUCLIDEAN, AmplitudeMode.DEPTH_ONLY)
STUDY_PARTICIPANTS = 20


class Workload:
    """Set-up happens in the constructor, from the workload seed."""

    name = ""
    rows_per_unit = 0
    #: Size of the reference loop timed after each unit (``worker.reference``):
    #: long enough to time steadily, short next to the unit.
    reference_size = 4

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        """Problems with unit ``i``'s output; empty when it is correct."""
        raise NotImplementedError

    def final_check(self) -> dict[int, str]:
        """Units that fail a rule over all units checked since the last call."""
        return {}


class StudyPipeline(Workload):
    """simulate -> write -> read -> validate -> compare (both modes) ->
    render -> parse -> throughput, on one realistic study per unit."""

    name = "study-pipeline"

    def __init__(self, seed: int, workdir: str, participants: int = STUDY_PARTICIPANTS):
        self.seed = seed
        self.participants = participants
        self.rows_per_unit = participants * 400
        self.log_path = os.path.join(workdir, "study-pipeline-trials.csv")
        #: seed -> digests of the CSV, JSONL, table and throughput bytes
        self.digests: dict[int, dict[str, str]] = {}

    def run(self, i: int):
        generated = sim.generate_study(sim.realistic_preset(self.participants, self.seed + i))
        trials.write_trial_log(generated, self.log_path)
        read = trials.read_trial_log(self.log_path)
        violations = trials.validate_log(read)
        reports = []
        for mode in AMPLITUDE_MODES:
            reports.extend(comparison.run_table1_suite(read, mode))
        table = comparison.render_table(reports)
        records = comparison.render_records(reports)
        parsed = comparison.parse_records(records)
        summaries = throughput.throughput_by_group(read)
        tp_records = throughput.render_throughput_records(summaries)
        return SimpleNamespace(
            generated=generated, read=read, violations=violations, reports=reports,
            table=table, records=records, parsed=parsed, summaries=summaries,
            tp_records=tp_records,
        )

    def check(self, i: int, out) -> list[str]:
        problems = []
        if out.read != out.generated:
            problems.append("trial log read back differs from the trials generated")
        if out.violations:
            problems.append(f"{len(out.violations)} violations in a simulated log")
        n_records = len(out.records.splitlines())
        if n_records != 2 * len(TABLE_GROUPS) * len(ModelKind):
            problems.append(f"{n_records} comparison records, expected 64")
        if out.parsed != out.reports:
            problems.append("records do not parse back to the reports rendered")
        if len(out.summaries) != 10:
            problems.append(f"{len(out.summaries)} throughput summaries, expected 10")
        for s in out.summaries:
            finite = [c for c in s.cells if math.isfinite(c.tp_bits_per_s)]
            if len(finite) != 8 or not math.isfinite(s.tp_bits_per_s):
                problems.append(
                    f"throughput {s.technique.value}/{s.posture.value}: "
                    f"{len(finite)} finite cells of {len(s.cells)}, expected 8"
                )
        with open(self.log_path, "rb") as fh:
            csv_bytes = fh.read()
        self.digests[self.seed + i] = {
            "csv": _digest(csv_bytes),
            "jsonl": _digest(out.records.encode("utf-8")),
            "table": _digest(out.table.encode("utf-8")),
            "throughput": _digest(out.tp_records.encode("utf-8")),
        }
        return problems


class SelectionSweep(Workload):
    """Criterion-2 loop: model-exact study -> group -> 'All' -> compare."""

    name = "selection-sweep"
    #: Share of Proposed-truth units in which Proposed must be AIC-best.
    MIN_PROPOSED_WIN_RATE = 0.8

    def __init__(self, seed: int, workdir: str, participants: int = STUDY_PARTICIPANTS):
        self.seed = seed
        self.participants = participants
        self.rows_per_unit = participants * 400
        self._proposed_won: dict[int, bool] = {}

    @staticmethod
    def truth(i: int) -> sim.GroundTruth:
        return sim.SIMULABLE_PROPOSED_ALL if i % 2 == 0 else sim.REFERENCE_STANDARD_ALL

    def run(self, i: int):
        truth = self.truth(i)
        noise = 0.05 if truth is sim.SIMULABLE_PROPOSED_ALL else 0.0
        config = sim.model_exact_preset(
            truth, self.participants, self.seed + i, mt_noise_sd_s=noise
        )
        generated = sim.generate_study(config)
        cells = comparison.group_summaries(trials.group_by_condition(generated), "All")
        return comparison.compare_models(cells, config.amplitude_mode, "All")

    def check(self, i: int, report) -> list[str]:
        if self.truth(i) is sim.SIMULABLE_PROPOSED_ALL:
            self._proposed_won[i] = report.ranking_aic[0] is ModelKind.PROPOSED
            return []
        problems = []
        for kind in (ModelKind.STANDARD, ModelKind.PROPOSED):
            grade = report.aic_grades[kind].grade
            if grade is not AicEvidence.SUBSTANTIAL:
                problems.append(
                    f"Standard truth: {kind.value} graded {grade.value}, expected Substantial"
                )
        return problems

    def final_check(self) -> dict[int, str]:
        won, self._proposed_won = self._proposed_won, {}
        if not won or sum(won.values()) >= self.MIN_PROPOSED_WIN_RATE * len(won):
            return {}
        message = (f"Proposed AIC-best in {sum(won.values())} of {len(won)} "
                   f"Proposed-truth units, below {self.MIN_PROPOSED_WIN_RATE:.0%}")
        return {i: message for i, ok in won.items() if not ok}


class ParticipantFits(Workload):
    """One participant's rows -> group -> 2 aggregations x 8 groups x 2 modes."""

    name = "participant-fits"

    def __init__(self, seed: int, workdir: str, participants: int = STUDY_PARTICIPANTS):
        study = sim.generate_study(sim.realistic_preset(participants, seed))
        by_participant: dict[str, list] = {}
        for t in study:
            by_participant.setdefault(t.participant_id, []).append(t)
        self.participants = list(by_participant.values())
        self.rows_per_unit = len(self.participants[0])

    def run(self, i: int):
        rows = self.participants[i % len(self.participants)]
        summaries = trials.group_by_condition(rows)
        reports = []
        for pooled in (False, True):
            for label in TABLE_GROUPS:
                cells = comparison.group_summaries(summaries, label, pooled=pooled)
                for mode in AMPLITUDE_MODES:
                    reports.append(comparison.compare_models(cells, mode, label))
        return reports

    def check(self, i: int, reports) -> list[str]:
        problems = []
        if len(reports) != 2 * len(TABLE_GROUPS) * len(AMPLITUDE_MODES):
            problems.append(f"{len(reports)} comparisons, expected 32")
        models = sorted(ModelKind, key=lambda k: k.value)
        for rep in reports:
            where = f"{rep.group_label}/{rep.amplitude_mode.value}"
            for ranking in (rep.ranking_aic, rep.ranking_bic):
                if sorted(ranking, key=lambda k: k.value) != models:
                    problems.append(f"{where}: ranking {ranking} is not a permutation")
            if rep.n_cells != 8:
                problems.append(f"{where}: n_cells {rep.n_cells}, expected 8")
        return problems


class KinematicTrials(Workload):
    """One scripted, Kalman-smoothed trial per unit through run_trial."""

    name = "kinematic-trials"
    rows_per_unit = 1
    reference_size = 1  # units take ~5 ms
    TECHNIQUES = tuple(trials.Technique)
    SAMPLE_RATE_HZ = 100.0
    DURATION_S = 1.0
    #: Pinch-confirming techniques pinch here; RPDW's default 0.8 s dwell
    #: fires at the same sample, so every technique selects at 0.7 s after
    #: the default 0.1 s spike rollback.
    CONFIRM_AT_S = 0.8
    TREMOR_SD_M = 0.002
    #: The pointer hand reaches from start to end; both stay beyond the
    #: 0.7 m arm length from the shoulder, so the launch speed is saturated
    #: and tremor does not change it.
    HAND_START_M = np.array([0.0, 1.35, 0.72])
    HAND_END_M = np.array([0.05, 1.45, 0.76])

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        lookback = sim.TechniqueConfig(self.TECHNIQUES[0]).spike_lookback_s
        tau = (self.CONFIRM_AT_S - lookback) / self.DURATION_S
        selection = self.HAND_START_M + (self.HAND_END_M - self.HAND_START_M) * \
            sim.minimum_jerk_profile(tau)
        grid = sim.realistic_preset()
        self.targets = []
        for w, d, h, angle in itertools.product(
            grid.widths_m, grid.distances_m, grid.heights_m, grid.angles_deg
        ):
            scene = sim.SceneSpec(target=sim.TargetPlacement(w, d, h, angle))
            aim = aim_at(scene, selection)
            if aim is not None:
                self.targets.append((scene, aim))
        if not self.targets:
            raise RuntimeError("no paper-grid target is reachable")

    def run(self, i: int):
        technique = self.TECHNIQUES[i % len(self.TECHNIQUES)]
        scene, aim = self.targets[(i // len(self.TECHNIQUES)) % len(self.targets)]
        config = sim.TechniqueConfig(technique=technique)
        pointer_pinches = config.confirm_hand == config.pointer_hand
        other_pinches = config.confirm_hand not in (None, config.pointer_hand)
        pointer = sim.synth_hand_trace(
            self.HAND_START_M, self.HAND_END_M, self.DURATION_S,
            tremor_sd_m=self.TREMOR_SD_M, sample_rate_hz=self.SAMPLE_RATE_HZ,
            seed=self.seed + i, direction=aim,
            pinch_at_s=self.CONFIRM_AT_S if pointer_pinches else None,
        )
        other = sim.StationaryHand().trace(
            self.DURATION_S, self.SAMPLE_RATE_HZ,
            pinch_at_s=self.CONFIRM_AT_S if other_pinches else None,
        )
        left, right = (other, pointer) if config.pointer_hand == "right" else (pointer, other)
        return scene, sim.run_trial(config, scene, left, right, smooth_pointer=True)

    def check(self, i: int, out) -> list[str]:
        scene, outcome = out
        if outcome is None or not outcome.success:
            return [f"unit {i}: no successful selection"]
        if outcome.endpoint_deviation_m > scene.target.width_m / 2:
            return [f"unit {i}: deviation {outcome.endpoint_deviation_m:.4f} m "
                    f"exceeds W/2 = {scene.target.width_m / 2} m"]
        return []


def aim_at(scene, hand_m: np.ndarray) -> np.ndarray | None:
    """Unit direction whose arc from ``hand_m`` lands on the target center,
    found by bisection on pitch with ``parabola_landing`` (the flattest arc
    that works); None when no pitch reaches it."""
    center = scene.target.center()
    horizontal = np.array([center[0] - hand_m[0], 0.0, center[2] - hand_m[2]])
    reach = float(np.linalg.norm(horizontal))
    horizontal /= reach

    def direction(pitch: float) -> np.ndarray:
        return horizontal * math.cos(pitch) + np.array([0.0, math.sin(pitch), 0.0])

    def landing(pitch: float):
        velocity = scene.launch_velocity(sim.HandSample(0.0, hand_m, direction(pitch)))
        return sim.parabola_landing(hand_m, velocity, scene.gravity_m_s2,
                                    landing_height_m=scene.target.height_m)

    def overshoot(pitch: float) -> float | None:
        hit = landing(pitch)
        if hit is None:
            return None
        return math.hypot(hit[0][0] - hand_m[0], hit[0][2] - hand_m[2]) - reach

    pitches = np.radians(np.arange(-60.0, 90.0, 1.0))
    for lo, hi in zip(pitches, pitches[1:]):
        f_lo, f_hi = overshoot(lo), overshoot(hi)
        if f_lo is None or f_hi is None or (f_lo < 0.0) == (f_hi < 0.0):
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f_mid = overshoot(mid)
            if f_mid is None:
                break
            if (f_mid < 0.0) == (f_lo < 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        hit = landing(hi)
        if hit is not None and np.linalg.norm(hit[0] - center) <= 1e-6 * scene.target.width_m:
            return direction(hi)
    return None


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (StudyPipeline, SelectionSweep, ParticipantFits, KinematicTrials)}
