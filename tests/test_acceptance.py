"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from telefitts.trials import (
    ConditionKey,
    ConditionSummary,
    Posture,
    Technique,
    group_by_condition,
    validate_log,
)
from telefitts.models import (
    AmplitudeMode,
    ModelKind,
    geometry_for_condition,
    predict_mt,
    predictors_for,
)
from telefitts.regression import adj_r2, f_tail_probability, information_criteria
from telefitts.comparison import (
    AicEvidence,
    BicEvidence,
    Criterion,
    compare_models,
    grade_delta,
    group_summaries,
    run_table1_suite,
)
from telefitts.throughput import (
    ThroughputCell,
    effective_width,
    throughput_by_group,
    throughput_mean_of_means,
)
from telefitts.sim import (
    HandSample,
    REFERENCE_PROPOSED_ALL,
    REFERENCE_STANDARD_ALL,
    SIMULABLE_PROPOSED_ALL,
    SceneSpec,
    TargetPlacement,
    TechniqueConfig,
    balanced_latin_square,
    dwell_update,
    generate_study,
    model_exact_preset,
    parabola_landing,
    realistic_preset,
    run_trial,
    spike_compensate,
)

from oracles import f_tail_by_quadrature, fit_rows, pinv_ols, rk4_landing_batch


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


GRID = [(w, d, h) for w in (0.2, 1.35) for d in (3.0, 9.0) for h in (0.0, 3.0)]


def grid_summaries(kind: ModelKind, coefficients, mode=AmplitudeMode.EUCLIDEAN):
    cells = {}
    for w, d, h in GRID:
        mt = predict_mt(kind, coefficients, geometry_for_condition(w, d, h, mode))
        key = ConditionKey(None, None, w, d, h)
        cells[key] = ConditionSummary(key, 100, mt, 0.0, 0.0, 0.0, 0.0)
    return cells


def test_criterion_1_coefficient_recovery():
    with criterion(1, "noiseless coefficient recovery for both reference fits"):
        start = time.perf_counter()
        for mode in (AmplitudeMode.EUCLIDEAN, AmplitudeMode.DEPTH_ONLY):
            geometries = [geometry_for_condition(w, d, h, mode) for w, d, h in GRID]
            fit = fit_rows(
                [predictors_for(ModelKind.STANDARD, g) for g in geometries],
                [predict_mt(ModelKind.STANDARD, REFERENCE_STANDARD_ALL.coefficients, g) for g in geometries],
            )
            assert abs(fit.coefficients[0] - (-0.41)) <= 1e-9
            assert abs(fit.coefficients[1] - 0.83) <= 1e-9
            assert fit.r2 == 1.0

            geometries = [geometry_for_condition(w, d, h, mode) for w, d, h in GRID]
            fit = fit_rows(
                [predictors_for(ModelKind.PROPOSED, g) for g in geometries],
                [predict_mt(ModelKind.PROPOSED, REFERENCE_PROPOSED_ALL.coefficients, g) for g in geometries],
            )
            assert abs(fit.coefficients[0] - (-2.46)) <= 1e-9
            assert abs(fit.coefficients[1] - 1.21) <= 1e-9
            assert abs(fit.coefficients[2] - 3.00) <= 1e-9
            assert fit.r2 == 1.0
        assert time.perf_counter() - start < 1.0


def test_criterion_2_model_selection_power():
    with criterion(2, "model selection power over 100 seeded studies"):
        start = time.perf_counter()
        wins = 0
        for seed in range(100):
            config = model_exact_preset(
                SIMULABLE_PROPOSED_ALL, participants=20, seed=seed, mt_noise_sd_s=0.05
            )
            trials = generate_study(config)
            cells = group_summaries(group_by_condition(trials), "All")
            report = compare_models(cells, config.amplitude_mode, "All")
            if report.ranking_aic[0] is ModelKind.PROPOSED:
                wins += 1
        assert wins >= 80, f"Proposed won only {wins}/100 seeds"

        # generating from the single-predictor truth: the true family
        # (expressible as Standard, or as the two-predictor model with a
        # near-zero second slope) always keeps substantial support
        for seed in range(100):
            config = model_exact_preset(REFERENCE_STANDARD_ALL, participants=20, seed=seed)
            trials = generate_study(config)
            cells = group_summaries(group_by_condition(trials), "All")
            report = compare_models(cells, config.amplitude_mode, "All")
            assert report.aic_grades[ModelKind.STANDARD].grade is AicEvidence.SUBSTANTIAL
            assert report.aic_grades[ModelKind.PROPOSED].grade is AicEvidence.SUBSTANTIAL
            assert abs(report.fits[ModelKind.PROPOSED].coefficients[2]) < 1e-6
        assert time.perf_counter() - start < 60.0


def test_criterion_3_evidence_grade_thresholds():
    with criterion(3, "evidence-grade thresholds on the boundary table"):
        aic_expected = {
            0.0: AicEvidence.SUBSTANTIAL,
            1.99: AicEvidence.SUBSTANTIAL,
            2.0: AicEvidence.STRONG,
            3.99: AicEvidence.STRONG,
            4.0: AicEvidence.LESS,
            6.0: AicEvidence.LESS,
            6.99: AicEvidence.LESS,
            7.0: AicEvidence.INDETERMINATE,
            10.0: AicEvidence.INDETERMINATE,
            10.01: AicEvidence.NONE,
        }
        bic_expected = {
            0.0: BicEvidence.NONE,
            1.99: BicEvidence.NONE,
            2.0: BicEvidence.POSITIVE,
            3.99: BicEvidence.POSITIVE,
            4.0: BicEvidence.POSITIVE,
            6.0: BicEvidence.STRONG,
            6.99: BicEvidence.STRONG,
            7.0: BicEvidence.STRONG,
            10.0: BicEvidence.VERY_STRONG,
            10.01: BicEvidence.VERY_STRONG,
        }
        for delta, want in aic_expected.items():
            assert grade_delta(Criterion.AIC, delta).grade is want, delta
        for delta, want in bic_expected.items():
            assert grade_delta(Criterion.BIC, delta).grade is want, delta


def test_criterion_4_ols_oracle_equivalence():
    with criterion(4, "OLS matches the pseudo-inverse oracle on 1000 instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(424242)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(4, 13))
            p = int(rng.integers(1, 4))
            if n < p + 2:
                continue
            x = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, (n, p))])
            y = rng.normal(0.0, 1.0, n)
            fit = fit_rows(x[:, 1:].tolist(), y.tolist())
            coef, _rss = pinv_ols(x, y)
            denom = np.maximum(np.abs(coef), 1.0)
            assert np.all(np.abs(np.asarray(fit.coefficients) - coef) / denom <= 1e-9)

            if p >= 2:
                reduced = fit_rows(x[:, 1:-1].tolist(), y.tolist())
                assert fit.rss <= reduced.rss + 1e-12
            checked += 1
        assert time.perf_counter() - start < 10.0


def test_criterion_5_statistical_identities():
    with criterion(5, "information-criterion and F-distribution identities"):
        a, b = information_criteria(0.70, 4, 2)
        assert a - b == 2 * 2 - 2 * math.log(4)

        rng = np.random.default_rng(55)
        for _ in range(500):
            r2 = float(rng.uniform(0.0, 1.0))
            n = int(rng.integers(4, 40))
            p = int(rng.integers(1, min(n - 2, 4)))
            assert adj_r2(r2, n, p) <= r2 + 1e-15

        grid = [
            (1, 2, 11.571428571428571),
            (1, 2, 0.25),
            (1, 5, 3.2432),
            (2, 5, 5.79),
            (3, 4, 6.59),
            (2, 10, 4.10),
            (1, 18, 4.41),
            (4, 6, 4.53),
            (2, 30, 3.32),
            (5, 5, 5.05),
        ]
        for d1, d2, f in grid:
            mine = f_tail_probability(f, d1, d2)
            oracle = f_tail_by_quadrature(f, d1, d2)
            assert abs(mine - oracle) <= 1e-8, (d1, d2, f)
        worked = f_tail_probability(11.571428571428571, 1, 2)
        assert abs(worked - 0.0766) < 5e-5


def test_criterion_6_throughput_worked_examples():
    with criterion(6, "throughput worked examples are exact"):
        cells = [
            ThroughputCell(Technique.RPRG, Posture.SITTING, 0.2, 3.0, 0.0, 10,
                           3.0, 0.3, 2.0, 1.0, 2.0 / 1.0),
            ThroughputCell(Technique.RPRG, Posture.SITTING, 1.35, 3.0, 0.0, 10,
                           3.0, 0.3, 3.0, 2.0, 3.0 / 2.0),
        ]
        assert throughput_mean_of_means(cells) == 1.75

        deviations = [0.1, 0.15, 0.2]  # sample SD exactly 0.05
        assert statistics.stdev(deviations) == 0.05
        assert effective_width(deviations) == 0.20665


def test_criterion_7_parabola_against_numeric_integration():
    with criterion(7, "parabola landing matches RK4 integration on 1000 launches"):
        start = time.perf_counter()
        result = parabola_landing(
            np.array([0.0, 1.5, 0.0]), np.array([0.0, 3.0, 6.0]), 9.81, 0.0
        )
        assert result is not None
        point, _t = result
        assert np.linalg.norm(point - np.array([0.0, 0.0, 5.626])) < 1e-3

        rng = np.random.default_rng(777)
        origins = rng.uniform([-2.0, 0.8, -2.0], [2.0, 1.8, 2.0], size=(1000, 3))
        velocities = rng.uniform([-4.0, 0.0, 1.0], [4.0, 7.0, 10.0], size=(1000, 3))
        heights = rng.uniform(0.0, 0.5, size=1000)
        oracle = rk4_landing_batch(origins, velocities, 9.81, heights)
        solved = 0
        for i in range(1000):
            mine = parabola_landing(origins[i], velocities[i], 9.81, float(heights[i]))
            if mine is None:
                assert oracle[i] is None
                continue
            assert oracle[i] is not None
            point, _t = mine
            opoint, _ot = oracle[i]
            assert np.linalg.norm(point - opoint) < 1e-3
            solved += 1
        assert solved >= 900
        assert time.perf_counter() - start < 5.0


def _scene_and_aimed_direction(width=2.0, distance=4.0):
    scene = SceneSpec(target=TargetPlacement(width, distance, 0.0))
    hand = np.array([0.0, 1.3, 0.4])
    target = scene.target.center()
    best = None
    for pitch_deg in np.linspace(-60, 80, 1401):
        rad = math.radians(pitch_deg)
        d = np.array([0.0, math.sin(rad), math.cos(rad)])
        vel = scene.launch_velocity(HandSample(0.0, hand, d))
        res = parabola_landing(hand, vel, scene.gravity_m_s2, scene.target.height_m)
        if res is None:
            continue
        err = float(np.linalg.norm(res[0] - target))
        if best is None or err < best[0]:
            best = (err, d)
    assert best is not None and best[0] < width / 2
    return scene, hand, best[1]


def _traces(scene, hand, direction, n, pointer_hand, pinch_left=None, pinch_right=None):
    left, right = [], []
    still = np.array([0.2, 1.1, 0.1])
    fwd = np.array([0.0, 0.0, 1.0])
    for i in range(n):
        t = i * 0.01
        lp = pinch_left is not None and t >= pinch_left
        rp = pinch_right is not None and t >= pinch_right
        if pointer_hand == "right":
            right.append(HandSample(t, hand.copy(), direction.copy(), rp))
            left.append(HandSample(t, still.copy(), fwd.copy(), lp))
        else:
            left.append(HandSample(t, hand.copy(), direction.copy(), lp))
            right.append(HandSample(t, still.copy(), fwd.copy(), rp))
    return left, right


def test_criterion_8_technique_state_machines():
    with criterion(8, "confirmation routing, dwell timing/reset, spike rollback"):
        scene, hand, aim = _scene_and_aimed_direction()
        n = 120

        expectations = {
            Technique.RPRG: dict(pinch_right=0.30, pinch_left=None, expect=0.30),
            Technique.RPLG: dict(pinch_right=None, pinch_left=0.40, expect=0.40),
            Technique.LPLG: dict(pinch_right=None, pinch_left=0.25, expect=0.25),
            Technique.LPRG: dict(pinch_right=0.35, pinch_left=None, expect=0.35),
        }
        for tech, spec in expectations.items():
            config = TechniqueConfig(technique=tech, spike_lookback_s=0.0)
            left, right = _traces(
                scene, hand, aim, n, config.pointer_hand,
                pinch_left=spec["pinch_left"], pinch_right=spec["pinch_right"],
            )
            outcome = run_trial(config, scene, left, right)
            assert outcome is not None, tech
            assert outcome.movement_time_s == pytest.approx(spec["expect"]), tech

        # the wrong hand's pinch must not confirm
        config = TechniqueConfig(technique=Technique.RPLG, spike_lookback_s=0.0)
        left, right = _traces(scene, hand, aim, n, "right", pinch_right=0.3)
        assert run_trial(config, scene, left, right) is None

        # dwell fires at 0.8 s within 0.3 m, pinches ignored
        config = TechniqueConfig(technique=Technique.RPDW, spike_lookback_s=0.0)
        left, right = _traces(scene, hand, aim, n, "right",
                              pinch_left=0.2, pinch_right=0.3)
        outcome = run_trial(config, scene, left, right)
        assert outcome is not None
        assert outcome.movement_time_s == pytest.approx(0.8)

        # dwell excursion resets the timer
        fired = []
        state = None
        for i in range(91):
            t = i * 0.01
            pos = np.array([0.31 if abs(t - 0.7) < 0.004 else 0.0, 0.0, 0.0])
            state, hit = dwell_update(
                state, HandSample(t, pos, np.array([0.0, 0.0, 1.0])), 0.3, 0.8
            )
            if hit:
                fired.append(t)
        assert fired == []

        # spike compensation displaces the selection by v * lookback
        v = 1.0
        trace = [
            HandSample(i * 0.01, np.array([v * i * 0.01, 1.2, 0.0]),
                       np.array([0.0, 0.0, 1.0]))
            for i in range(101)
        ]
        now = spike_compensate(trace, 0.9, lookback_s=0.0)
        back = spike_compensate(trace, 0.9, lookback_s=0.1)
        assert now.position_m[0] - back.position_m[0] == pytest.approx(v * 0.1, abs=1e-9)


def test_criterion_9_end_to_end_realism():
    with criterion(9, "full simulated study reproduces the observed effect structure"):
        start = time.perf_counter()
        config = realistic_preset(participants=20, seed=2024)
        trials = generate_study(config)
        assert len(trials) == 8000
        assert validate_log(trials) == []

        def mean_mt(predicate):
            return statistics.fmean(
                t.movement_time_s for t in trials if predicate(t)
            )

        assert mean_mt(lambda t: t.width_m == 0.2) > mean_mt(lambda t: t.width_m == 1.35)
        assert mean_mt(lambda t: t.distance_m == 9.0) > mean_mt(lambda t: t.distance_m == 3.0)
        assert mean_mt(lambda t: t.height_m == 3.0) > mean_mt(lambda t: t.height_m == 0.0)

        tech_means = {
            tech: mean_mt(lambda t, tech=tech: t.technique is tech) for tech in Technique
        }
        ordering = sorted(tech_means, key=tech_means.get)
        assert ordering == [
            Technique.RPLG,
            Technique.RPRG,
            Technique.LPRG,
            Technique.LPLG,
            Technique.RPDW,
        ]

        square = balanced_latin_square(10)
        for row in square:
            assert sorted(row) == list(range(10))
        for col in zip(*square):
            assert sorted(col) == list(range(10))
        pairs = Counter((row[i], row[i + 1]) for row in square for i in range(9))
        assert len(pairs) == 90
        assert set(pairs.values()) == {1}

        reports = run_table1_suite(trials, config.amplitude_mode)
        assert len(reports) == 8
        tp = throughput_by_group(trials, config.amplitude_mode)
        assert len(tp) == 10
        assert time.perf_counter() - start < 10.0
