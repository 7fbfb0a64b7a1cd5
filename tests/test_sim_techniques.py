import math

import numpy as np
import pytest

from telefitts.trials import Technique
from telefitts.sim import (
    HandSample,
    SceneSpec,
    TargetPlacement,
    TechniqueConfig,
    dwell_update,
    run_trial,
)
from telefitts.sim.techniques import DWELL_THRESHOLD_S


def hand_trace(n, dt=0.01, pos=(0.0, 1.2, 0.2), pinch_at=None, positions=None):
    out = []
    for i in range(n):
        t = i * dt
        p = np.array(positions[i] if positions is not None else pos, dtype=float)
        out.append(
            HandSample(t, p, np.array([0.0, 0.0, 1.0]), pinch=pinch_at is not None and t >= pinch_at)
        )
    return out


def aimed_scene(width=2.0, distance=4.0, height=0.0):
    # generous target straight ahead; the default launch parameters reach it
    # from a comfortably extended arm
    return SceneSpec(target=TargetPlacement(width, distance, height))


def aimed_trace(scene, n, dt=0.01, pinch_at=None):
    """Trace whose casts land on the target center (solved numerically)."""
    hand = np.array([0.0, 1.3, 0.4])
    target = scene.target.center()
    best = None
    for pitch_deg in np.linspace(-60, 80, 2801):
        rad = math.radians(pitch_deg)
        d = np.array([0.0, math.sin(rad), math.cos(rad)])
        sample = HandSample(0.0, hand, d)
        vel = scene.launch_velocity(sample)
        from telefitts.sim import parabola_landing

        res = parabola_landing(hand, vel, scene.gravity_m_s2, scene.target.height_m)
        if res is None:
            continue
        err = float(np.linalg.norm(res[0] - target))
        if best is None or err < best[0]:
            best = (err, d)
    assert best is not None and best[0] < scene.target.width_m / 2, (
        "test scene must be reachable"
    )
    d = best[1]
    out = []
    for i in range(n):
        t = i * dt
        out.append(HandSample(t, hand.copy(), d.copy(),
                              pinch=pinch_at is not None and t >= pinch_at))
    return out


class TestDwellUpdate:
    def _samples(self, positions, dt=0.01):
        return [
            HandSample(i * dt, np.array(p, dtype=float), np.array([0.0, 0.0, 1.0]))
            for i, p in enumerate(positions)
        ]

    def test_fires_at_threshold_within_radius(self):
        # hold 0.29 m off anchor-adjacent jitter for 0.9 s at 100 Hz
        positions = [(0.29 * (i % 2), 0.0, 0.0) for i in range(91)]
        samples = self._samples(positions)
        state = None
        fired_at = None
        for s in samples:
            state, fired = dwell_update(state, s, radius_m=0.3, threshold_s=0.8)
            if fired:
                fired_at = s.t_s
                break
        assert fired_at == pytest.approx(0.8)

    def test_excursion_resets_timer(self):
        positions = []
        for i in range(91):
            t = i * 0.01
            if abs(t - 0.7) < 0.004:
                positions.append((0.31, 0.0, 0.0))
            else:
                positions.append((0.0, 0.0, 0.0))
        state = None
        fired_times = []
        for s in self._samples(positions):
            state, fired = dwell_update(state, s, radius_m=0.3, threshold_s=0.8)
            if fired:
                fired_times.append(s.t_s)
        assert not fired_times

    @pytest.mark.parametrize("parameter, value", [
        ("radius_m", math.nan), ("radius_m", math.inf), ("radius_m", -0.3),
        ("threshold_s", math.nan), ("threshold_s", math.inf), ("threshold_s", -0.8),
    ])
    def test_rejects_a_bad_radius_or_threshold(self, parameter, value):
        """A nan threshold never fired and a nan radius fired on any motion."""
        samples = self._samples([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0)])
        state, _ = dwell_update(None, samples[0])
        for prior in (None, state):
            with pytest.raises(ValueError, match=f"{parameter} must be a finite, non-negative"):
                dwell_update(prior, samples[1], **{parameter: value})

    def test_zero_threshold_fires_immediately(self):
        samples = self._samples([(0.0, 0.0, 0.0)])
        state, fired = dwell_update(None, samples[0], radius_m=0.3, threshold_s=0.0)
        assert fired


class TestConfirmationRouting:
    def _run(self, technique, left_pinch, right_pinch, n=60):
        scene = aimed_scene()
        config = TechniqueConfig(technique=technique, spike_lookback_s=0.0)
        pointer = aimed_trace(scene, n, pinch_at=None)
        left = hand_trace(n, pinch_at=left_pinch)
        right = hand_trace(n, pinch_at=right_pinch)
        if config.pointer_hand == "right":
            right = aimed_trace(scene, n, pinch_at=right_pinch)
        else:
            left = aimed_trace(scene, n, pinch_at=left_pinch)
        return run_trial(config, scene, left, right)

    def test_rprg_confirms_on_right_pinch(self):
        outcome = self._run(Technique.RPRG, left_pinch=None, right_pinch=0.3)
        assert outcome is not None and outcome.success
        assert outcome.movement_time_s == pytest.approx(0.3)

    def test_rplg_ignores_right_pinch(self):
        assert self._run(Technique.RPLG, left_pinch=None, right_pinch=0.3) is None

    def test_rplg_confirms_on_left_pinch(self):
        outcome = self._run(Technique.RPLG, left_pinch=0.4, right_pinch=None)
        assert outcome is not None
        assert outcome.movement_time_s == pytest.approx(0.4)

    def test_lplg_confirms_on_left_pinch(self):
        outcome = self._run(Technique.LPLG, left_pinch=0.25, right_pinch=None)
        assert outcome is not None

    def test_lprg_confirms_on_right_pinch(self):
        outcome = self._run(Technique.LPRG, left_pinch=None, right_pinch=0.35)
        assert outcome is not None
        assert outcome.movement_time_s == pytest.approx(0.35)

    def test_rpdw_ignores_all_pinches(self):
        # pinches on both hands, dwell threshold longer than the trace
        scene = aimed_scene()
        config = TechniqueConfig(technique=Technique.RPDW, spike_lookback_s=0.0)
        n = 60
        assert (n - 1) * 0.01 < DWELL_THRESHOLD_S
        left = hand_trace(n, pinch_at=0.2)
        right = aimed_trace(scene, n, pinch_at=0.3)
        assert run_trial(config, scene, left, right) is None

    def test_rpdw_fires_by_dwell(self):
        scene = aimed_scene()
        config = TechniqueConfig(technique=Technique.RPDW, spike_lookback_s=0.0)
        n = 100
        left = hand_trace(n)
        right = aimed_trace(scene, n)
        outcome = run_trial(config, scene, left, right)
        assert outcome is not None
        assert outcome.movement_time_s == pytest.approx(DWELL_THRESHOLD_S)


class TestMissAndRetry:
    def test_miss_increments_error_attempts_and_trial_continues(self):
        scene = SceneSpec(target=TargetPlacement(0.4, 4.0, 0.0))
        config = TechniqueConfig(technique=Technique.RPRG, spike_lookback_s=0.0)
        n = 120
        good = aimed_trace(scene, n)
        # first pinch while pointing straight down (guaranteed miss), then aim
        bad_dir = np.array([0.0, -1.0, 0.0])
        right = []
        for i, s in enumerate(good):
            t = i * 0.01
            if t < 0.4:
                right.append(HandSample(t, s.position_m, bad_dir, pinch=abs(t - 0.3) < 0.004))
            else:
                right.append(HandSample(t, s.position_m, s.direction, pinch=t >= 0.8))
        left = hand_trace(n)
        outcome = run_trial(config, scene, left, right)
        assert outcome is not None
        assert outcome.error_attempts == 1
        assert outcome.success
        assert outcome.movement_time_s == pytest.approx(0.8)

    def test_spike_compensation_rolls_back_selection(self):
        # pointer sweeps sideways at 1 m/s; lookback 0.1 s lands 0.1 m behind
        scene = aimed_scene(width=8.0, distance=3.0)
        n = 80
        dt = 0.01
        base = aimed_trace(scene, n)
        moving = [
            HandSample(i * dt, s.position_m + np.array([i * dt, 0.0, 0.0]),
                       s.direction, pinch=i * dt >= 0.5)
            for i, s in enumerate(base)
        ]
        left = hand_trace(n)
        cfg_now = TechniqueConfig(technique=Technique.RPRG, spike_lookback_s=0.0)
        cfg_back = TechniqueConfig(technique=Technique.RPRG, spike_lookback_s=0.1)
        out_now = run_trial(cfg_now, scene, left, [s for s in moving])
        out_back = run_trial(cfg_back, scene, left, [s for s in moving])
        assert out_now is not None and out_back is not None
        dx = out_now.selection_point_m[0] - out_back.selection_point_m[0]
        # hand moved 0.1 m; the landing shifts by the same amount plus the
        # flight-time contribution of the unchanged direction
        assert dx == pytest.approx(0.1, abs=0.02)


class TestSmoothedPointer:
    def test_smoothing_engages_and_trial_still_succeeds(self):
        rng = np.random.default_rng(6)
        scene = aimed_scene(width=3.0)
        config = TechniqueConfig(technique=Technique.RPRG, spike_lookback_s=0.0)
        n = 80
        base = aimed_trace(scene, n, pinch_at=0.5)
        jittered = [
            HandSample(s.t_s, s.position_m + rng.normal(0, 0.004, 3),
                       s.direction, s.pinch)
            for s in base
        ]
        left = hand_trace(n)
        raw = run_trial(config, scene, left, jittered)
        smoothed = run_trial(config, scene, left, jittered, smooth_pointer=True)
        assert raw is not None and smoothed is not None
        assert smoothed.selection_point_m != raw.selection_point_m
        assert smoothed.movement_time_s == raw.movement_time_s


class TestRunTrial:
    def test_requires_time_alignment(self):
        scene = aimed_scene()
        config = TechniqueConfig(technique=Technique.RPRG)
        left = [HandSample(0.0, np.zeros(3), np.array([0.0, 0.0, 1.0]))]
        right = [HandSample(0.5, np.zeros(3), np.array([0.0, 0.0, 1.0]))]
        with pytest.raises(ValueError, match="time-aligned"):
            run_trial(config, scene, left, right)

    def test_realized_amplitude_measured_from_start_cube(self):
        scene = aimed_scene()
        config = TechniqueConfig(technique=Technique.RPRG, spike_lookback_s=0.0)
        n = 50
        right = aimed_trace(scene, n, pinch_at=0.3)
        left = hand_trace(n)
        outcome = run_trial(config, scene, left, right)
        assert outcome is not None
        expected = np.linalg.norm(
            np.asarray(outcome.selection_point_m) - scene.start_cube_center()
        )
        assert outcome.realized_amplitude_m == pytest.approx(float(expected))
