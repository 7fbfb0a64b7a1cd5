"""The array hand trace and the kinematic layer built on it, checked against
the per-sample reference implementations in ``oracles``."""

import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telefitts.sim.filters
import telefitts.sim.techniques
from telefitts.sim.filters import _OPERATOR_MAX_SAMPLES, _grid_filter
from telefitts.sim.hands import _grid_times, _rate_times
from telefitts.sim.techniques import DWELL_RADIUS_M, DWELL_THRESHOLD_S
from telefitts.trials import Technique
from telefitts.sim import (
    HandSample,
    HandTrace,
    SceneSpec,
    StationaryHand,
    TargetPlacement,
    TechniqueConfig,
    kalman_smooth,
    minimum_jerk_profile,
    parabola_landing,
    run_trial,
    sample_at,
    spike_compensate,
    synth_hand_trace,
)

from oracles import (
    kalman_smooth_operator_reference,
    kalman_smooth_reference,
    run_trial_reference,
    scalar_kalman_positions,
    stationary_trace_reference,
    synth_hand_trace_reference,
)

FORWARD = np.array([0.0, 0.0, 1.0])
DOWN = np.array([0.0, -1.0, 0.0])
HAND_M = np.array([0.0, 1.3, 0.4])


def aim(scene, hand=HAND_M):
    """Unit direction whose arc from ``hand`` lands nearest the target center."""
    best = None
    for pitch in np.radians(np.linspace(-60, 80, 1401)):
        d = np.array([0.0, math.sin(pitch), math.cos(pitch)])
        landing = parabola_landing(hand, scene.launch_velocity(HandSample(0.0, hand, d)),
                                   scene.gravity_m_s2, scene.target.height_m)
        if landing is not None:
            err = float(np.linalg.norm(landing[0] - scene.target.center()))
            if best is None or err < best[0]:
                best = (err, d)
    return best[1]


def assert_same_outcome(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    assert got.movement_time_s == want.movement_time_s
    assert got.error_attempts == want.error_attempts
    assert got.success is want.success
    assert got.endpoint_deviation_m == pytest.approx(want.endpoint_deviation_m, rel=0, abs=1e-12)
    assert got.realized_amplitude_m == pytest.approx(want.realized_amplitude_m, rel=0, abs=1e-12)
    assert np.allclose(got.selection_point_m, want.selection_point_m, rtol=0, atol=1e-12)


class TestHandTrace:
    def _trace(self):
        return synth_hand_trace(np.zeros(3), np.array([0.2, 0.1, 0.4]), 0.5,
                                tremor_sd_m=0.01, seed=3, pinch_at_s=0.2)

    def test_columns_are_read_only_arrays(self):
        trace = self._trace()
        assert len(trace) == 51
        assert trace.t_s.shape == (51,) and trace.position_m.shape == (51, 3)
        assert trace.direction.shape == (51, 3) and trace.pinch.dtype == bool
        for column in trace.columns:
            with pytest.raises(ValueError):
                column[0] = 1

    def test_samples_built_on_indexing(self):
        trace = self._trace()
        sample = trace[-1]
        assert isinstance(sample, HandSample) and sample.pinch is True
        assert sample.t_s == 0.5 and isinstance(sample.t_s, float)
        assert np.array_equal(sample.position_m, trace.position_m[-1])
        sample.position_m[0] = 7.0  # a copy, not a view of the trace
        assert trace.position_m[-1, 0] != 7.0
        with pytest.raises(IndexError):
            trace[51]

    def test_slice_is_a_trace_view(self):
        trace = self._trace()
        head = trace[:10]
        assert isinstance(head, HandTrace) and len(head) == 10
        assert np.shares_memory(head.position_m, trace.position_m)
        assert head == list(trace)[:10]
        assert trace[::2] == list(trace)[::2]
        with pytest.raises(ValueError, match="strictly increasing"):
            trace[::-1]

    def test_prefix_slices_alone_keep_the_grid_rate(self):
        trace = self._trace()
        assert trace._grid_rate_hz == 100.0
        for prefix in (trace[:10], trace[0:10:1], trace[:], trace[:-1], trace[:0]):
            assert prefix._grid_rate_hz == 100.0
        for other in (trace[1:], trace[::2], trace[-5:], HandTrace.from_samples(list(trace)),
                      HandTrace(*trace.columns)):
            assert other._grid_rate_hz is None

    def test_equals_list_of_the_same_samples(self):
        trace = self._trace()
        samples = list(trace)
        assert trace == samples and samples == trace
        assert HandTrace.from_samples(samples) == trace
        assert HandTrace.from_samples(trace) is trace
        samples[4] = HandSample(samples[4].t_s, samples[4].position_m + 1e-15,
                                samples[4].direction, samples[4].pinch)
        assert trace != samples
        assert trace != samples[:-1]
        assert trace != "not a trace"

    @pytest.mark.parametrize("column, row, value, match", [
        ("t_s", 2, math.nan, "must be finite"),
        ("t_s", 2, 0.01, "strictly increasing"),
        ("position_m", 1, math.inf, "must be finite"),
        ("direction", 3, math.nan, "must be finite"),
        ("direction", 3, 2.0, "unit length"),
    ])
    def test_rejects_bad_samples(self, column, row, value, match):
        columns = [np.array(c) for c in self._trace().columns]
        target = columns[("t_s", "position_m", "direction").index(column)]
        target[row] = value
        with pytest.raises(ValueError, match=match):
            HandTrace(*columns)

    def test_rejects_mismatched_shapes(self):
        t, pos, d, pinch = self._trace().columns
        with pytest.raises(ValueError, match="positions and directions"):
            HandTrace(t, pos[:, :2], d[:, :2], pinch)
        with pytest.raises(ValueError, match="positions and directions"):
            HandTrace(t[:-1], pos, d, pinch)
        with pytest.raises(ValueError, match="pinch"):
            HandTrace(t, pos, d, pinch[:-1])


class TestSampleInputChecks:
    @pytest.mark.parametrize("t, pos, d", [
        (0.0, np.zeros(3), np.array([math.nan, 0.0, 0.0])),
        (0.0, np.zeros(3), np.array([math.nan, math.nan, math.nan])),
        (0.0, np.array([0.0, math.nan, 0.0]), FORWARD),
        (math.inf, np.zeros(3), FORWARD),
        (0.0, np.zeros(2), FORWARD),
    ])
    def test_hand_sample_rejects_non_finite_or_misshaped(self, t, pos, d):
        with pytest.raises(ValueError):
            HandSample(t, pos, d)

    @pytest.mark.parametrize("field", ["spike_lookback_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TechniqueConfig(Technique.RPDW, **{field: value})

    @pytest.mark.parametrize("noise", [(0.0, 1e-4), (50.0, math.nan), (math.inf, 1e-4)])
    def test_kalman_rejects_bad_noise(self, noise):
        with pytest.raises(ValueError, match="noise"):
            kalman_smooth(StationaryHand().trace(0.1), *noise)

    @pytest.mark.parametrize("make, step", [
        (lambda: HandTrace([0.0, 1e80], np.zeros((2, 3)), np.tile(FORWARD, (2, 1))), 0),
        (lambda: HandTrace([0.0, 1.0, 1e80], np.zeros((3, 3)), np.tile(FORWARD, (3, 1))), 1),
        (lambda: synth_hand_trace(np.zeros(3), np.ones(3), 2e80, sample_rate_hz=1e-80), 0),
    ], ids=["off-grid", "off-grid-later-step", "grid"])
    def test_kalman_rejects_a_time_step_whose_power_overflows(self, make, step):
        """On and off a rate's grid; the gains' powers would raise OverflowError."""
        with pytest.raises(ValueError, match=rf"^time step {step} of the trace \(.* s\) "
                                             r"is too long to smooth$"):
            kalman_smooth(make())

    @pytest.mark.parametrize("tremor", [math.nan, -0.002, math.inf])
    def test_synth_rejects_bad_tremor(self, tremor):
        with pytest.raises(ValueError, match="tremor_sd_m"):
            synth_hand_trace(np.zeros(3), np.ones(3), 0.5, tremor_sd_m=tremor)

    @pytest.mark.parametrize("duration", [-1.0, 0.0, math.nan, math.inf])
    def test_traces_reject_bad_duration(self, duration):
        with pytest.raises(ValueError, match="duration_s"):
            StationaryHand().trace(duration)
        with pytest.raises(ValueError, match="duration_s"):
            synth_hand_trace(np.zeros(3), np.ones(3), duration)

    @pytest.mark.parametrize("rate", [0.0, -100.0, math.nan])
    def test_traces_reject_bad_sample_rate(self, rate):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            StationaryHand().trace(0.5, sample_rate_hz=rate)
        with pytest.raises(ValueError, match="sample_rate_hz"):
            synth_hand_trace(np.zeros(3), np.ones(3), 0.5, sample_rate_hz=rate)

    def test_traces_reject_a_sample_count_that_overflows(self):
        match = r"duration_s=1e\+300 at sample_rate_hz=1e\+300"
        with pytest.raises(ValueError, match=match):
            synth_hand_trace(np.zeros(3), np.ones(3), 1e300, sample_rate_hz=1e300)
        with pytest.raises(ValueError, match=match):
            StationaryHand().trace(1e300, 1e300)

    @pytest.mark.parametrize("direction", [np.zeros(3), np.array([0.0, math.nan, 1.0]),
                                           np.array([math.inf, 0.0, 1.0]), np.ones(2)])
    def test_synth_rejects_bad_direction_by_name(self, direction):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by a zero norm first
            with pytest.raises(ValueError, match="direction must be a finite, non-zero"):
                synth_hand_trace(np.zeros(3), np.ones(3), 0.5, direction=direction)

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 5e-324])
    def test_synth_takes_directions_whose_squares_leave_the_float_range(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in the norm
            trace = synth_hand_trace(np.zeros(3), np.ones(3), 0.5,
                                     direction=np.array([scale, 0.0, 0.0]))
        assert (trace.direction == [1.0, 0.0, 0.0]).all()

    def test_synth_keeps_the_bits_of_an_ordinary_direction(self):
        aim = np.array([0.3, -1.7, 2.9])
        trace = synth_hand_trace(np.zeros(3), np.ones(3), 0.5, direction=aim)
        assert (trace.direction == aim / np.linalg.norm(aim)).all()

    @pytest.mark.parametrize("start, end, match", [
        (np.zeros((101, 3)), np.ones(3), "from_point_m must be a finite 3-vector"),
        (np.zeros(3), np.ones(2), "to_point_m must be a finite 3-vector"),
        (np.array([math.inf, 0.0, 0.0]), np.ones(3), "from_point_m must be a finite 3-vector"),
        (np.array([-1e308, 0.0, 0.0]), np.array([1e308, 0.0, 0.0]), "leaves the float range"),
    ], ids=["per-sample-start", "2-vector-end", "infinite-start", "overflowing-reach"])
    def test_synth_rejects_bad_endpoints_by_name(self, start, end, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                synth_hand_trace(start, end, 1.0)

    def test_synth_rejects_overflowing_tremor_without_a_warning(self):
        edge = np.array([1.7e308, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                synth_hand_trace(edge, edge, 1.0, tremor_sd_m=1e308)

    @pytest.mark.parametrize("tremor", [0.0, 0.002])
    @pytest.mark.parametrize("seed", [True, False, 1.5, -1, np.int64(-1), "1", None])
    def test_synth_rejects_bad_seed_whatever_the_tremor(self, seed, tremor):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            synth_hand_trace(np.zeros(3), np.ones(3), 0.5, tremor_sd_m=tremor, seed=seed)

    def test_synth_takes_numpy_integer_seeds(self):
        args = (np.zeros(3), np.ones(3), 0.5)
        assert synth_hand_trace(*args, tremor_sd_m=0.01, seed=np.int64(4)) == \
            synth_hand_trace(*args, tremor_sd_m=0.01, seed=4)

    @pytest.mark.parametrize("position, direction, match", [
        (np.zeros(2), FORWARD, "position_m must be a finite 3-vector"),
        (np.array([0.0, math.nan, 0.0]), FORWARD, "position_m must be a finite 3-vector"),
        (np.zeros(3), np.array([0.0, 0.0, 2.0]), "direction must be a finite unit 3-vector"),
        (np.zeros(3), np.array([0.0, math.inf, 1.0]), "direction must be a finite unit 3-vector"),
        (np.zeros(3), np.tile(FORWARD, (2, 1)), "direction must be a finite unit 3-vector"),
    ])
    def test_stationary_hand_rejects_bad_vectors_by_name(self, position, direction, match):
        with pytest.raises(ValueError, match=match):
            StationaryHand(position, direction).trace(0.5)

    @pytest.mark.parametrize("technique", ["RPRG", None, 0])
    def test_config_rejects_a_technique_that_is_not_one(self, technique):
        with pytest.raises(ValueError, match="technique must be a Technique"):
            TechniqueConfig(technique)

    def test_traces_reject_nan_pinch_time(self):
        with pytest.raises(ValueError, match="pinch_at_s"):
            synth_hand_trace(np.zeros(3), np.ones(3), 0.5, pinch_at_s=math.nan)
        with pytest.raises(ValueError, match="pinch_at_s"):
            StationaryHand().trace(0.5, pinch_at_s=math.nan)
        never, always = (StationaryHand().trace(0.5, pinch_at_s=t).pinch
                         for t in (math.inf, -math.inf))
        assert not never.any() and always.all()

    def test_sample_at_rejects_nan_and_empty_and_clamps_infinities(self):
        trace = synth_hand_trace(np.zeros(3), np.ones(3), 1.0, tremor_sd_m=0.01, seed=2)
        with pytest.raises(ValueError, match="t_s = nan"):
            sample_at(trace, math.nan)
        with pytest.raises(ValueError, match="empty trace"):
            sample_at(trace[:0], 0.0)
        for t, index in ((math.inf, -1), (-math.inf, 0)):
            sample = sample_at(trace, t)
            assert np.array_equal(sample.position_m, trace.position_m[index])
            assert sample.t_s == trace.t_s[index]

    @pytest.mark.parametrize("field, value", [
        ("width_m", 0.0), ("width_m", -0.4), ("width_m", math.nan),
        ("distance_m", 0.0), ("distance_m", math.inf),
        ("height_m", -0.1), ("height_m", math.nan), ("angle_deg", math.nan),
    ])
    def test_target_placement_rejects_bad_fields(self, field, value):
        fields = {"width_m": 0.4, "distance_m": 4.0, "height_m": 0.0, **{field: value}}
        with pytest.raises(ValueError, match=field):
            TargetPlacement(**fields)

    @pytest.mark.parametrize("field, value", [
        ("width_m", "0.4"), ("width_m", True), ("distance_m", None),
        ("height_m", np.bool_(False)), ("angle_deg", np.array(0.0)), ("angle_deg", 1j),
    ])
    def test_target_placement_rejects_values_that_are_not_numbers(self, field, value):
        fields = {"width_m": 0.4, "distance_m": 4.0, "height_m": 0.0, **{field: value}}
        with pytest.raises(ValueError, match=f"TargetPlacement.{field} must be a finite"):
            TargetPlacement(**fields)

    def test_target_placement_takes_ints_floats_and_numpy_numbers(self):
        for width, distance in ((1, 4), (0.4, 4.0), (np.float64(0.4), np.float32(4.0)),
                                (np.float16(0.5), np.int64(4))):
            placement = TargetPlacement(width, distance, 0)
            assert np.array_equal(placement.center(), [0.0, 0.0, float(distance)])

    @pytest.mark.parametrize("field, value", [
        ("gravity_m_s2", 0.0), ("gravity_m_s2", -9.81), ("gravity_m_s2", math.inf),
    ])
    def test_scene_rejects_bad_fields(self, field, value):
        """Gravity is a read-only constant: no scene sets it."""
        with pytest.raises(TypeError, match=field):
            SceneSpec(target=TargetPlacement(0.4, 4.0, 0.0), **{field: value})
        scene = SceneSpec(target=TargetPlacement(0.4, 4.0, 0.0))
        with pytest.raises(AttributeError, match=field):
            setattr(scene, field, value)
        assert scene.gravity_m_s2 == 9.81


class TestParityWithPerSampleReference:
    @pytest.mark.parametrize("kwargs", [
        dict(tremor_sd_m=0.0, sample_rate_hz=100.0, seed=1),
        dict(tremor_sd_m=0.004, sample_rate_hz=90.0, seed=13, pinch_at_s=0.31),
        dict(tremor_sd_m=0.002, sample_rate_hz=72.0, seed=7,
             direction=np.array([0.3, 0.5, 2.0]), pinch_at_s=0.0),
    ])
    def test_synth_trace_exactly_equal(self, kwargs):
        args = (np.array([0.0, 1.35, 0.72]), np.array([0.05, 1.45, 0.76]), 0.83)
        assert synth_hand_trace(*args, **kwargs) == synth_hand_trace_reference(*args, **kwargs)

    @pytest.mark.parametrize("pinch_at_s", [None, 0.4])
    def test_stationary_trace_exactly_equal(self, pinch_at_s):
        hand = StationaryHand(np.array([0.2, 1.1, 0.1]), np.array([0.6, 0.0, 0.8]))
        want = stationary_trace_reference(hand.position_m, hand.direction, 0.7, 60.0,
                                          pinch_at_s=pinch_at_s)
        assert hand.trace(0.7, 60.0, pinch_at_s=pinch_at_s) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_kalman_within_1e12(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        t = np.cumsum(rng.uniform(0.004, 0.03, n))
        pos = np.cumsum(rng.normal(0, 0.01, (n, 3)), axis=0)
        d = np.array([0.2, 0.1, 1.0]) + np.cumsum(rng.normal(0, 0.02, (n, 3)), axis=0)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        samples = [HandSample(*row) for row in zip(t, pos, d, rng.random(n) < 0.5)]
        q, r = rng.uniform(1, 100), 10 ** rng.uniform(-5, -2)
        got, want = kalman_smooth(samples, q, r), kalman_smooth_reference(samples, q, r)
        assert len(got) == len(want)
        want_pos = np.array([s.position_m for s in want])
        want_dir = np.array([s.direction for s in want])
        assert np.abs(got.position_m - want_pos).max() <= 1e-12
        assert np.abs(got.direction - want_dir).max() <= 1e-12
        assert np.array_equal(got.t_s, t)
        assert np.array_equal(got.pinch, [s.pinch for s in want])

    @pytest.mark.parametrize("technique", list(Technique))
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_scripted_trials(self, technique, smooth, seed):
        scene = SceneSpec(target=TargetPlacement(0.6, 4.0, 0.0))
        config = TechniqueConfig(technique)
        pinch_at = 0.5 + 0.1 * seed
        pointer = synth_hand_trace(HAND_M, HAND_M + [0.03, 0.02, 0.01], 1.2,
                                   tremor_sd_m=0.003, seed=seed, direction=aim(scene),
                                   pinch_at_s=pinch_at if config.confirm_hand ==
                                   config.pointer_hand else None)
        other = StationaryHand().trace(1.2, pinch_at_s=pinch_at)
        left, right = (other, pointer) if config.pointer_hand == "right" else (pointer, other)
        want = run_trial_reference(config, scene, list(left), list(right), smooth)
        assert want is not None and want.error_attempts == 0
        assert_same_outcome(run_trial(config, scene, left, right, smooth), want)
        assert_same_outcome(run_trial(config, scene, list(left), list(right), smooth), want)

    @pytest.mark.parametrize("technique", list(Technique))
    @pytest.mark.parametrize("smooth", [False, True])
    def test_miss_then_hit(self, technique, smooth):
        # the first confirmation (a pinch at 0.3 s, or RPDW's dwell at 0.8 s)
        # points straight down, a miss; the second aims at the target. RPDW
        # re-anchors when the hand jumps past the dwell radius at 0.9 s, and
        # fires again a dwell threshold later.
        assert DWELL_THRESHOLD_S < 0.9 and DWELL_RADIUS_M < 0.4
        scene = SceneSpec(target=TargetPlacement(0.8, 4.0, 0.0))
        config = TechniqueConfig(technique, spike_lookback_s=0.05)
        t = np.arange(251) / 100.0
        pos = np.tile(HAND_M, (251, 1)) + np.random.default_rng(2).normal(0, 0.002, (251, 3))
        pos[t >= 0.9] += [0.0, 0.0, 0.4]
        d = np.where((t < 1.2)[:, None], DOWN, aim(scene, HAND_M + [0.0, 0.0, 0.4]))
        pinch = ((t >= 0.3) & (t < 0.5)) | (t >= 2.0)
        still = StationaryHand().trace(2.5)
        pointer, confirm = HandTrace(t, pos, d, pinch), HandTrace(t, still.position_m,
                                                                  still.direction, pinch)
        if config.confirm_hand == config.pointer_hand:
            confirm = still
        left, right = (confirm, pointer) if config.pointer_hand == "right" else (pointer, confirm)
        want = run_trial_reference(config, scene, list(left), list(right), smooth)
        assert want is not None and want.error_attempts >= 1
        assert_same_outcome(run_trial(config, scene, left, right, smooth), want)

    @pytest.mark.parametrize("technique", [Technique.RPRG, Technique.RPLG])
    def test_pinch_from_the_first_sample_confirms_there(self, technique):
        scene = SceneSpec(target=TargetPlacement(0.8, 4.0, 0.0))
        config = TechniqueConfig(technique)
        pointer = synth_hand_trace(HAND_M, HAND_M, 0.5, direction=aim(scene), pinch_at_s=0.0)
        other = StationaryHand().trace(0.5, pinch_at_s=0.0)
        want = run_trial_reference(config, scene, list(other), list(pointer))
        assert want is not None and want.movement_time_s == 0.0
        assert_same_outcome(run_trial(config, scene, other, pointer), want)

    def test_spike_rollback_on_a_trace_prefix(self):
        trace = synth_hand_trace(np.zeros(3), np.ones(3), 1.0, seed=0)
        for confirm in (0.0, 0.05, 0.333, 0.5, 1.0):
            for lookback in (0.0, 0.07, 0.1, 2.0):
                got = spike_compensate(trace, confirm, lookback)
                want = spike_compensate(list(trace), confirm, lookback)
                assert got.t_s == want.t_s
                assert np.array_equal(got.position_m, want.position_m)


def _clear_rate_columns():
    _rate_times.cache_clear()


def _kept_column(rate):
    """The column kept for ``rate``, without counting the lookup as a use."""
    hits, misses, _, size = _rate_times.cache_info()
    column = _rate_times(rate)[0]
    assert _rate_times.cache_info()[:2] == (hits + 1, misses), "no column kept"
    return column


#: (duration, rate) grids; the second and third hold 101 samples as the first
#: does, on other times, and the last takes a duration and rate as integers.
GRIDS = [(1.0, 100.0), (0.5, 200.0), (1.0, 100.0000001), (0.83, 72.0), (2, 30)]


class TestRateTimeColumn:
    """Every trace at one sample rate views a prefix of the rate's one
    read-only time column; no rate's column serves another, and the reach
    and pinch are computed per trace."""

    def test_traces_view_one_read_only_column_per_rate(self):
        _clear_rate_columns()
        longest = StationaryHand().trace(2.0, pinch_at_s=0.4)
        column = _kept_column(100.0)
        traces = [synth_hand_trace(np.zeros(3), np.ones(3), d, pinch_at_s=0.4)
                  for d in (1.0, 0.37, 2.0)] + [StationaryHand().trace(1.3), longest]
        for trace in traces:
            assert trace.t_s.base is column and trace._grid_rate_hz == 100.0
            assert np.array_equal(trace.t_s, np.arange(len(trace)) / 100.0)
            for array in trace.columns:
                with pytest.raises(ValueError):
                    array[0] = 1
        assert synth_hand_trace(np.zeros(3), np.ones(3), 3.0).t_s.base is not column
        assert len(_kept_column(100.0)) == 301  # grown, checked, and the same bits:
        assert np.array_equal(_kept_column(100.0)[:len(column)], column)

    def test_no_rate_serves_another(self):
        _clear_rate_columns()
        for round_ in range(2):  # the second round views the kept columns
            for duration, rate in GRIDS:
                for pinch_at_s in (None, 0.25, 0.255, -math.inf, 0.05 * round_):
                    trace = StationaryHand().trace(duration, rate, pinch_at_s=pinch_at_s)
                    t = np.arange(int(round(duration * rate)) + 1) / rate
                    assert np.array_equal(trace.t_s, t) and trace._grid_rate_hz == rate
                    want = np.zeros(len(t), bool) if pinch_at_s is None else t >= pinch_at_s
                    assert np.array_equal(trace.pinch, want)
        assert _rate_times.cache_info().currsize == len(GRIDS)

    def test_columns_past_the_bound_are_dropped_least_recently_used_first(self):
        _clear_rate_columns()
        kept = _rate_times.cache_info().maxsize
        rates = [50.0 + k for k in range(kept + 3)]
        for rate in rates:
            trace = synth_hand_trace(np.zeros(3), np.ones(3), 0.5, sample_rate_hz=rate)
            assert trace == synth_hand_trace_reference(np.zeros(3), np.ones(3), 0.5,
                                                       sample_rate_hz=rate)
        for rate in rates[-kept:]:
            assert len(_kept_column(rate)) == round(0.5 * rate) + 1
        misses = _rate_times.cache_info().misses
        assert synth_hand_trace(np.zeros(3), np.ones(3), 0.5, sample_rate_hz=rates[0]) == \
            synth_hand_trace_reference(np.zeros(3), np.ones(3), 0.5, sample_rate_hz=rates[0])
        assert _rate_times.cache_info().misses == misses + 1

    def test_stationary_traces_keep_position_and_direction_bits(self):
        _clear_rate_columns()
        hands = [StationaryHand(np.array(p), np.array(d)) for p, d in (
            ([0.0, 1.2, 0.2], [0.0, 0.0, 1.0]), ([-0.0, 1.2, 0.2], [0.0, 0.0, 1.0]),
            ([0.0, 1.2, 0.2], [0.6, 0.0, 0.8]), ([0.0, 1.2, 0.2 + 1e-16], [0.0, 0.0, 1.0]))]
        for round_ in range(2):
            for hand in hands:
                for duration, rate in GRIDS:
                    got = hand.trace(duration, rate, pinch_at_s=0.3)
                    want = stationary_trace_reference(hand.position_m, hand.direction,
                                                      duration, rate, pinch_at_s=0.3)
                    assert got == want  # and bit for bit, which tells -0.0 from 0.0:
                    assert got.position_m.tobytes() == np.tile(hand.position_m,
                                                               (len(got), 1)).tobytes()

    @pytest.mark.parametrize("clear", [False, True])
    def test_traces_equal_the_references_on_every_grid(self, clear):
        args = (np.array([0.0, 1.35, 0.72]), np.array([0.05, 1.45, 0.76]))
        hand = StationaryHand(np.array([0.2, 1.1, 0.1]), np.array([0.6, 0.0, 0.8]))
        for duration, rate in GRIDS:
            if clear:
                _clear_rate_columns()
            kwargs = dict(tremor_sd_m=0.003, sample_rate_hz=rate, seed=11, pinch_at_s=0.3,
                          direction=np.array([0.3, 0.5, 2.0]))
            assert synth_hand_trace(*args, duration, **kwargs) == \
                synth_hand_trace_reference(*args, duration, **kwargs)
            want = stationary_trace_reference(hand.position_m, hand.direction, duration, rate)
            assert hand.trace(duration, rate) == want

    def test_long_grids_keep_their_memory_bounded(self):
        """A 200 000-sample grid holds its times once; a stationary trace on it
        repeats one row with stride 0, so twenty hands at twenty pinch times
        add no (T, 3) array (4.8 MB each), only their own pinch columns."""
        n = 200_000
        _clear_rate_columns()
        tracemalloc.start()
        try:
            for k in range(20):
                trace = StationaryHand(np.array([0.0, 1.2, 0.01 * k])).trace(
                    (n - 1) / 100.0, pinch_at_s=float(k))
                assert len(trace) == n and trace.position_m.strides == (0, 8)
                assert trace.t_s.base is _kept_column(100.0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # times 1.6 MB, and the last trace's pinch column of 0.2 MB
        assert held < 3e6 and peak < 4e6, (held, peak)


class TestTraceAlignment:
    """run_trial skips its time-alignment test only for equally long traces
    on one rate's grid; other traces are compared, equal or not."""

    def _traces(self):
        scene = SceneSpec(target=TargetPlacement(0.6, 4.0, 0.0))
        pointer = synth_hand_trace(HAND_M, HAND_M, 1.0, direction=aim(scene), pinch_at_s=0.5)
        return scene, pointer, StationaryHand().trace(1.0)

    def test_distinct_but_equal_times_are_aligned(self):
        scene, pointer, other = self._traces()
        config = TechniqueConfig(Technique.RPRG)
        assert pointer._grid_rate_hz == other._grid_rate_hz == 100.0
        copied = HandTrace(pointer.t_s.copy(), *pointer.columns[1:])
        assert copied._grid_rate_hz is None
        want = run_trial(config, scene, other, pointer)
        assert want is not None
        assert_same_outcome(run_trial(config, scene, other, copied), want)

    @pytest.mark.parametrize("shift, match", [(2e-9, "time-aligned"), (None, "sample-aligned")])
    def test_misaligned_times_still_raise(self, shift, match):
        scene, pointer, other = self._traces()
        if shift is None:
            misaligned = pointer[:-1]
        else:
            misaligned = HandTrace(pointer.t_s + shift, *pointer.columns[1:])
        for left, right in ((other, misaligned), (misaligned, other)):
            with pytest.raises(ValueError, match=match):
                run_trial(TechniqueConfig(Technique.RPRG), scene, left, right)

    @pytest.mark.parametrize("duration, rate, match", [
        (2.0, 50.0, "time-aligned"),  # 101 samples, as the 1 s trace at 100 Hz
        (1.0, 90.0, "sample-aligned"),
        (1.2, 100.0, "sample-aligned"),
    ])
    def test_traces_of_other_rates_or_lengths_raise(self, duration, rate, match):
        scene, pointer, _ = self._traces()
        other = StationaryHand().trace(duration, rate, pinch_at_s=0.5)
        for left, right in ((other, pointer), (pointer, other)):
            with pytest.raises(ValueError, match=match):
                run_trial(TechniqueConfig(Technique.RPRG), scene, left, right)

    def test_a_shifted_slice_is_compared(self):
        scene, pointer, other = self._traces()
        assert pointer[1:]._grid_rate_hz is None
        with pytest.raises(ValueError, match="time-aligned"):
            run_trial(TechniqueConfig(Technique.RPRG), scene, other[:-1], pointer[1:])


def _random_trace(t, seed, rate=None):
    """A random walk on times ``t``; on ``rate``'s grid when ``rate`` is given
    (``t`` then being the grid's first times)."""
    rng = np.random.default_rng(seed)
    pos = np.cumsum(rng.normal(0, 0.01, (len(t), 3)), axis=0)
    d = np.array([0.2, 0.1, 1.0]) + np.cumsum(rng.normal(0, 0.02, (len(t), 3)), axis=0)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    trace = HandTrace(t, pos, d, rng.random(len(t)) < 0.5)
    if rate is None:
        return trace
    assert np.array_equal(t, _grid_times(len(t), rate))
    return HandTrace._of_checked(_grid_times(len(t), rate), *trace.columns[1:], rate)


def _grid_trace(n, rate, seed):
    return _random_trace(np.arange(n) / rate, seed, rate)


def assert_smoothed_like_the_reference(got, trace, q, r):
    want = kalman_smooth_reference(list(trace), q, r)
    assert np.abs(got.position_m - [s.position_m for s in want]).max() <= 1e-12
    assert np.abs(got.direction - [s.direction for s in want]).max() <= 1e-12


class TestGridFilter:
    """A grid trace of at most ``_OPERATOR_MAX_SAMPLES`` samples slices the
    operator cached once per (rate, q, r); a longer grid trace, and a trace
    off a grid, computes its gains per call. No entry may serve
    another key, and the smoothed trace reuses its input's checked columns."""

    @pytest.mark.parametrize("rate", [100.0, 72.0])
    def test_grid_traces_equal_the_operator_built_afresh(self, rate):
        """Bit for bit, over 300 random durations a 400-sample operator holds."""
        rng = np.random.default_rng(int(rate))
        _grid_filter.cache_clear()
        args = (np.array([0.0, 1.35, 0.72]), np.array([0.05, 1.45, 0.76]))
        for k, duration in enumerate(rng.uniform(0.8, (_OPERATOR_MAX_SAMPLES - 1) / rate, 300)):
            trace = synth_hand_trace(*args, duration, tremor_sd_m=0.002, sample_rate_hz=rate,
                                     seed=k, direction=np.array([0.1, 0.3, 1.0]))
            q = 50.0 if k % 4 else float(rng.uniform(1.0, 100.0))
            got = kalman_smooth(trace, q, 1e-4)
            position, direction = kalman_smooth_operator_reference(trace, q, 1e-4)
            assert got.position_m.tobytes() == position.tobytes(), duration
            assert got.direction.tobytes() == direction.tobytes(), duration

    @settings(max_examples=40)
    @given(steps=st.lists(st.floats(0.004, 0.03), min_size=2, max_size=40),
           prefix=st.integers(1, 40), jitter=st.floats(1e-9, 1e-4),
           noises=st.lists(st.tuples(st.floats(1.0, 100.0), st.floats(-5.0, -2.0)),
                           min_size=2, max_size=2, unique=True))
    def test_interleaved_off_grid_traces_match_the_reference(self, steps, prefix, jitter,
                                                             noises):
        t = np.cumsum(steps)
        jittered = t + jitter * np.arange(len(t)) ** 2 / len(t)  # every step longer
        grids = [t[:min(prefix, len(t))], t, jittered]  # a prefix first, then its times
        for round_ in range(2):
            for q, log_r in noises:
                for times in grids:
                    trace = _random_trace(times, seed=round_)
                    assert_smoothed_like_the_reference(kalman_smooth(trace, q, 10.0 ** log_r),
                                                       trace, q, 10.0 ** log_r)

    @pytest.mark.parametrize("kind", ["list", "shifted", "jittered"])
    def test_off_grid_traces_stay_near_the_scalar_oracle(self, kind):
        grid = _grid_trace(150, 100.0, seed=8)
        if kind == "list":
            trace = list(grid)
        elif kind == "shifted":
            trace = HandTrace(grid.t_s + 0.37, *grid.columns[1:])
        else:
            jitter = np.random.default_rng(8).uniform(-2e-3, 2e-3, len(grid))
            trace = HandTrace(grid.t_s + jitter, *grid.columns[1:])
        got = kalman_smooth(trace, 30.0, 1e-3)
        assert got._grid_rate_hz is None
        times = [s.t_s for s in trace]
        for axis in range(3):
            want = scalar_kalman_positions(times, [s.position_m[axis] for s in trace],
                                           30.0, 1e-3)
            assert np.abs(got.position_m[:, axis] - want).max() <= 1e-12
        assert_smoothed_like_the_reference(got, HandTrace.from_samples(trace), 30.0, 1e-3)

    def test_one_entry_per_rate_and_noise(self):
        """Traces of any length up to the bound on one rate's grid share one
        entry; a changed rate or noise is a miss, and a longer grid trace or
        a trace off a grid looks none up."""
        _grid_filter.cache_clear()
        for n in (50, 101, 7, 400, 900, 50):
            kalman_smooth(_grid_trace(n, 90.0, seed=n), 25.0, 1e-3)
        assert _grid_filter.cache_info()[:2] == (4, 1)  # (hits, misses)
        kalman_smooth(_grid_trace(50, 90.0, seed=0), 25.0, 2e-3)
        kalman_smooth(_grid_trace(50, 100.0, seed=0), 25.0, 1e-3)
        kalman_smooth(_random_trace(np.arange(50) / 90.0, seed=0), 25.0, 1e-3)
        kalman_smooth(list(_grid_trace(50, 90.0, seed=0)), 25.0, 1e-3)
        assert _grid_filter.cache_info()[:2] == (4, 3)

    @pytest.mark.parametrize("rate", [100.0, 1e-100])
    def test_a_single_sample_passes_through_at_any_rate(self, rate):
        """It has no steps, so no entry is built: at 1e-100 Hz the gains of
        a 400-sample grid would overflow."""
        _grid_filter.cache_clear()
        trace = StationaryHand().trace(0.4 / max(rate, 1.0), rate)
        assert len(trace) == 1 and kalman_smooth(trace) == trace
        assert _grid_filter.cache_info().currsize == 0

    def test_operator_grows_to_the_longest_trace_at_least_doubling(self):
        """A fixed length keeps an operator of that length; a longer trace
        rebuilds it at least twice as long, up to the bound, and a shorter
        one slices it."""
        _grid_filter.cache_clear()
        entry = _grid_filter(100.0, 25.0, 1e-3)
        for n, size in ((101, 101), (101, 101), (50, 101), (150, 202), (203, 400), (400, 400)):
            operator = entry.operator(n)
            assert operator.shape == (n, n) and entry._operator.shape == (size, size)
            assert np.shares_memory(operator, entry._operator)
        assert entry._operator.flags.c_contiguous
        operator = entry._operator
        assert np.array_equal(operator, np.tril(operator)) and not operator[:, 0].any()
        with pytest.raises(ValueError):
            operator[1, 1] = 0.0

    @pytest.mark.parametrize("rate", [None, 100.0])
    def test_smoothed_trace_shares_times_pinch_and_rate_read_only(self, rate):
        trace = _grid_trace(30, 100.0, seed=4) if rate else _random_trace(
            np.arange(30) / 100.0, seed=4)
        out = kalman_smooth(trace)
        assert out.t_s is trace.t_s and out.pinch is trace.pinch and out._grid_rate_hz == rate
        for column in out.columns:
            with pytest.raises(ValueError):
                column[0] = 1

    @pytest.mark.parametrize("rate", [None, 100.0])
    def test_overflowing_filter_output_is_rejected(self, rate):
        """On every path, with no numpy warning on the way."""
        for n in (6, _OPERATOR_MAX_SAMPLES + 2):
            pos = np.zeros((n, 3))
            pos[::2, 0], pos[1::2, 0] = 1e308, -1e308
            trace = HandTrace(np.arange(n) / 100.0, pos, np.tile(FORWARD, (n, 1)))
            if rate:
                trace = HandTrace._of_checked(_grid_times(n, rate), *trace.columns[1:], rate)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="positions and directions must be finite"):
                    kalman_smooth(trace)


class TestSmoothingPaths:
    """A grid trace of at most ``_OPERATOR_MAX_SAMPLES`` samples is smoothed by
    a slice of its rate's operator; a longer one, and any trace off a grid,
    by the loop."""

    LENGTHS = (_OPERATOR_MAX_SAMPLES, _OPERATOR_MAX_SAMPLES + 1)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_either_side_of_the_bound_matches_the_reference(self, n):
        trace = _grid_trace(n, 100.0, seed=n)
        got = kalman_smooth(trace, 30.0, 1e-3)
        assert_smoothed_like_the_reference(got, trace, 30.0, 1e-3)
        assert np.array_equal(got.position_m[0], trace.position_m[0])

    def test_constant_trace_is_bit_identical_on_both_paths(self):
        position, direction = np.array([0.31, 1.27, 0.45]), np.array([0.2, 0.3, 0.9])
        direction /= np.linalg.norm(direction)
        hand = StationaryHand(position, direction)
        short, long_ = (kalman_smooth(hand.trace((n - 1) / 90.0, 90.0), 25.0, 1e-3)
                        for n in self.LENGTHS)
        assert np.array_equal(short.position_m, np.tile(position, (len(short), 1)))
        assert np.array_equal(long_.position_m, np.tile(position, (len(long_), 1)))
        assert short == long_[:len(short)]
        assert np.array_equal(long_.direction, np.tile(short.direction[0], (len(long_), 1)))

    @pytest.mark.parametrize("n, on_grid, loops, lookups", [
        (LENGTHS[0], True, 0, 1), (LENGTHS[1], True, 6, 0), (LENGTHS[0], False, 6, 0),
        (2, False, 6, 0),
    ])
    def test_grid_and_length_pick_the_path(self, monkeypatch, n, on_grid, loops, lookups):
        calls = []
        channel = telefitts.sim.filters._filter_channel
        monkeypatch.setattr(telefitts.sim.filters, "_filter_channel",
                            lambda *args: calls.append(1) or channel(*args))
        trace = _grid_trace(n, 90.0, seed=5)
        _grid_filter.cache_clear()
        kalman_smooth(trace if on_grid else HandTrace(*trace.columns), 25.0, 1e-3)
        assert len(calls) == loops
        assert sum(_grid_filter.cache_info()[:2]) == lookups  # hits + misses

    @pytest.mark.parametrize("n", (50,) + LENGTHS)
    def test_same_trace_twice_gives_the_same_bits(self, n):
        trace = _grid_trace(n, 72.0, seed=3)
        _grid_filter.cache_clear()
        fresh = kalman_smooth(trace, 40.0, 1e-4)
        cached = kalman_smooth(trace, 40.0, 1e-4)
        _grid_filter.cache_clear()
        rebuilt = kalman_smooth(trace, 40.0, 1e-4)
        assert fresh == cached == rebuilt


def test_one_kalman_call_per_smoothed_trial(monkeypatch):
    """perfbench's sim.filters.kalman span wraps this module attribute."""
    calls = []
    original = telefitts.sim.techniques.kalman_smooth

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(telefitts.sim.techniques, "kalman_smooth", counted)
    scene = SceneSpec(target=TargetPlacement(0.6, 4.0, 0.0))
    config = TechniqueConfig(Technique.RPRG)
    pointer = synth_hand_trace(HAND_M, HAND_M + [0.03, 0.02, 0.01], 1.0, tremor_sd_m=0.003,
                               seed=0, direction=aim(scene), pinch_at_s=0.5 if
                               config.confirm_hand == config.pointer_hand else None)
    other = StationaryHand().trace(1.0, pinch_at_s=0.5)
    left, right = (other, pointer) if config.pointer_hand == "right" else (pointer, other)
    for smooth, want in ((True, [101]), (False, [])):
        calls.clear()
        assert run_trial(config, scene, left, right, smooth_pointer=smooth) is not None
        assert calls == want


def test_long_trace_is_linear_time(deadline):
    """200 000 samples, far past ``_OPERATOR_MAX_SAMPLES``: the smoothing
    runs the O(T) loop, since a T x T operator would need 320 GB, and a
    rescan per confirmation would not finish in time."""
    n = 200_000
    rng = np.random.default_rng(0)
    t = np.arange(n) / 100.0
    pos = HAND_M + rng.normal(0, 0.002, (n, 3))
    d = np.broadcast_to(DOWN, (n, 3))
    pointer = HandTrace(t, pos, d, (np.arange(n) % 50) == 25)
    still = StationaryHand().trace((n - 1) / 100.0)
    scene = SceneSpec(target=TargetPlacement(0.4, 4.0, 0.0))
    with deadline(5.0):
        assert len(kalman_smooth(pointer)) == n
        for technique, smooth in ((Technique.RPDW, True), (Technique.RPRG, False)):
            config = TechniqueConfig(technique)
            assert run_trial(config, scene, still, pointer, smooth_pointer=smooth) is None


#: (movement_time_s, error_attempts, success, endpoint_deviation_m,
#: realized_amplitude_m) of the kinematic-trials benchmark units 0-24, seed 1.
KINEMATIC_TRIALS_SEED_1 = [
    (0.8, 0, True, 0.00287110346908296, 2.794912541730375),
    (0.8, 0, True, 0.0004657699179003785, 2.797164485591786),
    (0.8, 0, True, 0.001060241223441916, 2.7976614872261765),
    (0.8, 0, True, 0.0019078528624324105, 2.7952333720289433),
    (0.8, 0, True, 0.002253166042242646, 2.797950942520463),
    (0.8, 0, True, 0.003228945125056399, 2.7894948326120197),
    (0.8, 0, True, 0.0021298078720822736, 2.7889231764925593),
    (0.8, 0, True, 0.003265225264316725, 2.7894761438693694),
    (0.8, 0, True, 0.002476096938560522, 2.7892711621616866),
    (0.8, 0, True, 0.0016165736763011562, 2.7862115833514887),
    (0.8, 0, True, 0.0015867456443968376, 2.7981319723598643),
    (0.8, 0, True, 0.0007108160202957244, 2.7969720790595893),
    (0.8, 0, True, 0.0014224434597581545, 2.7957099226637783),
    (0.8, 0, True, 0.003661741979987657, 2.7999112171505147),
    (0.8, 0, True, 0.001488377941488019, 2.7975024419339976),
    (0.8, 0, True, 0.0011197709144273747, 2.9021171567438953),
    (0.8, 0, True, 0.0012314403878995724, 2.9016616943376197),
    (0.8, 0, True, 0.0016794640997911641, 2.9029270832044394),
    (0.8, 0, True, 0.0016791524437841448, 2.9022935799109986),
    (0.8, 0, True, 0.0006232338394611994, 2.9017416011741286),
    (0.8, 0, True, 0.0017018533888546745, 2.891876801070527),
    (0.8, 0, True, 0.0008153118129769194, 2.892956016736533),
    (0.8, 0, True, 0.001081976984202767, 2.8926402007819334),
    (0.8, 0, True, 0.001295128125050679, 2.891843793584329),
    (0.8, 0, True, 0.0018990902678058435, 2.893084686038779),
]


@pytest.fixture(scope="module")
def kinematic_trials(tmp_path_factory):
    """The kinematic-trials benchmark workload of seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        from perfbench.workloads import KinematicTrials
    finally:
        sys.path.pop(0)
    return KinematicTrials(1, str(tmp_path_factory.mktemp("kinematic-trials")))


@pytest.mark.parametrize("unit", range(len(KINEMATIC_TRIALS_SEED_1)))
def test_kinematic_trials_workload_outcomes_are_pinned(kinematic_trials, unit):
    """The benchmark's own units give the recorded outcomes: the counts and
    times exactly, the deviation and amplitude within 1e-12, since the
    101-sample smoothing is a BLAS product."""
    time_s, errors, success, deviation, amplitude = KINEMATIC_TRIALS_SEED_1[unit]
    _, outcome = kinematic_trials.run(unit)
    assert (outcome.movement_time_s, outcome.error_attempts, outcome.success) == \
        (time_s, errors, success)
    assert abs(outcome.endpoint_deviation_m - deviation) <= 1e-12
    assert abs(outcome.realized_amplitude_m - amplitude) <= 1e-12
