import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telefitts.trials import IncompleteGridError, Posture, Technique
from telefitts.throughput import (
    ThroughputCell,
    effective_amplitude,
    effective_id,
    effective_width,
    throughput_by_group,
    throughput_mean_of_means,
)
from telefitts.sim import generate_study, realistic_preset


def make_cell(ide, mt, technique=Technique.RPRG, posture=Posture.SITTING,
              w=0.2, d=3.0, h=0.0):
    return ThroughputCell(
        technique=technique, posture=posture, width_m=w, distance_m=d, height_m=h,
        n_trials=10, ae_m=3.0, we_m=0.2, ide_bits=ide, mean_mt_s=mt,
        tp_bits_per_s=ide / mt,
    )


class TestEffectiveWidth:
    def test_zero_variance(self):
        assert effective_width([0.05, 0.05, 0.05]) == 0.0

    def test_sd_scaling(self):
        devs = [0.0, 0.1]
        sd = statistics.stdev(devs)
        assert effective_width(devs) == pytest.approx(4.133 * sd, rel=1e-12)
        assert effective_width(devs) == pytest.approx(0.29224723266440017, rel=1e-12)

    def test_known_sd(self):
        # symmetric around 0.1 with sample SD exactly 0.05
        devs = [0.05, 0.15]
        assert statistics.stdev(devs) == pytest.approx(0.05 * math.sqrt(2), rel=1e-12)
        devs = [0.1 - 0.05, 0.1 + 0.05]
        assert effective_width(devs) == pytest.approx(
            4.133 * statistics.stdev(devs), rel=1e-12
        )

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match=">= 2"):
            effective_width([0.1])


class TestEffectiveAmplitude:
    def test_nominal_fallback_is_callers_choice(self):
        from telefitts.models import amplitude_from_grid

        assert amplitude_from_grid(3.0, 0.0) == 3.0

    def test_midpoint(self):
        assert effective_amplitude([8.9, 9.1]) == pytest.approx(9.0, rel=1e-12)
        assert effective_amplitude(np.array([8.9, 9.1])) == effective_amplitude([8.9, 9.1])

    def test_mean(self):
        assert effective_amplitude([2.8, 3.0, 3.2]) == pytest.approx(3.0, rel=1e-12)

    def test_empty_rejected(self):
        for empty in ([], np.array([])):
            with pytest.raises(ValueError, match="at least one trial"):
                effective_amplitude(empty)


class TestEffectiveId:
    def test_reference_values(self):
        assert effective_id(4.0, 0.5) == pytest.approx(3.169925001442312, rel=1e-12)
        assert effective_id(0.0, 0.5) == 0.0
        assert effective_id(3.0, 0.20665) == pytest.approx(3.95580562601461, rel=1e-12)

    def test_degenerate_width_rejected(self):
        with pytest.raises(ValueError):
            effective_id(3.0, 0.0)

    @given(
        ae=st.floats(1e-3, 1e3),
        we=st.floats(1e-3, 1e3),
        bump=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, ae, we, bump):
        assert effective_id(ae + bump, we) > effective_id(ae, we)
        assert effective_id(ae, we + bump) < effective_id(ae, we)


class TestThroughputMeanOfMeans:
    def test_worked_example(self):
        cells = [make_cell(2.0, 1.0), make_cell(3.0, 2.0, w=1.35)]
        assert throughput_mean_of_means(cells) == 1.75

    def test_constant_ratio(self):
        cells = [make_cell(2.0 * mt, mt, w=0.2 + 0.01 * i) for i, mt in enumerate([1.0, 2.0, 3.0])]
        assert throughput_mean_of_means(cells) == pytest.approx(2.0)

    def test_tp_halves_exactly_when_mt_doubles(self):
        rng = np.random.default_rng(3)
        cells = [
            make_cell(float(rng.uniform(1, 5)), float(rng.uniform(0.5, 4)), w=0.2 + i * 0.01)
            for i in range(8)
        ]
        doubled = [
            ThroughputCell(
                technique=c.technique, posture=c.posture, width_m=c.width_m,
                distance_m=c.distance_m, height_m=c.height_m, n_trials=c.n_trials,
                ae_m=c.ae_m, we_m=c.we_m, ide_bits=c.ide_bits,
                mean_mt_s=2.0 * c.mean_mt_s,
                tp_bits_per_s=c.ide_bits / (2.0 * c.mean_mt_s),
            )
            for c in cells
        ]
        tp = throughput_mean_of_means(cells)
        tp2 = throughput_mean_of_means(doubled)
        assert tp2 == tp / 2.0


class TestThroughputByGroup:
    def test_full_study_yields_ten_groups(self):
        trials = generate_study(realistic_preset(participants=6, seed=11))
        summaries = throughput_by_group(trials)
        assert len(summaries) == 10
        seen = {(s.technique, s.posture) for s in summaries}
        assert len(seen) == 10
        for s in summaries:
            assert s.tp_bits_per_s > 0
            assert len(s.cells) + s.degenerate_cells == 8

    def test_incomplete_grid_lists_missing_cells(self):
        trials = generate_study(realistic_preset(participants=4, seed=2))
        trimmed = [t for t in trials if not (t.width_m == 0.2 and t.distance_m == 9.0)]
        with pytest.raises(IncompleteGridError, match="W=0.2"):
            throughput_by_group(trimmed)

    def test_partial_override(self):
        trials = generate_study(realistic_preset(participants=4, seed=2))
        trimmed = [t for t in trials if not (t.width_m == 0.2 and t.distance_m == 9.0)]
        summaries = throughput_by_group(trimmed, allow_partial_grid=True)
        assert len(summaries) == 10
        assert all(len(s.cells) == 6 for s in summaries)

    def test_ranking_matches_reversed_mt_ranking_over_seeds(self):
        # endpoint spread scales with W for every technique, so slower
        # techniques must come out with lower throughput
        for seed in (1, 2, 3):
            trials = generate_study(realistic_preset(participants=10, seed=seed))
            summaries = throughput_by_group(trials)
            tp_by_tech: dict[Technique, list[float]] = {}
            mt_by_tech: dict[Technique, list[float]] = {}
            for s in summaries:
                tp_by_tech.setdefault(s.technique, []).append(s.tp_bits_per_s)
            for t in trials:
                mt_by_tech.setdefault(t.technique, []).append(t.movement_time_s)
            tp_rank = sorted(Technique, key=lambda k: -statistics.fmean(tp_by_tech[k]))
            mt_rank = sorted(Technique, key=lambda k: statistics.fmean(mt_by_tech[k]))
            assert tp_rank == mt_rank
