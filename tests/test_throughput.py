import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telefitts.trials import IncompleteGridError, Posture, Technique, Trial
from telefitts.throughput import (
    ThroughputCell,
    effective_id,
    throughput_by_group,
    throughput_mean_of_means,
)
from telefitts.sim import generate_study, realistic_preset

from oracles import we_relative_bound


def make_cell(ide, mt, w=0.2, d=3.0, h=0.0):
    return ThroughputCell(
        width_m=w, distance_m=d, height_m=h,
        n_trials=10, ae_m=3.0, we_m=0.2, ide_bits=ide, mean_mt_s=mt,
        tp_bits_per_s=ide / mt,
    )


def one_cell(deviations, width_m=0.5):
    """Trials of the one cell RPRG/Sitting W=width_m D=3.0 H=0.0."""
    return [Trial("P01", Technique.RPRG, Posture.SITTING, 0, i, width_m, 3.0, 0.0, 0.0,
                  1.0, dev, 0, True) for i, dev in enumerate(deviations)]


def we_of(deviations):
    [summary] = throughput_by_group(one_cell(deviations), allow_partial_grid=True)
    return summary.cells[0].we_m


def assert_we_within_bound(deviations):
    """W_e of a cell of ``deviations`` is 4.133 x ``statistics.stdev`` of
    them, within the SD's stated bound carried through W_e's roundings."""
    expected = 4.133 * statistics.stdev(deviations)
    assert abs(we_of(deviations) - expected) <= we_relative_bound(deviations) * expected


class TestEffectiveWidth:
    """W_e = 4.133 x the sample SD (n-1 denominator) of a cell's deviations."""

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero endpoint spread"):
            throughput_by_group(one_cell([0.05, 0.05, 0.05]), allow_partial_grid=True)

    def test_sd_scaling(self):
        devs = [0.0, 0.1]
        assert_we_within_bound(devs)
        assert we_of(devs) == pytest.approx(0.29224723266440017, rel=1e-12)

    def test_known_sd(self):
        # symmetric around 0.1 with sample SD exactly 0.05 * sqrt(2)
        devs = [0.05, 0.15]
        assert statistics.stdev(devs) == pytest.approx(0.05 * math.sqrt(2), rel=1e-12)
        assert_we_within_bound(devs)

    def test_needs_two_samples(self):
        """A cell of one trial has no spread: it is dropped and counted."""
        trials = one_cell([0.1]) + one_cell([0.0, 0.1], width_m=1.35)
        [summary] = throughput_by_group(trials, allow_partial_grid=True)
        assert (len(summary.cells), summary.degenerate_cells) == (1, 1)

    @pytest.mark.parametrize("devs, we", [([0.0, 1.7e308], "inf"), ([math.nan, 0.1], "nan")])
    def test_non_finite_width_names_its_cell(self, devs, we):
        with pytest.raises(ValueError, match=rf"^effective width W_e = 4.133 x endpoint SD is "
                                             rf"{we} over cell RPRG/Sitting W=0.5 D=3.0 H=0.0$"):
            throughput_by_group(one_cell(devs), allow_partial_grid=True)


class TestEffectiveAmplitude:
    def test_nominal_fallback_is_callers_choice(self):
        from telefitts.models import amplitude_from_grid

        assert amplitude_from_grid(3.0, 0.0) == 3.0


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
                width_m=c.width_m,
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
