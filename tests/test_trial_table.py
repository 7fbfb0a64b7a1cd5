"""The columnar trial table and its group-by, checked for exact equality
against the per-trial reference implementations in ``oracles``."""

import math
import random
import re
import statistics
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telefitts.trials import (
    IncompleteGridError,
    Posture,
    Technique,
    Trial,
    TrialTable,
    collapse_over,
    group_by_condition,
    read_trial_log,
    sample_sd,
    validate_log,
    write_trial_log,
)
from telefitts.models import AmplitudeMode
from telefitts.comparison import TABLE_GROUPS, group_summaries, run_table1_suite, table1_cells
from telefitts import comparison as comparison_module
from telefitts.throughput import throughput_by_group
from telefitts import trials as trials_module
from telefitts.sim import (
    REFERENCE_STANDARD_ALL,
    SIMULABLE_PROPOSED_ALL,
    generate_study,
    model_exact_preset,
    realistic_preset,
)

from oracles import (
    collapse_over_reference,
    group_by_condition_reference,
    throughput_by_group_reference,
)

PRESETS = {
    "realistic": realistic_preset(participants=4, seed=11),
    "standard-exact": model_exact_preset(REFERENCE_STANDARD_ALL, participants=3, seed=12),
    "proposed-noisy": model_exact_preset(
        SIMULABLE_PROPOSED_ALL, participants=3, seed=13,
        mt_noise_sd_s=0.05, endpoint_sd_fraction_of_width=0.2,
    ),
    # a varying movement-time column beside an all-zero endpoint column
    "proposed-mt-noise": model_exact_preset(
        SIMULABLE_PROPOSED_ALL, participants=3, seed=14, mt_noise_sd_s=0.05,
    ),
}


#: Values for the exact-SD checks: mixed signs, +-0.0 and subnormals, values
#: spread over about 600 binades, and non-finite values.
SD_VALUES = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-300, 300)),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     math.nan, math.inf, -math.inf]),
)

#: Cells of one value repeated, which the SDs take without integer sums
#: where every cell of the column is one finite value.
ONE_VALUE_CELLS = st.builds(lambda v, n: [v] * n, SD_VALUES, st.integers(1, 12))


def assert_same_dict(got, expected):
    assert got == expected
    assert list(got) == list(expected)


#: Values for the group-by's means and SDs: +-0.0, subnormals, values spread
#: over the whole float range, so that one cell can span it, and values whose
#: sums overflow; the SD of values within +-1e308 stays finite.
MEAN_VALUES = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-1075, 1022)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)
_fmean, _stdev = statistics.fmean, statistics.stdev


def assert_grouped_as_the_reference(trials):
    """group_by_condition(trials) equals the reference bit for bit, -0.0 and
    nan included, or raises where the reference's ``statistics.fmean`` or
    ``statistics.stdev`` does first: a movement-time sum that overflows
    fsum, or an endpoint-deviation SD beyond the float range, is a
    ValueError naming its cell. The SD of a cell holding a value that is not
    finite, which ``statistics.stdev`` cannot take, is nan."""
    raised = []  # how the reference's OverflowError came about

    def fmean(values):
        try:
            return _fmean(values)
        except OverflowError:
            raised.append("movement_time_s overflows when summed")
            raise

    def stdev(values):
        if not all(map(math.isfinite, values)):
            return math.nan
        try:
            return _stdev(values)
        except OverflowError:
            raised.append("endpoint_deviation_m overflows when its SD is taken")
            raise

    with (mock.patch.object(statistics, "fmean", fmean),
          mock.patch.object(statistics, "stdev", stdev)):
        try:
            expected = group_by_condition_reference(trials)
        except OverflowError:
            with pytest.raises(ValueError, match=rf"^{raised[0]} over cell "):
                group_by_condition(trials)
            return
        except ValueError as exc:  # fsum meets -inf + inf
            with pytest.raises(ValueError) as got:
                group_by_condition(trials)
            assert str(got.value) == str(exc)
            return
    assert repr(list(group_by_condition(trials).items())) == repr(list(expected.items()))


def random_trials(rng: random.Random, n: int, grid_jitter: bool = True) -> list[Trial]:
    """Trials on a few widths/distances/heights, each written several ways
    that differ by less than half a millimetre (so only the 1 mm quantization
    merges them), with MT and deviation spread over many binades."""
    def near(value: float) -> float:
        return value + rng.choice([0.0, 3e-4, -4e-4, 1e-9]) if grid_jitter else value

    out = []
    for i in range(n):
        out.append(Trial(
            participant_id=rng.choice(["P01", "P02", "P10"]),
            technique=rng.choice(list(Technique)),
            posture=rng.choice(list(Posture)),
            block=rng.randrange(10),
            trial_index=i,
            width_m=near(rng.choice([0.2, 1.35, 0.7])),
            distance_m=near(rng.choice([3.0, 9.0])),
            height_m=near(rng.choice([0.0, 3.0])),
            angle_deg=rng.choice([-10.0, 0.0, 10.0]),
            movement_time_s=rng.uniform(0.2, 6.0) * 2.0 ** rng.randint(-30, 30),
            endpoint_deviation_m=abs(rng.gauss(0.0, 1.0)) * 10.0 ** rng.randint(-9, 0),
            error_attempts=rng.choice([0, 0, 0, 1, 3]),
            success=rng.random() < 0.9,
        ))
    return out


class TestParityWithReference:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_group_by_condition_on_presets(self, preset):
        table = generate_study(PRESETS[preset])
        assert_same_dict(group_by_condition(table), group_by_condition_reference(list(table)))

    def test_cell_means_near_the_float_limit(self):
        trial = Trial("P01", Technique.RPRG, Posture.SITTING, 0, 0, 0.2, 3.0, 0.0, 0.0,
                      1.0e308, 0.01, 0, True)
        finite = [replace(trial, trial_index=i, movement_time_s=v)
                  for i, v in enumerate((1.5e308, 1.0e307, -1.0e308, 1.0e308))]
        assert_same_dict(group_by_condition(finite), group_by_condition_reference(finite))
        overflowing = [trial, replace(trial, trial_index=1)]
        with pytest.raises(OverflowError):
            group_by_condition_reference(overflowing)  # statistics.fmean has no value
        with pytest.raises(ValueError, match=r"^movement_time_s overflows when summed over "
                                             r"cell RPRG/Sitting W=0.2 D=3.0 H=0.0$"):
            group_by_condition(overflowing)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("pooled", [False, True])
    def test_collapse_on_presets(self, preset, pooled):
        summaries = group_by_condition(generate_study(PRESETS[preset]))
        for drop in ({"technique"}, {"posture"}, {"technique", "posture"}):
            assert_same_dict(
                collapse_over(summaries, drop, pooled=pooled),
                collapse_over_reference(summaries, drop, pooled=pooled),
            )

    @pytest.mark.parametrize("pooled", [False, True])
    def test_table_groups_on_one_participant(self, pooled):
        rows = [t for t in generate_study(PRESETS["realistic"]) if t.participant_id == "P02"]
        summaries = group_by_condition(rows)
        reference = group_by_condition_reference(rows)
        assert_same_dict(summaries, reference)
        for label in TABLE_GROUPS:
            assert_same_dict(group_summaries(summaries, label, pooled=pooled),
                             group_summaries(reference, label, pooled=pooled))

    @pytest.mark.parametrize("pooled", [False, True])
    def test_report_cells_take_no_deviation_sd(self, pooled):
        """Every report group collapses a factor, so no report cell keeps an
        endpoint-deviation SD; throughput reads the group-by's cells."""
        cells = table1_cells(generate_study(PRESETS["realistic"]), pooled)
        assert list(cells) == list(TABLE_GROUPS)
        assert all(s.sd_deviation_m is None for group in cells.values() for s in group.values())

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("mode", list(AmplitudeMode))
    def test_throughput_on_presets(self, preset, mode):
        table = generate_study(PRESETS[preset])
        if PRESETS[preset].endpoint_sd_fraction_of_width == 0:  # no endpoint spread anywhere
            with pytest.raises(ValueError, match="zero endpoint spread"):
                throughput_by_group(table, mode)
            with pytest.raises(ValueError):
                throughput_by_group_reference(list(table), mode)
            return
        got = throughput_by_group(table, mode)
        assert got == throughput_by_group_reference(list(table), mode)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trials_with_off_grid_floats(self, seed):
        trials = random_trials(random.Random(seed), 300)
        summaries = group_by_condition(trials)
        assert_same_dict(summaries, group_by_condition_reference(trials))
        # quantization merged the jittered spellings of each grid value
        assert {k.width_m for k in summaries} <= {0.2, 1.35, 0.7}
        for pooled in (False, True):
            assert_same_dict(
                collapse_over(summaries, {"technique", "posture"}, pooled=pooled),
                collapse_over_reference(summaries, {"technique", "posture"}, pooled=pooled),
            )
        got = throughput_by_group(trials, allow_partial_grid=True)
        assert got == throughput_by_group_reference(
            trials, AmplitudeMode.EUCLIDEAN, allow_partial_grid=True)

    def test_singleton_cells_and_partial_grid(self):
        def cell(t):
            return (t.technique, t.posture, t.width_m, t.distance_m, t.height_m)

        dropped = (Technique.RPRG, Posture.SITTING, 0.2, 3.0, 0.0)
        single = (Technique.RPRG, Posture.SITTING, 1.35, 9.0, 3.0)
        rows = [t for t in generate_study(PRESETS["realistic"])
                if t.participant_id == "P01" and cell(t) != dropped]
        first_single = next(i for i, t in enumerate(rows) if cell(t) == single)
        rows = [t for i, t in enumerate(rows) if cell(t) != single or i == first_single]

        summaries = group_by_condition(rows)
        assert len(summaries) == 79
        assert sum(s.n_trials == 1 for s in summaries.values()) == 1
        assert_same_dict(summaries, group_by_condition_reference(rows))
        for pooled in (False, True):
            assert_same_dict(
                collapse_over(summaries, {"posture"}, pooled=pooled),
                collapse_over_reference(summaries, {"posture"}, pooled=pooled),
            )
        got = throughput_by_group(rows, allow_partial_grid=True)
        assert got[0].degenerate_cells == 1
        assert got == throughput_by_group_reference(
            rows, AmplitudeMode.EUCLIDEAN, allow_partial_grid=True)
        with pytest.raises(IncompleteGridError) as err:
            throughput_by_group(rows)
        with pytest.raises(IncompleteGridError) as expected:
            throughput_by_group_reference(rows, AmplitudeMode.EUCLIDEAN)
        assert err.value.missing == expected.value.missing

    @given(st.lists(
        st.tuples(st.sampled_from(list(Technique)), st.sampled_from([0.2, 0.2004, 0.1996]),
                  st.floats(1e-3, 1e3), st.floats(0.0, 1.0)),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_cells(self, rows):
        trials = [
            Trial("P01", tech, Posture.SITTING, 0, i, w, 3.0, 0.0, 0.0, mt, dev, 0, True)
            for i, (tech, w, mt, dev) in enumerate(rows)
        ]
        assert_same_dict(group_by_condition(trials), group_by_condition_reference(trials))


class TestExactMeans:
    """The group-by's movement-time means are each cell's fsum over n, and
    its endpoint-deviation SDs come from each cell's exact sums."""

    @given(st.lists(st.tuples(st.sampled_from([Technique.RPRG, Technique.LPLG]),
                              st.sampled_from([0.2, 0.7, 1.35]), MEAN_VALUES, MEAN_VALUES),
                    min_size=1, max_size=40),
           st.lists(st.tuples(st.integers(0, 39), st.booleans(),
                              st.sampled_from([math.inf, -math.inf, math.nan])), max_size=2))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_hypothesis_cells(self, rows, non_finite):
        trials = [Trial("P01", tech, Posture.SITTING, 0, i, w, 3.0, 0.0, 0.0, mt, dev, i % 3, True)
                  for i, (tech, w, mt, dev) in enumerate(rows)]
        for i, on_mt, value in non_finite:
            if i < len(trials):
                column = "movement_time_s" if on_mt else "endpoint_deviation_m"
                trials[i] = replace(trials[i], **{column: value})
        assert_grouped_as_the_reference(trials)

    @pytest.mark.parametrize("values, mt_error, dev_error", [
        ([1e308, 1e308, -1e308], "overflows when summed", None),  # finite sum, fsum overflows
        ([1.7e308, 1.7e308], "overflows when summed", None),
        # mean 0, SD 2.4e308: only the deviations take an SD
        ([1.7e308, -1.7e308], None, "overflows when its SD is taken"),
        ([8.9e307, 8.9e307, -1.0], None, None),
        ([math.inf, 1.0, 2.0], None, None),
        ([math.nan, -0.0], None, None),
        ([math.inf, -math.inf], "-inf \\+ inf in fsum", None),
        ([-0.0, -0.0, -0.0], None, None),
        ([5e-324, 5e-324, -2.5e-323], None, None),
        ([2.0 ** 1000, 1.0, 2.0 ** -1074, -(2.0 ** 1000)], None, None),
        # cells of one value
        ([1e308, 1e308], "overflows when summed", None),
        ([8.9e307] * 2, None, None),
        ([-1.7e308] * 2, "overflows when summed", None),
        ([5e-324] * 3, None, None),
        ([-0.0, 0.0], None, None),
        ([math.inf] * 2, None, None),
        ([math.nan] * 2, None, None),
    ])
    def test_edge_cells(self, values, mt_error, dev_error):
        trial = Trial("P01", Technique.RPRG, Posture.SITTING, 0, 0, 0.2, 3.0, 0.0, 0.0,
                      1.0, 0.01, 0, True)
        for column, error in (("movement_time_s", mt_error), ("endpoint_deviation_m", dev_error)):
            trials = [replace(trial, trial_index=i, **{column: v}) for i, v in enumerate(values)]
            assert_grouped_as_the_reference(trials)
            if error:
                with pytest.raises(ValueError, match=error):
                    group_by_condition(trials)

    def test_one_value_columns_take_no_integer_sums(self, monkeypatch):
        """A model-exact Standard study's endpoint column is all zeros: its
        group-by takes no integer sums, and neither do both collapses, which
        take no SD. A realistic study's varying deviations still take them."""
        def unreachable(*args):
            raise AssertionError("integer sums taken")

        monkeypatch.setattr(trials_module, "_limb_sums", unreachable)
        monkeypatch.setattr(trials_module, "_sd_of_sums", unreachable)
        table = generate_study(PRESETS["standard-exact"])
        for pooled in (False, True):
            table1_cells(table, pooled)
        assert_same_dict(group_by_condition(table), group_by_condition_reference(list(table)))
        with pytest.raises(AssertionError, match="integer sums taken"):
            group_by_condition(generate_study(PRESETS["realistic"]))

    @pytest.mark.parametrize("levels, dtype", [
        ((5, 5, 1), np.uint8),     # 250 codes
        ((20, 20, 16), np.uint16),  # 64,000 codes
        ((20, 20, 20), np.int64),   # 80,000 codes
    ])
    def test_codes_sort_in_the_narrowest_type(self, monkeypatch, levels, dtype):
        """Cell codes sort as 8- or 16-bit integers, numpy's radix sort, up to
        2**8 and 2**16 codes, and as int64 beyond; thousands of cells group
        as the reference groups them on every side of both bounds."""
        rng = random.Random(sum(levels))
        trials = [replace(t, width_m=0.1 + rng.randrange(levels[0]) / 10,
                          distance_m=1.0 + rng.randrange(levels[1]) / 10,
                          height_m=rng.randrange(levels[2]) / 10)
                  for t in random_trials(rng, 3000, grid_jitter=False)]
        sorted_types = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, **kw: sorted_types.append(a.dtype)
                            or argsort(a, **kw))
        assert_grouped_as_the_reference(trials)
        assert sorted_types == [dtype]
        assert len(group_by_condition(trials)) >= (250 if dtype == np.uint8 else 2000)


class TestSdOverflow:
    """An SD beyond the float range: ``sample_sd`` raises OverflowError as
    ``statistics.stdev`` does, and the group-by names the cell of an
    endpoint-deviation SD in a ValueError. Movement times take no SD."""

    TRIAL = Trial("P01", Technique.RPRG, Posture.SITTING, 0, 0, 0.2, 3.0, 0.0, 0.0,
                  1.0, 0.01, 0, True)

    def test_sample_sd(self):
        for sd in (statistics.stdev, sample_sd):
            with pytest.raises(OverflowError):
                sd([1.7e308, -1.7e308])

    def test_group_by_condition(self):
        trials = [replace(self.TRIAL, trial_index=i, endpoint_deviation_m=v)
                  for i, v in enumerate((1.7e308, -1.7e308))]
        with pytest.raises(ValueError, match=r"^endpoint_deviation_m overflows when its SD is "
                                             r"taken over cell RPRG/Sitting W=0.2 D=3.0 H=0.0$"):
            group_by_condition(trials)

    def test_movement_times_take_no_sd(self):
        """A cell of movement times 1.7e308 and -1.7e308 groups with fmean's
        mean 0.0, and so do two cells of one of them each, merged."""
        mts = [1.7e308, -1.7e308]
        trials = [replace(self.TRIAL, trial_index=i, movement_time_s=mt)
                  for i, mt in enumerate(mts)]
        [cell] = group_by_condition(trials).values()
        assert (cell.n_trials, cell.mean_mt_s, cell.sd_deviation_m) == (2, 0.0, 0.0)
        assert cell.mean_mt_s == statistics.fmean(mts)
        cells = group_by_condition([replace(trial, technique=technique) for trial, technique
                                    in zip(trials, (Technique.RPRG, Technique.LPLG))])
        for pooled in (False, True):
            [merged] = collapse_over(cells, {"technique"}, pooled=pooled).values()
            assert (merged.n_trials, merged.mean_mt_s, merged.sd_deviation_m) == (2, 0.0, None)


def quantized_codes_reference(column):
    """Codes and levels through ``np.unique`` of the whole column."""
    raw, inverse = np.unique(column, return_inverse=True)
    levels, code_of_raw = [], []
    for q in (round(x, 3) for x in raw.tolist()):
        if not levels or q != levels[-1]:
            levels.append(q)
        code_of_raw.append(len(levels) - 1)
    return np.asarray(code_of_raw, dtype=np.int64)[inverse], levels


class TestQuantizedCodes:
    @pytest.mark.parametrize("values", [
        [0.2, 1.35],
        [0.0, 3.0],
        [-0.0, 3.0],  # one zero, negative: kept as -0.0
        [-0.0, 0.0, 3.0],  # zeros of both signs: np.unique decides the zero kept
        [math.nan, 1.0, -math.nan],  # nan: one level, as np.unique's equal_nan
        [0.2, 0.2003, 0.1996, 1.35, 1.3504],  # raw values that round alike share a code
        [math.inf, -math.inf, 5e-324, -5e-324, 1e308],
        [float(v) for v in range(8)],  # as many values as the scans take
        [float(v) for v in range(9)],  # one more: the sort
        [v / 7 for v in range(40)],
    ])
    def test_codes_and_levels_match_np_unique(self, values):
        rng = np.random.default_rng(len(values))
        for n in (1, 2, 50, 3000):
            column = np.array(values)[rng.permutation(n) % len(values)]
            codes, levels = trials_module._quantized_codes(column)
            want_codes, want_levels = quantized_codes_reference(column)
            assert np.array_equal(codes, want_codes)
            assert repr(levels) == repr(want_levels)

    def test_empty_column(self):
        codes, levels = trials_module._quantized_codes(np.array([]))
        assert len(codes) == 0 and levels == []


class TestSampleSd:
    @pytest.mark.parametrize("values", [
        [1.0, 1.0],
        [0.1] * 17,
        [0.0, 0.0, 0.0],
        [2.5, -2.5],
        [0.1, 0.2],
        [1e-300, 1e300],
        [5e-324, 1e-310, 2.2e-308],
        [1e-17, 1.0, 1e17, -3.5],
        [1.0 + 2.0 ** -52, 1.0, 1.0 - 2.0 ** -53],
        [1e154, -1e154, 3e153],
        [0.0, -0.0, 7.0],
        [-0.0, -0.0],
        [5e-324] * 4,
        [1e308] * 3,
        [7, 7],
    ])
    def test_adversarial_inputs(self, values):
        assert sample_sd(values).hex() == statistics.stdev(values).hex()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150,
                              max_value=1e150), min_size=2, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_random_floats(self, values):
        assert sample_sd(values) == statistics.stdev(values)

    def test_random_magnitudes(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            values = (rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, n)).tolist()
            assert sample_sd(values) == statistics.stdev(values)

    def test_cell_sds_match_per_cell(self):
        rng = np.random.default_rng(4)
        cells = [rng.normal(size=int(k)) * 10.0 ** int(e)
                 for k, e in zip(rng.integers(1, 30, 40), rng.integers(-200, 200, 40))]
        cells.append(np.zeros(5))
        counts = np.array([len(c) for c in cells])
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        got = trials_module._cell_sds(np.concatenate(cells), starts, counts)
        expected = [statistics.stdev(c.tolist()) if len(c) >= 2 else 0.0 for c in cells]
        assert got == expected

    @given(st.one_of(
        st.lists(st.one_of(st.lists(SD_VALUES, min_size=1, max_size=12), ONE_VALUE_CELLS),
                 min_size=1, max_size=8),
        st.lists(ONE_VALUE_CELLS, min_size=1, max_size=8),
    ))
    @example([[0.1] * 3, [-0.0, 0.0], [5e-324], [-2.5e-320] * 5, [1e6] * 12])
    @settings(max_examples=200)
    def test_cell_sds_exact(self, cells):
        counts = np.array([len(c) for c in cells])
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        values = np.array([v for c in cells for v in c])
        expected = [0.0 if len(c) < 2 else sample_sd(c) for c in cells]
        for cell, sd in zip(cells, expected):
            if len(cell) >= 2 and all(map(math.isfinite, cell)):
                assert sd.hex() == statistics.stdev(cell).hex()
        got = trials_module._cell_sds(values, starts, counts)
        assert list(map(float.hex, got)) == list(map(float.hex, expected))

    def test_cell_of_more_than_2_to_21_rows(self):
        """Mantissas with (nearly) every bit set: in 21-bit limbs, the product
        sums of this cell would overflow int64."""
        n = 2 ** 21 + 2 ** 10
        values = [2.0 ** 53 - 1] * n
        values[::1000] = [2.0 ** 53 - 3] * len(values[::1000])
        values[1::1000] = [2.0 ** 52 + 1] * len(values[1::1000])
        expected = sample_sd(values)
        got = trials_module._cell_sds(np.array(values), np.array([0]), np.array([n]))
        assert got == [expected]

    def test_non_finite_gives_nan(self):
        assert math.isnan(sample_sd([1.0, math.inf]))
        assert math.isnan(sample_sd([math.nan, 1.0, 2.0]))
        assert math.isnan(sample_sd([math.inf, math.inf]))
        assert math.isnan(sample_sd([math.nan, math.nan]))

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match=">= 2"):
            sample_sd([1.0])


class TestTrialTable:
    def test_sequence_of_trials(self):
        table = generate_study(PRESETS["realistic"])
        trials = list(table)
        assert all(isinstance(t, Trial) for t in trials)
        assert table == trials and trials == table
        assert list(table) == trials
        assert table[0] == trials[0] and table[-1] == trials[-1]
        assert table[5:9] == trials[5:9]
        with pytest.raises(IndexError):
            table[len(trials)]

    def test_iterated_floats_keep_their_bits_and_share_grid_values(self):
        """Within a chunk, one float object per distinct W, D, H and angle;
        movement time and deviation come one per row, as ``tolist`` gives."""
        table = generate_study(PRESETS["realistic"])
        chunk = list(table)[:trials_module._CHUNK_ROWS]
        for name in [field.name for field in trials_module._FIELDS if field.dtype is np.float64]:
            column = getattr(table, name)[:len(chunk)]
            values = [getattr(t, name) for t in chunk]
            assert all(type(v) is float for v in values)
            assert np.array(values).tobytes() == column.tobytes()
            objects = len({id(v) for v in values})
            distinct = len(np.unique(column.view(np.int64)))
            assert objects == (distinct if name in ("width_m", "distance_m", "height_m",
                                                    "angle_deg") else len(chunk)), name

    def test_from_trials_round_trip(self):
        trials = random_trials(random.Random(9), 50)
        table = TrialTable.from_trials(trials)
        assert table == trials
        assert list(table) == trials
        assert TrialTable.from_trials(table) is table

    def test_inequality(self):
        trials = random_trials(random.Random(9), 20)
        table = TrialTable.from_trials(trials)
        assert table != trials[:-1]
        assert table != trials[::-1]
        renamed = [Trial("P99", *[getattr(t, f) for f in Trial.__dataclass_fields__][1:])
                   if i == 3 else t for i, t in enumerate(trials)]
        assert table != TrialTable.from_trials(renamed)

    def test_columns_are_read_only(self):
        table = generate_study(PRESETS["standard-exact"])
        with pytest.raises(ValueError):
            table.movement_time_s[0] = 1.0

    def test_empty(self):
        table = TrialTable.from_trials([])
        assert len(table) == 0 and table == []
        assert group_by_condition(table) == {}

    @pytest.mark.parametrize("field, value, type_name", [
        ("success", "false", "bool"),
        ("success", 1, "bool"),
        ("width_m", "0.2", "float"),
        ("movement_time_s", None, "float"),
        ("block", 1.5, "int"),
        ("error_attempts", 2 ** 63, "int"),
        ("participant_id", 7, "str"),
        ("technique", "RPRG", "Technique"),
        ("posture", [Posture.SITTING], "Posture"),
    ])
    def test_from_trials_rejects_values_of_another_type(self, tmp_path, field, value, type_name):
        """TypeError names the field and the first bad row, from every entry
        point that takes a sequence of trials."""
        trials = random_trials(random.Random(5), 6)
        for i in (3, 5):
            trials[i] = replace(trials[i], **{field: value})
        message = rf"^row 3: {field} {re.escape(repr(value))} is not a valid {type_name}$"
        for entry in (TrialTable.from_trials, validate_log, group_by_condition,
                      lambda t: write_trial_log(t, str(tmp_path / "log.csv"))):
            with pytest.raises(TypeError, match=message):
                entry(trials)

    def test_from_trials_takes_values_that_convert_exactly(self):
        """ints and bools where floats belong, bools where ints belong and
        numpy scalars are held as their column's dtype holds them."""
        trials = random_trials(random.Random(5), 3)
        trials[1] = replace(trials[1], width_m=1, height_m=True, block=np.int32(4),
                            error_attempts=False, movement_time_s=np.float32(0.5),
                            success=np.True_)
        table = TrialTable.from_trials(trials)
        row = table[1]
        assert (row.width_m, row.height_m, row.block, row.error_attempts,
                row.movement_time_s, row.success) == (1.0, 1.0, 4, 0, 0.5, True)
        assert [type(v) for v in (row.width_m, row.block, row.success)] == [float, int, bool]

    def test_generated_columns_match_rows(self):
        config = PRESETS["proposed-noisy"]
        table = generate_study(config)
        assert table.participant_ids == ("P01", "P02", "P03")
        assert len(table) == 3 * 400
        assert set(table.trial_index.tolist()) == set(range(40))


def count_cell_sds(monkeypatch) -> list[int]:
    """Count the calls of the group-by's SD kernel (one per group-by)."""
    calls = [0]
    cell_sds = trials_module._cell_sds

    def counting(*args):
        calls[0] += 1
        return cell_sds(*args)

    monkeypatch.setattr(trials_module, "_cell_sds", counting)
    return calls


class TestOwnershipAndGroupMemo:
    def test_table_owns_its_columns(self):
        trials = random_trials(random.Random(3), 30)
        source = TrialTable.from_trials(trials)
        columns = {field.column: np.array(getattr(source, field.column))
                   for field in trials_module._FIELDS}
        lines = np.arange(2, 32)
        table = TrialTable(source.participant_ids, line_numbers=lines, **columns)
        before = group_by_condition(table)
        for column in columns.values():
            column[:] = column[::-1]
        lines[:] = 0
        assert table == trials
        assert table.line_numbers.tolist() == list(range(2, 32))
        assert not table.line_numbers.flags.writeable
        assert_same_dict(group_by_condition(table), before)

    def test_returned_dict_is_fresh(self):
        table = generate_study(PRESETS["realistic"])
        first = group_by_condition(table)
        expected = dict(first)
        first.clear()
        second = group_by_condition(table)
        assert second is not first
        assert_same_dict(second, expected)
        assert_same_dict(second, group_by_condition_reference(list(table)))

    def test_suites_and_throughput_group_one_table_once(self, monkeypatch):
        table = generate_study(PRESETS["realistic"])
        calls = count_cell_sds(monkeypatch)
        for mode in (AmplitudeMode.EUCLIDEAN, AmplitudeMode.DEPTH_ONLY):
            run_table1_suite(table, mode)
        throughput_by_group(table)
        assert calls[0] == 1

    def test_second_suite_collapses_nothing(self, monkeypatch):
        table = generate_study(PRESETS["realistic"])
        calls = []
        collapse = comparison_module.collapse_over
        monkeypatch.setattr(comparison_module, "collapse_over",
                            lambda *args, **kwargs: calls.append(1) or collapse(*args, **kwargs))
        first = run_table1_suite(table, AmplitudeMode.EUCLIDEAN)
        assert len(calls) == len(TABLE_GROUPS)
        assert run_table1_suite(table, AmplitudeMode.EUCLIDEAN) == first
        assert len(calls) == len(TABLE_GROUPS)
        run_table1_suite(table, AmplitudeMode.DEPTH_ONLY, pooled=True)
        assert len(calls) == 2 * len(TABLE_GROUPS)  # pooled cells are collapsed apart

    @pytest.mark.parametrize("pooled", [False, True])
    def test_returned_report_cells_are_fresh(self, pooled):
        table = generate_study(PRESETS["realistic"])
        first = table1_cells(table, pooled)
        expected = {label: dict(cells) for label, cells in first.items()}
        first["All"].clear()
        del first["RPRG"]
        second = table1_cells(table, pooled)
        assert_same_dict(second, expected)
        assert_same_dict(second, table1_cells(list(table), pooled))

    def test_lists_are_grouped_on_every_call(self, monkeypatch):
        trials = random_trials(random.Random(4), 40)
        calls = count_cell_sds(monkeypatch)
        first = group_by_condition(trials)
        assert_same_dict(group_by_condition(trials), first)
        assert calls[0] == 2


class TestNoPerRowObjects:
    def test_generate_then_group_builds_no_trial_and_one_key_per_cell(self, monkeypatch):
        """Keys are built without the public constructor's second rounding."""
        counts = {"Trial": 0, "ConditionKey": 0, "rounded": 0}
        trial_init = Trial.__init__
        key_post_init = trials_module.ConditionKey.__post_init__
        frozen = trials_module._frozen

        def counting_trial_init(self, *args, **kwargs):
            counts["Trial"] += 1
            trial_init(self, *args, **kwargs)

        def counting_key_post_init(self):
            counts["rounded"] += 1
            key_post_init(self)

        def counting_frozen(cls, **fields):
            counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
            return frozen(cls, **fields)

        monkeypatch.setattr(Trial, "__init__", counting_trial_init)
        monkeypatch.setattr(trials_module.ConditionKey, "__post_init__", counting_key_post_init)
        monkeypatch.setattr(trials_module, "_frozen", counting_frozen)
        summaries = group_by_condition(generate_study(realistic_preset(participants=5, seed=2)))
        assert counts == {"Trial": 0, "ConditionKey": len(summaries),
                          "ConditionSummary": len(summaries), "rounded": 0}
        assert len(summaries) == 80


class TestLogLines:
    def test_read_records_physical_lines(self, tmp_path):
        trials = random_trials(random.Random(1), 4)
        path = tmp_path / "log.csv"
        write_trial_log(trials, str(path))
        lines = path.read_text().splitlines()
        lines[2:2] = ["", ""]  # two blank lines before the second row
        path.write_text("\n".join(lines) + "\n")
        table = read_trial_log(str(path))
        assert table == trials
        assert table.line_numbers.tolist() == [2, 5, 6, 7]
        assert [table.line_number(i) for i in range(4)] == [2, 5, 6, 7]
        assert TrialTable.from_trials(trials).line_number(1) == 3

    def test_chunked_read_and_write_round_trip(self, tmp_path):
        table = generate_study(realistic_preset(participants=6, seed=4))
        path = tmp_path / "log.csv"
        write_trial_log(table, str(path))
        assert len(table) > 2 * trials_module._CHUNK_ROWS
        back = read_trial_log(str(path))
        assert back == table
        assert back.line_numbers.tolist() == list(range(2, len(table) + 2))

    def test_bad_row_in_a_later_chunk_names_its_line(self, tmp_path):
        table = generate_study(realistic_preset(participants=4, seed=4))
        path = tmp_path / "log.csv"
        write_trial_log(table, str(path))
        lines = path.read_text().splitlines()
        bad_line = trials_module._CHUNK_ROWS + 300
        lines[bad_line - 1] = lines[bad_line - 1].replace("Sitting", "Lying").replace(
            "Standing", "Lying")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(trials_module.LogFormatError) as err:
            read_trial_log(str(path))
        assert err.value.line_number == bad_line
        assert "Posture" in str(err.value)

    def test_integer_out_of_range_is_a_format_error(self, tmp_path):
        path = tmp_path / "log.csv"
        write_trial_log(random_trials(random.Random(2), 3), str(path))
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[3] = str(2 ** 70)
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(trials_module.LogFormatError) as err:
            read_trial_log(str(path))
        assert err.value.line_number == 4

    def test_nul_byte_is_a_format_error(self, tmp_path):
        path = tmp_path / "log.csv"
        write_trial_log(random_trials(random.Random(2), 3), str(path))
        text = path.read_text().splitlines()
        text[2] = text[2] + "\0"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(trials_module.LogFormatError) as err:
            read_trial_log(str(path))
        assert err.value.line_number == 3

    def test_header_only_log_is_empty(self, tmp_path):
        path = tmp_path / "log.csv"
        write_trial_log([], str(path))
        assert len(read_trial_log(str(path))) == 0


def test_float_columns_written_as_python_reprs(tmp_path):
    # numpy 2 scalars repr as "np.float64(...)"; the log must hold plain floats
    path = tmp_path / "log.csv"
    write_trial_log(generate_study(PRESETS["realistic"])[:3], str(path))
    assert "np." not in path.read_text()
