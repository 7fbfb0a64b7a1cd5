import dataclasses
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telefitts.trials import (
    TRIAL_LOG_HEADER,
    ConditionKey,
    ConditionSummary,
    LogFormatError,
    Posture,
    Technique,
    Trial,
    collapse_over,
    group_by_condition,
    read_trial_log,
    validate_log,
    write_trial_log,
)


def make_trial(**overrides) -> Trial:
    base = dict(
        participant_id="P01",
        technique=Technique.RPRG,
        posture=Posture.SITTING,
        block=0,
        trial_index=0,
        width_m=0.2,
        distance_m=3.0,
        height_m=0.0,
        angle_deg=0.0,
        movement_time_s=2.0,
        endpoint_deviation_m=0.05,
        error_attempts=0,
        success=True,
    )
    base.update(overrides)
    return Trial(**base)


class TestValidateLog:
    def test_clean_log(self):
        assert validate_log([make_trial(), make_trial(trial_index=1)]) == []

    def test_empty_sequence(self):
        assert validate_log([]) == []

    def test_negative_movement_time(self):
        report = validate_log([make_trial(movement_time_s=-1.0)])
        assert len(report) == 1
        assert report[0].trial_index == 0
        assert "non-positive movement time" in report[0].message

    def test_success_deviation_exceeds_radius(self):
        # deviation 0.2 > W/2 = 0.1 on a success is inconsistent
        report = validate_log([make_trial(width_m=0.2, endpoint_deviation_m=0.2)])
        assert len(report) == 1
        assert report[0].field == "endpoint_deviation_m"

    def test_failure_deviation_may_exceed_radius(self):
        t = make_trial(width_m=0.2, endpoint_deviation_m=0.2, success=False)
        assert validate_log([t]) == []

    def test_violation_indices_point_at_offenders(self):
        trials = [make_trial(), make_trial(movement_time_s=-2.0), make_trial()]
        report = validate_log(trials)
        assert [v.trial_index for v in report] == [1]


class TestGroupByCondition:
    def test_mean_and_sd_hand_example(self):
        trials = [make_trial(movement_time_s=mt, endpoint_deviation_m=mt / 10, trial_index=i)
                  for i, mt in enumerate([1.0, 2.0, 3.0])]
        summaries = group_by_condition(trials)
        assert len(summaries) == 1
        s = next(iter(summaries.values()))
        assert s.n_trials == 3
        assert s.mean_mt_s == pytest.approx(2.0, abs=1e-12)
        assert s.sd_deviation_m == pytest.approx(0.1, abs=1e-12)

    def test_singleton_cell(self):
        s = next(iter(group_by_condition([make_trial(movement_time_s=1.7)]).values()))
        assert s.n_trials == 1
        assert s.mean_mt_s == 1.7
        assert s.sd_deviation_m == 0.0

    def test_a_cell_keeps_what_the_fits_and_throughput_read(self):
        assert [f.name for f in dataclasses.fields(ConditionSummary)] == [
            "key", "n_trials", "mean_mt_s", "sd_deviation_m"]

    def test_empty_input_gives_empty_map(self):
        assert group_by_condition([]) == {}

    def test_every_trial_in_exactly_one_cell(self):
        trials = []
        idx = 0
        for tech in Technique:
            for w in (0.2, 1.35):
                trials.append(make_trial(technique=tech, width_m=w, trial_index=idx))
                idx += 1
        summaries = group_by_condition(trials)
        assert sum(s.n_trials for s in summaries.values()) == len(trials)

    @given(st.permutations(list(range(12))))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, order):
        trials = [
            make_trial(
                movement_time_s=1.0 + 0.25 * i,
                endpoint_deviation_m=0.01 * i,
                technique=list(Technique)[i % 3],
                trial_index=i,
            )
            for i in range(12)
        ]
        base = group_by_condition(trials)
        shuffled = group_by_condition([trials[i] for i in order])
        assert base == shuffled


class TestCollapseOver:
    def _summaries(self):
        trials = []
        idx = 0
        for tech in Technique:
            for posture in Posture:
                for w, d, h in [(0.2, 3.0, 0.0), (0.2, 3.0, 3.0), (1.35, 9.0, 0.0),
                                (1.35, 9.0, 3.0), (0.2, 9.0, 0.0), (0.2, 9.0, 3.0),
                                (1.35, 3.0, 0.0), (1.35, 3.0, 3.0)]:
                    mt = 1.0 + 0.1 * idx
                    trials.append(make_trial(
                        technique=tech, posture=posture, width_m=w, distance_m=d,
                        height_m=h, movement_time_s=mt, trial_index=idx))
                    idx += 1
        return group_by_condition(trials)

    def test_paper_grid_collapses_to_eight_cells(self):
        collapsed = collapse_over(self._summaries(), {"technique", "posture"})
        assert len(collapsed) == 8
        assert all(k.technique is None and k.posture is None for k in collapsed)

    def test_identity_collapse(self):
        summaries = self._summaries()
        assert collapse_over(summaries, set()) == summaries

    def test_midpoint_over_posture(self):
        t1 = make_trial(posture=Posture.SITTING, movement_time_s=2.0)
        t2 = make_trial(posture=Posture.STANDING, movement_time_s=4.0)
        collapsed = collapse_over(group_by_condition([t1, t2]), {"posture"})
        assert len(collapsed) == 1
        assert next(iter(collapsed.values())).mean_mt_s == pytest.approx(3.0)

    def test_unknown_factor(self):
        with pytest.raises(ValueError, match="unknown factor"):
            collapse_over(self._summaries(), {"width"})

    def test_bare_str_rejected(self):
        with pytest.raises(TypeError, match=r"^drop must be a collection of factor names, "
                                            r"not the str 'technique'$"):
            collapse_over(self._summaries(), "technique")

    def test_grand_mean_equals_mean_of_cell_means(self):
        summaries = self._summaries()
        collapsed = collapse_over(summaries, {"technique", "posture"})
        for key, merged in collapsed.items():
            constituents = [
                s.mean_mt_s for k, s in summaries.items()
                if (k.width_m, k.distance_m, k.height_m)
                == (key.width_m, key.distance_m, key.height_m)
            ]
            assert merged.mean_mt_s == pytest.approx(
                statistics.fmean(constituents), abs=1e-12
            )

    def test_means_of_means_differs_from_pooled_on_unbalanced_cells(self):
        trials = [make_trial(posture=Posture.SITTING, movement_time_s=1.0)]
        trials += [make_trial(posture=Posture.STANDING, movement_time_s=3.0,
                              trial_index=i) for i in range(1, 4)]
        summaries = group_by_condition(trials)
        mom = collapse_over(summaries, {"posture"})
        pooled = collapse_over(summaries, {"posture"}, pooled=True)
        assert next(iter(mom.values())).mean_mt_s == pytest.approx(2.0)
        assert next(iter(pooled.values())).mean_mt_s == pytest.approx(2.5)

    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_random_grand_mean_property(self, mts):
        trials = [
            make_trial(
                technique=list(Technique)[i % len(Technique)],
                posture=list(Posture)[i % len(Posture)],
                movement_time_s=mt,
                trial_index=i,
            )
            for i, mt in enumerate(mts)
        ]
        summaries = group_by_condition(trials)
        collapsed = collapse_over(summaries, {"technique", "posture"})
        grand = next(iter(collapsed.values())).mean_mt_s
        expected = statistics.fmean(s.mean_mt_s for s in summaries.values())
        assert abs(grand - expected) < 1e-12


class TestConditionKey:
    def test_millimeter_quantization(self):
        a = ConditionKey(Technique.RPRG, Posture.SITTING, 0.2, 3.0, 0.0)
        b = ConditionKey(Technique.RPRG, Posture.SITTING, 0.2 + 4e-4, 3.0 - 2e-4, 0.0)
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct_beyond_millimeter(self):
        a = ConditionKey(None, None, 0.2, 3.0, 0.0)
        b = ConditionKey(None, None, 0.202, 3.0, 0.0)
        assert a != b

    LEVELS = st.one_of(
        st.sampled_from([0.1 + 0.2, 0.3, 0.2, 1.35, 3.0, 9.0, 0.0, -0.0, 1.0005, 1.0015,
                         2.675, 0.0004999, 1e-9, 1e17 + 0.5, 123456.7895]),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )

    @given(st.lists(st.tuples(st.sampled_from(list(Technique)), st.sampled_from(list(Posture)),
                              LEVELS, LEVELS, LEVELS), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_group_by_and_collapse_keys_equal_public_keys(self, cells):
        """The group-by and the collapse build keys without the public
        constructor; they still equal and hash like the public keys of the
        raw levels."""
        trials = [make_trial(technique=t, posture=p, width_m=w, distance_m=d, height_m=h)
                  for t, p, w, d, h in cells]
        summaries = group_by_condition(trials)
        for drop in ((), ("technique",), ("posture",), ("technique", "posture")):
            got = collapse_over(summaries, drop) if drop else summaries
            public = {}
            for t, p, w, d, h in cells:
                key = ConditionKey(None if "technique" in drop else t,
                                   None if "posture" in drop else p, w, d, h)
                public.setdefault(key, key)
            assert len(got) == len(public), drop
            for key, summary in got.items():
                assert summary.key is key
                twin = public[key]
                assert key == twin and hash(key) == hash(twin), (drop, key, twin)


class TestTrialLogIO:
    def test_round_trip(self, tmp_path):
        trials = [
            make_trial(),
            make_trial(technique=Technique.RPDW, posture=Posture.STANDING,
                       movement_time_s=1.2345678901234567, trial_index=1,
                       success=False, endpoint_deviation_m=0.3, error_attempts=2),
        ]
        path = tmp_path / "log.csv"
        write_trial_log(trials, str(path))
        assert read_trial_log(str(path)) == trials

    def test_header_exact(self, tmp_path):
        path = tmp_path / "log.csv"
        write_trial_log([make_trial()], str(path))
        first = path.read_text().splitlines()[0]
        assert first == TRIAL_LOG_HEADER

    def test_bad_header_reports_line_one(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("nope\n")
        with pytest.raises(LogFormatError) as err:
            read_trial_log(str(path))
        assert err.value.line_number == 1

    def test_bad_field_reports_line(self, tmp_path):
        path = tmp_path / "log.csv"
        write_trial_log([make_trial(), make_trial(trial_index=1)], str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("2.0", "not-a-number", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError) as err:
            read_trial_log(str(path))
        assert err.value.line_number == 3

    def test_booleans_written_lowercase(self, tmp_path):
        path = tmp_path / "log.csv"
        write_trial_log([make_trial(success=True)], str(path))
        assert path.read_text().splitlines()[1].endswith(",true")
