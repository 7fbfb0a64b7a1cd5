import hashlib
import math
import statistics
import sys
from collections import Counter
from dataclasses import replace

import pytest

from telefitts.comparison import render_records, render_table, run_table1_suite
from telefitts.trials import _FIELDS, Posture, Technique, write_trial_log
from telefitts.models import AmplitudeMode, ModelKind, geometry_for_condition, predict_mt
from telefitts.throughput import render_throughput_records, throughput_by_group
from telefitts.sim import (
    ConfigError,
    GroundTruth,
    REFERENCE_PROPOSED_ALL,
    REFERENCE_STANDARD_ALL,
    SIMULABLE_PROPOSED_ALL,
    StudyConfig,
    balanced_latin_square,
    generate_study,
    load_study_config,
    model_exact_preset,
    realistic_preset,
    technique_offsets_from_means,
)

from oracles import generate_study_reference


class TestBalancedLatinSquare:
    def test_two_by_two(self):
        assert balanced_latin_square(2) == [[0, 1], [1, 0]]

    def test_four_first_row(self):
        sq = balanced_latin_square(4)
        assert sq[0] == [0, 1, 3, 2]

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_rows_and_columns_are_permutations(self, n):
        sq = balanced_latin_square(n)
        for row in sq:
            assert sorted(row) == list(range(n))
        for col in zip(*sq):
            assert sorted(col) == list(range(n))

    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_adjacent_pairs_each_occur_once(self, n):
        sq = balanced_latin_square(n)
        pairs = Counter((row[i], row[i + 1]) for row in sq for i in range(n - 1))
        assert len(pairs) == n * (n - 1)
        assert set(pairs.values()) == {1}

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            balanced_latin_square(5)


class TestGenerateStudy:
    def test_per_participant_trial_count(self):
        trials = generate_study(realistic_preset(participants=2, seed=1))
        assert len(trials) == 800
        by_participant = Counter(t.participant_id for t in trials)
        assert set(by_participant.values()) == {400}

    def test_twenty_participants_full_study(self):
        trials = generate_study(realistic_preset(participants=20, seed=1))
        assert len(trials) == 8000

    def test_noiseless_mt_equals_model_prediction(self):
        config = model_exact_preset(REFERENCE_STANDARD_ALL, participants=1, seed=9)
        for t in generate_study(config):
            g = geometry_for_condition(t.width_m, t.distance_m, t.height_m,
                                       config.amplitude_mode)
            expected = predict_mt(ModelKind.STANDARD, (-0.41, 0.83), g)
            assert t.movement_time_s == expected

    def test_byte_determinism(self):
        a = generate_study(realistic_preset(participants=3, seed=321))
        b = generate_study(realistic_preset(participants=3, seed=321))
        assert a == b

    def test_seed_changes_output(self):
        a = generate_study(realistic_preset(participants=1, seed=1))
        b = generate_study(realistic_preset(participants=1, seed=2))
        assert a != b

    def test_block_order_follows_latin_square(self):
        config = realistic_preset(participants=12, seed=4)
        trials = generate_study(config)
        combos = [(t, p) for t in Technique for p in Posture]
        square = balanced_latin_square(10)
        for pi in range(12):
            pid = f"P{pi + 1:02d}"
            seen: list[int] = []
            for t in trials:
                if t.participant_id == pid:
                    idx = combos.index((t.technique, t.posture))
                    if not seen or seen[-1] != idx:
                        seen.append(idx)
            assert seen == square[pi % 10]

    def test_blocks_cover_grid_with_five_repetitions(self):
        trials = generate_study(realistic_preset(participants=1, seed=8))
        one_block = [t for t in trials if t.block == 0]
        assert len(one_block) == 40
        cells = Counter((t.width_m, t.distance_m, t.height_m) for t in one_block)
        assert len(cells) == 8
        assert set(cells.values()) == {5}

    def test_angles_from_paper_choices(self):
        trials = generate_study(realistic_preset(participants=1, seed=8))
        assert {t.angle_deg for t in trials} <= {-10.0, 0.0, 10.0}

    def test_all_generated_trials_valid(self):
        from telefitts.trials import validate_log

        trials = generate_study(realistic_preset(participants=4, seed=77))
        assert validate_log(trials) == []

    def test_error_attempts_follow_deviation_redraws(self):
        config = realistic_preset(participants=4, seed=15)
        trials = generate_study(config)
        # deviations always land inside the target after redrawing
        assert all(t.endpoint_deviation_m <= t.width_m / 2 for t in trials)
        assert any(t.error_attempts > 0 for t in trials)
        assert all(t.success for t in trials)

    def test_nonpositive_ground_truth_rejected_when_noiseless(self):
        bad = GroundTruth(ModelKind.STANDARD, (-10.0, 0.83))
        with pytest.raises(ConfigError, match="non-positive movement time"):
            generate_study(model_exact_preset(bad, participants=1, seed=0))

    def test_technique_offsets_shift_means(self):
        config = realistic_preset(participants=10, seed=5)
        trials = generate_study(config)
        means = {
            tech: statistics.fmean(
                t.movement_time_s for t in trials if t.technique is tech
            )
            for tech in Technique
        }
        offsets = technique_offsets_from_means()
        for a in Technique:
            for b in Technique:
                if offsets[a] < offsets[b] - 0.05:
                    assert means[a] < means[b]

    def test_technique_offsets_keep_their_bits(self):
        """The grand mean is a left-to-right sum; Python 3.12's compensated
        ``sum`` would make RPRG's offset -0.05799999999999983."""
        offsets = technique_offsets_from_means()
        assert offsets[Technique.RPRG] == -0.058000000000000274
        assert offsets[Technique.RPDW] == 0.24199999999999955


#: Configs the generator must reproduce, with the sha256 prefix of the log
#: each writes; the last redraws movement times and endpoints often.
REFERENCE_STUDIES = [
    (realistic_preset(seed=1), "9b64427cfac895f3"),
    (realistic_preset(seed=2), "861b873f86c7f300"),
    (realistic_preset(seed=3), "f512b40d07015219"),
    (model_exact_preset(SIMULABLE_PROPOSED_ALL, seed=0, mt_noise_sd_s=0.05), "e22094da4e45cc98"),
    (model_exact_preset(REFERENCE_STANDARD_ALL, seed=0), "cea2ed958238baa7"),
    (replace(realistic_preset(seed=4), endpoint_sd_fraction_of_width=0.6, mt_noise_sd_s=1.5),
     "794cdb5cea37b177"),
]


class TestAgainstBlockByBlockGenerator:
    """The generator keeps the block-by-block loop's draws, columns and
    errors exactly."""

    @staticmethod
    def assert_same_as_reference(config):
        table = generate_study(config)
        expected = generate_study_reference(config)
        assert table.participant_ids == expected.participant_ids
        for name in [field.column for field in _FIELDS]:
            got, want = getattr(table, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        return table

    @pytest.mark.parametrize("config, digest", REFERENCE_STUDIES)
    def test_same_columns_and_log_bytes(self, config, digest, tmp_path):
        table = self.assert_same_as_reference(config)
        write_trial_log(table, str(tmp_path / "log.csv"))
        assert hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mt_noise_sd_s", [0.05, 0.3, 0.6, 1.5])
    def test_same_columns_on_both_sides_of_the_redraw_check(self, mt_noise_sd_s, seed):
        """At sd 0.05 every block passes the loop's one check; at 0.3 some
        blocks fail it but need no redraw (seeds 2 and 3); at 0.6 some
        blocks redraw a draw just past the check's bound, and at 1.5 every
        block fails the check and some movement times are redrawn."""
        self.assert_same_as_reference(
            replace(realistic_preset(participants=2, seed=seed), mt_noise_sd_s=mt_noise_sd_s))

    @pytest.mark.parametrize("seed", [0, 3, 8])
    @pytest.mark.parametrize("truth", [REFERENCE_STANDARD_ALL, SIMULABLE_PROPOSED_ALL])
    def test_same_columns_without_noise(self, truth, seed):
        """With no noise the loop skips its check: no draw can fail it."""
        self.assert_same_as_reference(model_exact_preset(truth, participants=3, seed=seed))

    def test_report_bytes_of_the_seed_1_study(self):
        """The comparison records, table and throughput records of the seed-1
        study keep their sha256 prefixes, which the benchmark records too."""
        table = generate_study(realistic_preset(20, 1))
        reports = [report for mode in AmplitudeMode for report in run_table1_suite(table, mode)]
        outputs = {
            "jsonl": render_records(reports),
            "table": render_table(reports),
            "throughput": render_throughput_records(throughput_by_group(table)),
        }
        digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
                   for name, text in outputs.items()}
        assert digests == {"jsonl": "8cb67f114abe3bb4", "table": "3b34d5cffe32baa9",
                           "throughput": "05f3616bd632b30e"}

    @pytest.mark.parametrize("pooled, expected", [
        (True, {"jsonl": "8eda7214155980a5", "table": "ec3f180dde6d2264"}),
        (False, {"jsonl": "157fdbfe72d43c55", "table": "c222096dc1ad7a06"}),
    ])
    def test_report_bytes_of_an_unbalanced_study(self, pooled, expected):
        """The seed-1 study is balanced, so its pooled cell means are its
        means-of-means. Without its last 130 trials some cells hold fewer
        trials than the rest, and the two aggregations keep their own sha256
        prefixes."""
        table = generate_study(realistic_preset(20, 1))[:7870]
        reports = [report for mode in AmplitudeMode
                   for report in run_table1_suite(table, mode, pooled=pooled)]
        digests = {name: hashlib.sha256(render(reports).encode("utf-8")).hexdigest()[:16]
                   for name, render in (("jsonl", render_records), ("table", render_table))}
        assert digests == expected

    @pytest.mark.parametrize("config", [
        model_exact_preset(GroundTruth(ModelKind.STANDARD, (-10.0, 0.83)), participants=1, seed=0),
        # without noise, a lowest expected time of exactly 0 or below 0 fails the check
        model_exact_preset(GroundTruth(ModelKind.STANDARD, (0.0, 0.0)), participants=2, seed=4),
        model_exact_preset(REFERENCE_PROPOSED_ALL, participants=2, seed=5),
        model_exact_preset(GroundTruth(ModelKind.STANDARD, (-10.0, 0.83)), participants=1, seed=0,
                           mt_noise_sd_s=0.01),  # stops at the redraw cap
        # a later block fails, at the first bad cell of its shuffled grid
        StudyConfig(REFERENCE_STANDARD_ALL, participants=1, seed=6,
                    technique_offsets_s={Technique.RPDW: -2.5}),
        replace(realistic_preset(participants=2, seed=3), endpoint_sd_fraction_of_width=1.0e7),
    ])
    def test_same_errors(self, config):
        with pytest.raises(ConfigError) as expected:
            generate_study_reference(config)
        with pytest.raises(ConfigError) as got:
            generate_study(config)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("config", [
        replace(realistic_preset(participants=1, seed=1), mt_noise_sd_s=1.0e308),
        model_exact_preset(GroundTruth(ModelKind.STANDARD, (1.0e308, 1.0e308)),
                           participants=1, seed=1),
        # the overflow comes before the first block's endpoint redraws run out
        replace(model_exact_preset(GroundTruth(ModelKind.STANDARD, (1.0e308, 1.0e308)),
                                   participants=1, seed=1),
                endpoint_sd_fraction_of_width=1.0e7),
        # the first block (RPRG) overflows before the third (RPDW) runs out
        # of movement-time redraws
        StudyConfig(REFERENCE_STANDARD_ALL, participants=1, seed=1, mt_noise_sd_s=1.0e306,
                    technique_offsets_s={Technique.RPRG: sys.float_info.max,
                                         Technique.RPDW: -sys.float_info.max}),
    ])
    def test_non_finite_movement_time_names_the_cell(self, config):
        with pytest.raises(ConfigError, match=r"non-finite value for cell W=\S+ D=\S+ H=\S+$"):
            generate_study(config)


class TestConfigBoundary:
    def test_endpoint_redraw_loop_is_capped(self, deadline):
        config = model_exact_preset(
            REFERENCE_STANDARD_ALL, participants=1, seed=0,
            endpoint_sd_fraction_of_width=1.0e7,
        )
        with deadline(20), pytest.raises(ConfigError, match="redraws"):
            generate_study(config)

    @pytest.mark.parametrize("field, value", [
        ("mt_noise_sd_s", math.nan),
        ("endpoint_sd_fraction_of_width", math.inf),
        ("endpoint_sd_fraction_of_width", -math.inf),  # finiteness before sign
        ("technique_offsets_s", {Technique.RPRG: math.nan}),
        ("ground_truth", GroundTruth(ModelKind.STANDARD, (math.nan, 0.83))),
    ])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match="must be finite"):
            replace(realistic_preset(participants=1, seed=0), **{field: value})

    def test_nan_noise_in_config_file_rejected(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text("preset: realistic\nseed: 1\nmt_noise_sd_s: .nan\n")
        with pytest.raises(ConfigError, match="mt_noise_sd_s"):
            load_study_config(str(path))


class TestStudyConfigFile:
    def test_realistic_config_round_trip(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text("preset: realistic\nparticipants: 3\nseed: 12\n")
        config = load_study_config(str(path))
        assert config.participants == 3
        assert config.seed == 12
        assert config.preset == "realistic"
        assert config.mt_noise_sd_s == pytest.approx(0.15)

    def test_exponent_floats_are_numbers(self, tmp_path):
        """YAML 1.2 reads these as floats, PyYAML's YAML 1.1 rules as strings."""
        path = tmp_path / "study.yaml"
        path.write_text("seed: 1e1\nparticipants: 2\nmt_noise_sd_s: 1.5e-1\n"
                        "endpoint_sd_fraction_of_width: .25E0\n"
                        "technique_offsets_s: {RPRG: -5e-2, LPLG: +1., RPLG: !!float 2}\n")
        config = load_study_config(str(path))
        assert config.seed == 10
        assert config.mt_noise_sd_s == 0.15
        assert config.endpoint_sd_fraction_of_width == 0.25
        assert config.technique_offsets_s == {Technique.RPRG: -0.05, Technique.LPLG: 1.0,
                                              Technique.RPLG: 2.0}

    @pytest.mark.parametrize("text, seed", [("010", 10), ("0o17", 15), ("0x1F", 31),
                                            ("+12", 12), ("-0", 0)])
    def test_integers_read_as_in_yaml_1_2(self, tmp_path, text, seed):
        """A leading zero is decimal, not YAML 1.1's octal (010 would be 8)."""
        path = tmp_path / "study.yaml"
        path.write_text(f"participants: 2\nseed: {text}\n")
        assert load_study_config(str(path)).seed == seed

    @pytest.mark.parametrize("line, kind", [
        ("participants: !!int 0b101", "integer"), ("participants: !!int 1_0", "integer"),
        ("participants: 1" + "0" * 5000, "integer"), ("mt_noise_sd_s: !!float 1_0.5", "float"),
        ("mt_noise_sd_s: !!float 1:30.5", "float"),
    ])
    def test_numbers_yaml_1_2_cannot_read_rejected(self, tmp_path, line, kind):
        path = tmp_path / "study.yaml"
        path.write_text(f"seed: 3\n{line}\n")
        with pytest.raises(ConfigError, match=f"as a YAML 1.2 {kind} at line 2"):
            load_study_config(str(path))

    def test_missing_seed_names_the_field(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text("preset: realistic\nparticipants: 3\n")
        with pytest.raises(ConfigError, match="seed"):
            load_study_config(str(path))

    def test_seed_override(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text("preset: realistic\nparticipants: 3\n")
        assert load_study_config(str(path), seed_override=99).seed == 99

    def test_model_exact_requires_ground_truth(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text("preset: model-exact\nseed: 1\n")
        with pytest.raises(ConfigError, match="ground_truth"):
            load_study_config(str(path))

    def test_model_exact_parses_ground_truth(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text(
            "preset: model-exact\nseed: 1\nparticipants: 2\n"
            "ground_truth:\n  model: Proposed\n  coefficients: [2.46, 1.21, 3.0]\n"
            "mt_noise_sd_s: 0.05\n"
        )
        config = load_study_config(str(path))
        assert config.ground_truth.kind is ModelKind.PROPOSED
        assert config.ground_truth.coefficients == (2.46, 1.21, 3.0)
        assert config.mt_noise_sd_s == 0.05

    def test_wrong_coefficient_count(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text(
            "preset: model-exact\nseed: 1\n"
            "ground_truth:\n  model: Proposed\n  coefficients: [1.0, 2.0]\n"
        )
        with pytest.raises(ConfigError, match="coefficients"):
            load_study_config(str(path))

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text("preset: realistic\nseed: 1\nbananas: 4\n")
        with pytest.raises(ConfigError, match="unknown config fields"):
            load_study_config(str(path))

    def test_simulable_proposed_reference_is_positive_over_grid(self):
        gt = SIMULABLE_PROPOSED_ALL
        for w in (0.2, 1.35):
            for d in (3.0, 9.0):
                for h in (0.0, 3.0):
                    g = geometry_for_condition(w, d, h)
                    assert predict_mt(gt.kind, gt.coefficients, g) > 0
