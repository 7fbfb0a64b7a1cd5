import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from telefitts.cli import main
from telefitts.comparison import parse_records
from telefitts.trials import TRIAL_LOG_HEADER, read_trial_log


@pytest.fixture()
def study_config(tmp_path):
    path = tmp_path / "study.yaml"
    path.write_text("preset: realistic\nparticipants: 3\nseed: 77\n")
    return str(path)


@pytest.fixture()
def small_log(tmp_path, study_config):
    out = str(tmp_path / "log.csv")
    assert main(["simulate", "--input", study_config, "--output", out]) == 0
    return out


class TestSimulate:
    def test_writes_expected_row_count(self, tmp_path, study_config, capsys):
        out = tmp_path / "log.csv"
        assert main(["simulate", "--input", study_config, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 400
        assert "seed 77" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path, study_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--input", study_config, "--output", str(a)]) == 0
        assert main(["simulate", "--input", study_config, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "study.yaml"
        cfg.write_text("preset: realistic\nparticipants: 2\n")
        out = tmp_path / "log.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(out)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, study_config, tmp_path):
        out = tmp_path / "nonexistent" / "log.csv"
        assert main(["simulate", "--input", study_config, "--output", str(out)]) == 3


class TestValidate:
    def test_clean_log(self, small_log, capsys):
        assert main(["validate", "--input", small_log]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_dirty_log_exits_2_and_prints_line(self, small_log, tmp_path, capsys):
        lines = open(small_log).read().splitlines()
        parts = lines[5].split(",")
        parts[9] = "-1.0"
        lines[5] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--input", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "line 6" in out


class TestCompare:
    def test_table_format(self, small_log, tmp_path):
        out = tmp_path / "report.txt"
        assert main([
            "compare", "--input", small_log, "--output", str(out),
            "--amplitude-mode", "euclidean",
        ]) == 0
        text = out.read_text()
        assert "Standard" in text and "All Stand" in text

    def test_records_round_trip(self, small_log, tmp_path):
        out = tmp_path / "report.jsonl"
        assert main([
            "compare", "--input", small_log, "--output", str(out),
            "--format", "records", "--amplitude-mode", "euclidean",
        ]) == 0
        reports = parse_records(out.read_text())
        assert len(reports) == 8

    def test_both_modes_doubles_reports(self, small_log, tmp_path):
        out = tmp_path / "report.jsonl"
        assert main([
            "compare", "--input", small_log, "--output", str(out),
            "--format", "records", "--amplitude-mode", "both",
        ]) == 0
        reports = parse_records(out.read_text())
        assert len(reports) == 16
        modes = {r.amplitude_mode.value for r in reports}
        assert modes == {"euclidean", "depth"}

    def test_negative_mt_exits_2_with_line(self, small_log, tmp_path, capsys):
        lines = open(small_log).read().splitlines()
        parts = lines[9].split(",")
        parts[9] = "-2.0"
        lines[9] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["compare", "--input", str(bad)]) == 2
        assert "line 10" in capsys.readouterr().err

    def test_idempotent_outputs(self, small_log, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for target in (a, b):
            assert main([
                "compare", "--input", small_log, "--output", str(target),
                "--format", "records",
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noiseless_single_predictor_log_ranks_its_model_first(self, tmp_path):
        cfg = tmp_path / "exact.yaml"
        cfg.write_text(
            "preset: model-exact\nparticipants: 2\nseed: 5\n"
            "ground_truth:\n  model: Standard\n  coefficients: [-0.41, 0.83]\n"
        )
        log = tmp_path / "exact.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(log)]) == 0
        out = tmp_path / "exact.jsonl"
        assert main([
            "compare", "--input", str(log), "--output", str(out),
            "--format", "records", "--amplitude-mode", "euclidean",
        ]) == 0
        reports = parse_records(out.read_text())
        all_group = next(r for r in reports if r.group_label == "All")
        assert all_group.ranking_aic[0].value == "Standard"

    def test_pooled_aggregation_flag(self, small_log, tmp_path):
        out = tmp_path / "pooled.jsonl"
        assert main([
            "compare", "--input", small_log, "--output", str(out),
            "--format", "records", "--aggregation", "pooled",
            "--amplitude-mode", "euclidean",
        ]) == 0
        assert len(parse_records(out.read_text())) == 8

    def test_twenty_participant_log_has_8000_rows(self, tmp_path):
        cfg = tmp_path / "full.yaml"
        cfg.write_text("preset: realistic\nparticipants: 20\nseed: 1\n")
        log = tmp_path / "full.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(log)]) == 0
        assert len(log.read_text().splitlines()) == 8001


class TestThroughput:
    def test_ten_records(self, small_log, tmp_path):
        out = tmp_path / "tp.jsonl"
        assert main(["throughput", "--input", small_log, "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 10
        assert {(r["technique"], r["posture"]) for r in records} == {
            (t, p)
            for t in ("RPRG", "RPLG", "LPLG", "LPRG", "RPDW")
            for p in ("Sitting", "Standing")
        }
        assert all(len(r["cells"]) == 8 for r in records)

    def test_incomplete_grid_exits_4(self, small_log, tmp_path, capsys):
        trials = read_trial_log(small_log)
        from telefitts.trials import write_trial_log

        trimmed = [t for t in trials if t.distance_m != 9.0 or t.width_m != 0.2]
        bad = tmp_path / "partial.csv"
        write_trial_log(trimmed, str(bad))
        assert main(["throughput", "--input", str(bad)]) == 4
        assert "missing" in capsys.readouterr().err

    def test_partial_grid_override(self, small_log, tmp_path):
        trials = read_trial_log(small_log)
        from telefitts.trials import write_trial_log

        trimmed = [t for t in trials if t.distance_m != 9.0 or t.width_m != 0.2]
        bad = tmp_path / "partial.csv"
        write_trial_log(trimmed, str(bad))
        out = tmp_path / "tp.jsonl"
        assert main([
            "throughput", "--input", str(bad), "--output", str(out),
            "--allow-partial-grid",
        ]) == 0

    def test_partial_grid_override_of_a_log_with_no_rows(self, tmp_path):
        """No rows: an empty JSONL stream, not one empty line."""
        empty = tmp_path / "empty.csv"
        empty.write_text(TRIAL_LOG_HEADER + "\n", encoding="utf-8")
        out = tmp_path / "tp.jsonl"
        assert main([
            "throughput", "--input", str(empty), "--output", str(out),
            "--allow-partial-grid",
        ]) == 0
        assert out.read_bytes() == b""


#: (damage, part of its one-line error): record streams that compare never writes.
_INCONSISTENT_RECORDS = [
    ("repeated-record", "record on line 3: compare writes the Vergence record of group "
                        "'RPRG' (euclidean) here, not the TwoPart record of group 'RPRG' "
                        "(euclidean)"),
    ("infinite-delta-rank-0", "record on line 3: field 'delta_aic' is Infinity"),
    ("edited-aic-grade", "record on line 3: field 'aic_grade' is \"Less\""),
    ("edited-fit-aic", "record on line 3: field 'fit.aic' is -1000000000.0"),
    ("edited-fit-r2", "record on line 3: field 'fit.adj_r2'"),
    ("huge-n", "record on line 1: int too large to convert to float"),
    ("negative-rss", "record on line 3: rss must be non-negative, got -1.0"),
    ("unshared-n", "records on lines 1, 2, 3, 4: the four fits need one shared n"),
    ("wrong-p", "record on line 3, fit: Vergence needs p = 2 and 3 float coefficients"),
    ("unknown-model", "record on line 3: field 'model' must be one of"),
    ("unknown-mode", "record on line 3: field 'amplitude_mode' must be one of"),
    ("unknown-group", "record on line 1: compare writes the Standard record of group "
                      "'RPRG' (euclidean) here, not the Standard record of group "
                      "'Everything' (euclidean)"),
]


class TestInputBoundary:
    """Every bad input ends in exit 2 with a one-line message."""

    @staticmethod
    def _one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        return err

    def test_endpoint_redraws_are_capped(self, tmp_path, capsys, deadline):
        cfg = tmp_path / "wide.yaml"
        cfg.write_text("preset: realistic\nparticipants: 1\nseed: 3\n"
                       "endpoint_sd_fraction_of_width: 1.0e7\n")
        with deadline(20):
            code = main(["simulate", "--input", str(cfg), "--output", str(tmp_path / "l.csv")])
        assert code == 2
        assert "endpoint_sd_fraction_of_width" in self._one_line_error(capsys)

    def test_study_size_is_capped(self, tmp_path, capsys, deadline):
        cfg = tmp_path / "huge.yaml"
        cfg.write_text("preset: realistic\nparticipants: 100000000\nseed: 3\n")
        out = tmp_path / "l.csv"
        with deadline(20):
            code = main(["simulate", "--input", str(cfg), "--output", str(out)])
        assert code == 2
        assert "limit of 1000000" in self._one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        "preset: realistic\nmt_noise_sd_s: 1.0e308\n",
        "preset: model-exact\nground_truth: {model: Standard, coefficients: [1.0e308, 1.0e308]}\n",
    ])
    def test_non_finite_movement_time_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "huge.yaml"
        cfg.write_text(f"seed: 1\nparticipants: 1\n{config}")
        out = tmp_path / "l.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(out)]) == 2
        err = self._one_line_error(capsys)
        assert "movement time overflows to a non-finite value for cell W=" in err
        assert not out.exists()

    def test_cell_sum_overflow_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "offset.yaml"
        cfg.write_text("preset: realistic\nseed: 1\nparticipants: 1\n"
                       "technique_offsets_s: {RPRG: 1.0e308}\n")
        log = str(tmp_path / "l.csv")
        assert main(["simulate", "--input", str(cfg), "--output", log]) == 0
        assert main(["validate", "--input", log]) == 0
        capsys.readouterr()
        for command in ("compare", "throughput", "fit"):
            assert main([command, "--input", log]) == 2
            assert ("error: movement_time_s overflows when summed over cell RPRG/Sitting "
                    in self._one_line_error(capsys))

    def test_non_finite_effective_width_exits_2_from_throughput(self, tmp_path, capsys):
        """A failed selection may land far off; one at 1.7e308 m is a valid
        row whose cell's W_e overflows, which only throughput takes."""
        cfg = tmp_path / "two.yaml"
        cfg.write_text("preset: realistic\nseed: 1\nparticipants: 2\n")
        log = tmp_path / "l.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(log)]) == 0
        header, first, *rest = log.read_text().splitlines()
        fields = first.split(",")
        fields[10], fields[12] = "1.7e308", "false"  # endpoint_deviation_m, success
        log.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        for command in ("validate", "compare"):
            assert main([command, "--input", str(log)]) == 0
        capsys.readouterr()
        assert main(["throughput", "--input", str(log)]) == 2
        err = self._one_line_error(capsys)
        assert err.startswith("error: effective width W_e = 4.133 x endpoint SD is inf over "
                              "cell RPRG/Sitting W=")

    def test_residual_overflow_exits_2_naming_the_group(self, tmp_path, capsys):
        """Cell sums stay finite, but the fits' squared residuals overflow."""
        cfg = tmp_path / "offset.yaml"
        cfg.write_text("preset: realistic\nseed: 3\nparticipants: 1\n"
                       "technique_offsets_s: {RPRG: 1.0e307}\n")
        log = str(tmp_path / "l.csv")
        assert main(["simulate", "--input", str(cfg), "--output", log]) == 0
        capsys.readouterr()
        for command, group in (("compare", "RPRG"), ("fit", "All")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
                assert main([command, "--input", log]) == 2
            assert (f"error: group '{group}' (euclidean): the Standard fit's residual sum "
                    f"of squares overflows to inf" in self._one_line_error(capsys))

    def test_failed_nesting_check_exits_2_naming_the_group_and_model(self, tmp_path, capsys):
        """A common offset near 1e20 s leaves the fits' rss as rounding noise,
        so a two-predictor fit's rss can exceed the Standard fit's."""
        cfg = tmp_path / "offset.yaml"
        cfg.write_text("preset: realistic\nseed: 3\nparticipants: 1\n"
                       "technique_offsets_s: {RPRG: 1.0e20}\n")
        log = str(tmp_path / "l.csv")
        assert main(["simulate", "--input", str(cfg), "--output", log]) == 0
        capsys.readouterr()
        for command, group, model in (("compare", "RPRG", "Vergence"),
                                      ("fit", "All", "TwoPart")):
            assert main([command, "--input", log]) == 2
            assert self._one_line_error(capsys) == (
                f"error: group '{group}' (euclidean): the {model} fit's F test against "
                f"Standard: models are not nested: full rss exceeds reduced rss\n")

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "deep.yaml"
        cfg.write_text("seed: 3\nparticipants: " + "[" * 5000 + "]" * 5000 + "\n")
        out = tmp_path / "l.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(out)]) == 2
        assert "cannot parse config file" in self._one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "mt_noise_sd_s: .nan",
        "mt_noise_sd_s: .inf",
        "endpoint_sd_fraction_of_width: .nan",
        "technique_offsets_s: {RPRG: .nan}",
        "mt_noise_sd_s: [1, 2]",
        "participants: .inf",
        "participants: true",
        "participants: 2.9",
        "seed: 2.5",
        "seed: false",
        # booleans and strings are not numbers, though float() and int() take them
        "mt_noise_sd_s: true",
        "technique_offsets_s: {RPRG: yes}",
        "endpoint_sd_fraction_of_width: '0_2'",
        "seed: '1_0'",
        "preset: model-exact\nground_truth: {model: Standard, coefficients: [true, 0.2]}",
        pytest.param("mt_noise_sd_s: 1" + "0" * 400, id="integer-beyond-the-float-range"),
        # YAML 1.1 forms that PyYAML would coerce (to 5, 80, 10.5 and 90.5)
        "seed: 0b101",
        "participants: 1:20",
        "mt_noise_sd_s: 1_0.5",
        "mt_noise_sd_s: 1:30.5",
    ])
    def test_non_finite_or_mistyped_config_floats(self, tmp_path, capsys, line):
        """The lines replace the keys they name in a good config (a repeated
        key would exit 2 on its own); the error names the last line's key."""
        fields = {"preset": "realistic", "participants": "1", "seed": "3"}
        fields.update(entry.split(": ", 1) for entry in line.split("\n"))
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("".join(f"{key}: {value}\n" for key, value in fields.items()))
        out = tmp_path / "l.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(out)]) == 2
        assert line.split("\n")[-1].split(":")[0] in self._one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("text, where", [
        ("seed: [1\n", "line 2, column 1"),  # unclosed flow sequence
        ("? [a]\n: 1\n", "line 1, column 3"),  # unhashable key
    ])
    def test_yaml_syntax_error_is_one_line(self, tmp_path, capsys, text, where):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        out = tmp_path / "l.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(out)]) == 2
        err = self._one_line_error(capsys)
        assert "cannot parse config file" in err and where in err
        assert not out.exists()

    @pytest.mark.parametrize("text, key, line", [
        ("seed: 1\nseed: 5\nparticipants: 1\nparticipants: 2\n", "'seed'", 2),
        ("seed: 1\nparticipants: 1\npreset: model-exact\nground_truth:\n"
         "  model: Standard\n  coefficients: [-0.41, 0.83]\n  model: Proposed\n",
         "'model'", 7),
        ("seed: 1\nparticipants: 1\ntechnique_offsets_s:\n  RPRG: 0.1\n  RPRG: 0.2\n",
         "'RPRG'", 5),
        ("<<: {seed: 1, participants: 1}\nseed: 5\nseed: 6\n", "'seed'", 3),
    ], ids=["top-level", "ground_truth", "technique_offsets_s", "beside-merge-key"])
    def test_repeated_config_key_exits_2(self, tmp_path, capsys, text, key, line):
        cfg = tmp_path / "twice.yaml"
        cfg.write_text(text)
        out = tmp_path / "l.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(out)]) == 2
        assert f"config key {key} is repeated on line {line}" in self._one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "<<: {seed: 1, participants: 2}\nseed: 5\n"
        "technique_offsets_s: {RPRG: 0.2, LPLG: 0.3}\n",
        # a mapping merged twice, whose own key overrides the one it merges
        "seed: 5\nparticipants: 2\ntechnique_offsets_s:\n"
        "  <<: [&t {<<: {RPRG: 0.1}, RPRG: 0.2}, *t]\n  LPLG: 0.3\n",
    ], ids=["top-level", "chained"])
    def test_key_overriding_a_merge_key_is_not_a_repeat(self, tmp_path, text):
        plain = tmp_path / "plain.yaml"
        plain.write_text("seed: 5\nparticipants: 2\n"
                         "technique_offsets_s: {RPRG: 0.2, LPLG: 0.3}\n")
        merged = tmp_path / "merged.yaml"
        merged.write_text(text)
        for name in ("plain", "merged"):
            assert main(["simulate", "--input", str(tmp_path / f"{name}.yaml"),
                         "--output", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "merged.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.parametrize("config, flags", [
        ("seed: -1\n", []),
        ("seed: 3\n", ["--seed", "-1"]),
    ], ids=["config", "flag"])
    def test_negative_seed_names_the_field(self, tmp_path, capsys, config, flags):
        cfg = tmp_path / "study.yaml"
        cfg.write_text("preset: realistic\nparticipants: 1\n" + config)
        out = tmp_path / "l.csv"
        assert main(["simulate", "--input", str(cfg), "--output", str(out), *flags]) == 2
        assert self._one_line_error(capsys) == (
            "error: seed must be a non-negative integer, got -1\n"
        )
        assert not out.exists()

    def test_bad_row_after_blank_lines_reports_its_physical_line(
        self, small_log, tmp_path, capsys
    ):
        lines = open(small_log).read().splitlines()
        lines[2:2] = ["", ""]  # physical lines 3 and 4 are blank
        parts = lines[5].split(",")  # physical line 6
        parts[9] = "-1.0"
        lines[5] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--input", str(bad)]) == 2
        assert capsys.readouterr().out.startswith("line 6: movement_time_s")
        assert main(["compare", "--input", str(bad)]) == 2
        assert "line 6:" in self._one_line_error(capsys)

    @pytest.mark.parametrize("damage", [
        "drop-fit", "not-an-object", "wrong-type", "bad-json", "deep-nesting",
        # JSON integers beyond the float range, in fields the report does arithmetic on
        "huge-delta", "huge-r2", "huge-coefficient",
    ])
    def test_report_on_malformed_records_exits_2(self, small_log, tmp_path, capsys, damage):
        records = tmp_path / "r.jsonl"
        assert main([
            "compare", "--input", small_log, "--output", str(records),
            "--format", "records", "--amplitude-mode", "euclidean",
        ]) == 0
        lines = records.read_text().splitlines()
        recs = [json.loads(line) for line in lines]
        if damage == "drop-fit":
            for rec in recs[:4]:
                del rec["fit"]
        elif damage == "wrong-type":
            recs[2]["fit"]["aic"] = "low"
        elif damage == "huge-delta":
            recs[3]["delta_aic"] = 10 ** 400
        elif damage == "huge-r2":
            recs[3]["fit"]["r2"] = 10 ** 400
        elif damage == "huge-coefficient":
            recs[3]["fit"]["coefficients"][0] = -10 ** 400
        lines = [json.dumps(r) for r in recs]
        if damage == "not-an-object":
            lines[1] = "[1, 2, 3]"
        elif damage == "bad-json":
            lines[1] = "{not json"
        elif damage == "deep-nesting":
            lines[1] = "[" * 100_000 + "]" * 100_000
        records.write_text("\n".join(lines) + "\n")
        assert main(["report", "--input", str(records)]) == 2
        assert "line" in self._one_line_error(capsys)

    @pytest.mark.parametrize("damage, message", _INCONSISTENT_RECORDS,
                             ids=[damage for damage, _ in _INCONSISTENT_RECORDS])
    def test_report_on_inconsistent_records_exits_2(
        self, records_lines, tmp_path, capsys, damage, message
    ):
        """Every record must be the one compare writes for its group's fits."""
        recs = [json.loads(line) for line in records_lines]
        if damage == "repeated-record":
            recs.insert(2, recs[1])
        elif damage == "infinite-delta-rank-0":
            recs[2].update(delta_aic=math.inf, rank_aic=0)
        elif damage == "edited-aic-grade":
            recs[2]["aic_grade"] = "Less"
        elif damage == "edited-fit-aic":
            recs[2]["fit"]["aic"] = -1e9
        elif damage == "edited-fit-r2":
            recs[2]["fit"]["r2"] = 0.5
        elif damage == "huge-n":
            for rec in recs[:4]:
                rec["fit"]["n"] = 10 ** 400
        elif damage == "negative-rss":
            recs[2]["fit"]["rss"] = -1.0
        elif damage == "unshared-n":
            recs[2]["fit"]["n"] = 7
        elif damage == "wrong-p":
            recs[2]["fit"]["p"] = 3
        elif damage == "unknown-model":
            recs[2]["model"] = "Fitts"
        elif damage == "unknown-mode":
            recs[2]["amplitude_mode"] = "diagonal"
        elif damage == "unknown-group":
            for rec in recs[:4]:
                rec["group"] = "Everything"
        records = tmp_path / "r.jsonl"
        records.write_text("".join(json.dumps(r) + "\n" for r in recs))
        assert main(["report", "--input", str(records)]) == 2
        assert message in self._one_line_error(capsys)

    def test_report_counts_lines_at_newlines_only(self, records_lines, tmp_path, capsys):
        """A raw U+2028 inside a JSON string neither breaks its record nor
        shifts the line numbers after it."""
        first = json.loads(records_lines[0])
        first["group"] += "\u2028"
        lines = [json.dumps(first, ensure_ascii=False), records_lines[1], "{not json"]
        records = tmp_path / "r.jsonl"
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["report", "--input", str(records)]) == 2
        assert "record on line 3: invalid JSON" in self._one_line_error(capsys)

    @pytest.mark.parametrize("layout, message", [
        ("all-first", "record on line 1: compare writes the Standard record of group 'RPRG' "
                      "(euclidean) here, not the Standard record of group 'All' (euclidean)"),
        ("all-only", "record on line 1: compare writes the Standard record of group 'RPRG' "
                     "(euclidean) here, not the Standard record of group 'All' (euclidean)"),
        ("models-swapped", "record on line 1: compare writes the Standard record of group "
                           "'RPRG' (euclidean) here, not the TwoPart record"),
        ("all-missing", "the stream ends on line 28, before the Standard record of group "
                        "'All' (euclidean) that compare writes next"),
        ("rprg-only", "the stream ends on line 4, before the Standard record of group "
                      "'LPLG' (euclidean) that compare writes next"),
        ("last-repeated", "record on line 33: compare writes no record here, not the "
                          "Proposed record of group 'All' (euclidean)"),
        ("depth-first", "record on line 1: compare writes the Standard record of group "
                        "'RPRG' (euclidean) here, not the Standard record of group 'RPRG' "
                        "(depth)"),
    ])
    def test_report_rejects_a_layout_compare_never_writes(
        self, records_lines, tmp_path, capsys, layout, message
    ):
        """Each record is valid; only the order or the set of records
        differs from what compare writes."""
        lines = list(records_lines)
        if layout == "all-first":
            lines = lines[-4:] + lines[:-4]
        elif layout == "all-only":
            lines = lines[-4:]
        elif layout == "models-swapped":
            lines[0], lines[1] = lines[1], lines[0]
        elif layout == "all-missing":
            lines = lines[:-4]
        elif layout == "rprg-only":  # one complete report
            lines = lines[:4]
        elif layout == "last-repeated":
            lines = lines + lines[-1:]
        elif layout == "depth-first":
            depth = [line.replace('"amplitude_mode": "euclidean"', '"amplitude_mode": "depth"')
                     for line in lines]
            assert parse_records("\n".join(depth))  # a valid stream, were it not moved first
            lines = depth[:4] + lines
        records = tmp_path / "r.jsonl"
        records.write_text("\n".join(lines) + "\n")
        assert main(["report", "--input", str(records)]) == 2
        assert message in self._one_line_error(capsys)

    def test_report_accepts_every_layout_compare_writes(self, small_log, tmp_path, capsys):
        for mode in ("euclidean", "depth", "both"):
            records = tmp_path / f"{mode}.jsonl"
            assert main(["compare", "--input", small_log, "--output", str(records),
                         "--format", "records", "--amplitude-mode", mode]) == 0
            assert main(["report", "--input", str(records)]) == 0

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_report_on_empty_stream_exits_2(self, tmp_path, capsys, text):
        records = tmp_path / "r.jsonl"
        records.write_text(text)
        assert main(["report", "--input", str(records)]) == 2
        assert "no records" in self._one_line_error(capsys)


@pytest.fixture(scope="module")
def records_lines(tmp_path_factory):
    """A valid ``compare --format records`` stream, one string per line."""
    base = tmp_path_factory.mktemp("records")
    cfg, log, out = base / "study.yaml", base / "log.csv", base / "r.jsonl"
    cfg.write_text("preset: realistic\nparticipants: 1\nseed: 4\n")
    assert main(["simulate", "--input", str(cfg), "--output", str(log)]) == 0
    assert main(["compare", "--input", str(log), "--output", str(out),
                 "--format", "records", "--amplitude-mode", "euclidean"]) == 0
    return out.read_text().splitlines()


_FIT_FIELDS = ["coefficients", "rss", "r2", "adj_r2", "f_stat", "p_value", "aic", "bic",
               "n", "p"]
_FIELDS = [(name,) for name in (
    "group", "amplitude_mode", "n_cells", "model", "fit", "delta_aic", "delta_bic",
    "aic_grade", "bic_grade", "rank_aic", "rank_bic", "equation", "equation_signed",
    "nested_f_vs_standard",
)] + [("fit", name) for name in _FIT_FIELDS]
_NUMBERS = [("delta_aic",), ("delta_bic",), ("fit", "coefficients", 0),
            ("nested_f_vs_standard", 1)] + [("fit", name) for name in _FIT_FIELDS[1:]]
_NEST = "\x00nest\x00"

_RECORD_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_NUMBERS), st.sampled_from(
        [10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf, -1.0, -1e-300])),
    st.tuples(st.just("set"), st.sampled_from(_FIELDS), st.sampled_from(
        ["x", "", [], {}, None, True, 1.5, 7, [1.0, "a"], {"a": 1}])),
    st.tuples(st.just("set"), st.sampled_from(_FIELDS), st.just(_NEST)),
    st.tuples(st.just("drop"), st.sampled_from(_FIELDS), st.none()),
    st.tuples(st.just("set"), st.just(("model",)), st.sampled_from(
        ["Standard", "TwoPart", "Vergence", "Proposed", "Fitts"])),
    st.tuples(st.sampled_from(["drop-record", "duplicate-record"]), st.none(), st.none()),
)


def _mutate_records(lines, mutations):
    """Apply (record index, (kind, field path, value)) mutations; a path
    that runs into a missing or scalar value leaves its record unchanged."""
    recs = [json.loads(line) for line in lines]
    for index, (kind, path, value) in mutations:
        index %= len(recs)
        if kind == "drop-record":
            del recs[index]
        elif kind == "duplicate-record":
            recs.insert(index, json.loads(json.dumps(recs[index])))
        else:
            parent = recs[index]
            try:
                for step in path[:-1]:
                    parent = parent[step]
                if kind == "drop":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
            except (KeyError, IndexError, TypeError):
                pass
        if not recs:
            break
    text = "\n".join(json.dumps(rec) for rec in recs) + "\n"
    return text.replace(json.dumps(_NEST), "[" * 100_000 + "]" * 100_000)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(mutations=st.lists(st.tuples(st.integers(0, 63), _RECORD_MUTATIONS),
                          min_size=1, max_size=3))
def test_mutated_record_streams_report_or_exit_cleanly(
    records_lines, tmp_path_factory, deadline, mutations
):
    """A mutated stream either renders exactly the table of the stream it
    came from, or exits with one line."""
    path = tmp_path_factory.getbasetemp() / "fuzz-records.jsonl"
    results = []
    for text in ("\n".join(records_lines) + "\n", _mutate_records(records_lines, mutations)):
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with deadline(10.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["report", "--input", str(path)])
        results.append((code, out.getvalue()))
    (_, table), (code, out) = results
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if code == 0:
        assert out == table



#: A good config, one key per line; the fuzz replaces, drops and repeats them.
_CONFIG_FIELDS = {
    "preset": "realistic", "participants": "1", "seed": "3", "mt_noise_sd_s": "0.05",
    "endpoint_sd_fraction_of_width": "0.1", "technique_offsets_s": "{RPRG: 0.1, RPDW: -0.05}",
    "amplitude_mode": "euclidean",
}
#: YAML values, good and bad; none asks for more than 16 participants, so
#: every accepted config simulates in well under a second.
_CONFIG_VALUES = [
    "", "~", "true", "no", "'1'", "0", "-1", "2", "1.5", "-0.0", ".nan", ".inf", "-.inf",
    "1e400", "1" + "0" * 400, "0x10", "0o7", "010", "0b101", "1:20", "1_0", "[1, 2]",
    "{a: 1}", "{RPRG: .inf}", "{XXXX: 1}", "{RPRG: [1]}", "{RPRG: 1.0e307}", "model-exact",
    "custom", "depth", "[", "{", "'", "&a 1", "*a", "!!python/object:os.system x",
    "!!binary aGk=", "!!int 0b1", "!!float 1_0.5", "!!str 1", "- 1", "@x", "%", "\\x00",
    "\U0001F600", "[" * 50 + "]" * 50, "{model: Standard, coefficients: [-0.41, 0.83]}",
    "{model: Fitts}", "{model: Proposed, coefficients: [2.46, 1.21, .inf]}",
]
_CONFIG_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from([*_CONFIG_FIELDS, "ground_truth", "bogus"]),
              st.sampled_from(_CONFIG_VALUES)),
    st.tuples(st.sampled_from(["drop", "repeat"]), st.sampled_from(list(_CONFIG_FIELDS)),
              st.none()),
    st.tuples(st.just("line"), st.none(), st.sampled_from(
        ["<<: {seed: 4}", "  indented: 1", "- item", "---", "...", "? [a]", "#", "\t", ":"])),
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(mutations=st.lists(_CONFIG_MUTATIONS, min_size=1, max_size=3))
def test_mutated_configs_simulate_or_exit_cleanly(tmp_path_factory, deadline, mutations):
    """A mutated config either simulates or exits with one line on stderr."""
    lines = [f"{key}: {value}" for key, value in _CONFIG_FIELDS.items()]
    for kind, key, value in mutations:
        keyed = [i for i, line in enumerate(lines) if line.startswith(f"{key}:")]
        if kind == "set":
            lines = [line for i, line in enumerate(lines) if i not in keyed]
            lines.append(f"{key}: {value}")
        elif kind == "drop":
            lines = [line for i, line in enumerate(lines) if i not in keyed]
        elif kind == "repeat":
            lines.extend(lines[i] for i in keyed[:1])
        else:
            lines.insert(len(lines) // 2, value)
    base = tmp_path_factory.getbasetemp()
    cfg, log = base / "fuzz-config.yaml", base / "fuzz-config.csv"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with deadline(10.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--input", str(cfg), "--output", str(log)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) == (code != 0), err.getvalue()

class TestFitAndReport:
    def test_fit_prints_all_models(self, small_log, capsys):
        assert main(["fit", "--input", small_log, "--amplitude-mode", "euclidean"]) == 0
        out = capsys.readouterr().out
        for name in ("Standard", "TwoPart", "Vergence", "Proposed"):
            assert name in out

    def test_group_and_collapse_once_for_both_modes(self, small_log, tmp_path, monkeypatch):
        import telefitts.cli
        import telefitts.comparison

        calls = {"group": 0, "collapse": 0}

        def counting(module, name, key):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        counting(telefitts.comparison, "group_by_condition", "group")
        counting(telefitts.cli, "group_by_condition", "group")
        counting(telefitts.comparison, "collapse_over", "collapse")
        outputs = {}
        for mode in ("both", "euclidean", "depth"):
            calls.update(group=0, collapse=0)
            out = tmp_path / f"{mode}.jsonl"
            assert main(["compare", "--input", small_log, "--output", str(out),
                         "--format", "records", "--amplitude-mode", mode]) == 0
            assert calls == {"group": 1, "collapse": 8}, mode
            outputs[mode] = out.read_text()
        assert outputs["both"] == outputs["euclidean"] + outputs["depth"]

        calls.update(group=0, collapse=0)
        assert main(["fit", "--input", small_log, "--amplitude-mode", "both"]) == 0
        assert calls == {"group": 1, "collapse": 1}

    def test_report_renders_records(self, small_log, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        assert main([
            "compare", "--input", small_log, "--output", str(records),
            "--format", "records", "--amplitude-mode", "euclidean",
        ]) == 0
        assert main(["report", "--input", str(records)]) == 0
        out = capsys.readouterr().out
        assert "Equation" in out and "All Sit" in out
