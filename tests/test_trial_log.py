"""The trial-log reader and writer: numpy's tokenizer against the row-by-row
csv reader in ``oracles``, on valid logs and on mutated ones."""

import contextlib
import csv
import dataclasses
import io
import math
import string
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from telefitts import cli
from telefitts import trials as trials_module
from telefitts.sim import generate_study, realistic_preset
from telefitts.trials import (
    TRIAL_LOG_HEADER,
    LogFormatError,
    Posture,
    Technique,
    Trial,
    read_trial_log,
    write_trial_log,
)

from oracles import read_trial_log_reference

COLUMNS = [field.column for field in trials_module._FIELDS]


def assert_same_table(got, want):
    """Equal ids in order, line numbers, dtypes and every column bit for bit."""
    assert got.participant_ids == want.participant_ids
    assert np.array_equal(got.line_numbers, want.line_numbers)
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        if a.dtype == np.float64:
            a, b = a.view(np.int64), b.view(np.int64)
        assert np.array_equal(a, b), name


def outcome(reader, path):
    try:
        return reader(path)
    except LogFormatError as exc:
        return str(exc), exc.line_number


def assert_readers_agree(path):
    got, want = outcome(read_trial_log, path), outcome(read_trial_log_reference, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_table(got, want)
    return got


@contextlib.contextmanager
def csv_reader_refused():
    """Fails the test if the log is handed to the csv reader."""
    with mock.patch.object(trials_module, "_read_with_csv",
                           side_effect=AssertionError("read by the csv reader")):
        yield


def write_lines(path, lines, ending="\n"):
    path.write_bytes(("".join(line + ending for line in lines)).encode("utf-8"))


def log_lines(trials):
    """The header and one line per trial, formatted row by row, with fields
    quoted as ``csv.writer`` quotes them."""
    lines = [TRIAL_LOG_HEADER]
    for t in trials:
        buffer = io.StringIO()
        csv.writer(buffer).writerow([
            t.participant_id, t.technique.value, t.posture.value, str(t.block),
            str(t.trial_index),
            *(repr(x) for x in (t.width_m, t.distance_m, t.height_m, t.angle_deg,
                                t.movement_time_s, t.endpoint_deviation_m)),
            str(t.error_attempts), "true" if t.success else "false",
        ])
        lines.append(buffer.getvalue().removesuffix("\r\n"))
    return lines


def trial(participant="P01", **overrides):
    base = dict(participant_id=participant, technique=Technique.RPRG, posture=Posture.SITTING,
                block=0, trial_index=0, width_m=0.2, distance_m=3.0, height_m=0.0,
                angle_deg=0.0, movement_time_s=2.0, endpoint_deviation_m=0.05,
                error_attempts=0, success=True)
    return Trial(**{**base, **overrides})


class TestWriter:
    def test_bytes_match_per_row_formatting(self, tmp_path):
        table = generate_study(realistic_preset(participants=3, seed=5))
        path = tmp_path / "log.csv"
        write_trial_log(table, str(path))
        assert path.read_text(encoding="utf-8").splitlines() == log_lines(table)

    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    def test_chunks_and_signed_zero(self, tmp_path, chunk):
        trials = [trial(f"P{i % 3}", trial_index=i, height_m=(-0.0, 0.0)[i % 2],
                        angle_deg=float("nan") if i == 4 else 1e-7 * i,
                        movement_time_s=2.0 ** (i - 3), error_attempts=-i)
                  for i in range(7)]
        path = tmp_path / "log.csv"
        with mock.patch.object(trials_module, "_CHUNK_ROWS", chunk):
            write_trial_log(trials, str(path))
        assert path.read_text(encoding="utf-8").splitlines() == log_lines(trials)

    @pytest.mark.parametrize("values, sorted_", [
        ([-7, 3, -1, 0, -7, 12], False),  # negative values in a narrow span: presence table
        ([0, 2 ** 62, 7, 2 ** 62 - 1], True),  # a span no presence table covers: one sort
        ([-(2 ** 63), 2 ** 63 - 1, 0, -1], True),
    ])
    def test_int_columns_of_any_span(self, tmp_path, values, sorted_):
        """Each of the three int columns is sorted only when its span is
        too wide for a presence table."""
        trials = [trial(f"P{i % 2}", block=values[i % len(values)],
                        trial_index=values[(i + 1) % len(values)],
                        error_attempts=values[(i + 2) % len(values)], success=i % 3 > 0)
                  for i in range(5 * len(values))]
        path = tmp_path / "log.csv"
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            write_trial_log(trials, str(path))
        assert unique.called == sorted_
        assert path.read_text(encoding="utf-8").splitlines() == log_lines(trials)

    @pytest.mark.parametrize("patterns", [8, 9])
    def test_float_columns_of_many_bit_patterns(self, tmp_path, patterns):
        """A float column of at most eight bit patterns is coded by scans,
        and one of more by a sort."""
        values = [-0.0, 0.0, float("nan"), -float("nan"), 1e-7, 0.1, float("inf"), 5e-324, 2.5]
        trials = [trial(f"P{i % 2}", trial_index=i, angle_deg=values[(i * 5) % patterns])
                  for i in range(3 * patterns)]
        path = tmp_path / "log.csv"
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            write_trial_log(trials, str(path))
        assert unique.call_count == patterns - 8
        assert path.read_text(encoding="utf-8").splitlines() == log_lines(trials)

    def test_joined_combinations_beyond_the_presence_span(self, tmp_path):
        """300 participant/technique/posture combinations times 300 blocks
        span more than 2**16 joined codes, which takes the sort."""
        trials = [trial(f"P{i % 300}", technique=list(Technique)[i % 5],
                        posture=list(Posture)[i % 2], block=(7 * i) % 300, trial_index=i)
                  for i in range(900)]
        path = tmp_path / "log.csv"
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            write_trial_log(trials, str(path))
        assert unique.call_count == 1
        assert path.read_text(encoding="utf-8").splitlines() == log_lines(trials)

    @pytest.mark.parametrize("participant", ["P,01", 'P"01', "P\r01", "P\n01", '"', ',\r\n"'])
    def test_ids_that_need_quoting_round_trip(self, tmp_path, participant):
        trials = [trial(participant), trial("P02", trial_index=1),
                  trial(participant, trial_index=2)]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_trial_log(trials, str(first))
        assert first.read_bytes() == "".join(f"{line}\n" for line in log_lines(trials)).encode()
        read = read_trial_log(str(first))
        assert read == trials
        write_trial_log(read, str(second))
        assert second.read_bytes() == first.read_bytes()


class _RecordingFile:
    """A text file that records the text of each ``write`` call."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes.append(text)
        return self.fh.write(text)


SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, np.array(0x7FF0_0000_0000_0001).view(np.float64).item(),
    math.inf, -math.inf, 5e-324, -5e-324, 1e-310, sys.float_info.min, sys.float_info.max,
    -sys.float_info.max, 0.1, 1e16, 1e-7, 2.0,
]
SPECIAL_INTS = [-(2 ** 63), 2 ** 63 - 1, -1, 0, 1]
QUOTED_IDS = ["P,01", 'P"01', "P\r01", "P\n01", '"', '""', ",", ""]


@st.composite
def written_tables(draw):
    """A table whose every column takes a few drawn values, so that float
    columns repeat bit patterns, with a row count at or next to 0, 1 and
    multiples of the chunk size."""
    chunk = draw(st.sampled_from([1, 3, 1024]))
    near_multiples = {k * chunk + d for k in (1, 2) for d in (-1, 0, 1)}
    n = draw(st.sampled_from(sorted({0, 1, 2, *near_multiples})))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def column(values, dtype):
        pool = np.array(draw(st.lists(values, min_size=1, max_size=4)), dtype=dtype)
        return pool[rng.integers(0, len(pool), n)]

    ids = draw(st.lists(
        st.one_of(st.sampled_from(QUOTED_IDS + ["P01", "P02"]), st.text(max_size=4)),
        min_size=1, max_size=4, unique=True))
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    ints = st.one_of(st.sampled_from(SPECIAL_INTS), st.integers(-(2 ** 63), 2 ** 63 - 1))
    pools = {np.int64: ints, np.float64: floats}
    table = trials_module.TrialTable(
        ids,
        participant_code=rng.integers(0, len(ids), n),
        technique_code=rng.integers(0, len(Technique), n),
        posture_code=rng.integers(0, len(Posture), n),
        success=rng.integers(0, 2, n).astype(bool),
        **{field.column: column(pools[field.dtype], field.dtype)
           for field in trials_module._FIELDS if not field.kind.text},
    )
    return table, chunk


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(drawn=written_tables())
def test_writer_matches_per_row_formatting_chunk_by_chunk(tmp_path_factory, drawn):
    """The bytes equal the per-row reference, and each ``write`` after the
    header holds the next ``_CHUNK_ROWS`` rows, no more."""
    table, chunk = drawn
    path = tmp_path_factory.getbasetemp() / "written-log.csv"
    writes = []

    def recording_open(*args, **kwargs):
        return _RecordingFile(open(*args, **kwargs), writes)

    with (mock.patch.object(trials_module, "_CHUNK_ROWS", chunk),
          mock.patch.object(trials_module, "open", recording_open, create=True)):
        trials_module.write_trial_log(table, str(path))
    header, *rows = log_lines(table)
    assert writes == [header + "\n"] + ["".join(f"{row}\n" for row in rows[start:start + chunk])
                                        for start in range(0, len(rows), chunk)]
    assert path.read_bytes() == "".join(writes).encode("utf-8")


class TestLoadtxtPath:
    def test_simulated_log_never_reaches_the_csv_reader(self, tmp_path):
        table = generate_study(realistic_preset(participants=3, seed=6))
        path = tmp_path / "log.csv"
        write_trial_log(table, str(path))
        with csv_reader_refused():
            back = read_trial_log(str(path))
        assert back == table
        assert_same_table(back, read_trial_log_reference(str(path)))

    def test_lenient_fields_stay_on_the_fast_path(self, tmp_path):
        lines = log_lines([trial("P02"), trial("P01", trial_index=1), trial("P02")])
        lines[1] = "P02,RPRG,sITTING, 3 ,+5,0.2,3.0,\t0.0,-0,Infinity,1e-400,0, TRUE "
        lines[2:2] = ["", ""]
        path = tmp_path / "log.csv"
        write_lines(path, lines)
        with csv_reader_refused():
            got = read_trial_log(str(path))
        assert_same_table(got, read_trial_log_reference(str(path)))
        assert got.participant_ids == ("P02", "P01")
        assert got.line_numbers.tolist() == [2, 5, 6]

    def test_many_distinct_texts_in_one_chunk(self, tmp_path):
        """Texts are coded in order of first appearance, which is not their
        sorted order, from runs of one to seven rows."""
        ids = [f"P{i:02d}" for i in (7, 3, 12, 0, 9, 1, 11, 5, 2, 10, 4, 8, 6)]
        trials = [trial(ids[(i * 5) % 13] if i % 4 else ids[i % 13], trial_index=i,
                        technique=list(Technique)[i % 5], posture=list(Posture)[i // 7 % 2],
                        success=i % 3 > 0)
                  for i in range(40)]
        path = tmp_path / "log.csv"
        write_lines(path, log_lines(trials))
        with csv_reader_refused():
            got = read_trial_log(str(path))
        assert_same_table(got, read_trial_log_reference(str(path)))
        assert got == trials

    @pytest.mark.parametrize("edit", [
        lambda line: line.replace(",RPRG,", ',"RPRG",'),
        lambda line: line.replace("P01", "P0\x001"),
        lambda line: line.replace(",0,", ",0\x1c,"),
        lambda line: line.replace("P01", "P" * 40),
        lambda line: line.replace(",0,", ",1_000,"),
        lambda line: line.replace("Sitting", "Lying"),
        # numpy can crash wording the error of a field beyond U+FFFF
        lambda line: line.replace(",0,", ",\U00070f67,"),
        lambda line: line.replace("P01", "P\U0001f600"),
        # quotes other than csv.writer's quoting of a first field on one line
        lambda line: line.replace("P01", '"P01"x'),
        lambda line: line.replace("P01", '"P01" '),
        lambda line: line.replace("P01", 'P"01'),
        lambda line: line.replace("P01", '"P"01"'),
        lambda line: line.replace("P01", '"P\x0001"'),
        lambda line: line.replace("P01", '"P01"') + ',""',
        lambda line: line.replace("P01", '"P01\nP02"'),
        # a quoted id as wide as numpy's text width
        lambda line: line.replace("P01", '"' + "P" * 40 + '"'),
    ])
    def test_logs_numpy_cannot_vouch_for_go_to_the_csv_reader(self, tmp_path, edit):
        lines = log_lines([trial(), trial(trial_index=1)])
        lines[2] = edit(lines[2])
        path = tmp_path / "log.csv"
        write_lines(path, lines)
        with csv_reader_refused(), pytest.raises(AssertionError, match="csv reader"):
            read_trial_log(str(path))
        assert_readers_agree(path)

    @pytest.mark.parametrize("participant", ['"P01"', '"P,01"', '"P""01"', '""""', '""',
                                             '","'])
    def test_quoted_first_fields_stay_on_the_fast_path(self, tmp_path, participant):
        """A first field quoted as csv.writer quotes it, on one line, is read
        as the csv reader reads it, also where the quotes were not needed."""
        lines = log_lines([trial(), trial(trial_index=1), trial("P02", trial_index=2)])
        lines[2] = lines[2].replace("P01", participant)
        path = tmp_path / "log.csv"
        write_lines(path, lines)
        with csv_reader_refused():
            got = read_trial_log(str(path))
        assert_same_table(got, read_trial_log_reference(str(path)))

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_carriage_return_log_reads_like_the_reference(self, tmp_path, ending):
        lines = log_lines([trial(), trial(trial_index=1)])
        path = tmp_path / "log.csv"
        path.write_bytes((lines[0] + "\n" + "".join(
            line + ending for line in [lines[1], "", lines[2]])).encode("utf-8"))
        got = assert_readers_agree(path)
        assert got.line_numbers.tolist() == [2, 4]

    def test_crlf_log_stays_on_the_fast_path(self, tmp_path):
        table = generate_study(realistic_preset(participants=3, seed=6))
        lines = log_lines(table)
        lines[4:4] = ["", ""]
        path = tmp_path / "log.csv"
        write_lines(path, lines, ending="\r\n")
        with csv_reader_refused():
            got = read_trial_log(str(path))
        assert got == table
        assert_same_table(got, read_trial_log_reference(str(path)))
        assert got.line_numbers.tolist()[2:4] == [4, 7]

    @pytest.mark.parametrize("endings", [
        ("\r", "\r\n", "\r\n"), ("\r\n", "\r", "\r\n"), ("\r\n", "\r\r\n", "\r\n"),
        ("\r\n", "\n\r", "\n"), ("\r\n", "\r\n", "\r"),
    ])
    def test_lone_carriage_return_goes_to_the_csv_reader(self, tmp_path, endings):
        lines = log_lines([trial(), trial(trial_index=1)])
        path = tmp_path / "log.csv"
        path.write_bytes("".join(map(str.__add__, lines, endings)).encode("utf-8"))
        with csv_reader_refused(), pytest.raises(AssertionError, match="csv reader"):
            read_trial_log(str(path))
        assert_readers_agree(path)

    def test_field_over_the_csv_limit_is_a_format_error(self, tmp_path):
        lines = log_lines([trial(), trial(trial_index=1)])
        lines[2] = lines[2].replace(",1,", "," + "0" * csv.field_size_limit() + "1,", 1)
        path = tmp_path / "log.csv"
        write_lines(path, lines)
        with pytest.raises(LogFormatError, match="field limit") as err:
            read_trial_log(str(path))
        assert err.value.line_number == 3
        assert_readers_agree(path)

    def test_participant_order_spans_chunks(self, tmp_path):
        trials = [trial(p, trial_index=i) for i, p in enumerate("CCBACBDA")]
        path = tmp_path / "log.csv"
        write_lines(path, log_lines(trials)[:4] + ["", "", ""] + log_lines(trials)[4:])
        with mock.patch.object(trials_module, "_CHUNK_ROWS", 2), csv_reader_refused():
            got = read_trial_log(str(path))
        assert got.participant_ids == ("C", "B", "A", "D")
        assert got.line_numbers.tolist() == [2, 3, 4, 8, 9, 10, 11, 12]
        assert got == trials


TECHNIQUES, POSTURES = list(Technique), list(Posture)


def runs_log(n, id_run, technique_run, posture_run, ids=None):
    """``n`` trials whose participant, technique and posture change every
    ``id_run``, ``technique_run`` and ``posture_run`` rows."""
    ids = ids or [f"P{i:02d}" for i in range(n // id_run + 1)]
    return [trial(ids[i // id_run % len(ids)], trial_index=i,
                  technique=TECHNIQUES[i // technique_run % 5],
                  posture=POSTURES[i // posture_run % 2], success=i % 7 > 0,
                  movement_time_s=0.5 + i / 1000, error_attempts=i % 3)
            for i in range(n)]


def with_blank_lines(lines, at):
    """``lines`` with a blank line inserted before each line index in ``at``."""
    out = list(lines)
    for index in sorted(at, reverse=True):
        out.insert(index, "")
    return out


def lenient_lines():
    lines = log_lines(runs_log(1500, 300, 40, 20))
    variants = [("Sitting", "sITTING"), ("Standing", "STANDING"), (",true", ", TRUE "),
                (",false", ",False\t")]
    for i in range(1, len(lines)):
        old, new = variants[i % len(variants)]
        lines[i] = lines[i].replace(old, new)
    return lines


def quoted_lines(ids):
    lines = log_lines(runs_log(2100, 350, 40, 20, ids=ids))
    # quotes that csv.writer would not write, on every other row of an id it
    # also writes plain
    return [line.replace("P01,", '"P01",', 1) if line.startswith("P01,") and i % 2 else line
            for i, line in enumerate(lines)]


#: (log lines, line ending, whether the loadtxt path reads it): each log
#: crosses at least one 1024-row chunk boundary.
ROUND_TRIP_LOGS = {
    # every run one row long: the row-by-row coding
    "ids-alternating-every-row": lambda: (log_lines(runs_log(2500, 1, 1, 1)), "\n", True),
    "runs-across-chunk-boundaries": lambda: (log_lines(runs_log(3100, 700, 300, 1000)), "\n", True),
    "texts-of-31-characters": lambda: (
        [line.replace("P00", "P" * 31).replace(",true", "," + "true".ljust(31))
         for line in log_lines(runs_log(1100, 500, 40, 20))], "\n", True),
    "texts-of-32-characters": lambda: (
        [line.replace("P01", "P" * 32) for line in log_lines(runs_log(1100, 500, 40, 20))],
        "\n", False),
    "success-of-32-characters": lambda: (
        [line.replace(",true", "," + "true".ljust(32))
         for line in log_lines(runs_log(1100, 500, 40, 20))], "\n", False),
    "blank-lines-and-crlf": lambda: (
        with_blank_lines(log_lines(runs_log(2100, 400, 40, 20)), [1, 2, 1024, 1025, 1500, 2101]),
        "\r\n", True),
    "lenient-posture-and-success": lambda: (lenient_lines(), "\n", True),
    "quoted-ids": lambda: (quoted_lines(["P,01", 'P"01', '""', ",", "P01", "P," * 15]),
                           "\n", True),
    # a quoted id as wide as numpy's text width goes to the csv reader, as a plain one does
    "quoted-ids-of-40-characters": lambda: (
        quoted_lines(["P,01", 'P"01', '""', ",", "P01", "P," * 20]), "\n", False),
    # ids that fill the narrow width from the third chunk on, and ids of the
    # first chunks again after them
    "id-of-20-characters-from-row-2048": lambda: (
        log_lines(runs_log(3100, 512, 40, 20, ids=["P00", "P01", "P02", "P03", "P" * 20])),
        "\n", True),
    # from the second chunk on, where new ids are coded before the chunk is
    # read again: a success padded past its narrow width, a posture in mixed case
    "padded-success-and-mixed-case-posture": lambda: (
        [line.replace(",true", ",  true ").replace("Standing", "sTaNdInG") if i > 1024 else line
         for i, line in enumerate(log_lines(runs_log(2100, 350, 40, 20)))], "\n", True),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_LOGS))
def test_fast_reader_reads_like_the_csv_reader(tmp_path, name):
    """Columns, participant order and line numbers equal the csv reader's,
    on the loadtxt path where it can vouch for the log."""
    lines, ending, fast = ROUND_TRIP_LOGS[name]()
    path = tmp_path / "log.csv"
    write_lines(path, lines, ending)
    want = read_trial_log_reference(str(path))
    with contextlib.ExitStack() as stack:
        if fast:
            stack.enter_context(csv_reader_refused())
        got = read_trial_log(str(path))
    assert_same_table(got, want)
    assert len(got) == sum(1 for line in lines[1:] if line)


def loadtxt_widths(path):
    """The table read from ``path`` without the csv reader, and the width
    of the participant field of each ``np.loadtxt`` call, in call order."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, csv_reader_refused():
        table = read_trial_log(str(path))
    return table, [call.kwargs["dtype"]["participant_code"].itemsize // 4
                   for call in loadtxt.call_args_list]


def test_written_texts_are_read_once_at_their_narrow_width(tmp_path):
    """No text the writer writes fills its kind's narrow width, so a log of
    every technique, posture and success, with ids of 7 characters, is read
    once per chunk."""
    for field in trials_module._FIELDS:
        if isinstance(field.kind, trials_module._Coded):
            assert all(len(text) < field.kind.width for text in field.kind.written), field.name
    path = tmp_path / "log.csv"
    write_trial_log(runs_log(2100, 300, 40, 20, ids=[f"P{i:06d}" for i in range(8)]), str(path))
    table, widths = loadtxt_widths(path)
    assert widths == [8, 8, 8]
    assert_same_table(table, read_trial_log_reference(str(path)))


def test_a_filled_field_reads_its_chunk_and_the_rest_at_full_width(tmp_path):
    """Ids of 16 characters fill the narrow width in the first chunk, which
    is read again at the full width, as the later chunks are, once each."""
    path = tmp_path / "log.csv"
    write_lines(path, log_lines(runs_log(2100, 300, 40, 20,
                                         ids=[f"participant-{i:04d}" for i in range(8)])))
    table, widths = loadtxt_widths(path)
    assert widths == [8, 32, 32, 32]
    assert_same_table(table, read_trial_log_reference(str(path)))


def force_quoted_lines(trials):
    """``log_lines`` with every participant id quoted, needed or not."""
    lines = log_lines([dataclasses.replace(t, participant_id="X") for t in trials])
    return lines[:1] + ['"' + t.participant_id.replace('"', '""') + '"' + line[1:]
                        for t, line in zip(trials, lines[1:])]


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ids=st.lists(st.text(alphabet=string.ascii_letters + '," \t', max_size=31),
                    min_size=1, max_size=4, unique=True),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_ids_under_the_text_width_stay_on_the_fast_path(tmp_path_factory, ids, picks):
    """Ids of fewer than 32 characters, of letters, commas, quotes and
    whitespace, written by ``write_trial_log`` or all quoted, read as the
    csv reader reads them, without it."""
    trials = [trial(ids[k % len(ids)], trial_index=i) for i, k in enumerate(picks)]
    written, quoted = (tmp_path_factory.getbasetemp() / name
                       for name in ("ids-written.csv", "ids-quoted.csv"))
    write_trial_log(trials, str(written))
    write_lines(quoted, force_quoted_lines(trials))
    for path in (written, quoted):
        with csv_reader_refused():
            got = read_trial_log(str(path))
        assert_same_table(got, read_trial_log_reference(str(path)))


def test_crlf_blank_line_first_in_a_chunk(tmp_path):
    """A blank line that starts a chunk, with no other blank line in it,
    holds no row on the loadtxt path, as in the csv reader."""
    lines = log_lines(runs_log(7, 3, 2, 2))
    path = tmp_path / "log.csv"
    write_lines(path, lines[:4] + [""] + lines[4:], "\r\n")  # the 4th body line, 2nd chunk
    with mock.patch.object(trials_module, "_CHUNK_ROWS", 3):
        want = trials_module._read_with_csv(str(path))
        with csv_reader_refused():
            got = read_trial_log(str(path))
    assert_same_table(got, want)
    assert got.line_numbers.tolist() == [2, 3, 4, 6, 7, 8, 9]


def assert_one_line(message):
    """An error message of exactly one line, however its fields were quoted."""
    assert message.endswith("\n") and len(message.splitlines()) == 1, message


class TestFormatErrors:
    @pytest.mark.parametrize("field", [1, 2, 12])
    @pytest.mark.parametrize("text", ["Sit\nting", "tr\r\nue", "RP\rRG", "x\u2028\x0by\x85"])
    def test_quoted_line_breaks_print_one_line(self, tmp_path, capsys, field, text):
        lines = log_lines([trial(), trial(trial_index=1)])
        row = lines[2].split(",")
        row[field] = '"' + text + '"'
        lines[2] = ",".join(row)
        path = tmp_path / "log.csv"
        write_lines(path, lines)
        assert cli.main(["validate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ")
        assert_one_line(err)


class TestHeader:
    def test_quoted_names_are_the_header(self, tmp_path):
        trials = [trial(), trial(trial_index=1)]
        lines = log_lines(trials)
        lines[0] = ",".join(f'"{name}"' for name in TRIAL_LOG_HEADER.split(","))
        path = tmp_path / "log.csv"
        write_lines(path, lines)
        assert assert_readers_agree(path) == trials

    def test_joined_names_in_one_field_are_not_the_header(self, tmp_path, capsys):
        """A 12-field header whose first field is "participant_id,technique"
        joins to the header text but is refused."""
        lines = log_lines([trial(), trial(trial_index=1), trial(trial_index=2)])
        lines[0] = '"participant_id,technique",' + TRIAL_LOG_HEADER.split(",", 2)[2]
        path = tmp_path / "log.csv"
        write_lines(path, lines)
        for reader in (read_trial_log, read_trial_log_reference):
            with pytest.raises(LogFormatError) as err:
                reader(str(path))
            assert str(err.value) == "line 1: unexpected header row"
        assert cli.main(["validate", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 1: unexpected header row\n"


def test_field_table_matches_trial_header_and_table_columns():
    """``Trial`` is written out by hand; its fields, the header and the
    columns TrialTable takes follow the field table."""
    names = [field.name for field in trials_module._FIELDS]
    assert [field.name for field in dataclasses.fields(Trial)] == names
    assert TRIAL_LOG_HEADER.split(",") == names
    columns = {field.column: [] for field in trials_module._FIELDS}
    assert len(trials_module.TrialTable([], **columns)) == 0
    for name in columns:
        with pytest.raises(TypeError):
            trials_module.TrialTable([], **{k: v for k, v in columns.items() if k != name})
    with pytest.raises(TypeError):
        trials_module.TrialTable([], extra=[], **columns)


def test_readme_header_block_is_the_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Trial logs\n", 1)[1]
    assert section.split("```text\n", 1)[1].split("\n```", 1)[0] == TRIAL_LOG_HEADER


# --- differential fuzz test ------------------------------------------------

#: Characters that the csv module, int(), float() and numpy's tokenizer
#: may each treat differently.
ODD_CHARS = '"\r\n\x00\x1c\x1d\x1e\x1f\x0b\x0c\t \x85\xa0\u2028,#_+-.e'
INT_TOKENS = [
    " 3 ", "+5", "-0", "00012", "1_000", "3.0", "1e3", "٣", "３", "\xa03", "3\x0b", "\x0c3",
    str(2 ** 63 - 1), str(-(2 ** 63)), str(2 ** 63), str(-(2 ** 63) - 1), str(10 ** 30),
    "", " ", "0x10", "- 1", "1 2",
]
FLOAT_TOKENS = [
    " 1.5 ", "+.5", "5.", "-0.0", "1e-400", "4.9e-324", "Infinity", "-inf", "iNf", "nan",
    "-nan", "NaN", "1e500", "1_000.5", "٣.5", "\u20032", "0x1p3", "1.5d0", "nan(1)", "",
    "inf inity",
]
#: Per field: the tokens that may replace it (besides the ODD_CHARS inserts).
FIELD_TOKENS = [
    ["P01", "p3", " P01", "P01 ", "", "Ünïcødé-参加者", "P" * 31, "P" * 32, "P" * 33, "a\tb"],
    ["rprg", " RPRG", "RPDW ", "", "X", "LPLG"],
    ["SITTING", "sitting", "StAnDiNg", " Sitting", "Lying", "", "sitting" + " " * 30],
    *[INT_TOKENS] * 2, *[FLOAT_TOKENS] * 6, INT_TOKENS,
    ["TRUE", " false ", "False\t", "\x0btrue", "yes", "", "true" + " " * 40],
]

ROWS = st.lists(st.builds(
    trial,
    participant=st.sampled_from(["P01", "P02", "p3", "Ünï"]),
    technique=st.sampled_from(list(Technique)),
    posture=st.sampled_from(list(Posture)),
    block=st.integers(-3, 10 ** 6),
    trial_index=st.integers(0, 2 ** 63 - 1),
    movement_time_s=st.floats(),
    endpoint_deviation_m=st.floats(width=32),
    error_attempts=st.integers(-2, 5),
    success=st.booleans(),
), min_size=0, max_size=8)

#: (kind, row, field, token index, character, free text). Row and field are
#: taken modulo the log's size; the header is mutated only in a log without
#: rows.
MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["token", "token", "token", "char", "char", "text", "quote", "add",
                     "drop", "blank"]),
    st.integers(0, 63), st.integers(0, 12), st.integers(0, 63),
    st.sampled_from(ODD_CHARS), st.text(max_size=4),
), max_size=3)


def mutate(lines, mutations):
    rows = [line.split(",") for line in lines]
    for kind, r, f, k, char, text in mutations:
        r = 0 if len(rows) == 1 else 1 + r % (len(rows) - 1)
        row = rows[r]
        f %= len(row)
        if kind == "token":
            tokens = FIELD_TOKENS[f % 13]
            row[f] = tokens[k % len(tokens)]
        elif kind == "char":
            row[f] = row[f][:k % (len(row[f]) + 1)] + char + row[f][k % (len(row[f]) + 1):]
        elif kind == "text":
            row[f] = text
        elif kind == "quote":
            row[f] = '"' + row[f].replace('"', '""') + '"'
        elif kind == "add":
            row.insert(f, text)
        elif kind == "drop" and len(row) > 1:
            del row[f]
        elif kind == "blank":
            rows.insert(r, [text if text.isspace() else ""])
    return [",".join(row) for row in rows]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(trials=ROWS, mutations=MUTATIONS,
       endings=st.lists(st.sampled_from(["\n"] * 3 + ["\r\n"] * 2 + ["\r"]),
                        min_size=1, max_size=3),
       lf_header=st.booleans(), final_newline=st.booleans(),
       chunk=st.sampled_from([1, 2, 3, 1024]))
def test_mutated_logs_read_like_the_csv_reference(tmp_path_factory, deadline, trials, mutations,
                                                   endings, lf_header, final_newline, chunk):
    """Line i ends with ``endings[i % len(endings)]``: LF, CRLF and lone-CR
    logs, and logs that mix them."""
    # ``deadline`` holds no state between examples, so sharing it is safe
    path = tmp_path_factory.getbasetemp() / "fuzz-log.csv"
    lines = mutate(log_lines(trials), mutations)
    ends = [endings[i % len(endings)] for i in range(len(lines))]
    if lf_header:
        ends[0] = "\n"
    if len(lines) > 1 and not final_newline:
        ends[-1] = ""
    path.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))
    with mock.patch.object(trials_module, "_CHUNK_ROWS", chunk):
        assert_readers_agree(path)
    out, err = io.StringIO(), io.StringIO()
    with deadline(10.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", "--input", str(path)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if err.getvalue():
        assert_one_line(err.getvalue())
