"""Trial data model, log validation, and per-condition aggregation.

A trial log is a flat sequence of teleportation attempts. Regression and
throughput never consume raw trials directly: they work on per-condition
means (means-of-means), so the aggregation path here is the single source
of the observation units used downstream.

Logs are held column-wise in a :class:`TrialTable`; :class:`Trial` rows are
built only when a caller indexes or iterates the table. One table of log
fields, ``_FIELDS``, gives the header, both log readers, the writer and the
TrialTable columns; only :class:`Trial` is written out by hand.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import _frozen, left_sum


class Technique(Enum):
    """Pointer/confirmation hand assignments; RPDW confirms by dwell."""

    RPRG = "RPRG"
    RPLG = "RPLG"
    LPLG = "LPLG"
    LPRG = "LPRG"
    RPDW = "RPDW"

    # Members are singletons, so identity hashes them; Enum's own __hash__
    # hashes the name in Python on every dict lookup.
    __hash__ = object.__hash__


class Posture(Enum):
    SITTING = "Sitting"
    STANDING = "Standing"

    __hash__ = object.__hash__  # as for Technique


#: Integer codes of the enum columns: a code is the member's declaration index.
TECHNIQUES = tuple(Technique)
POSTURES = tuple(Posture)


@dataclass(frozen=True)
class Trial:
    """One teleportation attempt (the final, successful selection of a target).

    ``error_attempts`` counts failed selections made before the recorded
    one; ``endpoint_deviation_m`` is the shortest distance from the selection
    point to the target center.
    """

    participant_id: str
    technique: Technique
    posture: Posture
    block: int
    trial_index: int
    width_m: float
    distance_m: float
    height_m: float
    angle_deg: float
    movement_time_s: float
    endpoint_deviation_m: float
    error_attempts: int
    success: bool


# --- the log schema ------------------------------------------------------


class _Kind:
    """How a kind of log field is read and written, and how a TrialTable
    column holds the values of its Trial field; ``ids`` is the participant
    ids, a dict of id -> code while a column is built, else the table's.
    This kind is a number that ``read`` parses, held as it is and written
    as its ``repr``: once per distinct value or, ``per_row``, row by row. A
    ``shared`` float's rows take one float object per distinct value."""

    #: numpy's tokenizer reads the field as text to be coded, not as a number,
    #: first ``width`` characters wide
    text = False

    def __init__(self, read=float, error: str = "", *, shared=False, per_row=False):
        self.read, self.error, self.shared, self.per_row = read, error, shared, per_row

    def parse(self, texts: Iterable[str], ids: dict[str, int]) -> list:
        """The column values of ``texts``. Bad text raises ValueError, or
        KeyError, or OverflowError once the values become an array; ``error``
        words the last two."""
        return list(map(self.read, texts))

    def encode(self, values: list, ids: dict[str, int], dtype: type) -> np.ndarray | list:
        """The column values of the Trial field's values; TypeError or
        KeyError for values a ``dtype`` column cannot hold as they are: here,
        values whose dtype, as numpy infers it, does not cast safely."""
        column = np.array(values)
        if values and not np.can_cast(column, dtype):
            raise TypeError
        return column

    def decode(self, column: np.ndarray, ids: Sequence[str]) -> list:
        """The Trial field's value of each row of ``column``."""
        if not self.shared:
            return column.tolist()
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        return [values[i] for i in inverse.tolist()]

    def texts(self, column: np.ndarray, ids: Sequence[str]) -> tuple | None:
        """Each row's code and each code's text, or None if ``per_row``."""
        return None if self.per_row else _value_texts(column)


class _Coded(_Kind):
    """One of a few ``texts``, read by their ``key`` and held as the index
    of the text; ``members`` are the Trial values of the codes, an enum's
    members, whose values are the texts, or None for a bool. No written
    text fills the field's ``width``."""

    text = True

    def __init__(self, key, error: str, members: tuple | None = None, texts: tuple = ()):
        super().__init__(error=error)
        self.key, self.members = key, members
        self.written = texts or tuple(member.value for member in members)
        self.width = 1 + max(map(len, self.written))
        self.code_of_key = {key(text): i for i, text in enumerate(self.written)}
        self.code_of = members and {member: i for i, member in enumerate(members)}

    def parse(self, texts: Iterable[str], ids: dict[str, int]) -> list:
        return [self.code_of_key[self.key(text)] for text in texts]

    def encode(self, values: list, ids: dict[str, int], dtype: type) -> np.ndarray | list:
        if self.members is None:
            return super().encode(values, ids, dtype)
        return [self.code_of[m] for m in values]

    def decode(self, column: np.ndarray, ids: Sequence[str]) -> list:
        codes = column.tolist()
        return codes if self.members is None else [self.members[c] for c in codes]

    def texts(self, column: np.ndarray, ids: Sequence[str]) -> tuple:
        return column, self.written


class _Participant(_Kind):
    """Any text, held as the index of its id among the ids in order of
    first appearance, and quoted as ``csv.writer`` quotes it."""

    text, width = True, 8

    def parse(self, texts: Iterable[str], ids: dict[str, int]) -> list:
        return [ids.setdefault(text, len(ids)) for text in texts]

    def encode(self, values: list, ids: dict[str, int], dtype: type) -> list:
        codes = self.parse(values, ids)
        if not all(isinstance(p, str) for p in ids):
            raise TypeError
        return codes

    def decode(self, column: np.ndarray, ids: Sequence[str]) -> list:
        return [ids[c] for c in column.tolist()]

    def texts(self, column: np.ndarray, ids: Sequence[str]) -> tuple:
        return column, [_csv_field(p) for p in ids]


#: A log field: its header name and Trial field, TrialTable column, dtype and kind.
_Field = namedtuple("_Field", "name column dtype kind")
_TECHNIQUE = _Coded(str, "{!r} is not a valid Technique", TECHNIQUES)
_POSTURE = _Coded(str.lower, "{!r} is not a valid Posture", POSTURES)
_INT = _Kind(int, "integer {!r} is out of range")
_GRID, _MEASURED = _Kind(shared=True), _Kind(per_row=True)
#: The fields in the order of the log, of Trial's fields and of the columns.
_FIELDS = (
    _Field("participant_id", "participant_code", np.int64, _Participant()),
    _Field("technique", "technique_code", np.int8, _TECHNIQUE),
    _Field("posture", "posture_code", np.int8, _POSTURE),
    _Field("block", "block", np.int64, _INT),
    _Field("trial_index", "trial_index", np.int64, _INT),
    _Field("width_m", "width_m", np.float64, _GRID),
    _Field("distance_m", "distance_m", np.float64, _GRID),
    _Field("height_m", "height_m", np.float64, _GRID),
    _Field("angle_deg", "angle_deg", np.float64, _GRID),
    _Field("movement_time_s", "movement_time_s", np.float64, _MEASURED),
    _Field("endpoint_deviation_m", "endpoint_deviation_m", np.float64, _MEASURED),
    _Field("error_attempts", "error_attempts", np.int64, _INT),
    _Field("success", "success", np.bool_, _Coded(
        lambda text: text.strip().lower(), "{!r} is not a boolean (expected true/false)",
        texts=("false", "true"))),
)
TRIAL_LOG_HEADER = ",".join(field.name for field in _FIELDS)
_COLUMNS = tuple((field.column, field.dtype) for field in _FIELDS)
#: The fields of a line in groups that repeat together, whose texts the
#: writer joins once per distinct combination; a measured float stands alone.
_WRITE_GROUPS = [[field for field in _FIELDS if field.name in names] for names in (
    ("participant_id", "technique", "posture", "block"), ("trial_index",),
    ("width_m", "distance_m", "height_m", "angle_deg"), ("movement_time_s",),
    ("endpoint_deviation_m",), ("error_attempts", "success"),
)]
#: Rows converted to Trial objects or log lines, or parsed from a log, at a
#: time; bounds the Python objects held at once.
_CHUNK_ROWS = 1024


class TrialTable(Sequence):
    """A trial log as one numpy column per :class:`Trial` field.

    Participant, technique and posture are integer codes: ``participant_code``
    indexes ``participant_ids``, and the enum codes index ``TECHNIQUES`` and
    ``POSTURES``. The columns are read-only. As a ``Sequence[Trial]`` the
    table builds rows only when indexed or iterated, and it compares equal to
    a list of the same trials.

    ``line_numbers`` holds each row's 1-based line in the file it was read
    from, or is None for tables that were not read from a file.

    The table owns its columns: they are copied at construction, so a caller
    that later changes the arrays it passed in does not change the table.
    That is what lets :func:`group_by_condition` and
    ``comparison.table1_cells`` keep their results on the table.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, participant_ids: Sequence[str], *, line_numbers=None, **columns):
        if set(columns) != {name for name, _ in _COLUMNS}:
            raise TypeError(f"TrialTable needs exactly the columns {[n for n, _ in _COLUMNS]}")
        self.participant_ids = tuple(participant_ids)
        n = None
        for name, dtype in _COLUMNS:
            col = np.array(columns[name], dtype=dtype)
            if col.ndim != 1 or (n is not None and len(col) != n):
                raise ValueError(f"column {name} must be one-dimensional, of one length")
            n = len(col)
            col.flags.writeable = False
            setattr(self, name, col)
        if line_numbers is not None:
            line_numbers = np.array(line_numbers, dtype=np.int64)
            if len(line_numbers) != n:
                raise ValueError("line_numbers must have one entry per row")
            line_numbers.flags.writeable = False
        self.line_numbers = line_numbers
        #: group_by_condition's cells, computed on its first call
        self._condition_cells: dict[ConditionKey, ConditionSummary] | None = None
        #: comparison.table1_cells's collapsed cells of each report group, per
        #: ``pooled`` value, computed on its first call with that value
        self._report_cells: dict[bool, dict[str, dict[ConditionKey, ConditionSummary]]] = {}

    @classmethod
    def from_trials(cls, trials: Iterable[Trial]) -> "TrialTable":
        """Columns of a sequence of trials; a table is returned as is.
        TypeError names the field and the first row of a value that its
        column cannot hold as it is, such as a str where a float belongs."""
        if isinstance(trials, TrialTable):
            return trials
        rows = list(trials)
        ids: dict[str, int] = {}
        columns = {}
        for field in _FIELDS:
            values = list(map(operator.attrgetter(field.name), rows))
            try:
                columns[field.column] = field.kind.encode(values, ids, field.dtype)
            except (KeyError, TypeError):
                for row, value in enumerate(values):  # the first value that fails alone
                    try:
                        field.kind.encode([value], {}, field.dtype)
                    except (KeyError, TypeError):
                        raise TypeError(f"row {row}: {field.name} {value!r} is not a valid "
                                        f"{Trial.__annotations__[field.name]}") from None
                raise
        return cls(ids, **columns)

    def __len__(self) -> int:
        return len(self.trial_index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            lines = None if self.line_numbers is None else self.line_numbers[index]
            return TrialTable(
                self.participant_ids, line_numbers=lines,
                **{name: getattr(self, name)[index] for name, _ in _COLUMNS},
            )
        i = range(len(self))[index]
        return next(iter(self[i:i + 1]))

    def __iter__(self) -> Iterator[Trial]:
        for start in range(0, len(self), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            yield from map(Trial, *(field.kind.decode(getattr(self, field.column)[rows],
                                                      self.participant_ids) for field in _FIELDS))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TrialTable):
            if len(self) != len(other) or not all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name, _ in _COLUMNS if name != "participant_code"
            ):
                return False
            if self.participant_ids == other.participant_ids:
                return bool(np.array_equal(self.participant_code, other.participant_code))
            ids = [np.array(t.participant_ids, dtype=object)[t.participant_code]
                   for t in (self, other)]
            return bool(np.all(ids[0] == ids[1]))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def line_number(self, index: int) -> int:
        """Line of row ``index`` in its source file; for a table not read
        from a file, the line the row takes when written by write_trial_log."""
        if self.line_numbers is None:
            return index + 2
        return int(self.line_numbers[index])

    def __repr__(self) -> str:
        return f"TrialTable({len(self)} trials, {len(self.participant_ids)} participants)"


@dataclass(frozen=True)
class Violation:
    """One invariant violation found in a trial log; ``trial_index`` is the
    row's position in the log."""

    trial_index: int
    field: str
    message: str


def validate_log(trials: Sequence[Trial]) -> list[Violation]:
    """Check every trial against the data-model invariants.

    Returns an empty list iff the log is clean, ordered by row and, within a
    row, by field. Violations are data, not exceptions: a dirty log is a
    legitimate thing to inspect.
    """
    table = TrialTable.from_trials(trials)
    mt, w, d, h = table.movement_time_s, table.width_m, table.distance_m, table.height_m
    dev = table.endpoint_deviation_m
    dev_ok = np.isfinite(dev) & (dev >= 0)
    checks = (
        (~(np.isfinite(mt) & (mt > 0)), "movement_time_s", "non-positive movement time"),
        (~(np.isfinite(w) & (w > 0)), "width_m", "non-positive target width"),
        (~(np.isfinite(d) & (d > 0)), "distance_m", "non-positive target distance"),
        (~(np.isfinite(h) & (h >= 0)), "height_m", "negative target height"),
        (~dev_ok, "endpoint_deviation_m", "negative endpoint deviation"),
        (dev_ok & table.success & (dev > w / 2), "endpoint_deviation_m",
         "successful selection landed outside the target radius"),
        (table.error_attempts < 0, "error_attempts", "negative error count"),
        (table.block < 0, "block", "negative block index"),
        (table.trial_index < 0, "trial_index", "negative trial index"),
        (~np.isfinite(table.angle_deg), "angle_deg", "non-finite viewing angle"),
    )
    found = [(int(i), k) for k, (mask, _, _) in enumerate(checks) for i in np.flatnonzero(mask)]
    return [Violation(i, checks[k][1], checks[k][2]) for i, k in sorted(found)]


def _quantize_mm(value: float) -> float:
    # 1 mm quantization guards float-keyed equality for grid geometry.
    return round(value, 3)


@dataclass(frozen=True)
class ConditionKey:
    """Aggregation cell identity. ``None`` marks a collapsed factor.

    Viewing angle is deliberately not part of the key: it is randomized per
    trial to cancel directional bias and is kept on trials for audit only.
    """

    technique: Technique | None
    posture: Posture | None
    width_m: float
    distance_m: float
    height_m: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "width_m", _quantize_mm(self.width_m))
        object.__setattr__(self, "distance_m", _quantize_mm(self.distance_m))
        object.__setattr__(self, "height_m", _quantize_mm(self.height_m))


@dataclass(frozen=True)
class ConditionSummary:
    """One aggregation cell: what the model fits read, its mean movement
    time, and what throughput reads, its endpoint-deviation SD.

    ``sd_deviation_m`` is None for a cell merged by :func:`collapse_over`,
    as None marks a collapsed factor in its key; throughput reads only the
    cells of the group-by.
    """

    key: ConditionKey
    n_trials: int
    mean_mt_s: float
    sd_deviation_m: float | None


# --- exact sample standard deviation ------------------------------------

#: Bits of the scaled radicand in _sqrt_of_ratio: twice the float precision
#: plus guard bits, so the integer root carries the round-to-odd sticky bit
#: below every bit that the final rounding looks at.
_RADICAND_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(num: int, den: int) -> float:
    """Correctly rounded square root of num/den (num >= 0, den > 0).

    The integer root of the scaled ratio is rounded to odd (its last bit
    records whether anything was cut off), so the one int-to-float rounding
    at the end rounds to nearest as if the root were exact.
    """
    shift = (num.bit_length() - den.bit_length() - _RADICAND_BITS) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def _sd_of_sums(n: int, s1: int, s2: int, exp: int) -> float:
    """Sample SD of n values ``m * 2**exp`` whose integers m sum to s1 and
    whose squares sum to s2.

    The sum of squared deviations is exactly
    2**(2 exp) * (n * s2 - s1**2) / n, so its correctly rounded root over
    n - 1 is what ``statistics.stdev`` returns, bit for bit.
    """
    num = n * s2 - s1 * s1
    if exp >= 0:
        return _sqrt_of_ratio(num << 2 * exp, n * (n - 1))
    return _sqrt_of_ratio(num, n * (n - 1) << -2 * exp)


def sample_sd(values: Sequence[float]) -> float:
    """Sample standard deviation (n - 1 denominator), equal bit for bit to
    ``statistics.stdev`` on finite floats; nan if a value is not finite."""
    if len(values) < 2:
        raise ValueError(f"sample SD needs >= 2 values, got {len(values)}")
    try:
        ratios = [float(x).as_integer_ratio() for x in values]
    except (OverflowError, ValueError):
        return math.nan
    den = max(d for _, d in ratios)  # every denominator is a power of two
    cell = [m * (den // d) for m, d in ratios]
    return _sd_of_sums(len(cell), sum(cell), sum(map(operator.mul, cell, cell)),
                       1 - den.bit_length())


def _cell_sds(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> list[float | None]:
    """``sample_sd`` of each cell ``values[start:start + n]`` at once, cells
    of fewer than two values getting 0.0 and cells whose SD overflows None.

    Each float is d * 2**e with an integer d, |d| < 2**53; ``frexp`` takes
    the whole column apart, and within a cell every d is shifted onto the
    cell's smallest exponent, m = d << s, so that ``_sd_of_sums`` sees the
    exact sums of the integers m and m**2, taken in int64 limbs
    (``_limb_sums``).

    A column in which every cell holds one finite value (-0.0 and 0.0
    alike; a singleton counts) takes no integer sums: each SD is 0.0, as
    ``stdev`` gives. A column with a cell of two values, or of a value that
    is not finite, takes the sums.
    """
    firsts = values[starts]
    if np.isfinite(firsts).all() and np.array_equal(values, np.repeat(firsts, counts)):
        return [0.0] * len(starts)
    finite = np.isfinite(values)
    mantissa, exponent = np.frexp(np.where(finite, values, 0.0))
    digits = (mantissa * 2.0 ** sys.float_info.mant_dig).astype(np.int64)
    exponent = exponent.astype(np.int64) - sys.float_info.mant_dig
    zero = digits == 0
    exponent[zero] = np.iinfo(np.int64).max
    cell_exp = np.minimum.reduceat(exponent, starts)
    cell_exp[cell_exp == np.iinfo(np.int64).max] = 0  # cells of zeros only
    shifts = np.where(zero, 0, exponent - np.repeat(cell_exp, counts))
    s1, s2 = _limb_sums(digits, shifts, starts, counts)
    all_finite = np.logical_and.reduceat(finite, starts).tolist()
    sds = []
    for n, a, b, e, ok in zip(counts.tolist(), s1, s2, cell_exp.tolist(), all_finite):
        try:
            sds.append(0.0 if n < 2 else _sd_of_sums(n, a, b, e) if ok else math.nan)
        except OverflowError:  # beyond the float range
            sds.append(None)
    return sds


def _limb_sums(digits: np.ndarray, shifts: np.ndarray, starts: np.ndarray,
               counts: np.ndarray) -> tuple[list[int], list[int]]:
    """Each cell's sum of m and of m**2, m = digits << shifts, as Python ints.

    An m can be thousands of bits long, so the sums are taken in int64
    limbs: each |m| is cut into limbs of ``width`` bits,
    |m| = sum_k limb_k << (width k), and then

        sum m    = sum_k (sum of sign * limb_k) << (width k)
        sum m**2 = sum_(j,k) (sum of limb_j * limb_k) << (width (j + k)).

    ``np.add.reduceat`` takes these limb sums for every cell at once, and
    they are put together as Python ints per cell. The column takes as many
    limbs as its largest shift needs. A 53-bit |d| touches at most
    ``2 + 51 // width`` adjacent limbs, so limbs further apart never meet in
    one row and their products are not summed.

    No int64 sum can overflow: a limb is below 2**width, so a product of two
    is below 2**(2 width) and a cell of n rows sums to less than
    n * 2**(2 width); ``width`` is the largest with n * 2**(2 width) <= 2**63
    for the largest cell: 28 bits for cells of up to 127 rows, 21 bits below
    2**21 rows, and 1 bit for any cell below 2**61 rows.
    """
    width = (63 - int(counts.max()).bit_length()) // 2
    n_limbs = -(-(sys.float_info.mant_dig + int(shifts.max())) // width)
    reach = min(n_limbs, 2 + (sys.float_info.mant_dig - 2) // width)
    magnitude, shifts = np.abs(digits).astype(np.uint64), shifts.astype(np.uint64)
    sign = np.sign(digits) if (digits < 0).any() else None
    mask = np.uint64((1 << width) - 1)
    # sums[k]: each cell's sum of sign * limb_k; products: its sums of
    # limb_k * limb_(k-d), worth ``weights`` each in sum m**2 (a product of
    # two different limbs occurs twice in m**2)
    sums, products, weights = [], [], []
    limbs: list[np.ndarray] = []  # limb k, k - 1, ..., back as far as reach
    for k in range(n_limbs):
        below = np.minimum(shifts, width * k)  # bits of m below limb k taken from d
        left = np.minimum(shifts, width * (k + 1)) - below
        right = np.minimum(width * k - below, 63)
        limb = (((magnitude << left) >> right) & mask).view(np.int64)
        limbs = [limb, *limbs[:reach - 1]]
        sums.append(np.add.reduceat(limb if sign is None else sign * limb, starts))
        for d, other in enumerate(limbs):
            products.append(np.add.reduceat(limb * other, starts))
            weights.append((1 if d == 0 else 2) << width * (2 * k - d))
    s1 = (np.stack(sums, axis=1).astype(object)
          * [1 << width * k for k in range(n_limbs)]).sum(axis=1)
    s2 = (np.stack(products, axis=1).astype(object) * weights).sum(axis=1)
    return s1.tolist(), s2.tolist()


# --- aggregation --------------------------------------------------------


#: Distinct keys a column may hold to be coded by equality scans, one per
#: key, rather than by a sort.
_SCANNED_KEYS = 8


def _scanned_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Index of each of the int64 ``keys`` among its distinct keys, and
    those keys in order of first appearance, found by one equality scan per
    distinct key; None for more than ``_SCANNED_KEYS`` distinct keys.

    ``left`` marks the rows whose key no scan has matched yet, so a row's
    code, the index of its key, is the number of scans it stays left
    after; no step selects rows by a mask, which costs far more than a
    scan on rows in random order."""
    codes = np.zeros(len(keys), dtype=np.int64)
    left = np.ones(len(keys), dtype=np.bool_)
    distinct = []
    first = 0
    while len(keys) and left[first]:
        if len(distinct) == _SCANNED_KEYS:
            return None
        distinct.append(keys[first])
        left &= keys != keys[first]
        codes += left
        first = int(left.argmax())
    return codes, np.array(distinct, dtype=np.int64)


def _quantized_codes(column: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Integer code of each row's 1 mm-quantized value, and the quantized
    level of each code in ascending order: the codes and levels of the
    distinct raw values as ``np.unique`` gives them (-0.0 equal to 0.0, one
    nan). Only the distinct raw values are sorted and rounded; raw values
    that round alike share a code.

    A column of few distinct bit patterns is coded by equality scans and
    only those values are sorted. A column holding nan or zeros of both
    signs takes ``np.unique``, which alone decides the raw value it keeps."""
    found = _scanned_codes(column.view(np.int64))
    values = None if found is None else found[1].view(np.float64)
    if values is None or np.isnan(values).any() or np.count_nonzero(values == 0.0) > 1:
        raw, index = np.unique(column, return_inverse=True)
        raw, order = raw.tolist(), range(len(raw))
    else:
        values = values.tolist()
        order = sorted(range(len(values)), key=values.__getitem__)
        index, raw = found[0], [values[i] for i in order]
    levels: list[float] = []
    code_of_index = [0] * len(raw)
    for i, q in zip(order, map(_quantize_mm, raw)):
        if not levels or q != levels[-1]:
            levels.append(q)
        code_of_index[i] = len(levels) - 1
    return np.asarray(code_of_index, dtype=np.int64)[index.reshape(-1)], levels


def group_by_condition(trials: Sequence[Trial]) -> dict[ConditionKey, ConditionSummary]:
    """Aggregate trials into per-condition cells.

    Every trial lands in exactly one cell; cells come in (technique, posture,
    width, distance, height) order. The endpoint-deviation SD uses the n-1
    denominator; singleton cells get sd 0 by convention. The MT mean and
    the SD equal ``statistics.fmean`` and ``statistics.stdev`` bit for bit;
    a cell whose MT sum or deviation SD is beyond the float range, where
    those raise OverflowError, raises ValueError naming the cell.

    The cells of a :class:`TrialTable` are computed once and kept on the
    table; each call returns a new dict of them. Other sequences are
    grouped on every call.
    """
    table = TrialTable.from_trials(trials)
    if table._condition_cells is None:
        table._condition_cells = _condition_cells(table)
    return dict(table._condition_cells)


def _condition_cells(table: TrialTable) -> dict[ConditionKey, ConditionSummary]:
    if len(table) == 0:
        return {}
    w_codes, widths = _quantized_codes(table.width_m)
    d_codes, distances = _quantized_codes(table.distance_m)
    h_codes, heights = _quantized_codes(table.height_m)
    codes = (table.technique_code, table.posture_code, w_codes, d_codes, h_codes)
    dims = (len(TECHNIQUES), len(POSTURES), len(widths), len(distances), len(heights))
    try:
        cell_of_row = np.ravel_multi_index(codes, dims)
    except ValueError:  # too many distinct levels to number in one int64
        cell_of_row = np.unique(np.stack(codes, axis=1), axis=0, return_inverse=True)[1]
    else:
        n_codes = math.prod(dims)
        if n_codes <= 1 << 16:  # numpy's stable sort is a radix sort on 8- and 16-bit codes
            cell_of_row = cell_of_row.astype(np.min_scalar_type(n_codes - 1))
    order = np.argsort(cell_of_row, kind="stable")
    sorted_cells = cell_of_row[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_cells[1:] != sorted_cells[:-1])))
    counts = np.diff(np.append(starts, len(order)))

    mts = memoryview(table.movement_time_s[order])  # fsum reads a slice's items as floats
    sd_devs = _cell_sds(table.endpoint_deviation_m[order], starts, counts)
    first = order[starts]
    cells = zip(starts.tolist(), counts.tolist(), *(column[first].tolist() for column in codes),
                sd_devs)

    out: dict[ConditionKey, ConditionSummary] = {}
    for a, n, technique, posture, w, d, h, sd_dev in cells:
        key = _frozen(ConditionKey, technique=TECHNIQUES[technique], posture=POSTURES[posture],
                      width_m=widths[w], distance_m=distances[d], height_m=heights[h])
        try:  # the correctly rounded sum over n: statistics.fmean bit for bit
            mean_mt = math.fsum(mts[a:a + n]) / n
        except OverflowError:
            raise ValueError("movement_time_s overflows when summed over cell "
                             f"{_cell_label(key)}") from None
        if sd_dev is None:
            raise ValueError("endpoint_deviation_m overflows when its SD is taken over cell "
                             f"{_cell_label(key)}")
        out[key] = _frozen(ConditionSummary, key=key, n_trials=n, mean_mt_s=mean_mt,
                           sd_deviation_m=sd_dev)
    return out


def _cell_label(key: ConditionKey) -> str:
    """``technique/posture W= D= H=``, ``*`` for a collapsed factor."""
    factors = ("*" if f is None else f.value for f in (key.technique, key.posture))
    return f"{'/'.join(factors)} W={key.width_m} D={key.distance_m} H={key.height_m}"


_COLLAPSIBLE = ("technique", "posture")


def collapse_over(
    summaries: Mapping[ConditionKey, ConditionSummary],
    drop: Iterable[str],
    pooled: bool = False,
) -> dict[ConditionKey, ConditionSummary]:
    """Remove factors from the keys, merging cells that become identical.

    A merged cell's mean MT is by default the unweighted mean of its cell
    means (means-of-means). The ``pooled`` opt-in weights constituent cells
    by trial count instead, which gives the mean of the pooled trials. A
    merged cell has no endpoint-deviation SD (``sd_deviation_m`` None).
    ``drop`` is a collection of factor names; a bare str is a TypeError.
    """
    if isinstance(drop, str):
        raise TypeError(f"drop must be a collection of factor names, not the str {drop!r}")
    drop = set(drop)
    unknown = drop - set(_COLLAPSIBLE)
    if unknown:
        raise ValueError(f"unknown factor: {', '.join(sorted(unknown))}")
    if not drop:
        return dict(summaries)

    # Cells merge on (technique code, posture code, W, D, H), -1 coding a
    # collapsed factor: the tuples hash and sort without hashing an enum, and
    # their order is the ConditionKey order of group_by_condition.
    keep_technique, keep_posture = "technique" not in drop, "posture" not in drop
    merged: dict[tuple, list[ConditionSummary]] = {}
    for key, summary in summaries.items():
        technique, posture = key.technique, key.posture
        cell = (
            _TECHNIQUE.code_of[technique] if keep_technique and technique is not None else -1,
            _POSTURE.code_of[posture] if keep_posture and posture is not None else -1,
            key.width_m, key.distance_m, key.height_m,
        )
        merged.setdefault(cell, []).append(summary)

    out: dict[ConditionKey, ConditionSummary] = {}
    for cell in sorted(merged):
        technique, posture, width, distance, height = cell
        key = _frozen(ConditionKey,
                      technique=None if technique < 0 else TECHNIQUES[technique],
                      posture=None if posture < 0 else POSTURES[posture],
                      width_m=width, distance_m=distance, height_m=height)
        ns, mts = zip(*((s.n_trials, s.mean_mt_s) for s in merged[cell]))
        n_total = sum(ns)
        w = [n / n_total for n in ns] if pooled else [1.0 / len(ns)] * len(ns)
        out[key] = _frozen(ConditionSummary, key=key, n_trials=n_total,
                           mean_mt_s=left_sum(map(operator.mul, w, mts)), sd_deviation_m=None)
    return out


# --- CSV logs ------------------------------------------------------------


class LogFormatError(ValueError):
    """Raised when a trial-log file cannot be parsed; carries the 1-based line."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class IncompleteGridError(ValueError):
    """The data does not cover the full condition grid; ``missing`` names gaps."""

    def __init__(self, missing: Sequence[str]):
        super().__init__(f"incomplete condition grid, missing: {', '.join(missing)}")
        self.missing = tuple(missing)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field: quoted, with its quotes
    doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


#: Widest range of integer keys coded through a presence table, one entry per
#: key in the range, rather than by a sort.
_PRESENCE_SPAN = 1 << 16


def _distinct_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Code of each of the int64 ``keys`` and the distinct keys, ascending,
    as ``np.unique(keys, return_inverse=True)`` returns them.

    Keys that span at most ``_PRESENCE_SPAN`` values are coded in O(n): a
    presence table over the span (``bincount > 0``) numbers the keys that
    occur by its running count, so no sort is needed."""
    if len(keys):
        low = int(keys.min())
        if int(keys.max()) - low < _PRESENCE_SPAN:
            offsets = keys - low
            present = np.bincount(offsets) > 0
            return (np.cumsum(present) - 1)[offsets], np.flatnonzero(present) + low
    distinct, inverse = np.unique(keys, return_inverse=True)
    return inverse, distinct


def _value_texts(column: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Code of each value of an int or float column, and the ``repr`` of the
    value of each code: one code per distinct value (per bit pattern for
    floats, so -0.0 keeps its sign). The repr of a Python float is its
    shortest round-trip form.

    A float column of at most ``_SCANNED_KEYS`` bit patterns is coded by
    equality scans, which hold less memory at once than a sort."""
    if column.dtype != np.float64:
        codes, distinct = _distinct_codes(column)
        return codes, list(map(repr, distinct.tolist()))
    bits = column.view(np.int64)
    found = _scanned_codes(bits)
    if found is None:
        distinct, codes = np.unique(bits, return_inverse=True)
    else:
        codes, distinct = found
    return codes, list(map(repr, distinct.view(np.float64).tolist()))


def _joined_texts(table: TrialTable, group: list[_Field]) -> tuple | np.ndarray:
    """Code of each row's combination of the texts of the ``group`` fields,
    and the comma-joined text of each combination that occurs, as an object
    array; or the column of a field whose rows are formatted one by one."""
    fields = [field.kind.texts(getattr(table, field.column), table.participant_ids)
              for field in group]
    if fields[0] is None:
        return getattr(table, group[0].column)
    codes, texts = fields[0]
    for more_codes, more_texts in fields[1:]:
        n = len(more_texts)
        codes, pairs = _distinct_codes(codes * n + more_codes)
        texts = [f"{texts[p // n]},{more_texts[p % n]}" for p in pairs.tolist()]
    return codes, np.array(texts, dtype=object)


def write_trial_log(trials: Sequence[Trial], path: str) -> None:
    """Write a UTF-8 CSV log with full round-trip float precision.

    Floats are written as ``repr`` of Python floats, so the bytes do not
    depend on how numpy formats its own scalars. Every field but the
    measured floats is formatted once per distinct value in the table, and
    the fields of a ``_WRITE_GROUPS`` group are joined once per distinct
    combination; the measured floats are formatted row by row. A participant
    id is quoted as ``csv.writer`` would quote it. Lines are written
    ``_CHUNK_ROWS`` rows at a time.
    """
    table = TrialTable.from_trials(trials)
    # the fields of a line in file order: joined texts, or a float column
    parts = [_joined_texts(table, group) for group in _WRITE_GROUPS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRIAL_LOG_HEADER + "\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            fields = [map(repr, part[rows].tolist()) if isinstance(part, np.ndarray)
                      else part[1][part[0][rows]].tolist() for part in parts]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _parse_row(row: list[str], line_no: int) -> None:
    """Parse one row field by field, raising LogFormatError at the first
    bad field; the slow path that names a bad line exactly."""
    if len(row) != len(_FIELDS):
        raise LogFormatError(f"expected {len(_FIELDS)} fields, found {len(row)}", line_no)
    for field, text in zip(_FIELDS, row):
        try:
            np.array(field.kind.parse([text], {}), dtype=field.dtype)
        except (KeyError, OverflowError):
            raise LogFormatError(field.kind.error.format(text), line_no) from None
        except ValueError as exc:
            raise LogFormatError(str(exc), line_no) from None


def _parse_chunk(chunk: list[tuple[list[str], int]], ids: dict[str, int]) -> dict[str, np.ndarray]:
    """Columns of ``chunk``'s (row, line) pairs, each parsed at once; where
    that fails, the rows one by one, for LogFormatError at the first bad row."""
    rows = [row for row, _ in chunk]
    try:
        if all(len(row) == len(_FIELDS) for row in rows):
            texts = zip(*rows) if rows else [()] * len(_FIELDS)
            columns = {field.column: np.array(field.kind.parse(column, ids), dtype=field.dtype)
                       for field, column in zip(_FIELDS, texts)}
            columns["line_numbers"] = np.array([line for _, line in chunk], dtype=np.int64)
            return columns
    except (ValueError, KeyError, OverflowError):
        pass
    for row, line_no in chunk:
        _parse_row(row, line_no)
    raise AssertionError("column parse failed on rows that parse one by one")


#: Characters that send a whole log to the csv reader: numpy's tokenizer
#: drops NUL, and it strips \x1c-\x1f around numbers where int() and float()
#: do not. A quote does too, unless it is csv.writer's quoting of a first
#: field (``_QUOTED_FIRST_FIELD``), and so does a carriage return, unless it
#: is part of a \r\n line ending. So does a character beyond U+FFFF: numpy's
#: loadtxt can crash the interpreter (a segmentation fault) while it words
#: the error for a field that holds one.
_CSV_ONLY = '\0\x1c\x1d\x1e\x1f'
#: A line whose first field is quoted as csv.writer quotes it (quotes
#: doubled, no line break inside, a comma right after) and whose other
#: fields hold no quote: numpy's ``quotechar`` reads it as the csv reader
#: does, but numpy also reads a quote left open at the end of its input.
_QUOTED_FIRST_FIELD = re.compile(r'"[^"\r\n]*(?:""[^"\r\n]*)*",[^"]*')
#: Lines that hold no row, for the csv reader as for numpy's tokenizer.
_BLANK_LINES = ("\n", "\r\n")
#: The header line as read: ended like a blank line, or last in the file.
_HEADER_LINES = (TRIAL_LOG_HEADER, *(TRIAL_LOG_HEADER + end for end in _BLANK_LINES))
#: Characters kept of each text field by numpy's tokenizer, which cuts longer
#: text off without a word; a field this long sends the log to the csv reader.
_TEXT_WIDTH = 32
#: The fields as a chunk is first read, each text field ``kind.width``
#: characters wide, and as it is read again once a text fills its field.
_NARROW_DTYPE, _LOG_DTYPE = (np.dtype([
    (field.column, (np.str_, width or field.kind.width) if field.kind.text else field.dtype)
    for field in _FIELDS]) for width in (0, _TEXT_WIDTH))


def _text_codes(column: np.ndarray, kind: _Kind, ids: dict) -> np.ndarray | None:
    """``kind``'s code of each row's text, parsed once per distinct text in
    order of first appearance; None, before any text is coded, if a text
    fills the column's width and so may have been cut off.

    In a log, a participant id stays the same for hundreds of rows and a
    technique or posture for dozens, so each row is compared once with the
    row before it, and only the first row of each run of equal text is
    turned into a Python string and coded."""
    # the first row of each run, and one past the last row
    edges = np.concatenate(([0], np.flatnonzero(column[1:] != column[:-1]) + 1, [len(column)]))
    texts = column[edges[:-1]].tolist()
    distinct = list(dict.fromkeys(texts))
    if any(len(text) >= column.dtype.itemsize // 4 for text in distinct):  # 4 bytes a character
        return None
    code_of_text = dict(zip(distinct, kind.parse(distinct, ids)))
    codes = np.array(list(map(code_of_text.__getitem__, texts)), dtype=np.int64)
    return np.repeat(codes, edges[1:] - edges[:-1])


def _read_with_loadtxt(fh) -> TrialTable | None:
    """The log body parsed by ``np.loadtxt``, ``_CHUNK_ROWS`` lines at a time,
    with codes taken from the runs of each chunk's text columns. Text fields
    are read ``kind.width`` characters wide until a chunk's text fills one;
    that chunk and the rest of the log are then read ``_TEXT_WIDTH`` wide.
    None wherever the csv reader must decide: a header other than the exact
    one, a log with a ``_CSV_ONLY`` character, a quote other than
    csv.writer's quoting of a first field, a character beyond U+FFFF or a
    carriage return that does not end a ``\r\n`` line, a line longer than
    the csv field limit, a text of ``_TEXT_WIDTH`` characters or more, a
    chunk that numpy or a code lookup rejects, or a log with no rows."""
    if fh.readline() not in _HEADER_LINES:
        return None
    ids: dict[str, int] = {}
    field_limit = csv.field_size_limit()
    parts = []
    line_no = 2
    dtype = _NARROW_DTYPE
    while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
        numbers = np.arange(line_no, line_no + len(lines))
        line_no += len(lines)
        if lines.count("\n") or lines.count("\r\n"):  # blank lines hold no row
            numbers = numbers[[text not in _BLANK_LINES for text in lines]]
        text = "".join(lines)
        if (any(c in text for c in _CSV_ONLY)
                or "\r" in text and text.count("\r") != text.count("\r\n")
                or not text.isascii() and max(text) > "\uffff"
                or len(text) > field_limit and max(map(len, lines)) > field_limit
                or '"' in text and not all(map(_QUOTED_FIRST_FIELD.fullmatch,
                                               (line for line in lines if '"' in line)))):
            return None
        if not len(numbers):
            continue
        for dtype in (dtype, _LOG_DTYPE) if dtype is _NARROW_DTYPE else (dtype,):
            try:
                rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                  quotechar='"', ndmin=1)
                if len(rows) != len(numbers):
                    return None
                # copies, so that the chunk's text fields can be freed
                part = {field.column: _text_codes(rows[field.column], field.kind, ids)
                        if field.kind.text else rows[field.column].copy() for field in _FIELDS}
            except (ValueError, KeyError):
                return None
            if all(codes is not None for codes in part.values()):
                break
        else:
            return None
        part["line_numbers"] = numbers
        parts.append(part)
    if not parts:
        return None
    return TrialTable(ids, **{name: np.concatenate([p[name] for p in parts]) for name in parts[0]})


def read_trial_log(path: str) -> TrialTable:
    """Parse a trial log into a table, raising LogFormatError with the
    1-based line of the first bad row. Blank lines are skipped; every row
    keeps its physical line number in ``line_numbers``.

    numpy's tokenizer reads what it parses exactly as the csv reader does;
    every log it cannot vouch for is read by the csv reader, which decides
    what a log may hold and words every error.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            table = _read_with_loadtxt(fh)
    except UnicodeDecodeError:
        table = None
    return _read_with_csv(path) if table is None else table


def _read_with_csv(path: str) -> TrialTable:
    """``read_trial_log`` through the csv module, whole columns per chunk,
    row by row only to name the first bad row."""
    ids: dict[str, int] = {}
    parts = []
    chunk: list[tuple[list[str], int]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise LogFormatError("empty file, expected header row", 1)
            if header != TRIAL_LOG_HEADER.split(","):  # each name may be quoted
                raise LogFormatError("unexpected header row", 1)
            for row in reader:
                if row:
                    chunk.append((row, reader.line_num))
                    if len(chunk) == _CHUNK_ROWS:
                        parts.append(_parse_chunk(chunk, ids))
                        chunk = []
        except csv.Error as exc:
            _parse_chunk(chunk, ids)  # a bad row before the malformed line comes first
            raise LogFormatError(f"malformed CSV: {exc}", reader.line_num) from None
    parts.append(_parse_chunk(chunk, ids))
    columns = {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}
    return TrialTable(ids, **columns)
