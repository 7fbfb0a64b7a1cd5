"""Fit all four models per condition group, grade the evidence, render reports.

Grading follows the Burnham-Anderson brackets for AIC deltas and the
Raftery brackets for BIC deltas. The published brackets use strict
inequalities on both sides, which leaves the boundary points and the AIC
7-10 range unassigned; here each boundary joins the interval on its
higher-delta side and the 7-10 gap is named explicitly rather than folded
into a neighbor (see the table footnotes).
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .models import (
    MODEL_SPECS,
    AmplitudeMode,
    ModelKind,
    PredictorRow,
    _frozen,
    geometry_for_condition,
    predictors_for,
)
from .regression import (
    Design,
    FitResult,
    fit_result,
    ols_fit,
    partial_f,
    total_sum_of_squares,
)
from .trials import (
    ConditionKey,
    ConditionSummary,
    IncompleteGridError,
    Posture,
    Technique,
    Trial,
    TrialTable,
    collapse_over,
    group_by_condition,
)

MODEL_ORDER = tuple(ModelKind)
#: Each model's place in MODEL_ORDER, the tie-break of the rankings.
_ORDER = {kind: i for i, kind in enumerate(MODEL_ORDER)}
#: Fewest condition cells compared: every model keeps a residual degree of freedom.
_MIN_CELLS = 5

#: Report groups in report order, one per technique, one per posture and one
#: overall: label -> (key field, level, factors collapsed). A group keeps the
#: cells whose key field holds the level (every cell when the field is None)
#: and collapses the listed factors.
_GROUPS: dict[str, tuple[str | None, Technique | Posture | None, tuple[str, ...]]] = {
    **{
        t.value: ("technique", t, ("posture",))
        for t in (Technique.RPRG, Technique.LPLG, Technique.RPLG, Technique.LPRG,
                  Technique.RPDW)
    },
    "All Sit": ("posture", Posture.SITTING, ("technique",)),
    "All Stand": ("posture", Posture.STANDING, ("technique",)),
    "All": (None, None, ("technique", "posture")),
}
TABLE_GROUPS = tuple(_GROUPS)


class Criterion(Enum):
    AIC = "AIC"
    BIC = "BIC"


class AicEvidence(Enum):
    SUBSTANTIAL = "Substantial"
    STRONG = "Strong"
    LESS = "Less"
    INDETERMINATE = "Indeterminate"
    NONE = "None"


class BicEvidence(Enum):
    NONE = "None"
    POSITIVE = "Positive"
    STRONG = "Strong"
    VERY_STRONG = "VeryStrong"


@dataclass(frozen=True)
class EvidenceGrade:
    criterion: Criterion
    delta: float
    grade: AicEvidence | BicEvidence


def grade_delta(criterion: Criterion, delta: float) -> EvidenceGrade:
    """Map an information-criterion delta to its evidence grade."""
    if delta < 0 or math.isnan(delta):
        raise ValueError(f"delta must be non-negative, got {delta}")
    if criterion is Criterion.AIC:
        if delta < 2:
            g: AicEvidence | BicEvidence = AicEvidence.SUBSTANTIAL
        elif delta < 4:
            g = AicEvidence.STRONG
        elif delta < 7:
            g = AicEvidence.LESS
        elif delta <= 10:
            g = AicEvidence.INDETERMINATE
        else:
            g = AicEvidence.NONE
    else:
        if delta < 2:
            g = BicEvidence.NONE
        elif delta < 6:
            g = BicEvidence.POSITIVE
        elif delta < 10:
            g = BicEvidence.STRONG
        else:
            g = BicEvidence.VERY_STRONG
    return _frozen(EvidenceGrade, criterion=criterion, delta=delta, grade=g)


@dataclass(frozen=True)
class ComparisonReport:
    """All four fits for one condition group, ranked under both criteria."""

    group_label: str
    amplitude_mode: AmplitudeMode
    n_cells: int
    fits: Mapping[ModelKind, FitResult]
    delta_aic: Mapping[ModelKind, float]
    delta_bic: Mapping[ModelKind, float]
    aic_grades: Mapping[ModelKind, EvidenceGrade]
    bic_grades: Mapping[ModelKind, EvidenceGrade]
    ranking_aic: tuple[ModelKind, ...]
    ranking_bic: tuple[ModelKind, ...]
    equations: Mapping[ModelKind, str]
    nested_f_vs_standard: Mapping[ModelKind, tuple[float, float] | None]

    def best(self, criterion: Criterion) -> ModelKind:
        return (self.ranking_aic if criterion is Criterion.AIC else self.ranking_bic)[0]


def _cell_rows(kind: ModelKind, amplitude_mode: AmplitudeMode,
               cells: Sequence[tuple[float, float, float]],
               responses: Sequence[float]) -> list[PredictorRow]:
    """One model's plain rows over (W, D, H) cells, computed afresh; a
    geometry error names the first bad cell."""
    return [
        PredictorRow(predictors_for(kind, geometry_for_condition(*cell, amplitude_mode)), y)
        for cell, y in zip(cells, responses)
    ]


@functools.lru_cache(maxsize=256)
def _cell_design(kind: ModelKind, amplitude_mode: AmplitudeMode,
                 cells: tuple[tuple[float, float, float], ...]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (x, q, r) of one model's design over sorted (W, D, H)
    cells: every report group of a study repeats the same few designs. A
    geometry error or a design that cannot be fitted raises on every call:
    an exception is not cached."""
    design = Design.from_rows(_cell_rows(kind, amplitude_mode, cells, [0.0] * len(cells)))
    return design.x, design.q, design.r


_geometry = operator.attrgetter("width_m", "distance_m", "height_m")
_mean_mt = operator.attrgetter("mean_mt_s")
_cell, _response = operator.itemgetter(0), operator.itemgetter(1)


@dataclass(frozen=True)
class CellResponse:
    """The response of one group's cells, which its four models share: the
    cells' (W, D, H) in sorted order, cells of one geometry in their given
    order, the read-only cell means ``y`` in that order, their
    ``regression.total_sum_of_squares`` ``tss``, and whether every mean is
    finite."""

    cells: tuple[tuple[float, float, float], ...]
    y: np.ndarray
    tss: float
    finite: bool

    @classmethod
    def from_summaries(cls, summaries: Mapping[ConditionKey, ConditionSummary]
                       ) -> "CellResponse":
        items = sorted(zip(map(_geometry, summaries), map(_mean_mt, summaries.values())),
                       key=_cell)
        means = list(map(_response, items))
        y = np.array(means, dtype=float)
        y.flags.writeable = False
        return _frozen(cls, cells=tuple(map(_cell, items)), y=y, tss=total_sum_of_squares(y),
                       finite=all(map(math.isfinite, means)))


def rows_for_model(
    kind: ModelKind,
    response: CellResponse,
    amplitude_mode: AmplitudeMode,
) -> Design:
    """One model's design over the response's cells, in their order, with
    the response's ``y`` and ``tss``. Raises the errors of
    ``Design.from_rows`` on the cells' rows, and ValueError on a cell
    geometry the model cannot take."""
    if not response.finite:  # raises, naming the first bad cell or row
        return Design.from_rows(
            _cell_rows(kind, amplitude_mode, response.cells, response.y.tolist()))
    x, q, r = _cell_design(kind, amplitude_mode, response.cells)
    return Design(x, response.y, q, r, response.tss)


def compare_models(
    summaries: Mapping[ConditionKey, ConditionSummary],
    amplitude_mode: AmplitudeMode = AmplitudeMode.EUCLIDEAN,
    group_label: str = "All",
) -> ComparisonReport:
    """Fit every model on one group's condition means and grade the deltas.

    The cells are sorted and the response built once, and the four models'
    designs share it; only the predictors differ. A fit whose sums of
    squares overflow raises ValueError naming the group, the amplitude mode
    and the model, the Standard model first.
    """
    if len(summaries) < _MIN_CELLS:
        raise ValueError(
            f"need at least {_MIN_CELLS} condition cells for a nonzero-df comparison, "
            f"got {len(summaries)}"
        )
    response = CellResponse.from_summaries(summaries)
    fits: dict[ModelKind, FitResult] = {}
    for kind in MODEL_ORDER:
        rows = rows_for_model(kind, response, amplitude_mode)
        try:
            fits[kind] = ols_fit(rows)
        except OverflowError as exc:
            raise ValueError(f"group {group_label!r} ({amplitude_mode.value}): the "
                             f"{kind.value} fit's {exc}") from None
    return build_report(group_label, amplitude_mode, fits)


def build_report(
    group_label: str, amplitude_mode: AmplitudeMode, fits: Mapping[ModelKind, FitResult]
) -> ComparisonReport:
    """Everything a report derives from its four fits: the cell count, the
    deltas, grades and rankings, the equations and the nested F tests."""
    standard = fits[ModelKind.STANDARD]
    nested: dict[ModelKind, tuple[float, float] | None] = {ModelKind.STANDARD: None}
    for kind in (ModelKind.TWO_PART, ModelKind.VERGENCE, ModelKind.PROPOSED):
        nested[kind] = partial_f(fits[kind], standard)
    best_aic = min(f.aic for f in fits.values())
    best_bic = min(f.bic for f in fits.values())
    delta_aic, delta_bic, aic_grades, bic_grades, equations = {}, {}, {}, {}, {}
    for kind, fit in fits.items():
        d = delta_aic[kind] = 0.0 if fit.aic == best_aic else fit.aic - best_aic
        aic_grades[kind] = grade_delta(Criterion.AIC, d)
        d = delta_bic[kind] = 0.0 if fit.bic == best_bic else fit.bic - best_bic
        bic_grades[kind] = grade_delta(Criterion.BIC, d)
        equations[kind] = MODEL_SPECS[kind].short_equation(fit.coefficients)

    return _frozen(
        ComparisonReport,
        group_label=group_label,
        amplitude_mode=amplitude_mode,
        n_cells=standard.n,
        fits=fits,
        delta_aic=delta_aic,
        delta_bic=delta_bic,
        aic_grades=aic_grades,
        bic_grades=bic_grades,
        ranking_aic=tuple(sorted(fits, key=lambda k: (fits[k].aic, _ORDER[k]))),
        ranking_bic=tuple(sorted(fits, key=lambda k: (fits[k].bic, _ORDER[k]))),
        equations=equations,
        nested_f_vs_standard=nested,
    )


def group_summaries(
    summaries: Mapping[ConditionKey, ConditionSummary],
    group_label: str,
    pooled: bool = False,
) -> dict[ConditionKey, ConditionSummary]:
    """Select and collapse the cells belonging to one report group."""
    if group_label not in _GROUPS:
        raise ValueError(f"unknown group label: {group_label}")
    field, level, collapsed = _GROUPS[group_label]
    if field is not None:
        summaries = {k: s for k, s in summaries.items() if getattr(k, field) is level}
    return collapse_over(summaries, collapsed, pooled=pooled)


def table1_cells(
    trials: Sequence[Trial], pooled: bool = False
) -> dict[str, dict[ConditionKey, ConditionSummary]]:
    """The collapsed cells of every report group, in report order, from one
    group-by; the amplitude mode changes only the predictors, so one set of
    cells serves every mode.

    The cells of a :class:`TrialTable` are collapsed once per ``pooled``
    value and kept on the table; each call returns new dicts of them.

    Raises IncompleteGridError naming every technique or posture group
    without cells, techniques first, each in declaration order.
    """
    table = TrialTable.from_trials(trials)
    cells = table._report_cells.get(pooled)
    if cells is None:
        summaries = group_by_condition(table)
        empty = {
            level: label
            for label, (field, level, _) in _GROUPS.items()
            if field is not None and all(getattr(k, field) is not level for k in summaries)
        }
        if empty:
            raise IncompleteGridError([empty[v] for v in (*Technique, *Posture) if v in empty])
        cells = table._report_cells[pooled] = {
            label: group_summaries(summaries, label, pooled=pooled) for label in TABLE_GROUPS
        }
    return {label: dict(group) for label, group in cells.items()}


def run_table1_suite(
    trials: Sequence[Trial],
    amplitude_mode: AmplitudeMode = AmplitudeMode.EUCLIDEAN,
    pooled: bool = False,
) -> list[ComparisonReport]:
    """The full 8-group comparison: per technique, per posture, and overall
    (see :func:`table1_cells` for the incomplete-grid error)."""
    return [
        compare_models(cells, amplitude_mode, group_label=label)
        for label, cells in table1_cells(trials, pooled).items()
    ]


# --- rendering ---------------------------------------------------------

_TABLE_FOOTNOTES = (
    "Evidence brackets assign each boundary delta to the higher-delta side "
    "(AIC: <2 Substantial, 2-4 Strong, 4-7 Less, 7-10 Indeterminate, >10 None; "
    "BIC: <2 None, 2-6 Positive, 6-10 Strong, >=10 VeryStrong).",
    "The AIC 7-10 range is reported as Indeterminate: the published brackets "
    "leave it unnamed.",
)


def _fmt(x: float, digits: int = 2) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.{digits}f}"


def _fmt_p(p: float) -> str:
    if p < 0.001:
        return "p<0.001"
    if p < 0.01:
        return "p<0.01"
    if p < 0.05:
        return "p<0.05"
    return f"p={p:.3f}"


def render_table(reports: Sequence[ComparisonReport]) -> str:
    """Aligned human-readable comparison table, one block per model."""
    header = ["Model", "Condition", "Mode", "F-stat", "p-val", "F vs Std", "R2",
              "Adj R2", "AIC", "BIC", "dAIC", "dBIC", "AIC evid", "BIC evid",
              "Equation"]
    rows: list[list[str]] = []
    for kind in MODEL_ORDER:
        for rep in reports:
            fit = rep.fits[kind]
            nested = rep.nested_f_vs_standard[kind]
            rows.append([
                kind.value,
                rep.group_label,
                rep.amplitude_mode.value,
                _fmt(fit.f_stat),
                _fmt_p(fit.p_value),
                "-" if nested is None else _fmt(nested[0]),
                _fmt(fit.r2),
                _fmt(fit.adj_r2),
                _fmt(fit.aic),
                _fmt(fit.bic),
                _fmt(rep.delta_aic[kind]),
                _fmt(rep.delta_bic[kind]),
                rep.aic_grades[kind].grade.value,
                rep.bic_grades[kind].grade.value,
                rep.equations[kind],
            ])
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    lines.append("")
    for note in _TABLE_FOOTNOTES:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _record(rep: ComparisonReport, kind: ModelKind) -> dict:
    """The JSON record of one model in one report."""
    fit = rep.fits[kind]
    nested = rep.nested_f_vs_standard[kind]
    return {
        "group": rep.group_label,
        "amplitude_mode": rep.amplitude_mode.value,
        "n_cells": rep.n_cells,
        "model": kind.value,
        "fit": vars(fit),
        "delta_aic": rep.delta_aic[kind],
        "delta_bic": rep.delta_bic[kind],
        "aic_grade": rep.aic_grades[kind].grade.value,
        "bic_grade": rep.bic_grades[kind].grade.value,
        "rank_aic": rep.ranking_aic.index(kind),
        "rank_bic": rep.ranking_bic.index(kind),
        "equation": rep.equations[kind],
        "equation_signed": MODEL_SPECS[kind].signed_equation(fit.coefficients),
        "nested_f_vs_standard": None if nested is None else list(nested),
    }


def render_records(reports: Sequence[ComparisonReport]) -> str:
    """Machine-readable report: one JSON record per model x group."""
    return "".join(json.dumps(_record(rep, kind), sort_keys=True) + "\n"
                   for rep in reports for kind in MODEL_ORDER)


#: The independent values of a fit, in fit_result's order, with their JSON types.
_FIT_SCHEMA = {"coefficients": list, "rss": float, "r2": float, "n": int, "p": int}


def _field(obj: dict, name: str, kind: type, where: str):
    """``obj[name]``, which must have JSON type ``kind``; an Enum is read by value."""
    if name not in obj:
        raise ValueError(f"{where}: missing field {name!r}")
    value = obj[name]
    if issubclass(kind, Enum):
        if type(value) is str:
            try:
                return kind(value)
            except ValueError:
                pass
        allowed = [m.value for m in kind]
        raise ValueError(f"{where}: field {name!r} must be one of {allowed}, got {value!r}")
    if type(value) is not kind:
        raise ValueError(f"{where}: field {name!r} has the wrong type ({value!r})")
    return value


def _read_record(rec: object, where: str) -> tuple:
    """(group, mode, model, the five fit values) of one record, each of its
    JSON type, with the model's predictor and coefficient counts."""
    if type(rec) is not dict:
        raise ValueError(f"{where}: expected a JSON object, got {type(rec).__name__}")
    group = _field(rec, "group", str, where)
    mode = _field(rec, "amplitude_mode", AmplitudeMode, where)
    kind = _field(rec, "model", ModelKind, where)
    fit = _field(rec, "fit", dict, where)
    where = f"{where}, fit"
    values = tuple(_field(fit, name, t, where) for name, t in _FIT_SCHEMA.items())
    coefficients, *_, p = values
    count = MODEL_SPECS[kind].predictor_count
    if p != count or len(coefficients) != p + 1 or any(type(c) is not float for c in coefficients):
        raise ValueError(f"{where}: {kind.value} needs p = {count} and {count + 1} float "
                         f"coefficients, got p = {p} and {coefficients!r}")
    return group, mode, kind, values


def _first_difference(got: dict, want: dict) -> tuple[str, str, str]:
    """(dotted name, JSON got, JSON wanted) of the first field, in key order,
    where two differing records differ."""
    for key in sorted(got.keys() | want.keys()):
        a, b = (json.dumps(d[key], sort_keys=True) if key in d else "absent"
                for d in (got, want))
        if a != b:
            if type(got.get(key)) is dict and type(want.get(key)) is dict:
                name, a, b = _first_difference(got[key], want[key])
                return f"{key}.{name}", a, b
            return key, a, b
    raise AssertionError("the records do not differ")


def parse_records(text: str) -> list[ComparisonReport]:
    """Rebuild reports from the record stream; inverse of render_records.

    Only the labels and each fit's coefficients, rss, r2, n and p are read;
    each group is rebuilt from its four fits by :func:`build_report`, and
    every record must be exactly the one render_records writes for it.
    Raises ValueError naming the line on a record that is not JSON, lacks a
    field read or gives it the wrong type, repeats its group and model,
    names a group outside TABLE_GROUPS, has a fit the five values cannot
    describe, or differs from its rebuilt record; on a group without all
    four models or one shared n; and on a stream with no records.
    """
    return _parse_records(text)[0]


def parse_compare_records(text: str) -> list[ComparisonReport]:
    """:func:`parse_records` for a stream that ``compare`` could have written:
    for each amplitude mode it holds, in AmplitudeMode order, every group of
    TABLE_GROUPS in that order, each as its four records in MODEL_ORDER.
    Raises ValueError naming the first record out of that place, or the
    first one missing at the end of the stream.
    """
    reports, layout = _parse_records(text)
    modes = [m for m in AmplitudeMode if any(mode is m for _, mode, _, _ in layout)]
    expected = [(m, g, k) for m in modes for g in TABLE_GROUPS for k in MODEL_ORDER]

    def name(mode: AmplitudeMode, group: str, kind: ModelKind) -> str:
        return f"the {kind.value} record of group {group!r} ({mode.value})"

    for (line_no, *got), want in zip(layout, expected):
        if tuple(got) != want:
            raise ValueError(f"record on line {line_no}: compare writes {name(*want)} here, "
                             f"not {name(*got)}")
    if len(layout) < len(expected):
        raise ValueError(f"the stream ends on line {layout[-1][0]}, before "
                         f"{name(*expected[len(layout)])} that compare writes next")
    return reports


def _parse_records(
    text: str,
) -> tuple[list[ComparisonReport], list[tuple[int, AmplitudeMode, str, ModelKind]]]:
    """The reports of :func:`parse_records`, and the line number, mode,
    group and model of each record in stream order."""
    groups: dict[tuple[str, AmplitudeMode], dict[ModelKind, tuple]] = {}
    layout = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"record on line {line_no}"
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and an integer past int's digit limit
            raise ValueError(f"{where}: invalid JSON ({exc})") from None
        group, mode, kind, values = _read_record(rec, where)
        models = groups.setdefault((group, mode), {})
        if kind in models:
            raise ValueError(f"{where} repeats the {kind.value} record of group "
                             f"{group!r} ({mode.value}) on line {models[kind][0]}")
        models[kind] = (line_no, line, rec, values)
        layout.append((line_no, mode, group, kind))
    if not groups:
        raise ValueError("the record stream holds no records")

    reports = []
    for (group, mode), models in groups.items():
        lines = [line_no for line_no, *_ in models.values()]
        if group not in _GROUPS:
            raise ValueError(f"record on line {lines[0]}: field 'group' must be one of "
                             f"{list(TABLE_GROUPS)}, got {group!r}")
        where = f"records on lines {', '.join(map(str, lines))}"
        missing = [k.value for k in MODEL_ORDER if k not in models]
        if missing:
            raise ValueError(f"{where}: group {group!r} ({mode.value}) misses models {missing}")
        cells = {values[3] for *_, values in models.values()}  # each fit's n
        if len(cells) > 1 or min(cells) < _MIN_CELLS:
            raise ValueError(f"{where}: the four fits need one shared n of at least "
                             f"{_MIN_CELLS}, got {sorted(cells)}")
        fits = {}
        for kind in MODEL_ORDER:
            line_no, *_, values = models[kind]
            try:
                fits[kind] = fit_result(*values)
            except (ValueError, ArithmeticError) as exc:  # OverflowError: n past float range
                raise ValueError(f"record on line {line_no}: {exc}") from None
        try:
            report = build_report(group, mode, fits)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        for kind, (line_no, line, rec, _) in models.items():
            want = _record(report, kind)
            dumped = json.dumps(want, sort_keys=True)  # a record as compare writes it
            if line != dumped and json.dumps(rec, sort_keys=True) != dumped:
                name, got, wanted = _first_difference(rec, want)
                raise ValueError(f"record on line {line_no}: field {name!r} is {got}, "
                                 f"but its fits give {wanted}")
        reports.append(report)
    return reports, layout
