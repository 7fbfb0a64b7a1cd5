"""Fit all four models per condition group, grade the evidence, render reports.

Grading follows the Burnham-Anderson brackets for AIC deltas and the
Raftery brackets for BIC deltas. The published brackets use strict
inequalities on both sides, which leaves the boundary points and the AIC
7-10 range unassigned; here each boundary joins the interval on its
higher-delta side and the 7-10 gap is named explicitly rather than folded
into a neighbor (see the table footnotes).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .models import (
    MODEL_SPECS,
    AmplitudeMode,
    ModelKind,
    PredictorRow,
    geometry_for_condition,
    predictors_for,
)
from .regression import FitResult, ols_fit, partial_f
from .trials import (
    ConditionKey,
    ConditionSummary,
    IncompleteGridError,
    Posture,
    Technique,
    Trial,
    collapse_over,
    group_by_condition,
)

MODEL_ORDER = tuple(ModelKind)

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
    return EvidenceGrade(criterion, delta, g)


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


def rows_for_model(
    kind: ModelKind,
    summaries: Mapping[ConditionKey, ConditionSummary],
    amplitude_mode: AmplitudeMode,
) -> list[PredictorRow]:
    rows = []
    for key in sorted(summaries, key=lambda k: (k.width_m, k.distance_m, k.height_m)):
        s = summaries[key]
        g = geometry_for_condition(key.width_m, key.distance_m, key.height_m, amplitude_mode)
        rows.append(PredictorRow(predictors_for(kind, g), s.mean_mt_s))
    return rows


def _deltas(values: Mapping[ModelKind, float]) -> dict[ModelKind, float]:
    best = min(values.values())
    out = {}
    for kind, v in values.items():
        out[kind] = 0.0 if v == best else v - best
    return out


def _ranking(values: Mapping[ModelKind, float]) -> tuple[ModelKind, ...]:
    order = {kind: i for i, kind in enumerate(MODEL_ORDER)}
    return tuple(sorted(values, key=lambda k: (values[k], order[k])))


def compare_models(
    summaries: Mapping[ConditionKey, ConditionSummary],
    amplitude_mode: AmplitudeMode = AmplitudeMode.EUCLIDEAN,
    group_label: str = "All",
) -> ComparisonReport:
    """Fit every model on one group's condition means and grade the deltas.

    The response vector is shared across models; only the predictors differ.
    """
    if len(summaries) < 5:
        raise ValueError(
            f"need at least 5 condition cells for a nonzero-df comparison, "
            f"got {len(summaries)}"
        )
    fits: dict[ModelKind, FitResult] = {}
    for kind in MODEL_ORDER:
        rows = rows_for_model(kind, summaries, amplitude_mode)
        fits[kind] = ols_fit(rows)

    delta_aic = _deltas({k: f.aic for k, f in fits.items()})
    delta_bic = _deltas({k: f.bic for k, f in fits.items()})
    nested: dict[ModelKind, tuple[float, float] | None] = {ModelKind.STANDARD: None}
    for kind in (ModelKind.TWO_PART, ModelKind.VERGENCE, ModelKind.PROPOSED):
        nested[kind] = partial_f(fits[kind], fits[ModelKind.STANDARD])

    return ComparisonReport(
        group_label=group_label,
        amplitude_mode=amplitude_mode,
        n_cells=len(summaries),
        fits=fits,
        delta_aic=delta_aic,
        delta_bic=delta_bic,
        aic_grades={k: grade_delta(Criterion.AIC, d) for k, d in delta_aic.items()},
        bic_grades={k: grade_delta(Criterion.BIC, d) for k, d in delta_bic.items()},
        ranking_aic=_ranking({k: f.aic for k, f in fits.items()}),
        ranking_bic=_ranking({k: f.bic for k, f in fits.items()}),
        equations={k: MODEL_SPECS[k].equations(f.coefficients)[0] for k, f in fits.items()},
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

    Raises IncompleteGridError naming every technique or posture group
    without cells, techniques first, each in declaration order.
    """
    summaries = group_by_condition(trials)
    empty = {
        level: label
        for label, (field, level, _) in _GROUPS.items()
        if field is not None and all(getattr(k, field) is not level for k in summaries)
    }
    if empty:
        raise IncompleteGridError([empty[v] for v in (*Technique, *Posture) if v in empty])
    return {label: group_summaries(summaries, label, pooled=pooled) for label in TABLE_GROUPS}


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
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    lines.append("")
    for note in _TABLE_FOOTNOTES:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _fit_to_dict(fit: FitResult) -> dict:
    return {
        "coefficients": list(fit.coefficients),
        "rss": fit.rss,
        "r2": fit.r2,
        "adj_r2": fit.adj_r2,
        "f_stat": fit.f_stat,
        "p_value": fit.p_value,
        "aic": fit.aic,
        "bic": fit.bic,
        "n": fit.n,
        "p": fit.p,
    }


def _fit_from_dict(d: dict) -> FitResult:
    return FitResult(
        coefficients=tuple(d["coefficients"]),
        rss=d["rss"],
        r2=d["r2"],
        adj_r2=d["adj_r2"],
        f_stat=d["f_stat"],
        p_value=d["p_value"],
        aic=d["aic"],
        bic=d["bic"],
        n=d["n"],
        p=d["p"],
    )


def render_records(reports: Sequence[ComparisonReport]) -> str:
    """Machine-readable report: one JSON record per model x group."""
    lines = []
    for rep in reports:
        for kind in MODEL_ORDER:
            nested = rep.nested_f_vs_standard[kind]
            record = {
                "group": rep.group_label,
                "amplitude_mode": rep.amplitude_mode.value,
                "n_cells": rep.n_cells,
                "model": kind.value,
                "fit": _fit_to_dict(rep.fits[kind]),
                "delta_aic": rep.delta_aic[kind],
                "delta_bic": rep.delta_bic[kind],
                "aic_grade": rep.aic_grades[kind].grade.value,
                "bic_grade": rep.bic_grades[kind].grade.value,
                "rank_aic": rep.ranking_aic.index(kind),
                "rank_bic": rep.ranking_bic.index(kind),
                "equation": rep.equations[kind],
                "equation_signed": MODEL_SPECS[kind].equations(
                    rep.fits[kind].coefficients
                )[1],
                "nested_f_vs_standard": None if nested is None else list(nested),
            }
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


_NUMBER = (int, float)

#: Type of every record field that parse_records reads. Other fields (the
#: grades and the signed equation) are derived data and are not read back.
_RECORD_SCHEMA = {
    "group": str,
    "amplitude_mode": str,
    "n_cells": int,
    "model": str,
    "fit": dict,
    "delta_aic": _NUMBER,
    "delta_bic": _NUMBER,
    "rank_aic": int,
    "rank_bic": int,
    "equation": str,
    "nested_f_vs_standard": (list, type(None)),
}
_FIT_SCHEMA = {
    "coefficients": list,
    "rss": _NUMBER,
    "r2": _NUMBER,
    "adj_r2": _NUMBER,
    "f_stat": _NUMBER,
    "p_value": _NUMBER,
    "aic": _NUMBER,
    "bic": _NUMBER,
    "n": int,
    "p": int,
}


def _check_fields(obj: object, schema: Mapping[str, type | tuple], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for name, types in schema.items():
        if name not in obj:
            raise ValueError(f"{where}: missing field {name!r}")
        value = obj[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{where}: field {name!r} has the wrong type ({value!r})")
        if types is _NUMBER:
            _check_float_range([value], f"{where}: field {name!r}")


def _check_float_range(numbers: list, what: str) -> None:
    """JSON integers have no size limit; one beyond the float range would
    raise OverflowError wherever the report does arithmetic with it."""
    for x in numbers:
        try:
            float(x)
        except OverflowError:
            raise ValueError(f"{what} holds a number too large for a float") from None


def _check_record(rec: object, line_no: int) -> None:
    """Raise ValueError naming the line unless ``rec`` has every field that
    parse_records reads, with the right JSON type."""
    where = f"record on line {line_no}"
    _check_fields(rec, _RECORD_SCHEMA, where)
    _check_fields(rec["fit"], _FIT_SCHEMA, f"{where}, fit")
    numbers = list(rec["fit"]["coefficients"])
    if rec["nested_f_vs_standard"] is not None:
        if len(rec["nested_f_vs_standard"]) != 2:
            raise ValueError(f"{where}: nested_f_vs_standard must hold two numbers")
        numbers += rec["nested_f_vs_standard"]
    if any(isinstance(x, bool) or not isinstance(x, _NUMBER) for x in numbers):
        raise ValueError(f"{where}: coefficients and nested F must be numbers")
    _check_float_range(numbers, f"{where}: coefficients or nested F")


def parse_records(text: str) -> list[ComparisonReport]:
    """Rebuild reports from the record stream; inverse of render_records.

    Raises ValueError, naming the line, on a record that is not JSON or
    lacks a field or gives it the wrong type, and on a stream with no records.
    """
    by_group: dict[tuple[str, str], dict[ModelKind, dict]] = {}
    group_order: list[tuple[str, str]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and an integer past int's digit limit
            raise ValueError(f"record on line {line_no}: invalid JSON ({exc})") from None
        _check_record(rec, line_no)
        gkey = (rec["group"], rec["amplitude_mode"])
        if gkey not in by_group:
            by_group[gkey] = {}
            group_order.append(gkey)
        by_group[gkey][ModelKind(rec["model"])] = rec
    if not by_group:
        raise ValueError("the record stream holds no records")

    reports = []
    for gkey in group_order:
        records = by_group[gkey]
        if set(records) != set(MODEL_ORDER):
            missing = [k.value for k in MODEL_ORDER if k not in records]
            raise ValueError(f"records for group {gkey[0]} missing models: {missing}")
        fits = {k: _fit_from_dict(records[k]["fit"]) for k in MODEL_ORDER}
        delta_aic = {k: records[k]["delta_aic"] for k in MODEL_ORDER}
        delta_bic = {k: records[k]["delta_bic"] for k in MODEL_ORDER}
        rank_aic = sorted(MODEL_ORDER, key=lambda k: records[k]["rank_aic"])
        rank_bic = sorted(MODEL_ORDER, key=lambda k: records[k]["rank_bic"])
        nested = {
            k: None if records[k]["nested_f_vs_standard"] is None
            else tuple(records[k]["nested_f_vs_standard"])
            for k in MODEL_ORDER
        }
        any_rec = records[ModelKind.STANDARD]
        reports.append(
            ComparisonReport(
                group_label=any_rec["group"],
                amplitude_mode=AmplitudeMode(any_rec["amplitude_mode"]),
                n_cells=any_rec["n_cells"],
                fits=fits,
                delta_aic=delta_aic,
                delta_bic=delta_bic,
                aic_grades={k: grade_delta(Criterion.AIC, d) for k, d in delta_aic.items()},
                bic_grades={k: grade_delta(Criterion.BIC, d) for k, d in delta_bic.items()},
                ranking_aic=tuple(rank_aic),
                ranking_bic=tuple(rank_bic),
                equations={k: records[k]["equation"] for k in MODEL_ORDER},
                nested_f_vs_standard=nested,
            )
        )
    return reports
