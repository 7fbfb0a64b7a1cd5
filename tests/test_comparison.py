import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telefitts.trials import (
    ConditionKey,
    ConditionSummary,
    IncompleteGridError,
    Posture,
    Technique,
    group_by_condition,
)
from telefitts.models import (
    AmplitudeMode,
    MODEL_SPECS,
    ModelKind,
    geometry_for_condition,
    predict_mt,
)
from telefitts import comparison, regression
from telefitts.regression import ols_fit
from telefitts.comparison import (
    TABLE_GROUPS,
    AicEvidence,
    BicEvidence,
    Criterion,
    compare_models,
    grade_delta,
    parse_records,
    render_records,
    render_table,
    run_table1_suite,
    table1_cells,
)

from oracles import fit_rows, uncached_cell_fit, uncached_cell_rows

GRID = [
    (w, d, h) for w in (0.2, 1.35) for d in (3.0, 9.0) for h in (0.0, 3.0)
]


def sorted_cells(summaries):
    """The (W, D, H) cells of ``summaries`` in the order compare_models fits them."""
    return tuple(sorted((k.width_m, k.distance_m, k.height_m) for k in summaries))


def summaries_from_model(kind: ModelKind, coefficients, mode=AmplitudeMode.EUCLIDEAN,
                         bump=None):
    out = {}
    for i, (w, d, h) in enumerate(GRID):
        g = geometry_for_condition(w, d, h, mode)
        mt = predict_mt(kind, coefficients, g)
        if bump is not None:
            mt += bump[i]
        key = ConditionKey(None, None, w, d, h)
        out[key] = ConditionSummary(key, 10, mt)
    return out


class TestGradeDelta:
    # the exhaustive boundary table for both criteria
    AIC_CASES = [
        (0.0, AicEvidence.SUBSTANTIAL),
        (1.99, AicEvidence.SUBSTANTIAL),
        (2.0, AicEvidence.STRONG),
        (3.99, AicEvidence.STRONG),
        (4.0, AicEvidence.LESS),
        (6.0, AicEvidence.LESS),
        (6.99, AicEvidence.LESS),
        (7.0, AicEvidence.INDETERMINATE),
        (10.0, AicEvidence.INDETERMINATE),
        (10.01, AicEvidence.NONE),
    ]
    BIC_CASES = [
        (0.0, BicEvidence.NONE),
        (1.99, BicEvidence.NONE),
        (2.0, BicEvidence.POSITIVE),
        (3.99, BicEvidence.POSITIVE),
        (4.0, BicEvidence.POSITIVE),
        (6.0, BicEvidence.STRONG),
        (6.99, BicEvidence.STRONG),
        (7.0, BicEvidence.STRONG),
        (10.0, BicEvidence.VERY_STRONG),
        (10.01, BicEvidence.VERY_STRONG),
    ]

    @pytest.mark.parametrize("delta,expected", AIC_CASES)
    def test_aic_brackets(self, delta, expected):
        assert grade_delta(Criterion.AIC, delta).grade is expected

    @pytest.mark.parametrize("delta,expected", BIC_CASES)
    def test_bic_brackets(self, delta, expected):
        assert grade_delta(Criterion.BIC, delta).grade is expected

    def test_large_delta_is_no_evidence(self):
        assert grade_delta(Criterion.AIC, 11.0).grade is AicEvidence.NONE

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            grade_delta(Criterion.AIC, -0.1)

    @given(lo=st.floats(0, 50), hi=st.floats(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_monotone_weakening(self, lo, hi):
        # a larger delta never earns a stronger-evidence grade
        if lo > hi:
            lo, hi = hi, lo
        aic_order = list(AicEvidence)
        g_lo = grade_delta(Criterion.AIC, lo).grade
        g_hi = grade_delta(Criterion.AIC, hi).grade
        assert aic_order.index(g_lo) <= aic_order.index(g_hi)
        bic_order = list(BicEvidence)
        b_lo = grade_delta(Criterion.BIC, lo).grade
        b_hi = grade_delta(Criterion.BIC, hi).grade
        assert bic_order.index(b_lo) <= bic_order.index(b_hi)


class TestCompareModels:
    def test_noiseless_proposed_wins_with_zero_rss(self):
        summaries = summaries_from_model(ModelKind.PROPOSED, (-2.46, 1.21, 3.00))
        report = compare_models(summaries, group_label="All")
        assert report.ranking_aic[0] is ModelKind.PROPOSED
        assert report.fits[ModelKind.PROPOSED].rss == pytest.approx(0.0, abs=1e-18)

    def test_constant_response_ties_break_by_declaration_order(self):
        key_values = {}
        for w, d, h in GRID:
            key = ConditionKey(None, None, w, d, h)
            key_values[key] = ConditionSummary(key, 10, 2.5)
        report = compare_models(key_values, group_label="All")
        assert all(v == 0.0 for v in report.delta_aic.values())
        assert report.ranking_aic == tuple(ModelKind)
        assert report.ranking_bic == tuple(ModelKind)

    def test_published_delta_arithmetic(self):
        # subtracting the smallest AIC from a published-style quadruple
        aics = {
            ModelKind.PROPOSED: 10.59,
            ModelKind.STANDARD: 12.18,
            ModelKind.TWO_PART: 12.65,
            ModelKind.VERGENCE: 13.64,
        }
        best = min(aics.values())
        deltas = {k: v - best for k, v in aics.items()}
        assert deltas[ModelKind.PROPOSED] == pytest.approx(0.0)
        assert deltas[ModelKind.STANDARD] == pytest.approx(1.59)
        assert deltas[ModelKind.TWO_PART] == pytest.approx(2.06)
        assert deltas[ModelKind.VERGENCE] == pytest.approx(3.05)

    def test_requires_five_cells(self):
        summaries = summaries_from_model(ModelKind.STANDARD, (-0.41, 0.83))
        small = dict(list(summaries.items())[:4])
        with pytest.raises(ValueError, match="at least 5"):
            compare_models(small)

    def test_exactly_one_zero_delta_per_criterion(self):
        rng_bumps = [0.01, -0.02, 0.03, 0.015, -0.01, 0.005, -0.03, 0.02]
        summaries = summaries_from_model(
            ModelKind.STANDARD, (-0.41, 0.83), bump=rng_bumps
        )
        report = compare_models(summaries)
        assert sum(1 for v in report.delta_aic.values() if v == 0.0) == 1
        assert sum(1 for v in report.delta_bic.values() if v == 0.0) == 1

    def test_response_shift_moves_only_the_intercept(self):
        bumps = [0.02, -0.01, 0.005, 0.03, -0.02, 0.01, -0.005, 0.015]
        base = summaries_from_model(ModelKind.STANDARD, (-0.41, 0.83), bump=bumps)
        shifted = summaries_from_model(
            ModelKind.STANDARD, (-0.41 + 5.0, 0.83), bump=bumps
        )
        rep_a = compare_models(base)
        rep_b = compare_models(shifted)
        for kind in ModelKind:
            fa, fb = rep_a.fits[kind], rep_b.fits[kind]
            assert fa.coefficients[1:] == pytest.approx(fb.coefficients[1:], rel=1e-9, abs=1e-9)
            assert fb.coefficients[0] - fa.coefficients[0] == pytest.approx(5.0, rel=1e-9)
            assert fa.rss == pytest.approx(fb.rss, rel=1e-6, abs=1e-12)
            assert rep_a.delta_aic[kind] == pytest.approx(rep_b.delta_aic[kind], abs=1e-6)
        assert rep_a.ranking_aic == rep_b.ranking_aic

    @pytest.mark.parametrize("slope, which", [
        (1e155, "total"),  # the squared residuals stay finite
        (1e170, "residual"),  # both overflow: the residual is checked first
    ])
    def test_sum_of_squares_overflow_names_the_group_and_the_standard_fit(self, slope,
                                                                            which):
        summaries = summaries_from_model(ModelKind.STANDARD, (0.3, slope))
        means = [s.mean_mt_s for s in summaries.values()]
        assert regression.response(means)[1] == math.inf  # in every model
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(ValueError) as excinfo:
                compare_models(summaries, AmplitudeMode.EUCLIDEAN, "All Sit")
        assert str(excinfo.value) == (f"group 'All Sit' (euclidean): the Standard fit's "
                                      f"{which} sum of squares overflows to inf")

    def test_nested_f_present_for_two_predictor_models(self):
        bumps = [0.02, -0.01, 0.005, 0.03, -0.02, 0.01, -0.005, 0.015]
        report = compare_models(
            summaries_from_model(ModelKind.STANDARD, (-0.41, 0.83), bump=bumps)
        )
        assert report.nested_f_vs_standard[ModelKind.STANDARD] is None
        for kind in (ModelKind.TWO_PART, ModelKind.VERGENCE, ModelKind.PROPOSED):
            f, p = report.nested_f_vs_standard[kind]
            assert f >= 0.0
            assert 0.0 <= p <= 1.0


class TestTable1Suite:
    def _study_trials(self):
        from telefitts.sim import generate_study, model_exact_preset, REFERENCE_STANDARD_ALL

        return generate_study(
            model_exact_preset(REFERENCE_STANDARD_ALL, participants=4, seed=3,
                               mt_noise_sd_s=0.05, endpoint_sd_fraction_of_width=0.2)
        )

    def test_eight_reports_in_order(self):
        reports = run_table1_suite(self._study_trials())
        assert [r.group_label for r in reports] == list(TABLE_GROUPS)

    def test_missing_technique_named(self):
        trials = [t for t in self._study_trials() if t.technique is not Technique.RPDW]
        with pytest.raises(IncompleteGridError, match="RPDW"):
            run_table1_suite(trials)

    def test_missing_posture_named(self):
        trials = [t for t in self._study_trials() if t.posture is not Posture.SITTING]
        with pytest.raises(IncompleteGridError, match="All Sit"):
            run_table1_suite(trials)

    def test_groups_fit_on_eight_cells(self):
        reports = run_table1_suite(self._study_trials())
        assert all(r.n_cells == 8 for r in reports)

    def test_noiseless_two_predictor_truth_wins_every_group(self):
        from telefitts.sim import SIMULABLE_PROPOSED_ALL, generate_study, model_exact_preset

        trials = generate_study(
            model_exact_preset(SIMULABLE_PROPOSED_ALL, participants=4, seed=17)
        )
        for report in run_table1_suite(trials):
            assert report.ranking_aic[0] is ModelKind.PROPOSED, report.group_label
            assert report.fits[ModelKind.PROPOSED].rss == pytest.approx(0.0, abs=1e-18)

    def test_noisy_two_predictor_truth_wins_most_groups_by_aic(self):
        from telefitts.sim import SIMULABLE_PROPOSED_ALL, generate_study, model_exact_preset

        for seed in (0, 1, 2):
            trials = generate_study(
                model_exact_preset(SIMULABLE_PROPOSED_ALL, participants=20, seed=seed,
                                   mt_noise_sd_s=0.05)
            )
            reports = run_table1_suite(trials)
            wins = sum(1 for r in reports if r.ranking_aic[0] is ModelKind.PROPOSED)
            assert wins >= 7, f"seed {seed}: won {wins}/8 groups"


class TestRepeatedDesigns:
    """Fits on designs that repeat across groups reuse cached predictors and
    factors, and must equal fits computed afresh, bit for bit."""

    @staticmethod
    def _clear_caches():
        comparison.rows_for_model.cache_clear()

    def test_suite_fits_equal_uncached_fits_bit_for_bit(self):
        from telefitts.sim import generate_study, realistic_preset

        trials = generate_study(realistic_preset(20, 1))
        for pooled in (False, True):
            cells = table1_cells(trials, pooled)
            for mode in AmplitudeMode:
                self._clear_caches()
                cold = run_table1_suite(trials, mode, pooled)
                warm = run_table1_suite(trials, mode, pooled)
                assert render_records(warm) == render_records(cold)
                for report in warm:
                    for kind in ModelKind:
                        want = uncached_cell_fit(kind, cells[report.group_label], mode)
                        assert repr(report.fits[kind]) == repr(want), (report.group_label, kind)

    def test_geometry_error_raises_on_every_call(self):
        summaries = summaries_from_model(ModelKind.STANDARD, (0.3, 0.2))
        key = ConditionKey(None, None, 0.2, 3.0, -1.0)
        summaries[key] = ConditionSummary(key, 10, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="height_m must be non-negative"):
                comparison.rows_for_model(ModelKind.STANDARD, sorted_cells(summaries),
                                          AmplitudeMode.EUCLIDEAN)

    def test_a_non_finite_mean_is_named_before_a_bad_geometry(self):
        summaries = summaries_from_model(ModelKind.STANDARD, (0.3, 0.2))
        key = ConditionKey(None, None, 0.2, 3.0, -1.0)  # sorts first: row 0
        summaries[key] = ConditionSummary(key, 10, 1.0)
        last = max(summaries, key=lambda k: (k.width_m, k.distance_m, k.height_m))
        summaries[last] = ConditionSummary(last, 10, math.nan)
        with pytest.raises(ValueError, match="^row 8 contains a non-finite value$"):
            compare_models(summaries)

    def test_one_predictor_and_one_fit_call_per_model(self, monkeypatch):
        """perfbench's per-layer spans wrap these module attributes. The
        cells are sorted once per comparison, and the four fits share one
        response."""
        self._clear_caches()
        calls = {"rows_for_model": 0, "ols_fit": 0, "sorted": 0}
        responses = []
        for name in ("rows_for_model", "ols_fit"):
            original = getattr(comparison, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                if _name == "ols_fit":
                    responses.append(args[1])
                return _original(*args)

            monkeypatch.setattr(comparison, name, counted)

        def counted_sorted(*args, **kwargs):
            calls["sorted"] += kwargs.get("key") is comparison._cell  # a sort of the cells
            return sorted(*args, **kwargs)

        monkeypatch.setattr(comparison, "sorted", counted_sorted, raising=False)
        summaries = summaries_from_model(ModelKind.STANDARD, (0.3, 0.2))
        for cache in ("cold", "warm"):
            calls.update(rows_for_model=0, ols_fit=0, sorted=0)
            responses.clear()
            compare_models(summaries)
            assert calls == {"rows_for_model": 4, "ols_fit": 4, "sorted": 1}, cache
            assert len({id(y) for y in responses}) == 1, cache

    def test_groups_that_share_their_cells_fit_through_one_design(self, monkeypatch):
        from telefitts.sim import generate_study, realistic_preset

        cells = table1_cells(generate_study(realistic_preset(2, 1)))
        assert sorted_cells(cells["RPRG"]) == sorted_cells(cells["All Sit"])
        original = comparison.rows_for_model
        designs = {}

        def recorded(kind, *args):
            designs.setdefault(kind, []).append(original(kind, *args))
            return designs[kind][-1]

        self._clear_caches()
        monkeypatch.setattr(comparison, "rows_for_model", recorded)
        for label in ("RPRG", "All Sit"):
            compare_models(cells[label], AmplitudeMode.EUCLIDEAN, label)
        for kind in ModelKind:
            first, second = designs[kind]
            assert first is second, kind


class TestCellDesign:
    """rows_for_model returns a cached, read-only Design."""

    MODES = tuple(AmplitudeMode)

    def test_design_is_read_only(self):
        cells = sorted_cells(summaries_from_model(ModelKind.STANDARD, (0.3, 0.2)))
        design = comparison.rows_for_model(ModelKind.PROPOSED, cells, AmplitudeMode.EUCLIDEAN)
        for array in (design.x, design.q, design.r):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("mode", MODES)
    def test_rows_equal_fresh_rows_and_fit_alike(self, kind, mode):
        summaries = summaries_from_model(ModelKind.PROPOSED, (0.5, 0.8, 0.3), mode,
                                         bump=[0.01 * (-1) ** i for i in range(8)])
        summaries = dict(reversed(summaries.items()))  # rows come in (W, D, H) order
        design = comparison.rows_for_model(kind, sorted_cells(summaries), mode)
        predictors, means = uncached_cell_rows(kind, summaries, mode)
        assert design.x[:, 1:].tolist() == [list(row) for row in predictors]
        fit = ols_fit(design, *regression.response(means))
        assert repr(fit) == repr(fit_rows(predictors, means))

    def test_participant_sized_fits_equal_uncached_fits_bit_for_bit(self):
        """One participant's 400 rows, as a list: every group, aggregation
        and mode of a report."""
        from telefitts.sim import generate_study, realistic_preset

        table = generate_study(realistic_preset(20, 3))
        rows = list(table[:400])
        assert {t.participant_id for t in rows} == {table[0].participant_id}
        summaries = group_by_condition(rows)
        for pooled in (False, True):
            for label in TABLE_GROUPS:
                cells = comparison.group_summaries(summaries, label, pooled=pooled)
                for mode in self.MODES:
                    report = compare_models(cells, mode, label)
                    for kind in ModelKind:
                        want = uncached_cell_fit(kind, cells, mode)
                        assert repr(report.fits[kind]) == repr(want), (label, pooled, mode, kind)

    def test_second_comparison_hits_the_design_cache(self):
        summaries = summaries_from_model(ModelKind.STANDARD, (0.3, 0.2))
        comparison.rows_for_model.cache_clear()
        compare_models(summaries)
        cold = comparison.rows_for_model.cache_info()
        compare_models(summaries)
        warm = comparison.rows_for_model.cache_info()
        assert (cold.hits, cold.misses, cold.currsize) == (0, 4, 4)
        assert (warm.hits, warm.misses, warm.currsize) == (4, 4, 4)

    @pytest.mark.parametrize("bad, message", [
        ({"mean": math.nan, "at": 5}, "row 5 contains a non-finite value"),
        ({"mean": math.inf, "at": 2}, "row 2 contains a non-finite value"),
        # W = 1 mm at D = 1e306 m: A/W overflows, so the predictor is inf
        ({"cell": (0.001, 1.0e306, 0.0)}, "row 0 contains a non-finite value"),
    ], ids=["nan-mean", "inf-mean", "inf-predictor"])
    def test_non_finite_row_raises_on_every_call(self, bad, message):
        summaries = summaries_from_model(ModelKind.STANDARD, (0.3, 0.2))
        keys = sorted(summaries, key=lambda k: (k.width_m, k.distance_m, k.height_m))
        if "mean" in bad:
            key = keys[bad["at"]]
            summaries[key] = ConditionSummary(key, 10, bad["mean"])
        else:
            key = ConditionKey(None, None, *bad["cell"])
            summaries[key] = ConditionSummary(key, 10, 1.0)
        comparison.rows_for_model.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                compare_models(summaries)
        assert comparison.rows_for_model.cache_info().currsize == 0

    def test_collinear_or_short_design_raises_on_every_call(self):
        comparison.rows_for_model.cache_clear()
        # five techniques at one (W, D, H): every predictor is constant
        cells = {}
        for technique, mt in zip(Technique, (1.0, 0.6, 1.1, 0.5, 0.9)):
            key = ConditionKey(technique, None, 0.2, 3.0, 0.0)
            cells[key] = ConditionSummary(key, 10, mt)
        for _ in range(2):
            with pytest.raises(regression.CollinearPredictorsError):
                compare_models(cells)
        three = dict(list(summaries_from_model(ModelKind.STANDARD, (0.3, 0.2)).items())[:3])
        for _ in range(2):
            with pytest.raises(ValueError, match="need at least p \\+ 2 = 4 observations, got 3"):
                comparison.rows_for_model(ModelKind.TWO_PART, sorted_cells(three),
                                          AmplitudeMode.EUCLIDEAN)
        assert comparison.rows_for_model.cache_info().currsize == 0  # nothing was cached


def saturated_reports():
    """A report whose Proposed fit is exact (AIC -inf), under every group
    label in report order: a stream as compare lays it out."""
    summaries = summaries_from_model(ModelKind.PROPOSED, (-2.46, 1.21, 3.00))
    return [compare_models(summaries, group_label=label) for label in TABLE_GROUPS]


class TestRendering:
    def _reports(self):
        from telefitts.sim import generate_study, model_exact_preset, REFERENCE_STANDARD_ALL

        trials = generate_study(
            model_exact_preset(REFERENCE_STANDARD_ALL, participants=3, seed=5,
                               mt_noise_sd_s=0.08, endpoint_sd_fraction_of_width=0.25)
        )
        return run_table1_suite(trials)

    def test_records_round_trip(self):
        reports = self._reports()
        parsed = parse_records(render_records(reports))
        assert parsed == reports

    def test_table_contains_all_groups_and_models(self):
        text = render_table(self._reports())
        for label in TABLE_GROUPS:
            assert label in text
        for kind in ModelKind:
            assert kind.value in text
        assert "note:" in text

    def test_no_reports_render_no_records_and_a_table_without_rows(self):
        assert render_records([]) == ""
        names = render_table(self._reports()).splitlines()[0].split()
        lines = render_table([]).split("\n")
        assert lines[0].split() == names
        assert lines[1] == "  ".join("-" * len(name) for name in lines[0].split("  "))
        assert lines[2:] == ["", *(f"note: {note}" for note in comparison._TABLE_FOOTNOTES), ""]

    @pytest.mark.parametrize("value", ["Fitts", "STANDARD", 3, None])
    def test_unknown_enum_value_names_the_allowed_values(self, value):
        lines = render_records(self._reports()[:1]).splitlines()
        record = json.loads(lines[0])
        record["model"] = value
        with pytest.raises(ValueError) as err:
            parse_records("\n".join([json.dumps(record), *lines[1:]]))
        assert str(err.value) == ("record on line 1: field 'model' must be one of "
                                  f"['Standard', 'TwoPart', 'Vergence', 'Proposed'], got {value!r}")

    def test_infinite_values_survive_round_trip(self):
        reports = saturated_reports()
        assert all(report.fits[ModelKind.PROPOSED].aic == -math.inf for report in reports)
        assert parse_records(render_records(reports)) == reports

    def test_equation_string_shapes(self):
        reports = self._reports()
        eq = reports[0].equations[ModelKind.STANDARD]
        assert eq.startswith("MT=") and "*ID" in eq
        eq2 = reports[0].equations[ModelKind.PROPOSED]
        assert "*A" in eq2 and "*B" in eq2

    @pytest.mark.parametrize("kind, equation, signed", [
        (ModelKind.STANDARD, "MT=1.25*ID-0.50",
         "MT = 1.2500*log2(A/W+1) -0.5000"),
        (ModelKind.TWO_PART, "MT=1.25*A+0.75*B-0.50",
         "MT = 1.2500*log2(A+W) - 0.7500*log2(W) -0.5000"),
        (ModelKind.VERGENCE, "MT=1.25*A+0.75*B-0.50",
         "MT = 1.2500*log2(A/W+1) + 0.7500*CTD -0.5000"),
        (ModelKind.PROPOSED, "MT=1.25*A+0.75*B-0.50",
         "MT = 1.2500*log2(A/W+1) - 0.7500*log2(W/max(D,H)+1) -0.5000"),
    ])
    def test_equation_strings(self, kind, equation, signed):
        coefficients = (-0.5, 1.25, 0.75)[: MODEL_SPECS[kind].predictor_count + 1]
        report = compare_models(summaries_from_model(kind, coefficients))
        assert report.equations[kind] == equation
        records = [json.loads(line) for line in render_records([report]).splitlines()]
        record = next(r for r in records if r["model"] == kind.value)
        assert (record["equation"], record["equation_signed"]) == (equation, signed)


class TestConstructionPath:
    """Fits, grades and reports are built without their dataclass
    ``__init__``; each must be the object ``__init__`` builds from the same
    fields, down to the order of its ``vars()``."""

    @staticmethod
    def _hash(obj):
        try:
            return hash(obj)
        except TypeError as exc:  # a report holds dicts: both must fail alike
            return str(exc)

    def _assert_built_alike(self, built):
        made = type(built)(**vars(built))
        assert built == made
        assert repr(built) == repr(made)
        assert list(vars(built).items()) == list(vars(made).items())
        assert self._hash(built) == self._hash(made)

    def _reports(self):
        finite, saturated = TestRendering()._reports(), saturated_reports()
        parsed = parse_records(render_records(finite)) + parse_records(render_records(saturated))
        return [*finite, *saturated, *parsed]

    def test_fits_grades_and_reports_equal_their_init_built_twins(self):
        for report in self._reports():
            self._assert_built_alike(report)
            for kind in ModelKind:
                self._assert_built_alike(report.fits[kind])
                self._assert_built_alike(report.aic_grades[kind])
                self._assert_built_alike(report.bic_grades[kind])

    def test_each_class_keeps_its_hash(self):
        report = self._reports()[0]
        assert type(hash(report.fits[ModelKind.STANDARD])) is int
        assert type(hash(report.aic_grades[ModelKind.STANDARD])) is int
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)


#: sha256 prefixes of (render_records, render_table) of the reports of the
#: participant-fits benchmark units 0-19, seed 1.
PARTICIPANT_FITS_SEED_1 = [
    ("c459086888b23693", "29480311f6c27841"),
    ("2f068803815b9168", "196e855a6494edb0"),
    ("e2cea0a3b2830fa0", "4d51bf1982f0e6d4"),
    ("dc3cc68e9646439d", "cd5ccc5e8c0b6d5f"),
    ("f80eb39d2bd78d1d", "20f020b16b6cbd9a"),
    ("18a9f1b975396924", "45fddf98f6adb3d5"),
    ("59a2442afec0eeb6", "1cc909375cf5d8b7"),
    ("1418dbd145018cbe", "319a88b12f8f18b9"),
    ("d7a909e8bf4a2b8c", "c14fd084f83d978e"),
    ("9252624ca3822015", "7ad8c8075f7267a5"),
    ("87509ffd90ba7351", "a7b259f457fe7e58"),
    ("71acdda6db000967", "28775d8eaf053a74"),
    ("78e639005cdb1859", "4dabae2f63468dbc"),
    ("36aeb655eb695a17", "416c3dcbf3590743"),
    ("d57e1790bb4b2c9f", "a6a9fb32fdc76849"),
    ("557017219feff5c1", "b013511b89c30389"),
    ("354fa1220c4f622d", "1deba685e6fefb08"),
    ("dac849fdea107b0a", "1cf12cfea1ca08f3"),
    ("7d79b5583eb937af", "7ec0d9cc72ec9bcc"),
    ("caec21081317c0e6", "a0de15b9b6d3171d"),
]


@pytest.fixture(scope="module")
def participant_fits(tmp_path_factory):
    """The participant-fits benchmark workload of seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        from perfbench.workloads import ParticipantFits
    finally:
        sys.path.pop(0)
    return ParticipantFits(1, str(tmp_path_factory.mktemp("participant-fits")))


@pytest.mark.parametrize("unit", range(len(PARTICIPANT_FITS_SEED_1)))
def test_participant_fits_workload_reports_are_pinned(participant_fits, unit):
    """The benchmark's own units render the recorded records and tables, and
    the records of each aggregation, in compare's mode-major order, parse
    back to its reports."""
    reports = participant_fits.run(unit)
    records, table = render_records(reports), render_table(reports)
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
                    for text in (records, table))
    assert digests == PARTICIPANT_FITS_SEED_1[unit]
    half = len(reports) // 2  # the per-cell reports, then the pooled ones
    for part in (reports[:half], reports[half:]):
        # the unit runs both modes per group; sorted is stable, so each
        # mode keeps the groups in report order
        part = sorted(part, key=lambda rep: list(AmplitudeMode).index(rep.amplitude_mode))
        assert parse_records(render_records(part)) == part
