import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telefitts import regression
from telefitts.models import PredictorRow
from telefitts.regression import (
    CollinearPredictorsError,
    adj_r2,
    f_tail_probability,
    fit_result,
    information_criteria,
    ols_fit,
    overall_f,
    partial_f,
)

from oracles import (
    collinear_columns_by_rank,
    f_tail_by_betainc,
    f_tail_by_loop_fraction,
    f_tail_by_mpmath,
    f_tail_by_quadrature,
    grid_search_ols,
    pinv_ols,
)


def rows_from_xy(xs, ys):
    return [PredictorRow((float(x),), float(y)) for x, y in zip(xs, ys)]


class TestOlsFit:
    def test_exact_line(self):
        fit = ols_fit(rows_from_xy([1, 2, 3], [2, 4, 6]))
        assert fit.coefficients == pytest.approx((0.0, 2.0), abs=1e-12)
        assert fit.r2 == 1.0
        assert fit.rss == pytest.approx(0.0, abs=1e-24)

    def test_hand_worked_simple_regression(self):
        fit = ols_fit(rows_from_xy([0, 1, 2, 3], [1, 2, 2, 4]))
        assert fit.coefficients == pytest.approx((0.9, 0.9), rel=1e-12)
        assert fit.rss == pytest.approx(0.70, rel=1e-12)
        assert fit.r2 == pytest.approx(0.8526315789473684, rel=1e-12)

    def test_duplicate_predictor_column(self):
        rows = [PredictorRow((x, x), y) for x, y in [(1, 2), (2, 3), (3, 5), (4, 6)]]
        for _ in range(2):
            with pytest.raises(CollinearPredictorsError, match="collinear predictors"):
                ols_fit(rows)

    def test_design_columns_and_factors_are_read_only(self):
        rows = rows_from_xy([0.1, 0.9, 2.2, 3.1, 4.7], [1.0, 1.9, 3.2, 3.9, 5.6])
        design = regression.Design.from_rows(rows)
        for array in (design.x, design.y, design.q, design.r):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert repr(ols_fit(design)) == repr(ols_fit(rows))

    def test_design_carries_the_total_sum_of_squares_of_its_response(self):
        ys = [1.0, 1.9, 3.2, 3.9, 5.6]
        design = regression.Design.from_rows(rows_from_xy([0.1, 0.9, 2.2, 3.1, 4.7], ys))
        y = np.array(ys)
        assert design.tss == regression.total_sum_of_squares(y) == float(
            np.sum((y - np.mean(y)) ** 2))

    @pytest.mark.parametrize("rows, message", [
        ([PredictorRow((1.0,), 1.0), PredictorRow((1.0, 2.0), 2.0),
          PredictorRow((math.nan,), 3.0)], "row 1 has 2 predictors, expected 1"),
        ([PredictorRow((1.0,), 1.0), PredictorRow((2.0,), math.inf),
          PredictorRow((3.0, 4.0), 3.0)], "row 1 contains a non-finite value"),
    ], ids=["length-first", "non-finite-first"])
    def test_names_the_first_bad_row(self, rows, message):
        with pytest.raises(ValueError, match=message):
            ols_fit(rows)

    def test_constant_predictor_collides_with_intercept(self):
        rows = [PredictorRow((1.0,), y) for y in [1.0, 2.0, 3.0]]
        with pytest.raises(CollinearPredictorsError):
            ols_fit(rows)

    def test_collinear_columns_match_matrix_rank(self):
        # Designs of 4-11 rows whose slope columns are drawn at scales from
        # 1e-3 to 1e3 as random values, scaled copies of an earlier column,
        # constants, or combinations of the earlier columns.
        rng = np.random.default_rng(11)
        flagged = 0
        for _ in range(3000):
            p = int(rng.integers(1, 4))
            x = np.ones((int(rng.integers(p + 2, 12)), p + 1))
            for j in range(1, p + 1):
                scale = 10.0 ** rng.uniform(-3, 3)
                kind = rng.choice(4, p=[0.55, 0.15, 0.15, 0.15])
                if kind == 0:
                    x[:, j] = rng.normal(0.0, scale, len(x))
                elif kind == 1:
                    x[:, j] = scale * x[:, rng.integers(j)]
                elif kind == 2:
                    x[:, j] = scale
                else:
                    x[:, j] = x[:, :j] @ rng.normal(0.0, scale, j)
            rows = [PredictorRow(tuple(r[1:]), float(y))
                    for r, y in zip(x, rng.normal(size=len(x)))]
            expected = collinear_columns_by_rank(x)
            if expected:
                flagged += 1
                with pytest.raises(CollinearPredictorsError) as err:
                    ols_fit(rows)
                assert err.value.columns == tuple(expected)
            else:
                ols_fit(rows)
        assert 600 < flagged < 2400  # both outcomes are well represented

    def test_response_symmetric_about_the_predictor_mean(self):
        # the slope is zero, and rounding leaves rss just above tss
        fit = ols_fit(rows_from_xy([1, 2, 3, 4, 5], [0.3, 0.1, 0.7, 0.1, 0.3]))
        assert (fit.r2, fit.f_stat, fit.p_value) == (0.0, 0.0, 1.0)

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="observations"):
            ols_fit(rows_from_xy([1, 2], [1, 2]))

    def test_constant_response_is_saturated(self):
        fit = ols_fit(rows_from_xy([1, 2, 3, 4], [5, 5, 5, 5]))
        assert fit.r2 == 1.0
        assert fit.aic == -math.inf
        assert fit.f_stat == math.inf
        assert fit.p_value == 0.0

    @pytest.mark.parametrize("xs, ys", [
        ([0.1, 0.9, 2.2, 3.1, 4.7], [1.0, 1.9, 3.2, 3.9, 5.6]),
        ([1, 2, 3, 4], [5, 5, 5, 5]),  # saturated: constant response
        ([1, 2, 3, 4, 5], [0.3, 0.1, 0.7, 0.1, 0.3]),  # rss a rounding error above tss
    ])
    def test_five_values_rebuild_the_fit(self, xs, ys):
        fit = ols_fit(rows_from_xy(xs, ys))
        assert fit_result(fit.coefficients, fit.rss, fit.r2, fit.n, fit.p) == fit

    def test_deterministic_repeat(self):
        rows = rows_from_xy([0.1, 0.9, 2.2, 3.1, 4.7], [1.0, 1.9, 3.2, 3.9, 5.6])
        a = ols_fit(rows)
        b = ols_fit(rows)
        assert a == b

    def test_matches_pinv_oracle_on_random_instances(self):
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            n = int(rng.integers(4, 13))
            p = int(rng.integers(1, 4))
            if n < p + 2:
                continue
            x = np.column_stack([np.ones(n), rng.normal(0, 1, (n, p))])
            y = rng.normal(0, 1, n)
            rows = [PredictorRow(tuple(x[i, 1:]), float(y[i])) for i in range(n)]
            fit = ols_fit(rows)
            coef, rss = pinv_ols(x, y)
            scale = max(1.0, float(np.max(np.abs(coef))))
            assert np.allclose(fit.coefficients, coef, rtol=1e-9, atol=1e-9 * scale)
            assert fit.rss == pytest.approx(rss, rel=1e-9, abs=1e-12)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 8
            x = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
            y = x @ np.array([1.0, 2.0]) + rng.normal(0, 0.3, n)
            rows = [PredictorRow((float(x[i, 1]),), float(y[i])) for i in range(n)]
            fit = ols_fit(rows)
            grid_step = 0.02
            best = grid_search_ols(x, y, np.asarray(fit.coefficients), 0.5, 51)
            assert np.all(np.abs(best - np.asarray(fit.coefficients)) <= grid_step / 2 + 1e-12)

    def test_nested_rss_monotonicity(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(5, 12))
            x1 = rng.normal(0, 1, n)
            x2 = rng.normal(0, 1, n)
            y = rng.normal(0, 1, n)
            reduced = ols_fit([PredictorRow((float(a),), float(b)) for a, b in zip(x1, y)])
            full = ols_fit(
                [PredictorRow((float(a), float(c)), float(b)) for a, c, b in zip(x1, x2, y)]
            )
            assert full.rss <= reduced.rss + 1e-12


class TestAdjR2:
    def test_perfect_fit(self):
        assert adj_r2(1.0, 8, 2) == 1.0

    def test_hand_values(self):
        assert adj_r2(0.8526315789473684, 4, 1) == pytest.approx(0.7789473684210527, rel=1e-12)
        assert adj_r2(0.93, 8, 2) == pytest.approx(0.902, rel=1e-12)

    def test_undefined_for_tiny_n(self):
        with pytest.raises(ValueError):
            adj_r2(0.5, 3, 2)

    def test_never_exceeds_r2(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            r2 = float(rng.uniform(0, 1))
            n = int(rng.integers(4, 30))
            p = int(rng.integers(1, min(n - 2, 5)))
            assert adj_r2(r2, n, p) <= r2 + 1e-15


class TestOverallF:
    def test_null_model_limit(self):
        f, p = overall_f(0.0, 8, 1)
        assert f == 0.0
        assert p == 1.0

    def test_hand_worked_example(self):
        f, p = overall_f(0.8526315789473684, 4, 1)
        assert f == pytest.approx(11.571428571428571, rel=1e-12)
        assert p == pytest.approx(0.07661948312336131, rel=1e-9)

    def test_saturated_sentinel(self):
        assert overall_f(1.0, 8, 1) == (math.inf, 0.0)

    def test_p_matches_quadrature_oracle_on_grid(self):
        grid = [
            (1, 2, 11.571428571428571),
            (1, 2, 0.5),
            (1, 5, 3.2),
            (2, 5, 4.7),
            (2, 6, 0.01),
            (3, 4, 2.0),
            (1, 18, 9.4),
            (2, 12, 30.0),
            (3, 20, 1.3),
            (1, 1, 161.4),
        ]
        for d1, d2, f in grid:
            mine = f_tail_probability(f, d1, d2)
            oracle = f_tail_by_quadrature(f, d1, d2)
            assert mine == pytest.approx(oracle, abs=1e-8)

    def test_p_monotone_decreasing_in_f(self):
        for d1, d2 in [(1, 5), (2, 6), (3, 10)]:
            ps = [f_tail_probability(f, d1, d2) for f in np.linspace(0.01, 50, 100)]
            assert all(a >= b for a, b in zip(ps, ps[1:]))


#: f values of the differential grid: 0, the decades 1e-12 .. 1e12, and inf.
F_GRID = [0.0, *(10.0 ** k for k in range(-12, 13)), math.inf]


def close_to_reference(value, reference):
    """rel 1e-12 against a reference of at least 1e-300, abs 1e-300 below."""
    if reference >= 1e-300:
        return abs(value - reference) <= 1e-12 * reference
    return abs(value - reference) <= 1e-300


class TestFTailProbability:
    def test_matches_scipy_betainc_on_grid(self):
        disagree = []
        for d1 in range(1, 9):
            for d2 in range(1, 61):
                for f in F_GRID:
                    mine, ref = f_tail_probability(f, d1, d2), f_tail_by_betainc(f, d1, d2)
                    if not close_to_reference(mine, ref):
                        disagree.append((d1, d2, f, mine, ref))
        # scipy's betainc loses digits just above underflow (at d1 = 8,
        # d2 = 54, f = 1e12 it is off by 2.4e-11 relative); wherever the two
        # disagree, a 40-digit value must side with ours against scipy's.
        for d1, d2, f, mine, ref in disagree:
            exact = f_tail_by_mpmath(f, d1, d2)
            assert close_to_reference(mine, exact), (d1, d2, f, mine, exact)
            assert not close_to_reference(ref, exact), (d1, d2, f, ref, exact)

    @settings(max_examples=2000, derandomize=True, deadline=None)
    @given(d1=st.integers(1, 8), d2=st.integers(1, 60),
           f=st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
                       st.floats(1e-6, 1e6), st.sampled_from([0.0, math.inf])))
    def test_equals_the_loop_form_fraction_bit_for_bit(self, d1, d2, f):
        mine, loop = f_tail_probability(f, d1, d2), f_tail_by_loop_fraction(f, d1, d2)
        assert mine.hex() == loop.hex(), (d1, d2, f)

    @pytest.mark.parametrize("eps", [0.25, 0.5, 0.62, 0.9])
    def test_matches_mpmath_at_corrected_real_degrees(self, eps):
        """Greenhouse-Geisser-style eps*(d1, d2) of a repeated-measures test,
        within 1e-13 relative of the 40-digit value (the worst here is 1.4e-14)."""
        for d1, d2 in [(2, 6), (3, 45), (4, 12), (7, 21), (8, 60)]:
            d1e, d2e = eps * d1, eps * d2
            if d1e < 1:
                continue
            for f in (0.05, 0.7, 1.3, 2.9, 8.0, 40.0):
                mine, exact = f_tail_probability(f, d1e, d2e), f_tail_by_mpmath(f, d1e, d2e)
                assert abs(mine - exact) <= 1e-13 * exact, (d1e, d2e, f, mine, exact)

    def test_two_numerator_degrees_are_a_power(self):
        for d2 in (1, 5, 12):
            x = d2 / (d2 + 2 * 3.5)
            assert f_tail_probability(3.5, 2, d2) == x ** (d2 / 2)

    @pytest.mark.parametrize("f", [5e-324, 1e-300, 0.3, 1.0, 7.0, 1e300, 1.7e308])
    def test_one_and_one_degrees_are_a_cauchy_tail(self, f):
        # F(1, 1) is the square of a standard Cauchy variable
        assert close_to_reference(f_tail_probability(f, 1, 1),
                                  2.0 / math.pi * math.atan(1.0 / math.sqrt(f)))

    def test_ends_of_the_range(self):
        for d1, d2 in [(1, 1), (2, 5), (3, 40), (8, 60)]:
            assert f_tail_probability(0.0, d1, d2) == 1.0
            assert f_tail_probability(5e-324, d1, d2) == 1.0
            assert f_tail_probability(math.inf, d1, d2) == 0.0  # saturated-fit sentinel
            assert 0.0 <= f_tail_probability(1.7e308, d1, d2) < 1e-150

    @pytest.mark.parametrize("f", [math.nan, -math.inf, -1.0, -1e-300])
    def test_nan_and_negative_statistics_raise(self, f):
        with pytest.raises(ValueError, match="non-negative"):
            f_tail_probability(f, 1, 5)

    def test_degrees_of_freedom_must_be_positive(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            f_tail_probability(1.0, 0, 5)
        with pytest.raises(ValueError, match="degrees of freedom"):
            f_tail_probability(1.0, 2, 0)


class TestInformationCriteria:
    def test_hand_values(self):
        a, b = information_criteria(0.70, 4, 2)
        assert a == pytest.approx(4 * math.log(0.175) + 4, abs=1e-9)
        assert a == pytest.approx(-2.972, abs=5e-4)
        assert b == pytest.approx(-4.199, abs=5e-4)

    def test_identity_bit_exact_at_reference_point(self):
        a, b = information_criteria(0.70, 4, 2)
        assert a - b == 2 * 2 - 2 * math.log(4)

    def test_identity_within_rounding_everywhere(self):
        # binary64 cannot represent the identity exactly for arbitrary
        # magnitudes; verify it to 4 ulps of the larger operand
        rng = np.random.default_rng(11)
        for _ in range(2000):
            rss = float(rng.uniform(1e-6, 1e3))
            n = int(rng.integers(2, 200))
            k = int(rng.integers(1, 6))
            a, b = information_criteria(rss, n, k)
            delta = 2.0 * k - k * math.log(n)
            tol = 4 * math.ulp(max(abs(a), abs(b), 1.0))
            assert abs((a - b) - delta) <= tol

    def test_zero_rss_sentinel(self):
        assert information_criteria(0.0, 4, 2) == (-math.inf, -math.inf)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            information_criteria(-1.0, 4, 2)
        with pytest.raises(ValueError):
            information_criteria(1.0, 0, 2)


class TestPartialF:
    def _fit(self, p, rss_target, n=8):
        # synthesize FitResults directly; partial_f only reads n, p, rss
        from telefitts.regression import FitResult

        return FitResult(
            coefficients=tuple([0.0] * (p + 1)),
            rss=rss_target,
            r2=0.5,
            adj_r2=0.4,
            f_stat=1.0,
            p_value=0.5,
            aic=0.0,
            bic=0.0,
            n=n,
            p=p,
        )

    def test_no_improvement(self):
        f, p = partial_f(self._fit(2, 0.70), self._fit(1, 0.70))
        assert f == 0.0
        assert p == 1.0

    def test_hand_worked_example(self):
        f, p = partial_f(self._fit(2, 0.10), self._fit(1, 0.70))
        assert f == pytest.approx(30.0, rel=1e-12)
        assert p == pytest.approx(f_tail_by_quadrature(30.0, 1, 5), abs=1e-8)

    def test_saturated_full_model(self):
        f, p = partial_f(self._fit(2, 0.0), self._fit(1, 0.70))
        assert f == math.inf
        assert p == 0.0

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError, match="observation counts"):
            partial_f(self._fit(2, 0.1, n=8), self._fit(1, 0.7, n=9))

    def test_rejects_non_nested_rss(self):
        with pytest.raises(ValueError, match="not nested"):
            partial_f(self._fit(2, 1.70), self._fit(1, 0.70))

    def test_rejects_equal_predictor_counts(self):
        with pytest.raises(ValueError, match="fewer predictors"):
            partial_f(self._fit(2, 0.1), self._fit(2, 0.7))
