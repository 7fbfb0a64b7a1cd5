import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telefitts.models import (
    AmplitudeMode,
    ModelKind,
    TargetGeometry,
    amplitude_from_grid,
    geometry_for_condition,
    id_shannon,
    left_sum,
    predict_mt,
    predictors_for,
    predictors_proposed,
    predictors_standard,
    predictors_two_part,
    predictors_vergence,
)

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def geom(a=3.0, w=0.2, d=3.0, h=0.0, ctd=0.0):
    return TargetGeometry(amplitude_m=a, width_m=w, depth_m=d, altitude_m=h, ctd_m=ctd)


class TestLeftSum:
    """Float sums keep the bits of Python 3.11's ``sum`` on every version;
    from 3.12 ``sum`` compensates, and gives 1.0 for the second sum here."""

    def test_adds_one_value_at_a_time_left_to_right(self):
        assert left_sum([0.1] * 10) == 0.9999999999999999
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum(iter([0.5, 0.25])) == 0.75

    def test_starts_from_integer_zero(self):
        assert left_sum([]) == 0 and type(left_sum([])) is int
        assert math.copysign(1.0, left_sum([-0.0])) == 1.0


class TestIdShannon:
    def test_zero_amplitude(self):
        assert id_shannon(0.0, 0.2) == 0.0

    def test_exact_power_of_two(self):
        # 3/0.2 + 1 = 16
        assert id_shannon(3.0, 0.2) == pytest.approx(4.0, abs=1e-12)

    def test_log2_46(self):
        assert id_shannon(9.0, 0.2) == pytest.approx(5.523561956057013, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            id_shannon(3.0, 0.0)
        with pytest.raises(ValueError):
            id_shannon(-1.0, 0.2)
        with pytest.raises(ValueError):
            id_shannon(math.nan, 0.2)

    @given(a=positive, w=positive, bump=positive)
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_amplitude(self, a, w, bump):
        assert id_shannon(a + bump, w) > id_shannon(a, w)

    @given(a=positive, w=positive, bump=positive)
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_width(self, a, w, bump):
        assert id_shannon(a, w + bump) < id_shannon(a, w)


class TestPredictors:
    def test_standard_values(self):
        assert predictors_standard(geom(a=3.0, w=1.35))[0] == pytest.approx(
            1.6880559936852595, rel=1e-12
        )
        assert predictors_standard(geom(a=0.0, w=1.0))[0] == 0.0
        a = math.hypot(9.0, 3.0)
        assert predictors_standard(geom(a=a, w=0.2))[0] == pytest.approx(
            5.59795316195793, rel=1e-12
        )

    def test_two_part_values(self):
        assert predictors_two_part(geom(a=3.0, w=1.0)) == pytest.approx((2.0, 0.0))
        got = predictors_two_part(geom(a=9.0, w=0.2))
        assert got[0] == pytest.approx(3.2016338611696504, rel=1e-12)
        assert got[1] == pytest.approx(2.321928094887362, rel=1e-12)
        got = predictors_two_part(geom(a=3.0, w=1.35))
        assert got[0] == pytest.approx(2.1210154009613658, rel=1e-12)
        assert got[1] == pytest.approx(-0.43295940727610627, rel=1e-12)

    def test_vergence_values(self):
        assert predictors_vergence(geom(a=3.0, w=0.2, ctd=0.0)) == pytest.approx((4.0, 0.0))
        got = predictors_vergence(geom(a=9.0, w=0.2, d=9.0, ctd=8.41))
        assert got[0] == pytest.approx(5.523561956057013, rel=1e-12)
        assert got[1] == 8.41
        got = predictors_vergence(geom(a=3.0, w=1.35, ctd=2.41))
        assert got[0] == pytest.approx(1.6880559936852595, rel=1e-12)
        assert got[1] == 2.41

    def test_proposed_values(self):
        a = math.hypot(9.0, 3.0)
        got = predictors_proposed(geom(a=a, w=0.2, d=9.0, h=3.0))
        assert got[0] == pytest.approx(5.59795316195793, rel=1e-12)
        assert got[1] == pytest.approx(-0.03170885972733805, rel=1e-12)
        got = predictors_proposed(geom(a=3.0, w=1.35, d=3.0, h=3.0))
        assert got[1] == pytest.approx(-0.5360529002402097, rel=1e-12)

    def test_proposed_second_predictor_vanishes_for_tiny_widths(self):
        got = predictors_proposed(geom(a=3.0, w=1e-12, d=9.0, h=3.0))
        assert got[1] == pytest.approx(0.0, abs=1e-9)

    @given(w=positive, d=positive, h=st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_proposed_second_predictor_nonpositive(self, w, d, h):
        g = geom(a=1.0, w=w, d=d, h=h)
        assert predictors_proposed(g)[1] <= 0.0

    def test_planar_reduction_uses_depth(self):
        g = geom(a=5.0, w=0.3, d=4.0, h=0.0)
        got = predictors_proposed(g)
        assert got[1] == -math.log2(0.3 / 4.0 + 1.0)

    @given(a=positive, w=positive)
    @settings(max_examples=100, deadline=None)
    def test_first_predictor_shared_bitwise(self, a, w):
        g = geom(a=a, w=w, d=3.0, h=1.0, ctd=0.5)
        first = {
            kind: predictors_for(kind, g)[0]
            for kind in (ModelKind.STANDARD, ModelKind.VERGENCE, ModelKind.PROPOSED)
        }
        assert len(set(first.values())) == 1


class TestPredictMt:
    def test_standard_reference_point(self):
        # ID = 4 exactly for A=3, W=0.2
        mt = predict_mt(ModelKind.STANDARD, (-0.41, 0.83), geom(a=3.0, w=0.2))
        assert mt == pytest.approx(2.91, abs=1e-12)

    def test_zero_coefficients(self):
        assert predict_mt(ModelKind.STANDARD, (0.0, 0.0), geom()) == 0.0

    def test_proposed_reference_point(self):
        g = geom(a=3.0, w=0.2, d=9.0, h=3.0)
        preds = predictors_proposed(g)
        assert preds[0] == pytest.approx(4.0, abs=1e-12)
        mt = predict_mt(ModelKind.PROPOSED, (-2.46, 1.21, 3.00), g)
        expected = -2.46 + 1.21 * 4.0 + 3.00 * preds[1]
        assert mt == pytest.approx(expected, abs=1e-12)
        assert mt == pytest.approx(2.2849, abs=5e-4)

    def test_coefficient_count_mismatch(self):
        with pytest.raises(ValueError, match="coefficients"):
            predict_mt(ModelKind.PROPOSED, (0.0, 1.0), geom())

    @given(scale=st.floats(0.1, 10.0), a=positive, w=positive)
    @settings(max_examples=50, deadline=None)
    def test_linear_in_coefficients(self, scale, a, w):
        g = geom(a=a, w=w)
        coef = (0.3, 0.8)
        lhs = predict_mt(ModelKind.STANDARD, tuple(scale * c for c in coef), g)
        rhs = scale * predict_mt(ModelKind.STANDARD, coef, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestAmplitudeFromGrid:
    def test_planar(self):
        assert amplitude_from_grid(3.0, 0.0, AmplitudeMode.EUCLIDEAN) == 3.0

    def test_euclidean(self):
        assert amplitude_from_grid(9.0, 3.0, AmplitudeMode.EUCLIDEAN) == pytest.approx(
            9.486832980505138, rel=1e-12
        )

    def test_depth_only(self):
        assert amplitude_from_grid(9.0, 3.0, AmplitudeMode.DEPTH_ONLY) == 9.0

    def test_geometry_for_condition_sets_ctd_from_start_cube(self):
        g = geometry_for_condition(0.2, 9.0, 3.0)
        assert g.ctd_m == pytest.approx(8.41)
        g = geometry_for_condition(0.2, 3.0, 0.0)
        assert g.ctd_m == pytest.approx(2.41)


class TestGeometryValidation:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            geom(w=0.0)

    def test_rejects_negative_altitude(self):
        with pytest.raises(ValueError):
            geom(h=-1.0)
