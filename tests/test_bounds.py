import math
from fractions import Fraction

import pytest

from priceofmajority import (
    ParameterError,
    figure2_points,
    ma_closed_form_full,
    ma_linear_lower,
    ma_table,
    rt_analytic_upper,
    rt_bounds,
    rt_lower_numeric,
    rt_upper_numeric,
)
from priceofmajority.cli import format_significant


class TestClosedForms:
    @pytest.mark.parametrize(
        "t,expected",
        [(3, Fraction(2, 3)), (9, Fraction(13, 18)), (2, Fraction(1, 2))],
    )
    def test_full_agreement_value(self, t, expected):
        assert ma_closed_form_full(t) == expected

    def test_nonpositive_t_named(self):
        with pytest.raises(ParameterError, match=r"^t must be at least 1, got 0$"):
            ma_closed_form_full(0)

    def test_always_below_three_fourths(self):
        for t in range(1, 200):
            assert ma_closed_form_full(t) < Fraction(3, 4)

    def test_linear_lower_examples(self):
        assert ma_linear_lower(3, 2) == Fraction(1, 2)
        assert ma_linear_lower(9, 5) == Fraction(1, 2)

    def test_linear_lower_tight_at_t(self):
        for t in range(2, 30):
            assert ma_linear_lower(t, t) == ma_closed_form_full(t)

    def test_linear_lower_range_check(self):
        with pytest.raises(ParameterError):
            ma_linear_lower(9, 4)


class TestAnalyticUpper:
    def test_limit_value(self):
        assert math.isclose(2 * math.sqrt(6) - 4, 0.8989794855663558)

    def test_t9(self):
        expected = 2 * math.sqrt(6) - 4 + (1 - math.sqrt(2 / 3)) / 9
        assert math.isclose(rt_analytic_upper(9), expected)
        assert format_significant(rt_analytic_upper(9)) == "0.9193"

    def test_parity_gap(self):
        step = (1 - math.sqrt(2 / 3))
        for t in (4, 10, 50):
            assert math.isclose(
                rt_analytic_upper(t) - rt_analytic_upper(t + 1),
                step * (2 / t - 1 / (t + 1)),
            )


class TestNumericBounds:
    def test_t9_table_row(self):
        values = ma_table(9)
        assert format_significant(rt_lower_numeric(9, values)) == "0.6363"
        assert format_significant(rt_upper_numeric(9, values)) == "0.8787"

    def test_exactness(self):
        values = ma_table(9)
        assert isinstance(rt_lower_numeric(9, values), Fraction)
        assert isinstance(rt_upper_numeric(9, values), Fraction)

    def test_sandwich(self):
        for t in (5, 8, 9, 12, 15):
            result = rt_bounds(t)
            assert Fraction(1, 3) <= result.lower <= result.upper <= 1

    def test_trivial_topic_counts(self):
        for exact in (True, False):
            for t in (1, 2):
                result = rt_bounds(t, exact=exact)
                assert result.lower == result.upper == 1, (t, exact)
                assert type(result.lower) is type(result.upper) is (Fraction if exact else float)

    def test_details_cover_all_w(self):
        result = rt_bounds(9)
        assert [d.w for d in result.details] == [5, 6, 7, 8, 9]
        assert result.lower == min(d.lower_candidate for d in result.details)
        assert result.upper == min(d.upper_candidate for d in result.details)

    @pytest.mark.parametrize("exact", [True, False])
    def test_bounds_come_from_the_numeric_functions(self, exact):
        for t in (9, 17, 199):
            result = rt_bounds(t, exact=exact)
            values = ma_table(t, exact=exact)
            for got, want in (
                (result.lower, rt_lower_numeric(t, values)),
                (result.upper, rt_upper_numeric(t, values)),
            ):
                assert type(got) is type(want) is (Fraction if exact else float)
                assert got == want, t
            assert [(d.w, d.ma) for d in result.details] == values


class TestFigure2:
    def test_last_point_is_one_one(self):
        for t in (5, 9, 14):
            points = figure2_points(t, ma_table(t))
            assert points[-1] == (1, 1)

    def test_t9_lies_on_the_diagonal(self):
        for x, y in figure2_points(9, ma_table(9)):
            assert x == y

    def test_float_values_accepted(self):
        values = ma_table(9, exact=False)
        for x, y in figure2_points(9, values):
            assert abs(x - y) < 1e-9
