import math
import subprocess
import sys
from fractions import Fraction

import pytest

from priceofmajority import (
    ParameterError,
    ResourceLimitError,
    build_ma_lp,
    lpsolve,
    ma_table,
    solve_ma,
    solve_ma_float,
)
from priceofmajority.combinatorics import min_k
from priceofmajority.lpsolve import EXACT_T_CAP


class TestBuildLp:
    def test_three_topics_full_agreement(self):
        lp = build_ma_lp(3, 3)
        assert lp.ks == (3,)
        assert lp.rows == ((0, 0, 1, 1),)
        assert lp.rhs == (Fraction(1, 2),)

    def test_three_topics_two_constraints(self):
        lp = build_ma_lp(3, 2)
        assert lp.ks == (2, 3)
        # s_2l = (0, 2, 1, 3) normalized by C(3,2) = 3
        assert lp.rows[0] == (0, Fraction(2, 3), Fraction(1, 3), 1)
        assert lp.rows[1] == (0, 0, 1, 1)

    def test_constraint_count(self):
        for t in range(3, 12):
            for w in range(min_k(t), t + 1):
                assert len(build_ma_lp(t, w).rows) == t - w + 1

    def test_w_out_of_range(self):
        with pytest.raises(ParameterError):
            build_ma_lp(5, 2)
        with pytest.raises(ParameterError):
            build_ma_lp(5, 6)


class TestSolveMa:
    def test_hand_solved_instance(self):
        solution = solve_ma(3, 3)
        assert solution.ma == Fraction(2, 3)
        assert sum(solution.profile.fractions) == 1

    def test_full_agreement_closed_form(self):
        for t in range(3, 26):
            expected = Fraction(1, 2) + Fraction((t - 1) // 2, 2 * t)
            assert solve_ma(t, t).ma == expected

    def test_left_end_matches_linear_bound_small_odd_t(self):
        for t in (3, 5, 7, 9):
            w = min_k(t)
            expected = Fraction(w, 2 * t) + Fraction((t - 1) // 2, 2 * t)
            assert solve_ma(t, w).ma == expected

    def test_solution_is_feasible(self):
        for t, w in [(5, 4), (9, 6), (11, 8)]:
            lp = build_ma_lp(t, w)
            solution = solve_ma(t, w)
            for row, rhs in zip(lp.rows, lp.rhs):
                lhs = sum(c * v for c, v in zip(row, solution.profile.fractions))
                assert lhs <= rhs
            assert solution.ma == sum(
                Fraction(l, t) * v for l, v in enumerate(solution.profile.fractions)
            )

    def test_active_constraints_reported(self):
        solution = solve_ma(3, 3)
        assert solution.active == (3,)

    def test_no_improving_single_swap(self):
        # moving mass from any variable to a higher-objective one breaks
        # feasibility or the optimum was not optimal
        t, w = 7, 5
        lp = build_ma_lp(t, w)
        solution = solve_ma(t, w)
        eps = Fraction(1, 10**6)
        x = list(solution.profile.fractions)
        for src in range(t + 1):
            if x[src] < eps:
                continue
            for dst in range(src + 1, t + 1):
                shifted = list(x)
                shifted[src] -= eps
                shifted[dst] += eps
                feasible = all(
                    sum(c * v for c, v in zip(row, shifted)) <= rhs
                    for row, rhs in zip(lp.rows, lp.rhs)
                )
                assert not feasible  # dst > src would raise the objective

    def test_exact_cap(self):
        with pytest.raises(ResourceLimitError):
            solve_ma(EXACT_T_CAP + 1, EXACT_T_CAP + 1)


def _supported(t, k, l):
    """k-proposals an l-voter supports, counted by the x Ys they share."""
    return sum(
        math.comb(l, x) * math.comb(t - l, k - x)
        for x in range(k + 1)
        if 2 * (x + (t - l) - (k - x)) >= t
    )


class TestIntegerSimplex:
    def test_optimum_feasible_tight_and_objective(self):
        for t in range(3, 26):
            for w in range(min_k(t), t + 1):
                solution = solve_ma(t, w)
                v = solution.profile.fractions
                assert all(isinstance(x, Fraction) and x >= 0 for x in v)
                assert sum(v) == 1
                tight = []
                for k in range(w, t + 1):
                    load = sum(_supported(t, k, l) * x for l, x in enumerate(v))
                    assert 2 * load <= math.comb(t, k), (t, w, k)
                    if 2 * load == math.comb(t, k):
                        tight.append(k)
                assert solution.active == tuple(tight), (t, w)
                assert isinstance(solution.ma, Fraction)
                assert sum(l * x for l, x in enumerate(v)) / t == solution.ma

    def test_bland_only_pivoting_reaches_same_optimum(self, monkeypatch):
        dantzig = {
            (t, w): solve_ma(t, w).ma
            for t in range(3, 26)
            for w in range(min_k(t), t + 1)
        }
        monkeypatch.setattr(lpsolve, "_DEGENERATE_PIVOT_LIMIT", 0)
        for (t, w), ma in dantzig.items():
            assert solve_ma(t, w).ma == ma, (t, w)

    def test_table_solves_suffixes_of_one_row_set(self):
        for t in (12, 17):
            assert ma_table(t, exact=True) == [
                (w, solve_ma(t, w).ma) for w in range(min_k(t), t + 1)
            ]

    def test_exact_results_are_fractions(self):
        assert lpsolve._rational is Fraction

    def test_exact_path_imports_no_scipy(self, child_env):
        code = (
            "import sys; from priceofmajority import rt_bounds; "
            "rt_bounds(9, exact=True); assert 'scipy' not in sys.modules"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=120
        )
        assert done.returncode == 0, done.stderr


class TestMaTable:
    def test_t9_sweep(self):
        table = ma_table(9)
        assert [w for w, _ in table] == [5, 6, 7, 8, 9]
        assert table[-1][1] == Fraction(13, 18)

    def test_monotone_in_w(self):
        for t in (7, 9, 12):
            values = [v for _, v in ma_table(t)]
            assert values == sorted(values)

    @pytest.mark.parametrize("exact", [True, False, None])
    def test_nonpositive_t_rejected(self, exact):
        for t in (0, -3):
            with pytest.raises(ParameterError):
                ma_table(t, exact=exact)

    def test_dominates_linear_bound(self):
        for t in (6, 9, 13):
            for w, value in ma_table(t):
                bound = Fraction(w, 2 * t) + Fraction((t - 1) // 2, 2 * t)
                assert value >= bound


class TestFloatFallback:
    def test_agrees_with_exact(self):
        for t, w in [(9, 7), (15, 10), (21, 14)]:
            exact = solve_ma(t, w)
            approx = solve_ma_float(t, w)
            assert not approx.exact
            assert abs(float(exact.ma) - approx.ma) < 1e-9
            assert approx.residual < 1e-9

    def test_table_mode_selection(self):
        exact_values = ma_table(9, exact=True)
        float_values = ma_table(9, exact=False)
        for (w1, v1), (w2, v2) in zip(exact_values, float_values):
            assert w1 == w2
            assert abs(float(v1) - v2) < 1e-9
