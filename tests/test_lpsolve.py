import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priceofmajority import (
    ParameterError,
    ResourceLimitError,
    lpsolve,
    ma_table,
    solve_ma,
    solve_ma_float,
)
from priceofmajority.combinatorics import min_k, s_kl_row
from priceofmajority.lpsolve import EXACT_T_CAP, SupportRows


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
            solution = solve_ma(t, w)
            assert _feasible(t, w, solution.profile.fractions)
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
                assert not _feasible(t, w, shifted)  # dst > src would raise the objective

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


def _feasible(t, w, v):
    """Whether profile v keeps every k-proposal, k >= w, at no more than half support."""
    return all(
        2 * sum(_supported(t, k, l) * x for l, x in enumerate(v)) <= math.comb(t, k)
        for k in range(w, t + 1)
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

    def test_seeded_table_equals_cold_solves(self):
        # t=41 reaches the a = 1 certificate; both reach rows seeded from w + 1
        for t in (40, 41):
            assert ma_table(t) == [(w, solve_ma(t, w).ma) for w in range(min_k(t), t + 1)], t

    def test_exact_results_are_fractions(self):
        assert lpsolve._rational is Fraction

    def test_exact_path_imports_no_scipy(self, child_env):
        code = (
            "import sys; from priceofmajority import ma_table, rt_bounds, solve_ma_float; "
            "rt_bounds(9, exact=True); rt_bounds(9, exact=False); ma_table(15, exact=False); "
            "solve_ma_float(15, 8); assert 'scipy' not in sys.modules"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=120
        )
        assert done.returncode == 0, done.stderr


def _simplex(c, rows):
    """Maximize c.x subject to (a_i / d_i).x <= b_i / d_i, x >= 0 from the slack basis.

    ``c`` is a list of integers and ``rows`` a list of (a_i, b_i, d_i) with
    integer a_i, integers b_i >= 0 and d_i > 0. Returns (x, value, pivots)
    with x over the n variables followed by the m slacks of a_i.x <= b_i, as
    Fractions. The full-LP reference for the working-set solver.
    """
    tableau = lpsolve._Tableau(c, rows)
    tableau.primal()
    x = [Fraction(0)] * (len(c) + len(rows))
    for j, v in tableau.primal_values().items():
        x[j] = v
    return x, tableau.value(), tableau.pivots


def _full_simplex_ma(t, w):
    """ma_t(w) from the full-tableau simplex on every integer row of lpsolve.SupportRows."""
    rows = [([2 * s for s in row], row[t], 2 * row[t]) for row in SupportRows.build(t, w).ints]
    rows.append(([1] * (t + 1), 1, 1))
    _, value, _ = _simplex(list(range(t + 1)), rows)
    return value / t


class TestWorkingSet:
    def test_equals_full_simplex_up_to_t41(self):
        for t in range(1, 42):
            for w in range(min_k(t), t + 1):
                assert solve_ma(t, w).ma == _full_simplex_ma(t, w), (t, w)

    def test_t99_table_equals_full_simplex(self):
        assert ma_table(99, exact=True) == [
            (w, _full_simplex_ma(99, w)) for w in range(min_k(99), 100)
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_initial_working_set_reaches_the_optimum(self, data):
        t = data.draw(st.integers(3, 30), label="t")
        w = data.draw(st.integers(min_k(t), t), label="w")
        ks = data.draw(st.sets(st.integers(w, t)), label="ks")
        ls = data.draw(st.sets(st.integers(0, t)), label="ls")
        x, value, active, _, _ = lpsolve._working_set_solve(SupportRows.build(t, w), ks, ls)
        assert value / t == solve_ma(t, w).ma
        assert all(v > 0 for v in x.values()) and sum(x.values()) <= 1
        assert value == sum(l * v for l, v in x.items())
        tight = tuple(
            k
            for k in range(w, t + 1)
            if 2 * sum(_supported(t, k, l) * v for l, v in x.items()) == math.comb(t, k)
        )
        assert active == tight

    def test_half_certificate_for_odd_t(self):
        for t in range(1, 302, 2):
            w = min_k(t)
            solution = solve_ma(t, w)
            assert solution.ma == Fraction(1, 2), t
            assert solution.pivots == 0
            assert solution.active == tuple(range(w, t + 1))

    def test_lemma7_certificate_next_to_min_k(self):
        for t in range(5, 302, 2):
            w = min_k(t) + 1
            solution = solve_ma(t, w)
            assert solution.ma == Fraction(t + 1, 2 * t), t
            assert solution.pivots == 0, t
            profile = [Fraction(0)] * (t + 1)
            profile[1] = profile[t] = Fraction(1, 2)
            assert solution.profile.fractions == tuple(profile), t
            assert solution.active == tuple(range(w, t + 1)), t

    def test_failed_lemma7_dual_check_falls_back(self, monkeypatch):
        price = SupportRows.price
        calls = []

        def column_2_prices_in_first(*args):
            entering = price(*args)
            if not calls:  # the lemma-7 candidate prices before any working-set round
                entering = 2
            calls.append(args)
            return entering

        monkeypatch.setattr(SupportRows, "price", column_2_prices_in_first)
        for t in (5, 9, 15, 21):
            calls.clear()
            solution = solve_ma(t, min_k(t) + 1)
            assert solution.pivots > 0 and len(calls) > 1, t
            assert solution.ma == _full_simplex_ma(t, min_k(t) + 1) == Fraction(t + 1, 2 * t), t

    def test_seeded_sweep_pivot_totals(self, monkeypatch):
        # pins the sweep's pivots: a change to the seeds, the checks or the tie order moves them
        solve = lpsolve._working_set_solve
        pivots = []

        def counted(*args):
            result = solve(*args)
            pivots.append(result[3])
            return result

        monkeypatch.setattr(lpsolve, "_working_set_solve", counted)
        for t, total in ((99, 263), (149, 442)):
            pivots.clear()
            ma_table(t)
            assert sum(pivots) == total, t

    def test_half_certificate_checks_the_identity(self):
        t = 9
        ints = SupportRows.build(t, min_k(t)).ints
        ints[2][4] += 1
        # the float copy is built from the corrupted row
        rows = SupportRows(t, min_k(t), ints, lpsolve._float_rows(ints))
        with pytest.raises(AssertionError):
            lpsolve._working_set_solve(rows, (), (t,))


def _exact_primal_check(rows, x):
    """(cut, active) of x scored on every row in integers: the check without its filter."""
    den = math.lcm(*(v.denominator for v in x.values()))
    cut, cut_excess, cut_c, active = None, 0, 1, []
    for k, row in enumerate(rows.ints, rows.w):
        c = row[-1]
        load = sum(row[l] * v.numerator * (den // v.denominator) for l, v in x.items())
        excess = 2 * load - c * den
        if excess == 0:
            active.append(k)
        elif excess > 0 and excess * cut_c > cut_excess * c:
            cut, cut_excess, cut_c = k, excess, c
    return cut, tuple(active)


def _exact_price(rows, duals, den, skip):
    """The entering column priced on every column in integers: the check without its filter."""
    reduced = [
        l * den - sum(y if k is None else 2 * y * rows.ints[k - rows.w][l] for k, y in duals)
        for l in range(rows.t + 1)
    ]
    priced_in = [l for l in range(1, rows.t + 1) if l not in skip and reduced[l] > 0]
    return max(priced_in, key=reduced.__getitem__, default=None)  # the first on a tie


def _record_checks(monkeypatch):
    """Every (check, rows, arguments, result) of SupportRows' two checks from now on."""
    calls = []
    primal_check, price = SupportRows.primal_check, SupportRows.price

    def recorded_primal_check(rows, x):
        result = primal_check(rows, x)
        calls.append((_exact_primal_check, rows, (dict(x),), result))
        return result

    def recorded_price(rows, duals, den, skip):
        result = price(rows, duals, den, skip)
        calls.append((_exact_price, rows, (list(duals), den, set(skip)), result))
        return result

    monkeypatch.setattr(SupportRows, "primal_check", recorded_primal_check)
    monkeypatch.setattr(SupportRows, "price", recorded_price)
    return calls


class TestFloatFilter:
    """The float-filtered checks give exactly what an all-integer pass gives."""

    @staticmethod
    def _assert_exact(calls):
        for reference, rows, args, result in calls:
            assert result == reference(rows, *args), (reference.__name__, rows.t, rows.w)

    def test_sweep_rounds(self, monkeypatch):
        calls = _record_checks(monkeypatch)
        for t in (*range(1, 42), 149):
            ma_table(t)
        assert sum(reference is _exact_price for reference, *_ in calls) > 500
        self._assert_exact(calls)

    def test_rounds_at_t999(self, monkeypatch):
        # C(999, 500) is about 1e299, and the smallest ratio s_kl / C(t, k) about 1e-37
        t = 999
        rows = SupportRows.build(t, min_k(t))
        calls = _record_checks(monkeypatch)
        for a in (0, 1, 4, 10, 100, 400):
            w = min_k(t) + a
            lpsolve._working_set_solve(rows.suffix(w), (w,), (t,))
        assert len(calls) > 20
        self._assert_exact(calls)

    @pytest.mark.parametrize("t", [9, 149, 999])
    def test_ties_and_zero_reduced_costs(self, t):
        # the lemma-7 duals at a = 0 price every column at exactly 0; one unit
        # less on the mass dual prices every column at 1/den, a tie over 1..t
        w = min_k(t)
        rows = SupportRows.build(t, w)
        den = 2 * t * math.comb(t - 1, w - 1)
        duals = [(k, t * (2 * k - t)) for k in range(w, t + 1)]
        for mass, skip, entering in ((0, (), None), (-1, (), 1), (-1, {1, 2}, 3)):
            args = duals + [(None, mass)], den, skip
            assert rows.price(*args) == entering == _exact_price(rows, *args)

    def test_tie_between_two_columns(self):
        # row k = t counts 1 for the l-voters with l >= h = ceil(t/2); its dual
        # 1/2 prices column l at l below h and at l - 1 from h on: h - 1 and h tie
        t = 149
        h = (t + 1) // 2
        rows = SupportRows.build(t, t)
        skip = set(range(h + 1, t + 1))
        assert rows.price([(t, 1)], 2, skip) == h - 1 == _exact_price(rows, [(t, 1)], 2, skip)
        # a dual 2^-62 below 1/2 puts column h ahead by 2^-61, far inside the float error
        den = 2**62
        duals = [(t, den // 2 - 1)]
        assert rows.price(duals, den, skip) == h == _exact_price(rows, duals, den, skip)

    def test_tie_between_two_rows(self):
        # rows 6 and 8 are the most violated, by exactly the same share of
        # C(9, k); their float loads differ in the last bit, with row 6 lower
        rows = SupportRows.build(9, 5)
        x = {4: Fraction(6, 7), 6: Fraction(1, 7)}
        assert rows.primal_check(x) == _exact_primal_check(rows, x)
        assert rows.primal_check(x)[0] == 6

    def test_float_copy_past_the_float_maximum(self):
        # C(1100, 551) is about 1e329; row 824 holds the smallest ratio, about 3e-41
        t = 1100
        rows = [s_kl_row(t, k) for k in (min_k(t), 824)]
        assert rows[0][-1] > 2**1024
        for row, copy in zip(rows, lpsolve._float_rows(rows)):
            assert all(math.isfinite(v) for v in copy)
            for s, v in zip(row, copy):
                exact = Fraction(s, row[-1])
                assert abs(Fraction(v) - exact) <= exact / 2**51 + Fraction(1, 2**1018)


class TestFloatGuard:
    def test_floor_at_t499(self):
        assert solve_ma(499, 250).ma == Fraction(1, 2)
        assert solve_ma_float(499, 250).ma == 0.5


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
    """The float results are the certified exact ones, cast to float."""

    def test_agrees_with_exact(self):
        pairs = [(9, 7), (15, 8), (15, 10), (15, 12), (15, 15), (17, 12), (17, 13), (21, 14), (499, 250)]
        for t, w in pairs:
            exact = solve_ma(t, w)
            approx = solve_ma_float(t, w)
            assert approx.ma == float(exact.ma), (t, w)
            assert approx.profile == exact.profile, (t, w)
            assert approx.active == exact.active and approx.pivots == exact.pivots
            assert approx.residual == 0.0

    def test_table_mode_selection(self):
        for t in (9, 17, 199, 499):
            float_values = ma_table(t, exact=False)
            assert float_values == [(w, float(v)) for w, v in ma_table(t, exact=True)], t
            assert all(type(v) is float for _, v in float_values)
