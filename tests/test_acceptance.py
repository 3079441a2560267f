"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run). Tolerances: exact rational results are
compared with ==, decimal renderings are compared as 4-significant-figure
truncated strings. Float-mode ma_t(w) values are the exact ones cast to
float, and bounds derived from them in float arithmetic are within one ulp of
the exact bounds.
"""

import math
import random
from fractions import Fraction

import numpy as np

from priceofmajority import (
    absolute_representativeness,
    half_proposal,
    has_majority_support,
    lemma1_matrix,
    ma_table,
    md_of,
    r_V,
    rt_analytic_upper,
    rt_bounds,
    rule_of_three_fourths_check,
    solve_ma,
    theorem2_matrix,
    theorem3_matrix,
)
from priceofmajority.bounds import figure2_points
from priceofmajority.cli import format_significant
from priceofmajority.combinatorics import binomial, c_l, min_k, s_kl, s_kl_oracle
from priceofmajority.constructions import theorem3_proof_parameters
from priceofmajority.core import Proposal
from priceofmajority.oracle import proposal_stats
from priceofmajority.sampling import random_matrix

SEED = 2022


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_bound_table():
    expected_float = {
        199: ("0.7028", "0.8379"),
        299: ("0.6989", "0.8265"),
        499: ("0.6943", "0.8124"),
        999: ("0.6882", "0.7944"),
    }
    expected_exact = {
        9: ("0.6363", "0.8787"),
        49: ("0.7098", "0.8756"),
        99: ("0.7076", "0.8574"),
        199: expected_float[199],
        299: expected_float[299],
        499: expected_float[499],
        999: expected_float[999],
    }
    ok = True
    exact_rows = {}
    for t, (lo, hi) in expected_exact.items():
        result = exact_rows[t] = rt_bounds(t, exact=True)
        ok &= format_significant(result.lower) == lo
        ok &= format_significant(result.upper) == hi
    for t, (lo, hi) in expected_float.items():
        result = rt_bounds(t, exact=False)
        ok &= format_significant(result.lower) == lo
        ok &= format_significant(result.upper) == hi
        # the float row is the exact row's ma_t(w) cast to float; its bounds are
        # float arithmetic on those values, so they round the exact bounds
        exact = exact_rows[t]
        ok &= [d.ma for d in result.details] == [float(d.ma) for d in exact.details]
        for got, want in ((result.lower, exact.lower), (result.upper, exact.upper)):
            ok &= type(got) is float and abs(got - float(want)) <= math.ulp(float(want))
    _verdict("criterion 1 (bound table, 4 s.f.)", ok)


def test_criterion_2_full_agreement_lp():
    ok = all(
        solve_ma(t, t).ma == Fraction(1, 2) + Fraction((t - 1) // 2, 2 * t)
        for t in range(3, 61)
    )
    _verdict("criterion 2 (LP matches closed form, t in [3,60])", ok)


def test_criterion_3_majority_decisions_floor():
    ok = all(md_of(lemma1_matrix(t)) == (t + 2) // 2 for t in range(1, 13))
    rng = random.Random(SEED)
    for _ in range(10_000):
        matrix = random_matrix(rng, max_t=10)
        ok &= md_of(matrix) >= (matrix.t + 2) // 2
    _verdict("criterion 3 (md floor tight and never violated, 10k samples)", ok)


def test_criterion_4_three_topic_floor():
    ok = all(
        r_V(theorem2_matrix(l)) == Fraction(10 * l - 2, 12 * l - 3)
        for l in range(1, 51)
    )
    rng = random.Random(SEED)
    floor = Fraction(5, 6)
    for _ in range(10_000):
        ok &= r_V(random_matrix(rng, t=3)) >= floor
    _verdict("criterion 4 (3-topic worst case exact, floor holds on 10k samples)", ok)


def test_criterion_5_support_sum_identity():
    ok = all(
        c_l(t, l) == l * binomial(t - 1, t // 2)
        for t in range(1, 31, 2)
        for l in range(t + 1)
    )
    _verdict("criterion 5 (support sum identity, odd t <= 30)", ok)


def test_criterion_6_skl_formula_vs_oracle():
    ok = all(
        s_kl(t, k, l) == s_kl_oracle(t, k, l)
        for t in range(1, 13)
        for k in range(min_k(t), t + 1)
        for l in range(t + 1)
    )
    _verdict("criterion 6 (s_kl formula vs enumeration, t <= 12)", ok)


def test_criterion_7_property_suites():
    rng = random.Random(SEED)
    pair_ok = floor_ok = half_ok = rule_ok = True
    for _ in range(10_000):
        matrix = random_matrix(rng)
        t = matrix.t
        supp, _ = proposal_stats(matrix)
        supp = np.array(supp)
        pair_ok &= bool(np.all(supp + supp[::-1] >= matrix.n))
        floor_ok &= r_V(matrix) >= Fraction(1, 3)
        p = half_proposal(matrix)
        half_ok &= has_majority_support(matrix, p)
        half_ok &= absolute_representativeness(matrix, p) >= Fraction(1, 2) - Fraction(1, t)
        rule_ok &= rule_of_three_fourths_check(matrix)
    ok = pair_ok and floor_ok and half_ok and rule_ok
    _verdict(
        "criterion 7 (pair support, 1/3 floor, half proposal, 3/4 rule; 10k samples)",
        ok,
        f"pair={pair_ok} floor={floor_ok} half={half_ok} rule={rule_ok}",
    )


def test_criterion_8_normalized_lp_curve():
    on_diagonal = all(x == y for x, y in figure2_points(9, ma_table(9)))
    above = any(y > x for x, y in figure2_points(49, ma_table(49)))
    _verdict(
        "criterion 8 (t=9 curve on the diagonal, t=49 rises above it)",
        on_diagonal and above,
    )


def test_criterion_9_round_robin_construction():
    matrix = theorem3_matrix(5, 4, 6)
    no_high = all(
        not has_majority_support(matrix, Proposal(mask, 5))
        for mask in range(1 << 5)
        if Proposal(mask, 5).ones_count >= 5
    )
    bound_ok = True
    for t in range(3, 12, 2):
        k, M = theorem3_proof_parameters(t)
        bound_ok &= float(r_V(theorem3_matrix(t, k, M))) <= rt_analytic_upper(t) + 1e-9
    _verdict(
        "criterion 9 (round-robin construction blocks high-Y proposals, meets bound)",
        no_high and bound_ok,
    )
