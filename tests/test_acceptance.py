"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run). Tolerances: exact rational results are
compared with ==, decimal renderings are compared as 4-significant-figure
truncated strings. Float-mode ma_t(w) values are the exact ones cast to
float, and bounds derived from them in float arithmetic are within one ulp of
the exact bounds. Criteria 3-7 run the property suites of
``priceofmajority.verify``, the ones ``priceofmajority verify`` runs, and pin
how many checks each suite makes.
"""

import math
from fractions import Fraction

from priceofmajority import (
    has_majority_support,
    ma_table,
    r_V,
    rt_analytic_upper,
    rt_bounds,
    solve_ma,
    theorem2_matrix,
    theorem3_matrix,
)
from priceofmajority.bounds import figure2_points
from priceofmajority.cli import format_significant
from priceofmajority.constructions import theorem3_proof_parameters
from priceofmajority.core import Proposal
from priceofmajority.verify import run_suites

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


def _suites(name: str, checks: dict[str, int], ok: bool = True) -> None:
    """Run the named verify suites on SEED and 10,000 samples; pass when every
    check holds and each suite ran exactly ``checks[suite]`` checks."""
    results = run_suites(list(checks), seed=SEED, samples=10_000)
    ok &= all(r.ok for r in results) and {r.name: r.checks for r in results} == checks
    detail = ", ".join(f"{r.name} {r.checks - len(r.failures)}/{r.checks}" for r in results)
    _verdict(name, ok, detail)


def test_criterion_3_majority_decisions_floor():
    # lemma-1 md is tight for t <= 12, the floor holds on 10k random matrices
    _suites("criterion 3 (md floor tight and never violated, 10k samples)", {"mdtight": 10_012})


def test_criterion_4_three_topic_floor():
    ok = all(
        r_V(theorem2_matrix(l)) == Fraction(10 * l - 2, 12 * l - 3)
        for l in range(1, 51)
    )
    _suites(
        "criterion 4 (3-topic worst case exact, floor holds on 10k samples)", {"r3": 10_000}, ok
    )


def test_criterion_5_support_sum_identity():
    _suites("criterion 5 (support sum identity, odd t <= 30)", {"identity": 240})


def test_criterion_6_skl_formula_vs_oracle():
    _suites("criterion 6 (s_kl formula vs enumeration, t <= 12)", {"skl": 385})


def test_criterion_7_property_suites():
    # invariants: pair support, the 1/3 floor and the half proposal, one check each
    _suites(
        "criterion 7 (pair support, 1/3 floor, half proposal, 3/4 rule; 10k samples)",
        {"rule34": 10_000, "invariants": 30_000},
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
