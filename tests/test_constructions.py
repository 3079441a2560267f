import math
from fractions import Fraction
from unittest import mock

import pytest

from priceofmajority import (
    ParameterError,
    Proposal,
    ResourceLimitError,
    TypeProfile,
    column_tally,
    has_majority_support,
    lemma1_matrix,
    lemma7_matrix,
    md_of,
    r_V,
    solve_ma,
    theorem2_matrix,
    theorem3_matrix,
    vlp_matrix,
)
from priceofmajority import lpsolve, oracle
from priceofmajority.constructions import (
    theorem3_proof_parameters,
    theorem3_rv_bound,
)
from priceofmajority.core import is_canonical, supporter_weight
from priceofmajority.oracle import proposal_stats


class TestLemma1:
    def test_three_topics(self):
        matrix = lemma1_matrix(3)
        rows = {(r.to_string(), r.weight) for r in matrix.rows}
        assert rows == {("YNN", 1), ("NYN", 1), ("NNY", 1), ("YYY", 2)}
        assert matrix.n == 5

    def test_degenerate_single_topic(self):
        matrix = lemma1_matrix(1)
        assert matrix.n == 1
        assert matrix.rows[0].to_string() == "Y"

    def test_md_is_exactly_the_floor(self):
        assert md_of(lemma1_matrix(7)) == 4
        for t in range(1, 13):
            matrix = lemma1_matrix(t)
            assert is_canonical(matrix)
            assert md_of(matrix) == (t + 2) // 2


class TestTheorem2:
    def test_small_instance(self):
        matrix = theorem2_matrix(1)
        assert matrix.n == 5
        tally = column_tally(matrix)
        assert all(m == Fraction(3, 5) for m in (tally.m(0), tally.m(1), tally.m(2)))

    def test_all_y_never_supported(self):
        for l in range(1, 20):
            assert not has_majority_support(
                theorem2_matrix(l), Proposal.from_string("YYY")
            )

    def test_r_v_formula_and_limit(self):
        previous = None
        for l in range(1, 9):
            value = r_V(theorem2_matrix(l))
            assert value == Fraction(10 * l - 2, 12 * l - 3)
            assert value > Fraction(5, 6)
            if previous is not None:
                assert value < previous
            previous = value

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            theorem2_matrix(0)


class TestTheorem3:
    def test_proof_figure_instance(self):
        matrix = theorem3_matrix(5, 4, 6)
        assert matrix.n == 9
        tally = column_tally(matrix)
        assert all(y == 6 for y in tally.y_weights)
        top = [r for r in matrix.rows if r.weight == 1]
        assert len(top) == 5
        assert all(r.ones_count == 2 for r in top)

    def test_m_equals_n_gives_unanimity(self):
        matrix = theorem3_matrix(4, 3, 7)
        assert all(r.ones_count == 4 for r in matrix.rows)

    def test_no_high_y_proposal_supported(self):
        # top-voter Y-count x = 2, so proposals with >= 2 + 3 = 5 Ys fail
        matrix = theorem3_matrix(5, 4, 6)
        for mask in range(1 << 5):
            p = Proposal(mask, 5)
            if p.ones_count >= 5:
                assert not has_majority_support(matrix, p)

    def test_row_balance(self):
        for t, k, M in [(7, 5, 8), (6, 4, 7), (9, 3, 5)]:
            matrix = theorem3_matrix(t, k, M)
            counts = sorted(r.ones_count for r in matrix.rows if r.weight == 1)
            assert counts[-1] - counts[0] <= 1
            assert all(y == M for y in column_tally(matrix).y_weights)

    def test_infeasible_parameters(self):
        with pytest.raises(ParameterError):
            theorem3_matrix(5, 4, 4)
        with pytest.raises(ParameterError):
            theorem3_matrix(5, 4, 10)

    def test_rv_bound_holds_for_prescribed_parameters(self):
        # no mask is scanned, also past 64 topics, where the masks outgrow int64
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            for t in (*range(3, 65), 65, 101, 201):
                k, M = theorem3_proof_parameters(t)
                matrix = theorem3_matrix(t, k, M)
                assert r_V(matrix) == theorem3_rv_bound(t, k, M)
        assert not scan.called

    def test_reach_of_the_k_limit(self):
        # the docstring's measured reach of THEOREM3_K_LIMIT = 200
        assert theorem3_proof_parameters(466) == (195, 240)
        assert theorem3_proof_parameters(486) == (197, 241)
        for t in (467, 487, 507):
            with pytest.raises(ParameterError, match=rf"^no \(k, M\) .* for t={t}$"):
                theorem3_proof_parameters(t)


class TestLemma7:
    def test_shape(self):
        matrix = lemma7_matrix(7, 6, 9)
        assert matrix.n == 9
        top, bottom = matrix.rows
        assert top.weight == 5 and top.ones_count == 6 - 4
        assert bottom.weight == 4 and bottom.ones_count == 7

    def test_md_below_w_for_odd_n(self):
        for t in range(3, 10):
            for w in range((t + 2) // 2, t + 1):
                for n in (3, 7, 11):
                    assert md_of(lemma7_matrix(t, w, n)) < w

    def test_canonical_average_majority_meets_bound(self):
        for t in range(3, 10):
            for w in range((t + 2) // 2, t + 1):
                for n in (2, 5, 8, 13):
                    from priceofmajority import canonicalize

                    canonical, _ = canonicalize(lemma7_matrix(t, w, n))
                    bound = Fraction(w, 2 * t) + Fraction((t - 1) // 2, 2 * t)
                    assert column_tally(canonical).m_V >= bound

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            lemma7_matrix(5, 2, 9)  # w below ceil((t+1)/2)
        with pytest.raises(ParameterError):
            lemma7_matrix(5, 6, 9)


class TestVlpMatrix:
    def test_enumeration_cap(self):
        # refused before any LP row is built
        profile = TypeProfile((1,) + (0,) * 21)
        with mock.patch.object(lpsolve.SupportRows, "build") as build:
            with pytest.raises(ResourceLimitError, match=r"^vlp_matrix enumerates up to 2\^t "):
                vlp_matrix(21, 11, profile)
        assert not build.called

    def test_boundary_profile(self):
        fractions = [Fraction(0)] * 4
        fractions[1] = Fraction(1, 2)
        fractions[3] = Fraction(1, 2)
        matrix = vlp_matrix(3, 3, TypeProfile(tuple(fractions)))
        # the shares 1/6 and 1/2 cleared by their lcm 6
        rows = [(r.to_string(), r.weight) for r in matrix.rows]
        assert rows == [("YNN", 1), ("NYN", 1), ("NNY", 1), ("YYY", 3)]
        assert matrix.n == 6
        # closed-boundary optimum: the all-Y proposal sits at exactly half
        assert supporter_weight(matrix, Proposal.from_string("YYY")) == 3

    def test_interior_profile_strictly_below_half(self):
        eps = Fraction(1, 100)
        fractions = [Fraction(0)] * 4
        fractions[0] = eps
        fractions[1] = Fraction(1, 2)
        fractions[3] = Fraction(1, 2) - eps
        matrix = vlp_matrix(3, 3, TypeProfile(tuple(fractions)))
        assert 2 * supporter_weight(matrix, Proposal.from_string("YYY")) < matrix.n

    def test_optimal_profile_symmetric_support(self):
        t = 4
        matrix = vlp_matrix(t, 3, solve_ma(t, 3).profile)
        supp, _ = proposal_stats(matrix)
        for k in range(t + 1):
            values = {supp[m] for m in range(1 << t) if bin(m).count("1") == k}
            assert len(values) == 1

    def test_lp_witnesses_have_coprime_int_weights(self):
        # sum_l C(t, l) * weight_l = L, so the weights have gcd 1 and n = L
        for t in range(1, 9):
            for w in range((t + 2) // 2, t + 1):
                solution = solve_ma(t, w)
                matrix = vlp_matrix(t, w, solution.profile)
                weights = [r.weight for r in matrix.rows]
                assert all(type(x) is int for x in weights)
                assert math.gcd(*weights) == 1
                assert column_tally(matrix).m_V == solution.ma

    def test_average_majority_equals_objective(self):
        for t, w in [(3, 3), (5, 4), (7, 5)]:
            solution = solve_ma(t, w)
            matrix = vlp_matrix(t, w, solution.profile)
            assert column_tally(matrix).m_V == solution.ma

    def test_topic_permutation_invariance(self):
        from itertools import permutations

        solution = solve_ma(4, 3)
        matrix = vlp_matrix(4, 3, solution.profile)
        multiset = sorted((r.mask, r.weight) for r in matrix.rows)
        for perm in permutations(range(4)):
            permuted = sorted(
                (
                    sum(((r.mask >> i) & 1) << perm[i] for i in range(4)),
                    r.weight,
                )
                for r in matrix.rows
            )
            assert permuted == multiset

    def test_just_past_the_boundary_rejected(self):
        eps = Fraction(1, 10**9)
        fractions = [Fraction(0)] * 4
        fractions[1] = Fraction(1, 2) - eps
        fractions[3] = Fraction(1, 2) + eps
        with pytest.raises(ParameterError):
            vlp_matrix(3, 3, TypeProfile(tuple(fractions)))

    def test_infeasible_profile_rejected(self):
        fractions = [Fraction(0)] * 4
        fractions[3] = Fraction(1)
        with pytest.raises(ParameterError):
            vlp_matrix(3, 3, TypeProfile(tuple(fractions)))

    def test_every_generated_matrix_is_canonical(self):
        matrices = [
            lemma1_matrix(6),
            theorem2_matrix(4),
            theorem3_matrix(5, 4, 6),
            vlp_matrix(5, 4, solve_ma(5, 4).profile),
        ]
        assert all(is_canonical(m) for m in matrices)
