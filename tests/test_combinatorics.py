import pytest

from priceofmajority import (
    ParameterError,
    Proposal,
    TypeProfile,
    VoterRow,
    binomial,
    c_l,
    lemma1_matrix,
    lemma7_matrix,
    ma_closed_form_full,
    ma_linear_lower,
    ma_table,
    s_kl,
    s_kl_oracle,
    solve_ma,
    theorem3_matrix,
    vlp_matrix,
)
from priceofmajority.combinatorics import min_k, s_kl_row
from priceofmajority.core import ResourceLimitError


class TestBinomial:
    def test_basic(self):
        assert binomial(5, 2) == 10

    def test_zero_above_n(self):
        assert binomial(3, 4) == 0

    def test_zero_below_zero(self):
        assert binomial(3, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ParameterError):
            binomial(-1, 0)


class TestSkl:
    def test_one_voter_three_topics(self):
        # the 1-voter YNN supports exactly the 2-proposals YYN and YNY
        assert s_kl(3, 2, 1) == 2

    def test_all_y_voter_unique_proposal(self):
        assert s_kl(3, 3, 3) == 1

    def test_zero_voter_supports_nothing_high(self):
        assert s_kl(3, 2, 0) == 0

    def test_k_below_range_rejected(self):
        with pytest.raises(ParameterError):
            s_kl(3, 1, 1)

    def test_one_range_message(self):
        # every k of s_kl and w of the ma LP is checked by check_range, with one message
        for call, name in (
            (lambda: s_kl(9, 4, 1), "k"),
            (lambda: s_kl_row(9, 10), "k"),
            (lambda: solve_ma(9, 4), "w"),
            (lambda: ma_linear_lower(9, 10), "w"),
            (lambda: lemma7_matrix(9, 4, 5), "w"),
            (lambda: vlp_matrix(9, 4, TypeProfile((1,) + (0,) * 9)), "w"),
        ):
            with pytest.raises(ParameterError, match=rf"^{name} must lie in \[5, 9\], got "):
                call()
        # t < 1 is named as such, not as an empty range of k or w: every caller
        # defers to core.check_topics
        for call in (
            lambda: s_kl(0, 1, 0),
            lambda: s_kl_row(0, 1),
            lambda: ma_linear_lower(0, 1),
            lambda: lemma7_matrix(0, 1, 1),
            lambda: vlp_matrix(0, 1, TypeProfile((1,))),
            lambda: Proposal(0, 0),
            lambda: VoterRow(0, 0),
            lambda: lemma1_matrix(0),
            lambda: theorem3_matrix(0, 1, 2),
            lambda: s_kl_oracle(0, 0, 0),
            lambda: ma_closed_form_full(0),
            lambda: solve_ma(0, 1),
            lambda: ma_table(0),
        ):
            with pytest.raises(ParameterError, match=r"^t must be at least 1, got 0$"):
                call()

    def test_full_voter_supports_everything(self):
        for t in range(1, 10):
            for k in range(min_k(t), t + 1):
                assert s_kl(t, k, t) == binomial(t, k)

    def test_bounded_by_total(self):
        for t in range(1, 10):
            for k in range(min_k(t), t + 1):
                for l in range(t + 1):
                    assert s_kl(t, k, l) <= binomial(t, k)


class TestSklRow:
    def test_recurrence_matches_formula(self):
        for t in range(1, 61):
            for k in range(min_k(t), t + 1):
                assert s_kl_row(t, k) == [s_kl(t, k, l) for l in range(t + 1)], (t, k)

    def test_sampled_rows_at_t199(self):
        for k in (100, 101, 137, 198, 199):
            assert s_kl_row(199, k) == [s_kl(199, k, l) for l in range(200)], k

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            s_kl_row(9, 4)
        with pytest.raises(ParameterError):
            s_kl_row(0, 0)


class TestSklOracle:
    def test_matches_worked_example(self):
        assert s_kl_oracle(3, 2, 1) == 2

    def test_all_y_voter(self):
        for t in range(1, 8):
            for k in range(min_k(t), t + 1):
                assert s_kl_oracle(t, k, t) == binomial(t, k)

    def test_zero_voter_even_t(self):
        # NNNN agrees with any 2-proposal on exactly 2 = ceil(4/2) topics
        assert s_kl_oracle(4, 2, 0) == 6

    def test_resource_cap(self):
        message = r"^s_kl_oracle enumerates up to 2\^t items; t=21 exceeds 20$"
        with pytest.raises(ResourceLimitError, match=message):
            s_kl_oracle(21, 11, 3)

    def test_formula_agrees_with_enumeration(self):
        for t in range(1, 10):
            for k in range(min_k(t), t + 1):
                for l in range(t + 1):
                    assert s_kl(t, k, l) == s_kl_oracle(t, k, l)

    def test_every_l_voter_supports_the_same_count(self):
        from itertools import combinations

        for t in range(1, 8):
            for k in range(min_k(t), t + 1):
                for l in range(t + 1):
                    counts = set()
                    for positions in combinations(range(t), l):
                        mask = sum(1 << pos for pos in positions)
                        counts.add(s_kl_oracle(t, k, l, voter_mask=mask))
                    assert len(counts) == 1

    @pytest.mark.parametrize("mask", [-2, 0b1000])
    def test_mask_outside_the_topic_range(self, mask):
        # both have one set bit as bit_count sees it, yet neither is a 3-topic 1-voter
        with pytest.raises(ParameterError, match="^voter_mask must lie in"):
            s_kl_oracle(3, 2, 1, voter_mask=mask)


class TestCl:
    def test_small_example(self):
        assert c_l(3, 1) == 2

    def test_zero_voter(self):
        for t in (1, 3, 5, 7):
            assert c_l(t, 0) == 0

    def test_full_voter(self):
        assert c_l(5, 5) == 5 * binomial(4, 2) == 30

    def test_identity_small(self):
        for t in range(1, 16, 2):
            for l in range(t + 1):
                assert c_l(t, l) == l * binomial(t - 1, t // 2)

    def test_even_t_rejected(self):
        with pytest.raises(ParameterError):
            c_l(4, 1)
