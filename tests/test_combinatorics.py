import pytest

from priceofmajority import ParameterError, binomial, c_l, s_kl, s_kl_oracle
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
        with pytest.raises(ResourceLimitError):
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
