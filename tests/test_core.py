import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from priceofmajority import (
    ParameterError,
    Proposal,
    VoterMatrix,
    VoterRow,
    absolute_representativeness,
    canonicalize,
    column_tally,
    has_majority_support,
    majority_decisions,
    matches,
    relative_representativeness,
    supports,
    type_profile,
)
from priceofmajority.core import is_canonical, parse_opinions, supporter_weight
from priceofmajority.sampling import random_matrix


def small_matrices():
    masks = st.integers(min_value=0, max_value=(1 << 5) - 1)
    weights = st.integers(min_value=1, max_value=4)
    rows = st.lists(st.tuples(masks, weights), min_size=1, max_size=5)
    return rows.map(
        lambda rws: VoterMatrix(5, tuple(VoterRow(m, 5, w) for m, w in rws))
    )


class TestCanonicalize:
    def test_unanimous_minority_columns_flip(self):
        matrix = VoterMatrix.from_strings(["NN"])
        canonical, flip = canonicalize(matrix)
        assert flip == 0b11
        assert canonical.rows[0].to_string() == "YY"

    def test_intro_matrix_already_canonical(self, intro_matrix):
        canonical, flip = canonicalize(intro_matrix)
        assert flip == 0
        assert canonical is intro_matrix
        assert column_tally(canonical).y_weights == (5, 5, 5, 6, 6, 6, 6)

    def test_tie_columns_never_flip(self):
        matrix = VoterMatrix.from_strings(["YN", "NY"])
        canonical, flip = canonicalize(matrix)
        assert flip == 0
        assert is_canonical(canonical)

    @given(small_matrices())
    def test_double_flip_is_identity(self, matrix):
        canonical, flip = canonicalize(matrix)
        assert is_canonical(canonical)
        restored = VoterMatrix(
            matrix.t,
            tuple(VoterRow(r.mask ^ flip, r.t, r.weight) for r in canonical.rows),
        )
        assert restored == matrix


class TestSupport:
    def test_hand_counted_agreements(self):
        voter = VoterRow(*parse_opinions("YYYNNNN"))
        assert supports(voter, Proposal.from_string("YYYYYYN"))

    def test_voter_supports_itself(self):
        voter = VoterRow(0b10110, 5)
        assert supports(voter, Proposal(0b10110, 5))

    def test_opposite_vector_not_supported(self):
        voter = VoterRow(*parse_opinions("YNN"))
        assert not supports(voter, Proposal.from_string("NYY"))

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            supports(VoterRow(0, 3), Proposal(0, 4))


class TestMajoritySupport:
    def test_intro_compromise_supported(self, intro_matrix):
        assert has_majority_support(intro_matrix, Proposal.from_string("YYYYYYN"))

    def test_intro_all_y_not_supported(self, intro_matrix):
        assert not has_majority_support(intro_matrix, Proposal.from_string("YYYYYYY"))

    def test_single_voter_supports_own_row(self):
        matrix = VoterMatrix.from_strings(["YNYNY"])
        assert has_majority_support(matrix, Proposal(matrix.rows[0].mask, 5))

    @given(small_matrices(), st.integers(min_value=0, max_value=31))
    def test_pair_support(self, matrix, mask):
        p = Proposal(mask, 5)
        total = supporter_weight(matrix, p) + supporter_weight(matrix, p.opposite())
        assert total >= matrix.n
        assert has_majority_support(matrix, p) or has_majority_support(
            matrix, p.opposite()
        )


class TestMatches:
    def test_intro_all_y(self, intro_matrix):
        assert matches(intro_matrix, Proposal.from_string("YYYYYYY")) == 39

    def test_intro_best_supported(self, intro_matrix):
        assert matches(intro_matrix, Proposal.from_string("NNYYYYY")) == 37

    @given(small_matrices(), st.integers(min_value=0, max_value=31))
    def test_complement_identity(self, matrix, mask):
        p = Proposal(mask, 5)
        assert matches(matrix, p) + matches(matrix, p.opposite()) == matrix.n * 5


class TestRepresentativeness:
    def test_intro_all_y_absolute(self, intro_matrix):
        p = Proposal.from_string("YYYYYYY")
        assert absolute_representativeness(intro_matrix, p) == Fraction(13, 21)

    def test_unanimous_opposite_is_zero(self):
        matrix = VoterMatrix.from_strings(["YYY", "YYY"])
        assert absolute_representativeness(matrix, Proposal.from_string("NNN")) == 0

    def test_intro_best_relative(self, intro_matrix):
        p = Proposal.from_string("NNYYYYY")
        assert relative_representativeness(intro_matrix, p) == Fraction(37, 39)

    def test_all_y_relative_is_one(self, intro_matrix):
        p = Proposal.from_string("YYYYYYY")
        assert relative_representativeness(intro_matrix, p) == 1

    def test_three_topic_worst_case_member(self):
        # singleton rows plus a double-weight all-Y block, 5 voters in total
        matrix = VoterMatrix.from_strings(
            ["YNN", "NYN", "NNY", "YYY"], weights=[1, 1, 1, 2]
        )
        assert relative_representativeness(
            matrix, Proposal.from_string("YYN")
        ) == Fraction(8, 9)

    def test_relative_needs_a_y_to_divide_by(self):
        matrix = VoterMatrix.from_strings(["NN", "NN"])
        with pytest.raises(ParameterError, match="canonical"):
            relative_representativeness(matrix, Proposal.from_string("YN"))

    def test_quarter_floor_for_supported_proposals(self):
        rng = random.Random(7)
        for _ in range(300):
            matrix = random_matrix(rng, max_t=6)
            for mask in range(1 << matrix.t):
                p = Proposal(mask, matrix.t)
                if has_majority_support(matrix, p):
                    assert absolute_representativeness(matrix, p) >= Fraction(1, 4)


class TestMajorityDecisions:
    @pytest.mark.parametrize(
        "text,expected",
        [("YYYYYYN", 6), ("NNN", 0), ("YYYYY", 5)],
    )
    def test_counts_ys(self, text, expected):
        assert majority_decisions(Proposal.from_string(text)) == expected


class TestTypeProfile:
    def test_intro_matrix(self, intro_matrix):
        profile = type_profile(intro_matrix)
        expected = [Fraction(0)] * 8
        expected[7] = Fraction(4, 9)
        expected[3] = Fraction(1, 9)
        expected[2] = Fraction(4, 9)
        assert list(profile.fractions) == expected

    def test_unanimous(self):
        matrix = VoterMatrix.from_strings(["YYYY"], weights=[5])
        assert type_profile(matrix).fractions[4] == 1

    def test_lemma1_shape(self):
        from priceofmajority import lemma1_matrix

        profile = type_profile(lemma1_matrix(3))
        assert profile.fractions[1] == Fraction(3, 5)
        assert profile.fractions[3] == Fraction(2, 5)


class TestFlipCovariance:
    @given(
        small_matrices(),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
    )
    def test_support_and_matches_preserved(self, matrix, mask, flip):
        p = Proposal(mask, 5)
        flipped = VoterMatrix(
            5, tuple(VoterRow(r.mask ^ flip, 5, r.weight) for r in matrix.rows)
        )
        fp = Proposal(mask ^ flip, 5)
        assert supporter_weight(matrix, p) == supporter_weight(flipped, fp)
        assert matches(matrix, p) == matches(flipped, fp)


class TestWeightExpansion:
    def test_weighted_equals_expanded(self):
        rng = random.Random(11)
        for _ in range(50):
            matrix = random_matrix(rng, max_t=5, max_rows=3, max_weight=4)
            expanded = VoterMatrix(
                matrix.t,
                tuple(
                    VoterRow(r.mask, r.t)
                    for r in matrix.rows
                    for _ in range(r.weight)
                ),
            )
            for mask in range(1 << matrix.t):
                p = Proposal(mask, matrix.t)
                assert matches(matrix, p) == matches(expanded, p)
                assert supporter_weight(matrix, p) == supporter_weight(expanded, p)


class TestValidation:
    def test_inconsistent_row_lengths(self):
        with pytest.raises(ParameterError):
            VoterMatrix.from_strings(["YN", "YNN"])

    def test_ragged_rows_reported_by_the_matrix(self):
        with pytest.raises(ParameterError, match="^row has 3 topics but the matrix has 2$"):
            VoterMatrix.from_strings(["YN", "YNN"])

    @pytest.mark.parametrize("mask", [-1, 1 << 3])
    def test_mask_outside_the_topic_range(self, mask):
        with pytest.raises(ParameterError, match="^proposal mask has bits outside"):
            Proposal(mask, 3)
        with pytest.raises(ParameterError, match="^voter mask has bits outside"):
            VoterRow(mask, 3)

    def test_zero_weight(self):
        with pytest.raises(ParameterError):
            VoterRow(0, 2, 0)

    def test_topic_cap(self):
        with pytest.raises(ParameterError):
            Proposal(0, 65)

    def test_empty_matrix(self):
        with pytest.raises(ParameterError):
            VoterMatrix.from_strings([])
