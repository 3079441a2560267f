import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from priceofmajority import (
    ParameterError,
    Proposal,
    TypeProfile,
    VoterMatrix,
    VoterRow,
    absolute_representativeness,
    canonicalize,
    column_tally,
    has_majority_support,
    matches,
    relative_representativeness,
)
from priceofmajority.core import (
    ShapeError,
    opinions_to_string,
    parse_opinions,
    supporter_weight,
)
from priceofmajority.matrixio import parse_matrix, write_matrix
from priceofmajority.sampling import random_matrix


def small_matrices():
    masks = st.integers(min_value=0, max_value=(1 << 5) - 1)
    weights = st.integers(min_value=1, max_value=4)
    rows = st.lists(st.tuples(masks, weights), min_size=1, max_size=5)
    return rows.map(
        lambda rws: VoterMatrix(5, tuple(VoterRow(m, 5, w) for m, w in rws))
    )


def wide_matrices():
    """1..70 topics, so masks pass 64 bits; row weights 1..4."""
    weights = st.integers(min_value=1, max_value=4)

    def of_width(t):
        rows = st.lists(st.tuples(st.integers(0, (1 << t) - 1), weights), min_size=1, max_size=6)
        return rows.map(lambda rws: VoterMatrix(t, tuple(VoterRow(m, t, w) for m, w in rws)))

    return st.integers(min_value=1, max_value=70).flatmap(of_width)


def recounted_y_weights(matrix):
    return [sum(r.weight for r in matrix.rows if r.mask >> i & 1) for i in range(matrix.t)]


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
        assert all(2 * y >= canonical.n for y in canonical.y_weights)

    @given(wide_matrices())
    def test_double_flip_is_identity(self, matrix):
        canonical, flip = canonicalize(matrix)
        assert all(2 * y >= canonical.n for y in canonical.y_weights)
        restored = VoterMatrix(
            matrix.t,
            tuple(VoterRow(r.mask ^ flip, r.t, r.weight) for r in canonical.rows),
        )
        assert restored == matrix
        # the stored sums, counted for the input and mapped for its canonical form,
        # equal a recount of each one's rows
        for m in (matrix, canonical):
            ys = column_tally(m).y_weights
            assert list(ys) == recounted_y_weights(m)
            assert all(type(y) is int for y in ys)


class TestSupport:
    """A voter supports a proposal it agrees with on at least half the topics:
    the supporter weight of a one-voter matrix."""

    def test_hand_counted_agreements(self):
        # 4 of 7 topics agree
        matrix = VoterMatrix.from_strings(["YYYNNNN"], weights=[3])
        assert supporter_weight(matrix, Proposal.from_string("YYYYYYN")) == 3

    def test_voter_supports_itself(self):
        matrix = VoterMatrix(5, (VoterRow(0b10110, 5),))
        assert supporter_weight(matrix, Proposal(0b10110, 5)) == 1

    def test_opposite_vector_not_supported(self):
        matrix = VoterMatrix.from_strings(["YNN"])
        assert supporter_weight(matrix, Proposal.from_string("NYY")) == 0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            supporter_weight(VoterMatrix(3, (VoterRow(0, 3),)), Proposal(0, 4))


class TestMajoritySupport:
    def test_intro_compromise_supported(self, intro_matrix):
        assert has_majority_support(intro_matrix, Proposal.from_string("YYYYYYN"))

    def test_intro_all_y_not_supported(self, intro_matrix):
        assert not has_majority_support(intro_matrix, Proposal.from_string("YYYYYYY"))

    def test_single_voter_supports_own_row(self):
        matrix = VoterMatrix.from_strings(["YNYNY"])
        assert has_majority_support(matrix, Proposal(matrix.rows[0].mask, 5))

    def test_supporter_weight_in_the_matrix_number_type(self):
        # weights are ints, so every sum is an int, also with no supporter
        ints = VoterMatrix.from_strings(["YYY", "NNN"], weights=[2, 1])
        single = VoterMatrix.from_strings(["YYY"])
        cases = ((ints, "YYN", 2), (ints, "NNY", 1), (single, "NNN", 0))
        for matrix, text, expected in cases:
            weight = supporter_weight(matrix, Proposal.from_string(text))
            assert weight == expected
            assert type(weight) is type(expected)

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
        # majority decisions are the Ys of a proposal in the canonical frame
        assert Proposal.from_string(text).ones_count == expected


def type_profile(matrix):
    """Fraction of the weight held by l-voters, for l = 0..t, by ``ones_count``."""
    shares = [Fraction(0)] * (matrix.t + 1)
    for row in matrix.rows:
        shares[row.ones_count] += Fraction(row.weight, matrix.n)
    return TypeProfile(tuple(shares))


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

    @pytest.mark.parametrize(
        "weight", [Fraction(1, 2), Fraction(3, 1), 1.0, 0, -1], ids=repr
    )
    def test_weight_must_be_a_positive_int(self, weight):
        # a Fraction equal to an int is refused too: weights have one number type
        with pytest.raises(ParameterError, match="^row weight must be a positive int$"):
            VoterRow(0b01, 2, weight)

    @pytest.mark.parametrize("t", [65, 200])
    def test_no_topic_limit(self, t):
        # masks of 2^64 and more are plain Python ints: no width limit applies
        top = 1 << (t - 1)
        assert top >= 1 << 64
        assert Proposal(top | 1, t).ones_count == 2
        with pytest.raises(ParameterError, match="^proposal mask has bits outside"):
            Proposal(1 << t, t)
        matrix = VoterMatrix(t, (VoterRow(top | 1, t), VoterRow((1 << t) - 1, t, 2)))
        text = write_matrix(matrix)
        assert "Y" + "N" * (t - 2) + "Y" in text
        assert parse_matrix(text) == matrix

    @pytest.mark.parametrize("wrap", [list, iter], ids=["list", "generator"])
    def test_rows_from_an_iterable(self, wrap):
        rows = [VoterRow(0b011, 3), VoterRow(0b110, 3, 2)]
        matrix = VoterMatrix(3, wrap(rows))
        assert matrix.rows == tuple(rows)
        assert matrix.n == 3
        with pytest.raises(ShapeError):
            VoterMatrix(3, wrap([*rows, VoterRow(0b1, 2)]))

    def test_empty_matrix(self):
        with pytest.raises(ParameterError):
            VoterMatrix.from_strings([])


class TestParseOpinions:
    def test_topic_one_is_the_lowest_bit(self):
        assert parse_opinions("YNN") == (0b001, 3)
        assert parse_opinions("NNY") == (0b100, 3)
        assert parse_opinions("") == (0, 0)

    # int() would accept '_' and whitespace, so the characters are checked first
    @pytest.mark.parametrize(
        "text,bad", [("YNyN", "y"), ("Y N", " "), ("Y_N", "_"), ("YN1", "1"), ("NxYz", "x")]
    )
    def test_error_names_the_first_bad_character(self, text, bad):
        message = f"invalid opinion character {bad!r} (expected Y or N)"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            parse_opinions(text)

    def test_past_the_int_digit_limit(self):
        # 5000 digits: CPython's int/str digit limit exempts base 2
        mask = random.Random(3).getrandbits(5000) | 1 << 4999
        assert parse_opinions(opinions_to_string(mask, 5000)) == (mask, 5000)
