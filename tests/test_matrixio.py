import math
from fractions import Fraction

import pytest

from priceofmajority import VoterMatrix
from priceofmajority.core import VoterRow
from priceofmajority.matrixio import (
    MatrixFormatError,
    parse_matrix,
    scale_to_integer_weights,
    write_matrix,
)


class TestParse:
    def test_plain_rows(self):
        matrix = parse_matrix("YNY\nNNN\n")
        assert matrix.t == 3
        assert [r.to_string() for r in matrix.rows] == ["YNY", "NNN"]
        assert all(r.weight == 1 for r in matrix.rows)

    def test_weight_prefix(self):
        matrix = parse_matrix("3x YNN\nNYY\n")
        assert matrix.rows[0].weight == 3
        assert matrix.n == 4

    def test_comments_and_blank_lines(self):
        text = "# header\n\nYN  # trailing note\n2x NY\n"
        matrix = parse_matrix(text)
        assert matrix.n == 3

    def test_bad_character(self):
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix("YNX\n")
        assert info.value.line_number == 1

    def test_ragged_rows(self):
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix("YN\nYNY\n")
        assert info.value.line_number == 2

    def test_ragged_row_named_by_its_line(self):
        # the matrix reports the row's position; comments and blank lines do not count
        with pytest.raises(MatrixFormatError, match="^line 5: row has 1 topics but") as info:
            parse_matrix("# c\nYN\n\nNY # ok\nY\n")
        assert info.value.line_number == 5

    def test_zero_weight(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("0x YN\n")

    def test_empty_input(self):
        # such a text has no line at fault, and no line 0
        for text in ("# nothing but comments\n", "", "\n\n"):
            with pytest.raises(MatrixFormatError, match="^no voter rows found$") as info:
                parse_matrix(text)
            assert info.value.line_number is None


class TestWrite:
    def test_round_trip(self, intro_matrix):
        text = write_matrix(intro_matrix, header="intro")
        assert text.startswith("# intro\n")
        again = parse_matrix(text)
        assert again == intro_matrix

    def test_unit_weights_have_no_prefix(self):
        matrix = parse_matrix("YN\nNY\n")
        assert write_matrix(matrix) == "YN\nNY\n"

    def test_rational_weights_are_scaled(self):
        matrix = VoterMatrix(
            2,
            (
                VoterRow(0b01, 2, Fraction(1, 3)),
                VoterRow(0b10, 2, Fraction(1, 2)),
            ),
        )
        text = write_matrix(matrix)
        assert "scaled by 6" in text
        again = parse_matrix(text)
        assert [r.weight for r in again.rows] == [2, 3]


class TestScaling:
    def test_integer_matrix_unchanged(self, intro_matrix):
        scaled, scale = scale_to_integer_weights(intro_matrix)
        assert scale == 1
        assert scaled is intro_matrix

    def test_lcm_of_denominators(self):
        matrix = VoterMatrix(
            1,
            (
                VoterRow(1, 1, Fraction(1, 4)),
                VoterRow(0, 1, Fraction(1, 6)),
            ),
        )
        scaled, scale = scale_to_integer_weights(matrix)
        assert scale == 12
        assert [r.weight for r in scaled.rows] == [3, 2]

    @pytest.mark.parametrize(
        "weights",
        [
            [Fraction(1, 3)] * 5 + [Fraction(1, 6)] * 4,  # repeated weights
            [2, Fraction(3, 4), 2, Fraction(5, 6), 1, Fraction(3, 4)],  # mixed
            [Fraction(3, 1), Fraction(5, 1), Fraction(3, 1)],  # denominator one
            [3, Fraction(3, 1), Fraction(7, 2), 3],  # an int equal to a Fraction
        ],
    )
    def test_each_row_scaled_by_the_lcm(self, weights):
        t = 3
        matrix = VoterMatrix(
            t, tuple(VoterRow(i % (1 << t), t, w) for i, w in enumerate(weights))
        )
        scaled, scale = scale_to_integer_weights(matrix)
        assert scale == math.lcm(*(Fraction(w).denominator for w in weights))
        assert [r.weight for r in scaled.rows] == [int(Fraction(w) * scale) for w in weights]
        assert all(type(r.weight) is int for r in scaled.rows)
        assert [r.mask for r in scaled.rows] == [r.mask for r in matrix.rows]
        assert scaled is not matrix and scaled.has_integer_weights()
