from fractions import Fraction

import pytest

from priceofmajority import TypeProfile, vlp_matrix
from priceofmajority.matrixio import MatrixFormatError, parse_matrix, write_matrix


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
        # the message is parse_opinions', with or without a weight prefix
        message = "line 2: invalid opinion character 'X' (expected Y or N)"
        for text in ("YN\nYNX", "YN\n2x YNX"):
            with pytest.raises(MatrixFormatError) as info:
                parse_matrix(text)
            assert str(info.value) == message

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
        # vlp_matrix clears the masses 1/6, 1/6, 1/6, 1/2 to ints; no scale line
        profile = TypeProfile((0, Fraction(1, 2), 0, Fraction(1, 2)))
        text = write_matrix(vlp_matrix(3, 3, profile))
        assert text == "YNN\nNYN\nNNY\n3x YYY\n"
        assert parse_matrix(text).n == 6
