import csv
import io
import subprocess
import sys
from fractions import Fraction

import pytest

from priceofmajority import lpsolve
from priceofmajority.cli import format_significant, main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.txt"
    path.write_text(
        "4x YYYYYYY\nYYYNNNN\n2x NNNYYNN\n2x NNNNNYY\n"
    )
    return str(path)


class TestFormatSignificant:
    def test_truncates_not_rounds(self):
        assert format_significant(Fraction(7, 11)) == "0.6363"
        assert format_significant(Fraction(2, 3)) == "0.6666"

    def test_integers_and_exact_values(self):
        assert format_significant(Fraction(1, 2)) == "0.5000"
        assert format_significant(1) == "1.000"
        assert format_significant(0) == "0.000"

    def test_large_and_small_magnitudes(self):
        assert format_significant(Fraction(12345, 1)) == "12340"
        assert format_significant(Fraction(1, 800)) == "0.001250"

    def test_negative(self):
        assert format_significant(Fraction(-7, 11)) == "-0.6363"


class TestAnalyze:
    def test_intro_matrix(self, intro_file):
        code, text = run(["analyze", intro_file])
        assert code == 0
        assert "n: 9\n" in text
        assert "t: 7\n" in text
        assert "md: 6\n" in text
        assert "best_matches: 37\n" in text
        assert "R_V: 37/63 (0.5873)\n" in text
        assert "r_V: 37/39 (0.9487)\n" in text
        assert "witness: YNNYYYY\n" in text

    def test_metric_selection(self, intro_file):
        code, text = run(["analyze", intro_file, "--metric", "md"])
        assert code == 0
        assert "md: 6" in text
        assert "best_matches" not in text

    def test_missing_file(self, tmp_path):
        code, _ = run(["analyze", str(tmp_path / "absent.txt")])
        assert code == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("YNQ\n")
        code, _ = run(["analyze", str(path)])
        assert code == 2

    def test_resource_cap_exit_code(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("Y" * 40 + "\n")
        code, _ = run(["analyze", str(path)])
        assert code == 3


class TestConstruct:
    def test_lemma1_to_stdout(self):
        code, text = run(["construct", "lemma1", "--t", "3"])
        assert code == 0
        assert "2x YYY" in text

    def test_vlp_round_trip(self, tmp_path):
        from priceofmajority import column_tally
        from priceofmajority.matrixio import parse_matrix

        path = tmp_path / "vlp.txt"
        code, _ = run(["construct", "vlp", "--t", "3", "--w", "3", "--out", str(path)])
        assert code == 0
        matrix = parse_matrix(path.read_text())
        # weights were scaled to integers, which leaves m_V unchanged
        assert column_tally(matrix).m_V == Fraction(2, 3)

    def test_bad_parameters(self):
        code, _ = run(["construct", "theorem3", "--t", "5", "--k", "4", "--M", "4"])
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "lemma1"],
            ["construct", "theorem2"],
            ["construct", "theorem3", "--t", "5"],
            ["construct", "lemma7", "--t", "5", "--w", "4"],
            ["construct", "vlp", "--t", "5"],
        ],
    )
    def test_missing_options(self, argv):
        code, text = run(argv)
        assert code == 3
        assert text == ""

    def test_vlp_cap_checked_before_solving(self, monkeypatch):
        def no_solve(t, w):
            raise AssertionError("solve_ma called above the vlp cap")

        monkeypatch.setattr(lpsolve, "solve_ma", no_solve)
        code, _ = run(["construct", "vlp", "--t", "25", "--w", "20"])
        assert code == 3


class TestMa:
    def test_sweep_csv(self):
        code, text = run(["ma", "--t", "9", "--sweep"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "w",
            "ma_exact",
            "ma_decimal",
            "lemma7_bound",
            "figure2_x",
            "figure2_y",
        ]
        assert [r[0] for r in rows[1:]] == ["5", "6", "7", "8", "9"]
        assert rows[-1][1] == "13/18"
        assert rows[-1][2] == "0.7222"
        assert rows[-1][4] == "1.000"
        assert rows[-1][5] == "1.000"

    def test_single_w(self):
        code, text = run(["ma", "--t", "3", "--w", "3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1][1] == "2/3"

    def test_float_mode_has_no_exact_column(self):
        code, text = run(["ma", "--t", "9", "--float"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[-1][1] == ""
        assert rows[-1][2] == "0.7222"

    def test_exact_above_cap_rejected(self):
        code, _ = run(["ma", "--t", "500", "--exact"])
        assert code == 3

    def test_csv_file_output(self, tmp_path):
        path = tmp_path / "ma.csv"
        code, text = run(["ma", "--t", "5", "--csv", str(path)])
        assert code == 0
        assert text == ""
        rows = list(csv.reader(path.open()))
        assert rows[0][0] == "w"

    def test_deterministic(self):
        assert run(["ma", "--t", "7"]) == run(["ma", "--t", "7"])

    @pytest.mark.parametrize(
        "argv",
        [["ma", "--t", "0"], ["ma", "--t", "-3", "--float"], ["ma", "--t", "0", "--w", "1"]],
    )
    def test_nonpositive_t_rejected(self, argv):
        code, text = run(argv)
        assert code == 3
        assert text == ""


class TestBounds:
    def test_single_t(self):
        code, text = run(["bounds", "--t", "9"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1][:3] == ["9", "0.6363", "0.8787"]

    def test_range(self):
        code, text = run(["bounds", "--t-range", "3:6"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert [r[0] for r in rows[1:]] == ["3", "4", "5", "6"]

    def test_float_agrees_with_exact(self):
        _, exact = run(["bounds", "--t", "9"])
        _, approx = run(["bounds", "--t", "9", "--float"])
        assert exact == approx

    @pytest.mark.parametrize("spec", ["9:3", "a:b", "3:"])
    def test_bad_range_rejected(self, spec):
        code, text = run(["bounds", "--t-range", spec])
        assert code == 3
        assert text == ""


class TestVerify:
    def test_small_suite_passes(self):
        code, text = run(["verify", "--suite", "identity", "--samples", "50"])
        assert code == 0
        assert "identity: pass" in text

    def test_sampled_suite(self):
        code, text = run(["verify", "--suite", "r3", "--samples", "50"])
        assert code == 0
        assert "(50/50 checks)" in text


def test_module_entry_point(child_env):
    done = subprocess.run(
        [sys.executable, "-m", "priceofmajority.cli", "ma", "--t", "5"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = list(csv.reader(io.StringIO(done.stdout)))
    assert rows[0][0] == "w"
    assert [r[0] for r in rows[1:]] == ["3", "4", "5"]
