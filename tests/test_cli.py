import csv
import decimal
import io
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from priceofmajority import (
    Proposal,
    VoterMatrix,
    bounds,
    cli,
    combinatorics,
    lemma1_matrix,
    lpsolve,
    matrixio,
    oracle,
    verify,
)
from priceofmajority.cli import format_significant, main
from priceofmajority.core import has_majority_support, matches


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


# edge inputs and their truncated renderings; the float 0.6 is just below 3/5
FORMAT_EDGES = [
    (Fraction(19999, 2000), "9.999"),
    (Fraction(19999, 20000), "0.9999"),
    (99995, "99990"),
    (10000, "10000"),
    (Fraction(1, 10**7), "0.0000001000"),
    (Fraction(123456789, 1000), "123400"),
    (-Fraction(1, 800), "-0.001250"),
    (0.6, "0.5999"),
    (1e300, "1000" + "0" * 297),
]


class TestFormatSignificant:
    def test_truncates_not_rounds(self):
        assert format_significant(Fraction(7, 11)) == "0.6363"
        assert format_significant(Fraction(2, 3)) == "0.6666"
        assert format_significant(Fraction(19999, 2000)) == "9.999"
        assert format_significant(Fraction(19999, 20000)) == "0.9999"
        assert format_significant(99995) == "99990"
        assert format_significant(0.6) == "0.5999"

    def test_integers_and_exact_values(self):
        assert format_significant(Fraction(1, 2)) == "0.5000"
        assert format_significant(1) == "1.000"
        assert format_significant(0) == "0.000"
        assert format_significant(10000) == "10000"

    def test_large_and_small_magnitudes(self):
        assert format_significant(Fraction(12345, 1)) == "12340"
        assert format_significant(Fraction(1, 800)) == "0.001250"
        assert format_significant(Fraction(1, 10**7)) == "0.0000001000"
        assert format_significant(Fraction(123456789, 1000)) == "123400"
        assert format_significant(1e300) == "1000" + "0" * 297

    def test_negative(self):
        assert format_significant(Fraction(-7, 11)) == "-0.6363"
        assert format_significant(-Fraction(1, 800)) == "-0.001250"

    def test_ignores_the_thread_decimal_context(self):
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding, ctx.Emax = 1, decimal.ROUND_UP, 10
            rendered = [format_significant(value) for value, _ in FORMAT_EDGES]
        assert rendered == [text for _, text in FORMAT_EDGES]


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

    def test_lemma1_beyond_one_chunk(self, tmp_path):
        # 2^21 proposals, twice the oracle's 2^20-mask chunk
        matrix = lemma1_matrix(21)
        path = tmp_path / "lemma1.txt"
        path.write_text(matrixio.write_matrix(matrix))
        code, text = run(["analyze", str(path)])
        assert code == 0
        assert "md: 11\n" in text
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        assert fields["flip_mask"] == "N" * 21  # canonical, so the witness is in input terms
        witness = Proposal.from_string(fields["witness"])
        assert has_majority_support(matrix, witness)
        assert int(fields["best_matches"]) == matches(matrix, witness)

    def test_metric_selection(self, intro_file):
        code, text = run(["analyze", intro_file, "--metric", "md"])
        assert code == 0
        assert "md: 6" in text
        assert "best_matches" not in text

    def test_missing_file(self, tmp_path):
        code, _ = run(["analyze", str(tmp_path / "absent.txt")])
        assert code == 2

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        # a bad opinion character, and bytes that are not UTF-8 text, named by file and line;
        # after a byte-order mark, by the bad byte's own line and value
        for content, names in (
            (b"YNQ\n", ["line 1"]),
            (b"\xff\xfe\n", ["line 1", str(path)]),
            (b"YY\nN\xff\n", ["line 2", str(path)]),
            (b"\xef\xbb\xbfYN\n\xff\n", ["line 2", str(path), "0xff"]),
        ):
            path.write_bytes(content)
            code, text = run(["analyze", str(path)])
            assert code == 2
            assert text == ""
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert all(name in err for name in names), err

    def test_byte_order_mark(self, tmp_path, intro_file):
        # a leading UTF-8 BOM is stripped before decoding: same report as without it
        path = tmp_path / "bom.txt"
        with open(intro_file, "rb") as handle:
            path.write_bytes(b"\xef\xbb\xbf" + handle.read())
        assert run(["analyze", str(path)]) == run(["analyze", intro_file])

    def test_resource_cap_exit_code(self, over_budget_file, tmp_path, capsys):
        # the search of level 61 passes the oracle's node budget, in about a
        # second; an all-Y voter of t = 25 is answered by the short-cut
        code, text = run(["analyze", over_budget_file])
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        budget = oracle._NODE_BUDGET
        assert err == f"error: searching level 61 of 80 topics passed {budget} nodes\n"
        path = tmp_path / "wide.txt"
        path.write_text("Y" * 25 + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["analyze", str(path)])
        assert code == 0
        assert "md: 25\n" in text

    def test_md_past_the_budget(self, over_budget_file, capsys):
        # md stops at level 61's first supported mask, where the best-proposal
        # search passes the budget (test_resource_cap_exit_code)
        code, text = run(["analyze", over_budget_file, "--metric", "md"])
        assert code == 0
        assert "md: 61" in text.splitlines()
        assert capsys.readouterr().err == ""

    def test_directory_is_a_file_error(self, tmp_path, capsys):
        code, text = run(["analyze", str(tmp_path)])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unreadable_file(self, intro_file, monkeypatch, capsys):
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "open", denied, raising=False)
        code, text = run(["analyze", intro_file])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Permission denied" in err
        assert err.count("\n") == 1

    def test_unexpected_exception_exit_code(self, intro_file, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(cli.oracle, "md_of", broken)
        code, _ = run(["analyze", intro_file])
        assert code == cli.EXIT_INTERNAL_ERROR == 4
        err = capsys.readouterr().err
        assert err == "error: internal error: RuntimeError: first line second line\n"


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
        # vlp_matrix clears the profile's masses to ints, which leaves m_V unchanged
        assert column_tally(matrix).m_V == Fraction(2, 3)

    def test_bad_parameters(self):
        code, _ = run(["construct", "theorem3", "--t", "5", "--k", "4", "--M", "4"])
        assert code == 3

    def test_vlp_enumeration_cap(self, monkeypatch, capsys):
        # refused before the LP is solved
        def no_solve(t, w):
            raise AssertionError("solve_ma called before the 2^t cap was checked")

        monkeypatch.setattr(lpsolve, "solve_ma", no_solve)
        code, text = run(["construct", "vlp", "--t", "21", "--w", "11"])
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err == (
            "error: construct vlp enumerates up to 2^t items; t=21 exceeds 20\n"
        )

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
    def test_missing_options(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        options = [f"--{name}" for name in cli._CONSTRUCTS[argv[1]][1]]
        missing = [option for option in options if option not in argv]
        assert captured.err.splitlines()[-1].endswith("required: " + ", ".join(missing))

    @pytest.mark.parametrize(
        "argv, foreign",
        [
            (["lemma1", "--t", "3", "--M", "9"], "--M 9"),
            (["theorem2", "--l", "3", "--t", "3"], "--t 3"),
            (["theorem3", "--t", "5", "--k", "4", "--M", "6", "--w", "2"], "--w 2"),
            (["lemma7", "--t", "7", "--w", "5", "--n", "10", "--l", "1"], "--l 1"),
            (["vlp", "--t", "3", "--w", "3", "--n", "3"], "--n 3"),
        ],
        ids=["lemma1", "theorem2", "theorem3", "lemma7", "vlp"],
    )
    def test_foreign_option_rejected(self, argv, foreign, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["construct", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: priceofmajority construct {argv[0]} ")
        assert captured.err.splitlines()[-1].endswith(f"unrecognized arguments: {foreign}")

    @pytest.mark.parametrize("kind", list(cli._CONSTRUCTS))
    def test_kind_help_lists_its_options(self, kind, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["construct", kind, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        listed = set(re.findall(r"--(\w+)", text)) - {"help"}
        assert listed == {*cli._CONSTRUCTS[kind][1], "out"}
        # every option line carries a help string after its metavar
        described = set(re.findall(r"^  --(\w+) [A-Z]+ +\S", text, re.MULTILINE))
        assert described == listed

    @pytest.mark.parametrize(
        "argv, header",
        [
            (["lemma1", "--t", "5"], "# lemma1 t=5"),
            (["theorem2", "--l", "3"], "# theorem2 l=3"),
            (["theorem3", "--t", "9", "--k", "3", "--M", "5"], "# theorem3 t=9 k=3 M=5"),
            (["lemma7", "--t", "7", "--w", "5", "--n", "10"], "# lemma7 t=7 w=5 n=10"),
            (["vlp", "--t", "3", "--w", "3"], "# vlp t=3 w=3 ma=2/3"),
        ],
        ids=["lemma1", "theorem2", "theorem3", "lemma7", "vlp"],
    )
    def test_header_names_the_parameters(self, argv, header):
        code, text = run(["construct", *argv])
        assert code == 0
        assert text.splitlines()[0] == header

    def test_vlp_cap_checked_before_solving(self, monkeypatch):
        def no_solve(t, w):
            raise AssertionError("solve_ma called above the vlp cap")

        monkeypatch.setattr(lpsolve, "solve_ma", no_solve)
        code, _ = run(["construct", "vlp", "--t", "25", "--w", "20"])
        assert code == 3


class TestMa:
    def test_sweep_csv(self):
        code, text = run(["ma", "--t", "9"])
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

    def test_float_row_at_the_floor(self):
        code, text = run(["ma", "--t", "199"])
        assert code == 0
        row = next(r for r in csv.reader(io.StringIO(text)) if r[0] == "100")
        assert row[1:] == ["1/2", "0.5000", "0.5000", "0.000", "0.000"]

    @pytest.mark.parametrize(
        "extra", [["--w", "1"], ["--w", "501"], ["--w", "600"], []]
    )
    def test_above_cap_rejected_in_both_modes(self, extra):
        code, text = run(["ma", "--t", str(lpsolve.EXACT_T_CAP + 1), *extra])
        assert code == 3
        assert text == ""

    @pytest.mark.parametrize("t", [1, 2])
    def test_no_figure2_columns_below_three_topics(self, t):
        code, text = run(["ma", "--t", str(t)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1:] == [[str(t), "1/2", "0.5000", "0.5000", "", ""]]

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
        [["ma", "--t", "0"], ["ma", "--t", "-3"], ["ma", "--t", "0", "--w", "1"]],
    )
    def test_nonpositive_t_rejected(self, argv):
        code, text = run(argv)
        assert code == 3
        assert text == ""

    def test_single_w_names_nonpositive_t(self, capsys):
        code, text = run(["ma", "--t", "0", "--w", "1"])
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err == "error: t must be at least 1, got 0\n"


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

    @pytest.mark.parametrize("spec", ["9:3", "a:b", "3:"])
    def test_bad_range_rejected(self, spec):
        code, text = run(["bounds", "--t-range", spec])
        assert code == 3
        assert text == ""

    def test_one_and_two_topics(self):
        code, text = run(["bounds", "--t-range", "1:3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1:3] == [["1", "1.000", "1.000", "1.000"], ["2", "1.000", "1.000", "1.000"]]

    @pytest.mark.parametrize(
        "argv", [["--t-range", "3:1001"], ["--t-range", "0:5"], ["--t", "1001"]]
    )
    def test_range_checked_before_solving(self, monkeypatch, argv):
        def no_solve(t, exact=True):
            raise AssertionError("rt_bounds called before the range was checked")

        monkeypatch.setattr(bounds, "rt_bounds", no_solve)
        code, text = run(["bounds", *argv])
        assert code == 3
        assert text == ""

    def test_above_cap_reported_as_ma_reports_it(self, capsys):
        # lpsolve.check_t owns the cap: one error line, the same for both commands
        above = str(lpsolve.EXACT_T_CAP + 1)
        errors = []
        for argv in (
            ["bounds", "--t-range", f"3:{above}"],
            ["bounds", "--t", above],
            ["ma", "--t", above],
        ):
            assert run(argv) == (3, "")
            errors.append(capsys.readouterr().err)
        expected = f"error: ma_t(w) is solved up to t={lpsolve.EXACT_T_CAP}, got t={above}\n"
        assert errors == [expected] * 3


class TestVerify:
    def test_small_suite_passes(self):
        code, text = run(["verify", "--suite", "identity", "--samples", "50"])
        assert code == 0
        assert "identity: pass" in text

    def test_sampled_suite(self):
        code, text = run(["verify", "--suite", "r3", "--samples", "50"])
        assert code == 0
        assert "(50/50 checks)" in text

    def test_all_suites(self):
        code, text = run(["verify", "--suite", "all", "--samples", "20"])
        assert code == 0
        assert [line.split(":")[0] for line in text.splitlines()] == list(verify.SUITES)
        assert all(": pass (" in line for line in text.splitlines())

    def test_skl_suite_checks_the_solver_recurrence(self, monkeypatch):
        def bumped(t, k):
            row = combinatorics.s_kl_row(t, k)
            if (t, k) == (7, 5):
                row[3] += 1
            return row

        monkeypatch.setattr(verify, "s_kl_row", bumped)
        code, text = run(["verify", "--suite", "skl"])
        assert code == 1
        assert text == "skl: FAIL (384/385 checks)\n  s_kl mismatch at t=7, k=5, l=3\n"

    def test_failure_prints_the_first_counterexample(self, monkeypatch):
        def failing(rng, samples):
            yield False, "made to fail", VoterMatrix.from_strings(["YN", "NY"], [2, 1])

        monkeypatch.setattr(verify, "SUITES", {"failing": failing})
        code, text = run(["verify", "--suite", "failing"])
        assert code == 1
        assert text == "failing: FAIL (0/1 checks)\n  made to fail\n# counterexample\n2x YN\nNY\n"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected(self, samples):
        code, text = run(["verify", "--suite", "r3", "--samples", samples])
        assert code == 3
        assert text == ""


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
