"""Command-line surface: matrix analysis, constructions, LP sweeps, bound tables.

Exit codes: 0 success, 1 property failure, 2 usage error (argparse's message),
matrix parse error or a file that cannot be read, decoded as UTF-8 or written,
3 parameter or resource error, 4 unexpected internal error; each failure but a
usage error is one ``error:`` line on standard error. All reports are plain
text or CSV with dot decimal separators; rational values are rendered at 4
significant figures (truncated) next to an exact num/den column.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction

from . import bounds as bounds_mod
from . import constructions, lpsolve, matrixio, oracle, verify
from .core import (
    ParameterError,
    ResourceLimitError,
    absolute_representativeness,
    canonicalize,
    check_enumeration,
    check_topics,
    column_tally,
    opinions_to_string,
    relative_representativeness,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_PARAMETER_ERROR = 3
EXIT_INTERNAL_ERROR = 4

SIGNIFICANT_DIGITS = 4
# every decimal operation of format_significant runs here, never in the thread's context
_TRUNCATE = Context(prec=SIGNIFICANT_DIGITS, rounding=ROUND_DOWN)


def format_significant(value) -> str:
    """Render truncated to SIGNIFICANT_DIGITS significant figures (dot separator)."""
    f = Fraction(value)
    if f == 0:
        return "0." + "0" * (SIGNIFICANT_DIGITS - 1)
    # the decimal spec rounds the exact quotient once, so ROUND_DOWN truncates it
    quotient = _TRUNCATE.divide(Decimal(f.numerator), Decimal(f.denominator))
    last_digit = Decimal(f"1e{quotient.adjusted() - SIGNIFICANT_DIGITS + 1}")
    return format(_TRUNCATE.quantize(quotient, last_digit), "f")


def _exact_column(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _write_csv(path, header, rows, out):
    with open(path, "w", newline="") if path else contextlib.nullcontext(out) as handle:
        csv.writer(handle).writerows([header, *rows])


def cmd_analyze(args, out) -> int:
    with open(args.matrix, "rb") as handle:
        data = handle.read().removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    try:  # decoded whole, so exc.start is an offset in the file
        matrix = matrixio.parse_matrix(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        reason = f"{args.matrix} is not UTF-8 text: {exc.reason} 0x{data[exc.start]:02x}"
        raise matrixio.MatrixFormatError(reason, data.count(b"\n", 0, exc.start) + 1) from None
    canonical, flip_mask = canonicalize(matrix)
    tally = column_tally(canonical)
    t = canonical.t
    report = [
        f"n: {canonical.n}",
        f"t: {t}",
        f"column_y_weights: {' '.join(str(y) for y in tally.y_weights)}",
        f"m_V: {_exact_column(tally.m_V)} ({format_significant(tally.m_V)})",
        f"flip_mask: {opinions_to_string(flip_mask, t)}",
    ]
    if args.metric in ("md", "both"):
        report.append(f"md: {oracle.md_of(canonical)}")
    if args.metric in ("matches", "both"):
        result = oracle.best_representation(canonical)
        big_r = absolute_representativeness(canonical, result.best_proposal)
        r_value = relative_representativeness(canonical, result.best_proposal)
        report += [
            f"best_matches: {result.value}",
            f"R_V: {_exact_column(big_r)} ({format_significant(big_r)})",
            f"r_V: {_exact_column(r_value)} ({format_significant(r_value)})",
            f"witness: {result.best_proposal.to_string()}",
        ]
    out.write("".join(f"{line}\n" for line in report))
    return EXIT_OK


# each construction's help line and options, the options in the order of its header
# and of constructions.<kind>_matrix's parameters; each is a required int of its subcommand
_CONSTRUCTS = {
    "lemma1": ("Lemma 1: Y-majorities on all t topics, yet md = ceil((t+1)/2)", ("t",)),
    "theorem2": ("Theorem 2: the 3-topic family whose r_V tends to the floor 5/6", ("l",)),
    "theorem3": (
        "Theorem 3: an equal-majority matrix with r_V below the analytic r_t limit",
        ("t", "k", "M"),
    ),
    "lemma7": (
        "Lemma 7: a high average majority with no majority-supported w-Y proposal",
        ("t", "w", "n"),
    ),
    "vlp": ("the ma_t(w) LP optimum as a topic-symmetric matrix", ("t", "w")),
}
_OPTION_HELP = {  # one meaning per option name across the kinds
    "t": "number of topics",
    "l": "weight of each of the three singleton voters",
    "k": "all-Y voters; the matrix has n = 2k+1 voters",
    "M": "Ys in every column, k+1 <= M <= 2k+1",
    "w": "no proposal with w or more Ys may have majority support",
    "n": "number of voters",
    "out": "write the matrix to this file instead of standard output",
}


class _KindParser(argparse.ArgumentParser):
    """A ``construct`` kind that rejects an unknown argument with its own usage line.

    argparse hands a subcommand's unknown arguments up to the top parser,
    whose usage line names no kind; this parser reports them itself.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def cmd_construct(args, out) -> int:
    kind = args.kind
    options = {name: getattr(args, name) for name in _CONSTRUCTS[kind][1]}
    header = " ".join([kind, *(f"{name}={value}" for name, value in options.items())])
    if kind == "vlp":
        check_enumeration(args.t, "construct vlp")  # before the LP is solved
        solution = lpsolve.solve_ma(args.t, args.w)
        options["profile"] = solution.profile
        header += f" ma={solution.ma}"
    matrix = getattr(constructions, f"{kind}_matrix")(**options)
    text = matrixio.write_matrix(matrix, header=header)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        out.write(text)
    return EXIT_OK


def cmd_ma(args, out) -> int:
    t = args.t
    if args.w is not None:
        values = [(args.w, lpsolve.solve_ma(t, args.w).ma)]
    else:
        values = lpsolve.ma_table(t)
    if t >= 3:
        curve = [list(map(format_significant, xy)) for xy in bounds_mod.figure2_points(t, values)]
    else:  # the figure-2 curve starts at t = 3
        curve = [["", ""]] * len(values)
    header = ["w", "ma_exact", "ma_decimal", "lemma7_bound", "figure2_x", "figure2_y"]
    rows = [
        [
            w,
            _exact_column(ma),
            format_significant(ma),
            format_significant(bounds_mod.ma_linear_lower(t, w)),
            *xy,
        ]
        for (w, ma), xy in zip(values, curve)
    ]
    _write_csv(args.csv, header, rows, out)
    return EXIT_OK


def _t_range(spec: str) -> list[int]:
    lo, colon, hi = spec.partition(":")
    try:
        ts = list(range(int(lo), int(hi if colon else lo) + 1))
    except ValueError:
        raise ParameterError(f"--t-range expects A:B with integers A <= B, got {spec!r}") from None
    if not ts:
        raise ParameterError(f"--t-range {spec} is empty; write A:B with A <= B")
    return ts


def cmd_bounds(args, out) -> int:
    ts = _t_range(args.t_range) if args.t_range else [args.t]
    check_topics(ts[0])  # both ends are checked before any row is solved
    lpsolve.check_t(ts[-1])
    header = ["t", "lower", "upper", "analytic_upper"]
    rows = []
    for t in ts:
        result = bounds_mod.rt_bounds(t)
        rows.append(
            [
                t,
                format_significant(result.lower),
                format_significant(result.upper),
                format_significant(result.analytic_upper),
            ]
        )
    _write_csv(args.csv, header, rows, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    results = verify.run_suites([args.suite], seed=args.seed, samples=args.samples)
    for result in results:
        status = "pass" if result.ok else "FAIL"
        out.write(
            f"{result.name}: {status} "
            f"({result.checks - len(result.failures)}/{result.checks} checks)\n"
        )
        for description, matrix in result.failures[:1]:
            out.write(f"  {description}\n")
            if matrix is not None:
                out.write(matrixio.write_matrix(matrix, header="counterexample"))
    return EXIT_OK if all(result.ok for result in results) else EXIT_PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priceofmajority",
        description="Majority-supported compromises: metrics, bounds, and worst cases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="metrics of a voter matrix file")
    p.add_argument("matrix", help="path to a Y/N matrix file")
    p.add_argument("--metric", choices=["md", "matches", "both"], default="both")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="generate a worst-case matrix")
    kinds = p.add_subparsers(dest="kind", required=True, parser_class=_KindParser)
    for kind, (kind_help, names) in _CONSTRUCTS.items():
        kind_parser = kinds.add_parser(kind, help=kind_help, description=kind_help)
        for name in names:
            kind_parser.add_argument(f"--{name}", type=int, required=True, help=_OPTION_HELP[name])
        kind_parser.add_argument("--out", help=_OPTION_HELP["out"])
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("ma", help="solve the maximum-average-majority LP")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--w", type=int, help="one w; every w when left out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_ma)

    p = sub.add_parser("bounds", help="worst-case representativeness bounds")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=int)
    group.add_argument("--t-range", dest="t_range", help="A:B inclusive")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", choices=[*verify.SUITES, "all"], default="all")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (matrixio.MatrixFormatError, OSError) as exc:
        return _error(exc, EXIT_PARSE_ERROR)
    except (ParameterError, ResourceLimitError) as exc:
        return _error(exc, EXIT_PARAMETER_ERROR)
    except Exception as exc:
        return _error(f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL_ERROR)


def _error(message, code: int) -> int:
    """Report a failure on one line of standard error and return its exit code."""
    print("error: " + str(message).replace("\n", " "), file=sys.stderr)
    return code


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
