"""Command-line surface: matrix analysis, constructions, LP sweeps, bound tables.

Exit codes: 0 success, 1 property failure, 2 matrix parse error or a file
that cannot be read or written, 3 parameter or resource error, 4 unexpected
internal error; each such failure is one ``error:`` line on standard error. All
reports are plain text or CSV with dot decimal separators; rational values are
rendered at 4 significant figures (truncated) next to an exact num/den column.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import constructions, lpsolve, matrixio, oracle, verify
from .combinatorics import min_k
from .core import (
    ParameterError,
    Proposal,
    ResourceLimitError,
    absolute_representativeness,
    canonicalize,
    column_tally,
    opinions_to_string,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_PARAMETER_ERROR = 3
EXIT_INTERNAL_ERROR = 4


def format_significant(value, digits: int = 4) -> str:
    """Render truncated to ``digits`` significant figures (dot separator)."""
    f = Fraction(value)
    if f == 0:
        return "0." + "0" * (digits - 1)
    sign = "-" if f < 0 else ""
    f = abs(f)
    exponent = 0
    while f >= 10:
        f /= 10
        exponent += 1
    while f < 1:
        f *= 10
        exponent -= 1
    # f in [1, 10); truncate to digits significant digits
    scaled = int(f * 10 ** (digits - 1))
    text = str(scaled)
    if exponent >= digits - 1:
        return sign + text + "0" * (exponent - digits + 1)
    if exponent >= 0:
        return sign + text[: exponent + 1] + "." + text[exponent + 1 :]
    return sign + "0." + "0" * (-exponent - 1) + text


def _exact_column(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return ""


def _write_csv(path, header, rows, out):
    if path:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        out.write(buffer.getvalue())


def cmd_analyze(args, out) -> int:
    with open(args.matrix) as handle:
        matrix = matrixio.parse_matrix(handle.read())
    canonical, flip_mask = canonicalize(matrix)
    tally = column_tally(canonical)
    t = canonical.t
    out.write(f"n: {canonical.n}\n")
    out.write(f"t: {t}\n")
    out.write(f"column_y_weights: {' '.join(str(y) for y in tally.y_weights)}\n")
    out.write(
        f"m_V: {_exact_column(tally.m_V)} ({format_significant(tally.m_V)})\n"
    )
    out.write(f"flip_mask: {opinions_to_string(flip_mask, t)}\n")
    if args.metric in ("md", "both"):
        md = oracle.md_of(canonical, max_topics=args.max_t)
        out.write(f"md: {md}\n")
    if args.metric in ("matches", "both"):
        result = oracle.best_representation(canonical, max_topics=args.max_t)
        big_r = absolute_representativeness(canonical, result.best_proposal)
        r_value = big_r / tally.m_V
        out.write(f"best_matches: {result.value}\n")
        out.write(
            f"R_V: {_exact_column(big_r)} ({format_significant(big_r)})\n"
        )
        out.write(
            f"r_V: {_exact_column(r_value)} ({format_significant(r_value)})\n"
        )
        out.write(f"witness: {result.best_proposal.to_string()}\n")
    return EXIT_OK


# options each construction needs, checked before any work is done
_CONSTRUCT_OPTIONS = {
    "lemma1": ("t",),
    "theorem2": ("l",),
    "theorem3": ("t", "k", "M"),
    "lemma7": ("t", "w", "n"),
    "vlp": ("t", "w"),
}


def cmd_construct(args, out) -> int:
    kind = args.kind
    missing = [f"--{name}" for name in _CONSTRUCT_OPTIONS[kind] if getattr(args, name) is None]
    if missing:
        raise ParameterError(f"construct {kind} requires {' '.join(missing)}")
    if kind == "vlp" and args.t > constructions.VLP_TOPIC_CAP:
        raise ResourceLimitError(
            f"construct vlp materializes up to 2^t rows; t > {constructions.VLP_TOPIC_CAP}"
        )
    if kind == "lemma1":
        matrix = constructions.lemma1_matrix(args.t)
        header = f"lemma1 t={args.t}"
    elif kind == "theorem2":
        matrix = constructions.theorem2_matrix(args.l)
        header = f"theorem2 l={args.l}"
    elif kind == "theorem3":
        matrix = constructions.theorem3_matrix(args.t, args.k, args.M)
        header = f"theorem3 t={args.t} k={args.k} M={args.M}"
    elif kind == "lemma7":
        matrix = constructions.lemma7_matrix(args.t, args.w, args.n)
        header = f"lemma7 t={args.t} w={args.w} n={args.n}"
    else:  # vlp; argparse restricts the choices
        solution = lpsolve.solve_ma(args.t, args.w)
        matrix = constructions.vlp_matrix(args.t, args.w, solution.profile)
        header = f"vlp t={args.t} w={args.w} ma={solution.ma}"
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
    if args.float:
        values = [(w, float(ma)) for w, ma in values]
    points = dict(zip((w for w, _ in values), bounds_mod.figure2_points(t, values))) if t >= 3 else {}
    header = ["w", "ma_exact", "ma_decimal", "lemma7_bound", "figure2_x", "figure2_y"]
    rows = []
    for w, ma in values:
        x, y = points.get(w, ("", ""))
        rows.append(
            [
                w,
                _exact_column(ma),
                format_significant(ma),
                format_significant(bounds_mod.ma_linear_lower(t, w)),
                format_significant(x) if x != "" else "",
                format_significant(y) if y != "" else "",
            ]
        )
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
    if not 1 <= ts[0] <= ts[-1] <= lpsolve.EXACT_T_CAP:  # checked before any row is solved
        cap = lpsolve.EXACT_T_CAP
        raise ParameterError(f"t must lie in [1, {cap}], got {args.t_range or args.t}")
    header = ["t", "lower", "upper", "analytic_upper"]
    rows = []
    for t in ts:
        result = bounds_mod.rt_bounds(t, exact=not args.float)
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
    p.add_argument("--max-t", type=int, default=None, dest="max_t")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="generate a worst-case matrix")
    p.add_argument(
        "kind", choices=["lemma1", "theorem2", "theorem3", "lemma7", "vlp"]
    )
    p.add_argument("--t", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("ma", help="solve the maximum-average-majority LP")
    p.add_argument("--t", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--w", type=int)
    group.add_argument("--sweep", action="store_true")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact values (the default)")
    mode.add_argument("--float", action="store_true", help="the certified values as floats")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_ma)

    p = sub.add_parser("bounds", help="worst-case representativeness bounds")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=int)
    group.add_argument("--t-range", dest="t_range", help="A:B inclusive")
    p.add_argument("--float", action="store_true", help="bounds from the certified values as floats")
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
