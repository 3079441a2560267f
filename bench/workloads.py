"""The four benchmark workloads and the checks on their outputs.

Each workload loads one part of the package heavily and leaves the rest
light, so that a change to one layer shows on one workload and not on
another:

- ``analyze-mix``: the ``analyze`` command on matrices held as text
  (t in 12..20, 2..48 rows, weights 1..1000, a tenth of them worst cases).
  Nearly all time is the vectorised 2^t scan in ``oracle``.
- ``verify-small``: the ``verify`` suites and acceptance properties on
  default-size random matrices (t <= 10, <= 6 rows). Per-call Python
  overhead in ``core``, ``sampling`` and ``oracle`` dominates.
- ``bounds-exact``: one ``bounds`` table row per item, ``rt_bounds(t,
  exact=True)`` with t cycling through 3..41; for t <= 11 every ma_t(w)
  optimum is also certified on its rational-weight witness matrix, the only
  load on the oracle's exact-Python path. Load is on the rational simplex and
  ``s_kl`` big integers.
- ``bounds-float``: ``rt_bounds(t, exact=False)`` for t in {149, 199, 249},
  the only load on the hypergeometric coefficient table and the HiGHS loop.

A workload runs in passes. A pass is a fixed list of ``(key, payload)``
items built from the seed and the pass number; its cost does not depend on
the seed (the seed picks bit patterns, weights and order, not sizes), so
runs with different seeds are comparable. An item is ``call`` (package calls
only, the timed part; ``call_traced`` in the traced run) followed by
``check`` (the benchmark's own checks, untimed), which raises
:class:`CheckFailed` on a wrong output and returns the output that is
compared across passes, and between the untraced and traced runs, and
digested.

Nothing here imports the package at module level: the import is part of the
set-up that ``setup_s`` measures.
"""

from __future__ import annotations

import dataclasses
import math
import random
import types
from fractions import Fraction

from tracing import COUNTERS

# span name -> attribute of the module it is taken from
PACKAGE_CALLS = {
    "matrixio.parse_matrix": "parse_matrix",
    "core.canonicalize": "canonicalize",
    "core.column_tally": "column_tally",
    "core.has_majority_support": "has_majority_support",
    "core.absolute_representativeness": "absolute_representativeness",
    "sampling.random_matrix": "random_matrix",
    "oracle.md_of": "md_of",
    "oracle.best_representation": "best_representation",
    "oracle.r_V": "r_V",
    "oracle.half_proposal": "half_proposal",
    "oracle.rule_of_three_fourths_check": "rule_of_three_fourths_check",
    "oracle.proposal_stats": "proposal_stats",
    "combinatorics.s_kl": "s_kl",
    "constructions.vlp_matrix": "vlp_matrix",
    "constructions.theorem3_rv_bound": "theorem3_rv_bound",
    "lpsolve.solve_ma": "solve_ma",
    "lpsolve.solve_ma_float": "solve_ma_float",
    "lpsolve.ma_table": "ma_table",
    "bounds.rt_bounds": "rt_bounds",
    "bounds.rt_lower_numeric": "rt_lower_numeric",
    "bounds.rt_upper_numeric": "rt_upper_numeric",
    "bounds.ma_closed_form_full": "ma_closed_form_full",
}


class CheckFailed(AssertionError):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def package_api(tracer=None, fault=None):
    """Namespace of the package functions the workloads call.

    With a tracer every function records a span named after its module;
    ``fault`` is ``(attribute, corrupt)`` and replaces one result by
    ``corrupt(result)``, so that a test can see the checks catch it.
    """
    import importlib

    functions = {}
    for span_name, attr in PACKAGE_CALLS.items():
        module = importlib.import_module("priceofmajority." + span_name.split(".")[0])
        fn = getattr(module, attr)
        if fault is not None and fault[0] == attr:
            fn = _corrupted(fn, fault[1])
        if tracer is not None:
            fn = tracer.wrap(span_name, fn, COUNTERS.get(span_name))
        functions[span_name.split(".")[1]] = fn
    return types.SimpleNamespace(**functions)


def _corrupted(fn, corrupt):
    def wrong(*args, **kwargs):
        return corrupt(fn(*args, **kwargs))

    return wrong


# --- independent reference computations -------------------------------------------


def support_weight(rows, t: int, proposal: int):
    threshold = (t + 1) // 2
    return sum(w for mask, w in rows if t - (mask ^ proposal).bit_count() >= threshold)


def match_count(rows, t: int, proposal: int):
    return sum(w * (t - (mask ^ proposal).bit_count()) for mask, w in rows)


def y_weights(rows, t: int) -> list:
    return [sum(w for mask, w in rows if mask >> i & 1) for i in range(t)]


def opinions(mask: int, t: int) -> str:
    return "".join("Y" if mask >> i & 1 else "N" for i in range(t))


def significant(value) -> str:
    from priceofmajority.cli import format_significant

    return format_significant(value)


# --- workloads --------------------------------------------------------------------


class Workload:
    """Inputs, calls and checks of one workload; see the module docstring."""

    name = ""
    # (package function, corruption of its result) for --inject-fault
    fault: tuple = ()
    # passes of the traced run: fixed, so that its counts and self times cover
    # the same work whatever the speed; about five seconds or one pass
    TRACED_PASSES = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.setup_checks: list[tuple[str, bool]] = []
        self._pass0 = self.pass_inputs(0)

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + parts)))

    def inputs(self, k: int):
        """Items of pass ``k``; the first call for pass 0 returns those built in set-up."""
        if k == 0 and self._pass0 is not None:
            items, self._pass0 = self._pass0, None
            return items
        return self.pass_inputs(k)

    def pass_inputs(self, k: int) -> list:
        raise NotImplementedError

    def call(self, api, payload):
        raise NotImplementedError

    def call_traced(self, api, payload):
        """The item as the traced run makes it; the same calls unless overridden."""
        return self.call(api, payload)

    def check(self, api, payload, raw):
        raise NotImplementedError

    def digest_key(self, out):
        return out

    def warm_up(self, api, payload, what: str) -> None:
        try:
            self.check(api, payload, self.call(api, payload))
            self.setup_checks.append((what, True))
        except Exception as exc:  # a failed warm-up is reported, not raised
            self.setup_checks.append((f"{what}: {type(exc).__name__}: {exc}", False))


class AnalyzeMix(Workload):
    name = "analyze-mix"
    TRACED_PASSES = 2
    fault = ("best_representation", lambda r: dataclasses.replace(
        r, best_proposal=type(r.best_proposal)(r.best_proposal.mask ^ 1, r.best_proposal.t)))

    def __init__(self, seed, tiny):
        self.ts = range(12, 14) if tiny else range(12, 21)
        # nine random matrices per t with evenly spread row counts, plus one worst case
        self.row_counts = (2, 25, 48) if tiny else (2, 8, 13, 19, 25, 31, 36, 42, 48)
        super().__init__(seed)
        # a t=20 item allocates a full proposal chunk of the scan
        rows = [(0b1011 << 16, 3), ((1 << 20) - 1, 2)]
        self.warm_up(package_api(), self._item(20, rows, ("random",)), "warm-up t=20")

    def pass_inputs(self, k):
        from priceofmajority.constructions import lemma1_matrix, theorem3_matrix

        rng = self.rng(k)
        items = []
        for t in self.ts:
            for n_rows in self.row_counts:
                rows = [(rng.randrange(1 << t), rng.randint(1, 1000)) for _ in range(n_rows)]
                items.append(self._item(t, rows, ("random",)))
            # both worst cases have t+1 rows, so the choice leaves the cost unchanged
            if rng.random() < 0.5:
                matrix, kind = lemma1_matrix(t), ("lemma1",)
            else:
                M = rng.randint(t, 2 * t - 1)
                matrix, kind = theorem3_matrix(t, t - 1, M), ("theorem3", t - 1, M)
            items.append(self._item(t, [(r.mask, r.weight) for r in matrix.rows], kind))
        # one interleaving of sizes for every seed and pass, so that the order
        # of large and small allocations, and with it the peak RSS, repeats
        random.Random(self.name).shuffle(items)
        return [((k, i), item) for i, item in enumerate(items)]

    @staticmethod
    def _item(t, rows, kind):
        lines = ["# voters"] + [
            opinions(mask, t) if w == 1 else f"{w}x {opinions(mask, t)}" for mask, w in rows
        ]
        return "\n".join(lines) + "\n", t, rows, kind

    def call(self, api, payload):
        text = payload[0]
        matrix = api.parse_matrix(text)
        canonical, flip = api.canonicalize(matrix)
        tally = api.column_tally(canonical)
        md = api.md_of(canonical)
        best = api.best_representation(canonical)
        return matrix, canonical, flip, tally, md, best

    def check(self, api, payload, raw):
        _, t, rows, kind = payload
        matrix, _, flip, tally, md, best = raw
        n = sum(w for _, w in rows)
        expect(matrix.t == t and len(matrix.rows) == len(rows) and matrix.n == n, "parsed shape")
        expected_flip = sum(1 << i for i, y in enumerate(y_weights(rows, t)) if 2 * y < n)
        expect(flip == expected_flip, "flip mask")
        crows = [(mask ^ flip, w) for mask, w in rows]
        expect(list(tally.y_weights) == y_weights(crows, t), "column tally")
        expect(all(2 * y >= n for y in tally.y_weights), "canonical form")
        witness = best.best_proposal.mask
        supporters = support_weight(crows, t, witness)
        expect(2 * supporters >= n, "witness has majority support")
        expect(supporters == best.supporter_weight, "witness supporter weight")
        expect(match_count(crows, t, witness) == best.value, "witness match count")
        expect((t + 2) // 2 <= md <= t, "md >= ceil((t+1)/2)")
        expect(witness.bit_count() <= md, "witness within md")
        r = Fraction(best.value, sum(tally.y_weights))
        expect(Fraction(1, 3) <= r <= 1, "r_V in [1/3, 1]")
        if kind[0] == "lemma1":
            expect(md == (t + 2) // 2, "lemma1 md is tight")
        elif kind[0] == "theorem3":
            expect(float(r) <= api.theorem3_rv_bound(t, kind[1], kind[2]) + 1e-12, "theorem3 r_V bound")
        return md, best.value, witness, best.supporter_weight, flip


class VerifySmall(Workload):
    name = "verify-small"
    TRACED_PASSES = 40
    fault = ("r_V", lambda r: r - 1)

    def __init__(self, seed, tiny):
        self.pool = 100 if tiny else 1000
        super().__init__(seed)
        api = package_api()
        rng = self.rng("warm-up")
        for i in range(20):
            self.warm_up(api, (rng, 3 if i % 4 == 0 else None), f"warm-up item {i}")

    def pass_inputs(self, k):
        # items of a pass draw from one generator in order, as the verify suites do
        rng = self.rng(k)
        return [((k, i), (rng, 3 if i % 4 == 0 else None)) for i in range(self.pool)]

    def call(self, api, payload):
        rng, t = payload
        matrix = api.random_matrix(rng, t=t)
        r = api.r_V(matrix)
        rule = api.rule_of_three_fourths_check(matrix)
        half = api.half_proposal(matrix)
        supported = api.has_majority_support(matrix, half)
        absolute = api.absolute_representativeness(matrix, half)
        md = api.md_of(matrix)
        return matrix, r, rule, half, supported, absolute, md

    def check(self, api, payload, raw):
        matrix, r, rule, half, supported, absolute, md = raw
        t, n = matrix.t, matrix.n
        rows = [(row.mask, row.weight) for row in matrix.rows]
        expect(payload[1] is None or t == payload[1], "fixed topic count")
        ys = y_weights(rows, t)
        expect(all(2 * y >= n for y in ys), "canonical form")
        expect(Fraction(1, 3) <= r <= 1, "r_V in [1/3, 1]")
        expect(t != 3 or r >= Fraction(5, 6), "3-topic floor 5/6")
        all_y = (1 << t) - 1
        expect(rule is True, "rule of three-fourths")
        expect(4 * sum(ys) < 3 * n * t or 2 * support_weight(rows, t, all_y) >= n, "all-Y support")
        half_support = 2 * support_weight(rows, t, half.mask) >= n
        expect(half_support and supported is True, "half proposal has majority support")
        expect(absolute == Fraction(match_count(rows, t, half.mask), n * t), "absolute representativeness")
        expect(absolute >= Fraction(1, 2) - Fraction(1, t), "half proposal >= 1/2 - 1/t")
        expect((t + 2) // 2 <= md <= t, "md >= ceil((t+1)/2)")
        return t, n, r, half.mask, md


# 4 significant figures of rt_bounds, pinned by the package's acceptance tests
PINNED = {9: ("0.6363", "0.8787"), 199: ("0.7028", "0.8379")}


def reference_s_kl(t: int, k: int, l: int) -> int:
    """k-proposals supported by an l-voter, counted by the x Ys they share with it."""
    need = max(0, -(-(k + l - t // 2) // 2))
    return sum(math.comb(l, x) * math.comb(t - l, k - x) for x in range(need, min(k, l) + 1))


def reference_bounds(t: int, values) -> tuple:
    """(lower, upper) on r_t recomputed from the (w, ma_t(w)) values of a row."""
    by_w = dict(values)
    one = Fraction(1) if isinstance(values[0][1], Fraction) else 1.0
    lower = min(
        max(w * one / (2 * t - w), (t - 2) / (2 * t * by_w.get(w + 1, one))) for w, _ in values
    )
    upper = min(((w - 1) * ma + (t - w + 1) * (1 - ma)) / (t * ma) for w, ma in values)
    return lower, upper


def bump_last_ma(delta):
    """A corruption of an RtBounds: ma_t(t) moved by ``delta``."""

    def corrupt(row):
        last = row.details[-1]
        details = row.details[:-1] + (dataclasses.replace(last, ma=last.ma + delta),)
        return dataclasses.replace(row, details=details)

    return corrupt


class BoundsRows(Workload):
    """One ``bounds`` table row, ``rt_bounds(t, exact=EXACT)``, per item.

    The traced run computes each row from the public pieces rt_bounds composes
    (``call_traced``), so that their spans land on ``lpsolve`` and ``bounds``;
    its outputs must equal those of the untraced run, which checks that the
    pieces agree with rt_bounds on every row.
    """

    EXACT = True
    TOLERANCE = 0

    def pass_inputs(self, k):
        order = list(self.ts)
        self.rng(k).shuffle(order)
        return [(t, t) for t in order]

    def call(self, api, t):
        row = api.rt_bounds(t, exact=self.EXACT)
        return [(d.w, d.ma) for d in row.details], row.lower, row.upper, self.certify(api, t, None)

    def certify(self, api, t, solutions):
        """Extra work an item does for its row; checked by ``check_certificate``."""
        return None

    def check_certificate(self, api, t, values, certificate) -> None:
        pass

    def check(self, api, t, raw):
        values, lower, upper, certificate = raw
        tol = self.TOLERANCE
        expect([w for w, _ in values] == list(range((t + 2) // 2, t + 1)), "one ma_t(w) per w")
        mas = [ma for _, ma in values]
        expect(all(a <= b + tol for a, b in zip(mas, mas[1:])), "ma_t(w) nondecreasing in w")
        expect(
            all(ma >= Fraction(w + (t - 1) // 2, 2 * t) - tol for w, ma in values),
            "ma_t(w) >= (w + floor((t-1)/2)) / 2t",
        )
        expect(abs(mas[-1] - api.ma_closed_form_full(t)) <= tol, "ma_t(t) equals ma_closed_form_full")
        want_lower, want_upper = reference_bounds(t, values)
        expect(abs(lower - want_lower) <= tol and abs(upper - want_upper) <= tol,
               "lower and upper follow from ma_t(w)")
        expect(Fraction(1, 3) - tol <= lower <= upper + tol and upper <= 1 + tol,
               "1/3 <= lower <= upper <= 1")
        if t in PINNED:
            expect((significant(lower), significant(upper)) == PINNED[t], "pinned bound row")
        self.check_certificate(api, t, values, certificate)
        return t, tuple(mas), lower, upper


class BoundsExact(BoundsRows):
    name = "bounds-exact"
    fault = ("rt_bounds", bump_last_ma(Fraction(1, 1000)))
    CERTIFY_T = 11

    def __init__(self, seed, tiny):
        self.ts = range(3, 10) if tiny else range(3, 42)
        super().__init__(seed)
        self.warm_up(package_api(), 5, "warm-up t=5")

    def certify(self, api, t, solutions):
        """For t <= 11, the witness matrix of every ma_t(w) optimum and its proposal stats."""
        if t > self.CERTIFY_T:
            return None
        if solutions is None:
            solutions = [api.solve_ma(t, w) for w in range((t + 2) // 2, t + 1)]
        witnesses = []
        for s in solutions:
            matrix = api.vlp_matrix(t, s.w, s.profile)
            supp, _ = api.proposal_stats(matrix)
            witnesses.append((s, matrix.n, api.column_tally(matrix).m_V, supp))
        return witnesses

    def call_traced(self, api, t):
        solutions = [api.solve_ma(t, w) for w in range((t + 2) // 2, t + 1)]
        # the s_kl coefficients that build_ma_lp computes inside each solve_ma
        for s in solutions:
            for k in range(s.w, t + 1):
                for l in range(t + 1):
                    api.s_kl(t, k, l)
        values = [(s.w, s.ma) for s in solutions]
        lower, upper = api.rt_lower_numeric(t, values), api.rt_upper_numeric(t, values)
        return values, lower, upper, self.certify(api, t, solutions)

    def check_certificate(self, api, t, values, certificate):
        if certificate is None:
            expect(t > self.CERTIFY_T, f"rows with t <= {self.CERTIFY_T} are certified")
            return
        expect(len(certificate) == len(values), "one witness per w")
        for (s, n, m_v, supp), (w, ma) in zip(certificate, values):
            expect(s.w == w and s.ma == ma, f"solve_ma agrees with the row at w={w}")
            v = s.profile.fractions
            expect(all(x >= 0 for x in v) and sum(v) == 1, f"profile at w={w} is a distribution")
            expect(sum(l * x for l, x in enumerate(v)) / t == ma, f"objective at w={w}")
            for k in range(w, t + 1):
                load = sum(reference_s_kl(t, k, l) * x for l, x in enumerate(v) if x)
                expect(2 * load <= math.comb(t, k), f"constraint k={k} at w={w}")
            expect(m_v == ma, f"witness average majority at w={w}")
            expect(
                all(2 * supp[p] <= n for p in range(1 << t) if p.bit_count() >= w),
                f"no proposal with >= {w} Ys has majority support",
            )


class BoundsFloat(BoundsRows):
    name = "bounds-float"
    fault = ("rt_bounds", bump_last_ma(1e-3))
    EXACT = False
    TOLERANCE = 1e-9
    SMALL_T = 15

    def __init__(self, seed, tiny):
        self.ts = (31, 41) if tiny else (149, 199, 249)
        super().__init__(seed)
        api = package_api()
        # loads scipy, which solve_ma_float imports on first use
        self.warm_up(api, self.SMALL_T, f"warm-up t={self.SMALL_T}")
        self.setup_checks.append(self._float_matches_exact(api, self.SMALL_T))

    def call_traced(self, api, t):
        values = api.ma_table(t, exact=False)
        return values, api.rt_lower_numeric(t, values), api.rt_upper_numeric(t, values), None

    def check_certificate(self, api, t, values, certificate):
        # the row's largest LP solved again on its own, for its residual
        w0, ma = values[0]
        solution = api.solve_ma_float(t, w0)
        expect(solution.residual <= self.TOLERANCE, "float residual <= 1e-9")
        expect(abs(solution.ma - ma) <= self.TOLERANCE, f"solve_ma_float agrees with the row at w={w0}")

    def digest_key(self, out):
        t, mas, lower, upper = out
        return t, tuple(map(significant, mas)), significant(lower), significant(upper)

    def _float_matches_exact(self, api, t):
        floats, exact = api.rt_bounds(t, exact=False), api.rt_bounds(t, exact=True)
        got = [floats.lower, floats.upper] + [d.ma for d in floats.details]
        want = [exact.lower, exact.upper] + [d.ma for d in exact.details]
        ok = len(got) == len(want) and all(abs(f - e) <= self.TOLERANCE for f, e in zip(got, want))
        return f"float matches exact within 1e-9 at t={t}", ok


WORKLOADS = {w.name: w for w in (AnalyzeMix, VerifySmall, BoundsExact, BoundsFloat)}
