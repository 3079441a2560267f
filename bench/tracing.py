"""In-memory spans around the benchmark's calls into each package module.

A span is ``(name_id, start_ns, end_ns, parent, item)``: ``parent`` is the
index of the enclosing span in :attr:`Tracer.spans` (-1 for an item span) and
``item`` the item it belongs to. Spans are written out only when the run ends,
so the traced run does no I/O while it measures. Counters are taken at the
same call boundaries, from each call's arguments and result.

The per-layer metrics are derived from the spans of the items: a span's self
time is its duration minus the durations of its child spans. Spans of the
calls that the checks make between items (parent -1) are kept in the trace
but left out of the metrics; of the counters, only the float residual is
taken from such calls, the residual check each float row gets.
"""

from __future__ import annotations

import json
import time
from collections import Counter

ITEM = "item"


class Tracer:
    def __init__(self):
        self.names: list[str] = [ITEM]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.residual_max = 0.0
        self._item_index = -1
        self._item_id = None

    def begin_item(self, item_id) -> None:
        self._item_id = item_id
        self._item_index = len(self.spans)
        self.spans.append(None)  # filled in by end_item, after the children
        self._item_start = time.perf_counter_ns()

    def end_item(self) -> None:
        end = time.perf_counter_ns()
        self.spans[self._item_index] = (0, self._item_start, end, -1, self._item_id)
        self._item_index = -1

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span named ``name`` and calling ``count``.

        ``count(tracer, args, kwargs, result)`` runs after a call that returned.
        """
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((name_id, start, clock(), self._item_index, self._item_id))
            if count is not None and (self._item_index >= 0 or count is _count_residual):
                count(self, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """(self time in ns, call count) per span name, over the spans of items."""
        child_ns = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns, calls = Counter(), Counter()
        for index, (name_id, start, end, parent, _) in enumerate(self.spans):
            if parent < 0 and name_id != 0:
                continue  # a call made by a check, outside any item
            name = self.names[name_id]
            self_ns[name] += end - start - child_ns[index]
            calls[name] += 1
        return self_ns, calls

    def item_seconds(self) -> list[float]:
        return [(end - start) / 1e9 for name_id, start, end, _, _ in self.spans if name_id == 0]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            header = {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "item"]}
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# --- counters, keyed by the span name they are taken at --------------------------

SCANNING = ("oracle.md_of", "oracle.best_representation", "oracle.r_V", "oracle.proposal_stats")


def _count_oracle(tracer, args, kwargs, result):
    matrix = args[0]
    if not matrix.has_integer_weights() or matrix.n * matrix.t >= 2**62:
        tracer.counts["oracle.exact_path_calls"] += 1


def _count_scan(tracer, args, kwargs, result):
    _count_oracle(tracer, args, kwargs, result)
    matrix = args[0]
    tracer.counts["oracle.row_proposal_pairs"] += len(matrix.rows) << matrix.t


def _count_parse(tracer, args, kwargs, result):
    tracer.counts["matrixio.bytes"] += len(args[0].encode())


def _count_rows(tracer, args, kwargs, result):
    tracer.counts["constructions.rows"] += len(result.rows)


def _count_pivots(tracer, args, kwargs, result):
    tracer.counts["lpsolve.exact_pivots"] += result.pivots


def _count_residual(tracer, args, kwargs, result):
    tracer.residual_max = max(tracer.residual_max, result.residual)


def _count_table(tracer, args, kwargs, result):
    if result and isinstance(result[0][1], float):  # one HiGHS solve per row
        tracer.counts["lpsolve.float_table_rows"] += len(result)


COUNTERS = {
    **{name: _count_scan for name in SCANNING},
    "oracle.half_proposal": _count_oracle,
    "oracle.rule_of_three_fourths_check": _count_oracle,
    "matrixio.parse_matrix": _count_parse,
    "constructions.vlp_matrix": _count_rows,
    "lpsolve.solve_ma": _count_pivots,
    "lpsolve.solve_ma_float": _count_residual,
    "lpsolve.ma_table": _count_table,
}

# the benchmark calls ma_table in float mode only
LPSOLVE_FLOAT = ("lpsolve.solve_ma_float", "lpsolve.ma_table")


def layer_metrics(tracer: Tracer, untraced_items_per_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``untraced_items_per_s`` is the untraced run's items over the seconds they
    took, the estimator used here for the traced items.
    """
    self_ns, calls = tracer.self_times()
    counts = tracer.counts

    def layer(prefix, names=None):
        chosen = [n for n in calls if n.startswith(prefix + ".") and (names is None or n in names)]
        return sum(calls[n] for n in chosen), sum(self_ns[n] for n in chosen) / 1e9

    metrics = {}
    for name in ("oracle", "core", "sampling", "matrixio", "combinatorics", "constructions", "bounds"):
        n_calls, self_s = layer(name)
        metrics[f"{name}.calls"] = (n_calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    oracle_calls = metrics["oracle.calls"][0]
    pairs = counts["oracle.row_proposal_pairs"]
    scan_ns = sum(self_ns[n] for n in SCANNING)
    metrics["oracle.row_proposal_pairs"] = (pairs, "count")
    metrics["oracle.ns_per_pair"] = (scan_ns / pairs if pairs else 0.0, "ns")
    metrics["oracle.exact_path_share"] = (
        counts["oracle.exact_path_calls"] / oracle_calls if oracle_calls else 0.0,
        "ratio",
    )
    metrics["matrixio.bytes"] = (counts["matrixio.bytes"], "B")
    metrics["constructions.rows"] = (counts["constructions.rows"], "count")

    exact_solves, exact_s = layer("lpsolve", ("lpsolve.solve_ma",))
    pivots = counts["lpsolve.exact_pivots"]
    metrics["lpsolve.exact_solves"] = (exact_solves, "count")
    metrics["lpsolve.exact_self_s"] = (exact_s, "s")
    metrics["lpsolve.exact_pivots"] = (pivots, "count")
    metrics["lpsolve.ms_per_pivot"] = (exact_s * 1e3 / pivots if pivots else 0.0, "ms")
    _, float_s = layer("lpsolve", LPSOLVE_FLOAT)
    float_solves = calls["lpsolve.solve_ma_float"] + counts["lpsolve.float_table_rows"]
    metrics["lpsolve.float_solves"] = (float_solves, "count")
    metrics["lpsolve.float_self_s"] = (float_s, "s")
    metrics["lpsolve.float_residual_max"] = (tracer.residual_max, "abs")

    item_s = tracer.item_seconds()
    traced_items_per_s = len(item_s) / sum(item_s)
    metrics["trace.overhead_ratio"] = (traced_items_per_s / untraced_items_per_s, "ratio")
    return metrics
