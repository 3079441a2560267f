"""Spread and comparison of untraced benchmark runs, per workload and metric.

    python3 bench/compare.py spread .bench_out/results.jsonl
    python3 bench/compare.py diff BASE.jsonl NEW.jsonl

``spread`` prints, for every end-to-end metric of BENCHMARK.json, the median
of the runs and the distance between their first and third quartiles as a
share of the median, against the metric's bound. ``diff`` prints how far the
new median moved from the base median, flagging a move in the worse direction
by more than the bound. Runs whose environment stamps differ (rational
backend, library versions, cores, thread settings) are refused with exit
code 2: their numbers measure different programs. Exit code 1 means a spread
or a regression exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list[dict]:
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if not r["trace"] and not r["tiny"] and not r["inject_fault"]]


def stamps(records) -> set[str]:
    return {json.dumps(r["env"], sort_keys=True) for r in records}


def refuse_mixed(*record_sets) -> None:
    seen = set().union(*(stamps(records) for records in record_sets))
    if len(seen) > 1:
        print("refused: the runs come from different environments:", file=sys.stderr)
        for stamp in sorted(seen):
            print(f"  {stamp}", file=sys.stderr)
        sys.exit(2)


def by_workload(records) -> dict[str, dict[str, list[float]]]:
    values = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, metric in r["metrics"].items():
            values[r["workload"]][name].append(metric["value"])
    return values


def quartile_spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median), quartiles as statistics.quantiles gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def spread(path) -> int:
    records = load(path)
    refuse_mixed(records)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    status = 0
    for workload, values in sorted(by_workload(records).items()):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            median, share = quartile_spread(values[name])
            flag = "ok" if share < bound / 3 else ("WIDE" if share < bound else "OVER BOUND")
            if share >= bound:
                status = 1
            print(f"{workload:13s} {name:15s} n={len(values[name]):2d} median={median:12.5g} "
                  f"iqr/median={share:.4f} bound={bound} {flag}")
    return status


def diff(base_path, new_path) -> int:
    base, new = load(base_path), load(new_path)
    refuse_mixed(base, new)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    base_values, new_values = by_workload(base), by_workload(new)
    status = 0
    for workload in sorted(set(base_values) & set(new_values)):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            b = statistics.median(base_values[workload][name])
            n = statistics.median(new_values[workload][name])
            change = (n - b) / b
            worse = change > bound if metric["better"] == "lower" else -change > bound
            status |= worse
            print(f"{workload:13s} {name:15s} base={b:12.5g} new={n:12.5g} "
                  f"change={change:+.4f} bound={bound} {'REGRESSION' if worse else 'ok'}")
    return status


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "spread":
        return spread(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
