"""Benchmark of the priceofmajority package; see BENCHMARK.json for its metrics.

    python3 bench/run.py --workload analyze-mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workloads are described in ``workloads.py``. One process, one
closed-loop client: each item starts when the previous one has been checked.

A run sets the workload up (package import, input generation, warm-up) and
repeats that set-up in fresh processes, since the import happens once per
process; ``setup_s`` is the median of the set-ups. It then runs passes of
items until the next pass would end after ``--seconds`` (at least one
pass). ``--trace 1`` then runs a fixed number of passes again,
from the first, with a span around every call into a package module, and
reports the per-layer metrics instead of the end-to-end ones. The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it summarise the run for a
reader, with the item count and the samples beyond each latency percentile.

Every output is checked, and every output of the traced run must equal the
untraced run's for the same item. ``attempted`` counts the items plus the
checks made outside items (set-up and output digest); ``failed`` counts the
ones that raised or failed. Records of each run, the digest of the first
pass's outputs per seed and the traced run's spans go to ``--out-dir``
(default ``.bench_out`` in the checkout). A digest that differs from the one
stored for the same workload, seed and environment counts as a failure.

``--tiny`` shrinks every workload for the smoke test; ``--inject-fault``
corrupts one package result per item so that the checks must fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh child processes
SETUP_CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    parser.add_argument("--inject-fault", action="store_true", help="corrupt one result per item")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def cap_threads() -> None:
    """Cap the BLAS/OpenMP pools at the usable cores; runs before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def environment() -> dict:
    from priceofmajority import lpsolve

    backend = lpsolve._rational
    return {
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def set_up(args):
    """Build the workload; returns it with the seconds its set-up took."""
    from workloads import WORKLOADS

    start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    return workload, time.perf_counter() - start


def child_setup_seconds(args) -> float:
    command = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=SETUP_CHILD_TIMEOUT_S, check=True, cwd=ROOT)
        return json.loads(done.stdout.splitlines()[-1])["setup_s"]
    except (subprocess.SubprocessError, ValueError, IndexError, KeyError):
        return None  # counted as a failed set-up check


class Phase:
    """Items run in one phase of a run, with their latencies and failures."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds, one per item
        self.pass_ends: list[int] = []  # index in latencies where each pass ends
        self.failures: list[str] = []

    @property
    def passes(self) -> int:
        return len(self.pass_ends)

    @property
    def mean_items_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def items_per_s(self) -> float:
        """Throughput of the median pass: items over the seconds its items took.

        A median over passes keeps a burst of load from other processes, which
        slows one pass, out of the figure.
        """
        starts = [0] + self.pass_ends[:-1]
        return statistics.median(
            (end - start) / sum(self.latencies[start:end])
            for start, end in zip(starts, self.pass_ends)
        )


def run_phase(workload, api, reference: dict, seconds=None, passes=None, tracer=None) -> Phase:
    """Run passes until the next would end after ``seconds``, or exactly ``passes``.

    ``reference`` maps item keys to the outputs of the first pass; it is filled
    by the first phase, and every later output for the same key must equal it.
    """
    call = workload.call if tracer is None else workload.call_traced
    phase = Phase()
    clock = time.perf_counter_ns
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for key, payload in workload.inputs(phase.passes):
            if tracer is not None:
                tracer.begin_item(key)
            begin = clock()
            try:
                raw = call(api, payload)
            except Exception as exc:  # an item that raises is a failed item
                raw, error = None, exc
            phase.latencies.append((clock() - begin) / 1e9)
            if tracer is not None:
                tracer.end_item()
            out = None
            if raw is not None:
                try:
                    out = workload.check(api, payload, raw)
                except Exception as exc:  # a failed check, or a check that raised
                    error = exc
            if out is not None and key in reference and reference[key] != out:
                out, error = None, AssertionError("output differs from the first untraced pass")
            if phase.passes == 0 and key not in reference:
                reference[key] = out
            if out is None:
                phase.failures.append(f"item {key}: {type(error).__name__}: {error}")
        phase.pass_ends.append(len(phase.latencies))
        now = time.perf_counter()
        if passes is not None:
            if phase.passes >= passes:
                return phase
        elif now - started + (now - pass_started) > seconds:
            return phase


def percentiles(latencies: list[float]) -> dict:
    """p50/p90/p99 in ms, each with the number of samples beyond it."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    result = {}
    for p in (50, 90, 99):
        value = cuts[p - 1]
        result[p] = (value * 1e3, sum(1 for x in latencies if x > value))
    return result


def digest(workload, reference: dict) -> str:
    lines = [repr((key, None if out is None else workload.digest_key(out)))
             for key, out in reference.items()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_digest(out_dir: Path, key: str, value: str) -> tuple[bool, str]:
    """Compare with the digest stored under ``key``, storing it if absent."""
    path = out_dir / "digests.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    if key not in stored:
        stored[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        tmp.replace(path)
        return True, "stored"
    if stored[key] == value:
        return True, "matches the stored digest"
    return False, f"differs from the stored digest {stored[key][:16]}"


def main(argv=None) -> int:
    cap_threads()
    args = parse_args(argv)
    if not (SRC / "priceofmajority" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    children = [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_samples = [setup_s] + [s for s in children if s is not None]

    from tracing import Tracer, layer_metrics
    from workloads import package_api

    fault = workload.fault if args.inject_fault else None
    checks = list(workload.setup_checks)
    checks.append((f"set-up in {len(children)} fresh processes", None not in children))
    reference: dict = {}
    untraced = run_phase(workload, package_api(fault=fault), reference, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases = [untraced]

    env = environment()
    run_digest = digest(workload, reference)
    stamp = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:12]
    digest_key = f"{args.workload}|seed={args.seed}|tiny={int(args.tiny)}|fault={int(args.inject_fault)}|env={stamp}"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    digest_ok, digest_note = check_digest(args.out_dir, digest_key, run_digest)
    checks.append((f"output digest {digest_note}", digest_ok))

    pct = percentiles(untraced.latencies)
    if args.trace:
        tracer = Tracer()
        traced = run_phase(workload, package_api(tracer, fault), reference,
                           passes=1 if args.tiny else workload.TRACED_PASSES, tracer=tracer)
        phases.append(traced)
        tracer.write(args.out_dir / f"trace-{args.workload}.jsonl")
        metrics = layer_metrics(tracer, untraced.mean_items_per_s)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "items_per_s": (untraced.items_per_s, "1/s"),
            "latency_p50_ms": (pct[50][0], "ms"),
            "latency_p90_ms": (pct[90][0], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    failures = [f for phase in phases for f in phase.failures]
    failures += [what for what, ok in checks if not ok]
    attempted = sum(len(phase.latencies) for phase in phases) + len(checks)
    failed = len(failures)

    items = len(untraced.latencies)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={untraced.passes} "
          f"items={items} failed_ratio={failed / attempted:.6f} ({failed}/{attempted})")
    print("latency over {} items: ".format(items) + ", ".join(
        f"p{p}={ms:.3f} ms ({beyond} beyond{'' if beyond >= 10 else ', fewer than 10'})"
        for p, (ms, beyond) in pct.items()))
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"digest={run_digest[:16]} ({digest_note})")
    print(f"env={json.dumps(env, sort_keys=True)}")
    for failure in failures[:5]:
        print(f"FAILED {failure}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "inject_fault": args.inject_fault, "passes": untraced.passes,
        "items": items, "attempted": attempted, "failed": failed, "digest": run_digest,
        "latency_beyond": {str(p): beyond for p, (_, beyond) in pct.items()},
        "env": env, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(args.out_dir / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
